"""Exact scalars and size-weight arithmetic, with their text format.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), re-exported as ``Rational``.

A ``SizeRational`` is a restricted rational function

    P(x0, ..., xk) / (Q0(x0) * Q1(x1) * ... * Qk(xk))

with one univariate denominator per variable, where Q0 has no positive
integer root and Q1..Qk have no nonnegative integer root.  Such functions
are defined at every tuple (n0, n1, ..., nk) of subtree sizes with n0 >= 1,
and the per-variable denominator shape is preserved by sums and products,
so the set forms a ring.  Denominators are kept factored per variable and
are never expanded into a joint multivariate denominator.

This module defines ``SizeRational`` and its parser.  The polynomials it is
built on live in ``_poly``, and the sparse weight matrices and the
common-denominator normal form in ``_weights``; the names of theirs that
other modules read here (``UniPolynomial``, ``MultiPolynomial``,
``poly_gcd``, ``poly_lcm``, ``poly_integer_roots``, ``WeightMatrix``,
``CommonDenominatorForm``, ``normalize_common_denominator``) are bound to
the defining objects.  The text forms (``format_*``) live in ``_format``
and are read from it on first use (``__getattr__`` below).
"""

from __future__ import annotations

from fractions import Fraction

from . import _expr, _format
from ._poly import MultiPolynomial, UniPolynomial, _frac, poly_gcd, poly_integer_roots, poly_lcm
from ._weights import CommonDenominatorForm, WeightMatrix, normalize_common_denominator
from .errors import DenominatorZero, InputFormatError, InvalidDenominator, nesting_guard

Rational = Fraction

_FORMAT_NAMES = frozenset(("format_multipoly", "format_size_rational", "format_unipoly"))


def __getattr__(name):
    if name in _FORMAT_NAMES:
        return getattr(_format, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# the restricted ring of size-weight functions


def _check_denominator(q: UniPolynomial, slot: int):
    if q.is_zero:
        raise InvalidDenominator("denominator is the zero polynomial")
    roots = poly_integer_roots(q)
    if slot == 0:
        bad = {r for r in roots if r >= 1}
    else:
        bad = {r for r in roots if r >= 0}
    if bad:
        raise InvalidDenominator(
            f"denominator for x{slot} has forbidden integer root(s) {sorted(bad)}"
        )


class SizeRational:
    """Element of the restricted ring of size-weight functions.

    Canonical form: every denominator is monic (the constant 1 when trivial),
    with all numeric scale carried by the numerator; the zero element has
    numerator 0 and all denominators 1.
    """

    __slots__ = ("num", "dens")

    def __init__(self, num: MultiPolynomial, dens=None):
        nvars = num.nvars
        if dens is None:
            dens = [UniPolynomial.const(1)] * nvars
        dens = list(dens)
        if len(dens) != nvars:
            raise ValueError("need one denominator per variable")
        if num.is_zero:
            self.num = num
            self.dens = tuple(UniPolynomial.const(1) for _ in range(nvars))
            return
        scale = Fraction(1)
        monic = []
        for slot, q in enumerate(dens):
            _check_denominator(q, slot)
            if q.degree == 0:
                scale *= q.coeffs[0]
                monic.append(UniPolynomial.const(1))
            else:
                m, lead = q.monic()
                scale *= lead
                monic.append(m)
        self.num = num.scale(1 / scale) if scale != 1 else num
        self.dens = tuple(monic)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, arity: int, c) -> "SizeRational":
        return cls(MultiPolynomial.const(arity + 1, c))

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "SizeRational") -> "SizeRational":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        nvars = self.nvars
        num_a, num_b, dens = self.num, other.num, []
        for i, (qa, qb) in enumerate(zip(self.dens, other.dens)):
            if qa == qb:  # the usual case: no lcm, nothing to lift
                dens.append(qa)
                continue
            common = poly_lcm(qa, qb)
            dens.append(common)
            lift_a, lift_b = common.div_exact(qa), common.div_exact(qb)
            if not lift_a.is_one:
                num_a = num_a * MultiPolynomial.from_uni(lift_a, nvars, i)
            if not lift_b.is_one:
                num_b = num_b * MultiPolynomial.from_uni(lift_b, nvars, i)
        return SizeRational(num_a + num_b, dens)

    def __neg__(self) -> "SizeRational":
        return SizeRational(-self.num, self.dens)

    def __sub__(self, other: "SizeRational") -> "SizeRational":
        return self + (-other)

    def __mul__(self, other: "SizeRational") -> "SizeRational":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        if self.is_zero or other.is_zero:
            return SizeRational(MultiPolynomial(self.nvars))
        dens = [qa * qb for qa, qb in zip(self.dens, other.dens)]
        return SizeRational(self.num * other.num, dens)

    def scale(self, c) -> "SizeRational":
        # self's denominators are monic and checked already
        num = self.num.scale(c)
        if num.is_zero:
            return SizeRational(num)
        out = object.__new__(SizeRational)
        out.num, out.dens = num, self.dens
        return out

    def __eq__(self, other):
        if not isinstance(other, SizeRational) or self.nvars != other.nvars:
            return False
        lhs, rhs = self.num, other.num
        for i in range(self.nvars):
            if not other.dens[i].is_one:
                lhs = lhs * MultiPolynomial.from_uni(other.dens[i], self.nvars, i)
            if not self.dens[i].is_one:
                rhs = rhs * MultiPolynomial.from_uni(self.dens[i], self.nvars, i)
        return lhs == rhs

    def __repr__(self):
        return f"SizeRational({_format.format_size_rational(self)!r})"

    # -- evaluation and substitution ----------------------------------------

    def __call__(self, point) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong length")
        if self.is_zero:
            return Fraction(0)
        den = Fraction(1)
        for i, q in enumerate(self.dens):
            v = q(point[i])
            if v == 0:
                raise DenominatorZero(
                    f"denominator for x{i} vanishes at {point[i]}"
                )
            den *= v
        return self.num(point) / den

    def substitute_sizes(self, shifts) -> "SizeRational":
        """Substitute x_i + shifts[i] for each x_i with i < len(shifts), and 0
        for every later variable; the result is over x0..x_{len(shifts)-1}."""
        nvars = len(shifts)
        if not 0 < nvars <= self.nvars:
            raise ValueError("need one shift per kept variable, x0 included")
        var, const = MultiPolynomial.var, MultiPolynomial.const
        images = [var(nvars, i) + const(nvars, s) if s else var(nvars, i)
                  for i, s in enumerate(shifts)]
        images += [const(nvars, 0) for _ in range(nvars, self.nvars)]
        num = self.num.compose(images)
        dens = [UniPolynomial.const(1)] * nvars
        scale = Fraction(1)
        for i, q in enumerate(self.dens):
            if q.is_one:
                continue
            if i < nvars:
                dens[i] = q.shift_argument(shifts[i])
                continue
            v = q(0)
            if v == 0:
                raise DenominatorZero(f"denominator for x{i} vanishes at 0")
            scale *= v
        if scale != 1:
            num = num.scale(1 / scale)
        return SizeRational(num, dens)

    def mul_univariate(self, p: UniPolynomial, q: UniPolynomial, index: int) -> "SizeRational":
        """Multiply by the univariate rational p(x_index)/q(x_index)."""
        num = self.num * MultiPolynomial.from_uni(p, self.nvars, index)
        dens = list(self.dens)
        dens[index] = dens[index] * q
        return SizeRational(num, dens)


def size_rational_eval(f: SizeRational, point) -> Fraction:
    """Exact value of f at a tuple of sizes."""
    return f(point)


# ---------------------------------------------------------------------------
# text format


@nesting_guard(InputFormatError)
def parse_size_rational(text: str, arity: int) -> SizeRational:
    """Parse a weight: a polynomial over x0..xk in the expression syntax of
    the other text formats, then an optional denominator chain

        <polynomial> [ "/" "(" <poly in x0> ")" { "*" "(" <poly in xi> ")" } ]

    whose factor i may only use xi.  The chain starts at the first '/'
    outside parentheses followed by '('; any other '/' divides inside the
    numerator."""
    nvars = arity + 1
    var_index = {f"x{i}": i for i in range(nvars)}

    def polynomial(ts, what: str) -> MultiPolynomial:
        value = _expr.to_ratfunc(_expr.parse_expression(ts), var_index, nvars)
        if not value.is_polynomial():
            raise InputFormatError(f"{what} of {text!r} is not a polynomial")
        return value.num

    tokens = _expr.tokenize(text)
    depth, cut = 0, len(tokens) - 1  # the chain's '/', else the end token
    for i, tok in enumerate(tokens):
        depth += (tok.kind == "(") - (tok.kind == ")")
        if tok.kind == "/" and depth == 0 and tokens[i + 1].kind == "(":
            cut = i
            break
    end = tokens[cut]
    ts = _expr.TokenStream(tokens[:cut] + [_expr.Token("end", "", end.line, end.column)])
    num = polynomial(ts, "the numerator")
    ts.expect_end()
    dens = [UniPolynomial.const(1)] * nvars
    if end.kind == "/":
        ts = _expr.TokenStream(tokens[cut + 1 :])
        slot = 0
        while True:
            ts.expect("(")
            factor = polynomial(ts, f"denominator factor #{slot}")
            ts.expect(")")
            if slot >= nvars:
                raise InputFormatError("more denominator factors than variables")
            try:
                dens[slot] = factor.to_uni(slot)
            except ValueError:
                raise InputFormatError(
                    f"denominator factor #{slot} must only use x{slot}"
                ) from None
            slot += 1
            if not ts.accept("*"):
                break
        ts.expect_end()
    return SizeRational(num, dens)
