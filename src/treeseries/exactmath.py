"""Exact scalar, polynomial, and size-weight arithmetic.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), re-exported as ``Rational``.  A ``UniPolynomial``
stores coefficients lowest degree first with no trailing zeros.  A
``MultiPolynomial`` over variables x0..xk maps exponent tuples to nonzero
coefficients.

A ``SizeRational`` is a restricted rational function

    P(x0, ..., xk) / (Q0(x0) * Q1(x1) * ... * Qk(xk))

with one univariate denominator per variable, where Q0 has no positive
integer root and Q1..Qk have no nonnegative integer root.  Such functions
are defined at every tuple (n0, n1, ..., nk) of subtree sizes with n0 >= 1,
and the per-variable denominator shape is preserved by sums and products,
so the set forms a ring.  Denominators are kept factored per variable and
are never expanded into a joint multivariate denominator.
"""

from __future__ import annotations

from fractions import Fraction

from . import _expr
from ._record import record
from .errors import (
    DenominatorZero,
    InputFormatError,
    InvalidDenominator,
    ZeroPolynomial,
    nesting_guard,
)

Rational = Fraction
_ONE = (Fraction(1),)  # coefficients of the constant polynomial 1


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational")


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPolynomial:
    """Univariate polynomial over the rationals, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPolynomial":
        return cls((_frac(c),))

    @classmethod
    def x(cls) -> "UniPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == _ONE

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPolynomial({list(self.coeffs)})"

    def __add__(self, other: "UniPolynomial") -> "UniPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPolynomial(out)

    def __neg__(self) -> "UniPolynomial":
        return UniPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPolynomial") -> "UniPolynomial":
        return self + (-other)

    def __mul__(self, other: "UniPolynomial") -> "UniPolynomial":
        if self.is_zero or other.is_zero:
            return UniPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPolynomial(out)

    def scale(self, c) -> "UniPolynomial":
        c = _frac(c)
        return UniPolynomial(tuple(a * c for a in self.coeffs))

    def __call__(self, point) -> Fraction:
        point = _frac(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def shift_argument(self, delta: int) -> "UniPolynomial":
        """Return p(x + delta)."""
        acc = UniPolynomial()
        base = UniPolynomial((delta, 1))
        for c in reversed(self.coeffs):
            acc = acc * base + UniPolynomial.const(c)
        return acc

    def divmod(self, other: "UniPolynomial"):
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPolynomial(), UniPolynomial(rem)
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPolynomial(quo), UniPolynomial(rem)

    def div_exact(self, other: "UniPolynomial") -> "UniPolynomial":
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise ValueError("inexact polynomial division")
        return quo

    def monic(self):
        """Return (self / leading, leading)."""
        lead = self.leading()
        return self.scale(1 / lead), lead


def poly_gcd(a: UniPolynomial, b: UniPolynomial) -> UniPolynomial:
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.monic()[0]


def poly_lcm(a: UniPolynomial, b: UniPolynomial) -> UniPolynomial:
    if a.is_zero or b.is_zero:
        return UniPolynomial()
    g = poly_gcd(a, b)
    return (a * b.div_exact(g)).monic()[0]


def poly_integer_roots(p: UniPolynomial) -> set:
    """All integer roots of p, in time polynomial in the degree and the bit
    length of the coefficients (degree two and more in ``_roots``)."""
    if p.is_zero:
        raise ZeroPolynomial("integer roots of the zero polynomial are undefined")
    if p.degree == 0:
        return set()
    if p.degree == 1:
        root = -p.coeffs[0] / p.coeffs[1]
        return {int(root)} if root.denominator == 1 else set()
    from ._roots import integer_roots

    return integer_roots(p)


# ---------------------------------------------------------------------------
# multivariate polynomials


class MultiPolynomial:
    """Polynomial in variables x0..xk, stored as exponent tuple -> coefficient.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    ``arity`` is the number of variables minus one (k), matching the number
    of children of the tree symbol the polynomial annotates.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _frac(coeff)
                if coeff == 0:
                    continue
                if len(exps) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                clean[tuple(exps)] = coeff
        self.terms = clean

    @property
    def arity(self) -> int:
        return self.nvars - 1

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPolynomial":
        c = _frac(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, index: int) -> "MultiPolynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def from_uni(cls, p: UniPolynomial, nvars: int, index: int) -> "MultiPolynomial":
        terms = {}
        for e, c in enumerate(p.coeffs):
            if c != 0:
                exps = [0] * nvars
                exps[index] = e
                terms[tuple(exps)] = c
        return cls(nvars, terms)

    def to_uni(self, index: int) -> UniPolynomial:
        """Inverse of ``from_uni``: ValueError if a variable other than
        x_index occurs."""
        coeffs = [Fraction(0)] * (self.degree_in(index) + 1)
        for exps, c in self.terms.items():
            if any(e for i, e in enumerate(exps) if i != index):
                raise ValueError(f"uses a variable other than x{index}")
            coeffs[exps[index]] += c
        return UniPolynomial(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The constant this polynomial equals, or None if non-constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            exps, c = next(iter(self.terms.items()))
            if all(e == 0 for e in exps):
                return c
        return None

    def __eq__(self, other):
        return (
            isinstance(other, MultiPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPolynomial({self.nvars}, {self.terms})"

    def sorted_terms(self):
        """Terms in descending graded lexicographic order, x0 weightiest."""
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPolynomial(self.nvars, out)

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        return self + (-other)

    def __mul__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPolynomial(self.nvars, out)

    def scale(self, c) -> "MultiPolynomial":
        c = _frac(c)
        return MultiPolynomial(self.nvars, {e: a * c for e, a in self.terms.items()})

    def pow(self, n: int) -> "MultiPolynomial":
        acc = MultiPolynomial.const(self.nvars, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __call__(self, point) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong length")
        point = [_frac(v) for v in point]
        acc = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(point, exps):
                if e:
                    term *= v**e
            acc += term
        return acc

    def degree_in(self, index: int) -> int:
        return max((e[index] for e in self.terms), default=0)

    def compose(self, images: list) -> "MultiPolynomial":
        """Substitute images[i] (polynomials over a common new variable set)
        for variable i."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nvars = images[0].nvars if images else 0
        acc = {}  # one dict for the whole sum: adding polynomials would copy it per term
        power_cache = [{0: MultiPolynomial.const(nvars, 1)} for _ in images]
        for exps, c in self.terms.items():
            term = MultiPolynomial.const(nvars, c)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = power_cache[i]
                if e not in cache:
                    p = cache[max(cache)]
                    for _ in range(max(cache), e):
                        p = p * images[i]
                        cache[max(cache) + 1] = p
                term = term * cache[e]
            for key, value in term.terms.items():
                acc[key] = acc.get(key, 0) + value
        return MultiPolynomial(nvars, acc)

    def partial(self, index: int) -> "MultiPolynomial":
        out = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            out[key] = out.get(key, Fraction(0)) + c * e
        return MultiPolynomial(self.nvars, out)


# ---------------------------------------------------------------------------
# the restricted ring of size-weight functions


def _check_denominator(q: UniPolynomial, slot: int):
    if q.is_zero:
        raise InvalidDenominator("denominator is the zero polynomial")
    roots = poly_integer_roots(q) if q.degree >= 1 else set()
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

    def constant_value(self):
        if all(q.is_one for q in self.dens):
            return self.num.constant_value()
        return None

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "SizeRational") -> "SizeRational":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        dens, lift_a, lift_b = [], [], []
        for i, (qa, qb) in enumerate(zip(self.dens, other.dens)):
            common = poly_lcm(qa, qb)
            dens.append(common)
            lift_a.append(common.div_exact(qa))
            lift_b.append(common.div_exact(qb))
        num_a, num_b = self.num, other.num
        for i in range(self.nvars):
            if not lift_a[i].is_one:
                num_a = num_a * MultiPolynomial.from_uni(lift_a[i], self.nvars, i)
            if not lift_b[i].is_one:
                num_b = num_b * MultiPolynomial.from_uni(lift_b[i], self.nvars, i)
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
        return SizeRational(self.num.scale(c), self.dens)

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
        return f"SizeRational({format_size_rational(self)!r})"

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

    def lift(self, arity: int) -> "SizeRational":
        """Reinterpret over variables x0..x_arity (padding with unused ones)."""
        nvars = arity + 1
        if nvars < self.nvars:
            raise ValueError("cannot drop variables")
        if nvars == self.nvars:
            return self
        terms = {
            exps + (0,) * (nvars - self.nvars): c for exps, c in self.num.terms.items()
        }
        dens = list(self.dens) + [UniPolynomial.const(1)] * (nvars - self.nvars)
        return SizeRational(MultiPolynomial(nvars, terms), dens)

    def substitute_sizes(self, mapping, new_arity: int) -> "SizeRational":
        """Substitute each variable by a shifted new variable or a constant.

        ``mapping[i]`` is ("var", j, delta) sending xi to (new xj) + delta, or
        ("const", value).  Var targets must be distinct so denominators stay
        univariate per variable.
        """
        nvars = new_arity + 1
        if len(mapping) != self.nvars:
            raise ValueError("need one mapping entry per variable")
        images = []
        for entry in mapping:
            if entry[0] == "var":
                _, j, delta = entry
                img = MultiPolynomial.var(nvars, j)
                if delta:
                    img = img + MultiPolynomial.const(nvars, delta)
            else:
                img = MultiPolynomial.const(nvars, entry[1])
            images.append(img)
        num = self.num.compose(images)
        dens = [UniPolynomial.const(1)] * nvars
        scale = Fraction(1)
        seen = set()
        for i, entry in enumerate(mapping):
            q = self.dens[i]
            if q.is_one:
                continue
            if entry[0] == "var":
                _, j, delta = entry
                if j in seen:
                    dens[j] = dens[j] * q.shift_argument(delta)
                else:
                    dens[j] = q.shift_argument(delta)
                    seen.add(j)
            else:
                v = q(entry[1])
                if v == 0:
                    raise DenominatorZero(
                        f"denominator for x{i} vanishes at substituted constant"
                    )
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


def legal_equal(f: SizeRational, g: SizeRational) -> bool:
    """Equality as functions on realizable size tuples (x0 = 1 + x1 + ... + xk).

    Decided exactly: f - g vanishes on that hyperplane iff its numerator does
    after substituting x0, since the denominators are nonzero off finitely
    many hyperplane slices.
    """
    if f.nvars != g.nvars:
        return False
    diff = f - g
    if diff.is_zero:
        return True
    nvars = diff.nvars
    x0_image = MultiPolynomial.const(nvars, 1)
    for i in range(1, nvars):
        x0_image = x0_image + MultiPolynomial.var(nvars, i)
    images = [x0_image] + [MultiPolynomial.var(nvars, i) for i in range(1, nvars)]
    return diff.num.compose(images).is_zero


# ---------------------------------------------------------------------------
# text format


def _split_denominator_chain(text: str):
    """Split at the '/' that introduces the denominator chain: the first '/'
    outside parentheses immediately followed (modulo spaces) by '('.  Any
    other '/' divides inside the numerator."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            rest = text[i + 1 :].lstrip()
            if rest.startswith("("):
                return text[:i], text[i + 1 :]
    return text, None


@nesting_guard(InputFormatError)
def parse_size_rational(text: str, arity: int) -> SizeRational:
    """Parse a weight: a polynomial over x0..xk in the expression syntax of
    the other text formats, then an optional denominator chain

        <polynomial> [ "/" "(" <poly in x0> ")" { "*" "(" <poly in xi> ")" } ]

    whose factor i may only use xi."""
    nvars = arity + 1
    var_index = {f"x{i}": i for i in range(nvars)}

    def polynomial(ts, what: str) -> MultiPolynomial:
        value = _expr.to_ratfunc(_expr.parse_expression(ts), var_index, nvars)
        if not value.is_polynomial():
            raise InputFormatError(f"{what} of {text!r} is not a polynomial")
        return value.num

    num_text, den_text = _split_denominator_chain(text)
    ts = _expr.TokenStream(_expr.tokenize(num_text))
    num = polynomial(ts, "the numerator")
    ts.expect_end()
    dens = [UniPolynomial.const(1)] * nvars
    if den_text is not None:
        ts = _expr.TokenStream(_expr.tokenize(den_text))
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


def format_unipoly(p: UniPolynomial, var: str = "x0") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def format_multipoly(p: MultiPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        mag = abs(c)
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            body = str(mag)
        else:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def format_size_rational(f: SizeRational) -> str:
    """Canonical text form; parses back to an equal SizeRational."""
    num = format_multipoly(f.num)
    if all(q.is_one for q in f.dens):
        return num
    if len(f.num.terms) > 1 or num.startswith("-"):
        num = f"({num})"
    last = max(i for i, q in enumerate(f.dens) if not q.is_one)
    chain = "*".join(
        f"({format_unipoly(f.dens[i], f'x{i}')})" for i in range(last + 1)
    )
    return f"{num}/{chain}"


# ---------------------------------------------------------------------------
# sparse weight matrices


def _is_zero_entry(entry) -> bool:
    return entry.is_zero if isinstance(entry, SizeRational) else entry == 0


class WeightMatrix:
    """A weight matrix of ``shape`` (rows, cols) stored as its nonzero cells.

    ``cells`` maps (row, col) to a nonzero entry, in row-major order: a
    Fraction for a nullary symbol, else a SizeRational of ``arity``.  Zero
    entries are dropped on construction.  Indexing and iteration read the
    matrix as dense row tuples, built on demand; computations use ``cells``.
    """

    __slots__ = ("shape", "arity", "cells", "_by_row", "_zero_row")

    def __init__(self, shape, arity: int, cells):
        self.shape = tuple(shape)
        self.arity = arity
        self.cells = {
            key: entry for key, entry in sorted(cells.items()) if not _is_zero_entry(entry)
        }
        self._by_row = None
        self._zero_row = None

    @classmethod
    def from_rows(cls, rows, arity: int) -> "WeightMatrix":
        rows = [tuple(row) for row in rows]
        shape = (len(rows), len(rows[0]) if rows else 0)
        cells = {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)}
        return cls(shape, arity, cells)

    # -- the dense row view ---------------------------------------------------

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        nrows, ncols = self.shape
        if not -nrows <= i < nrows:
            raise IndexError("weight row index out of range")
        if self._by_row is None:
            self._by_row = {}
            for (r, c), entry in self.cells.items():
                self._by_row.setdefault(r, []).append((c, entry))
            zero = Fraction(0) if self.arity == 0 else SizeRational(MultiPolynomial(self.arity + 1))
            self._zero_row = (zero,) * ncols
        found = self._by_row.get(i % nrows)
        if found is None:
            return self._zero_row
        row = list(self._zero_row)
        for c, entry in found:
            row[c] = entry
        return tuple(row)

    def __iter__(self):
        for i in range(self.shape[0]):
            yield self[i]

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return (self.shape, self.arity, self.cells) == (other.shape, other.arity, other.cells)

    __hash__ = None

    def __repr__(self):
        return (
            f"WeightMatrix({self.shape[0]}x{self.shape[1]}, arity {self.arity},"
            f" {len(self.cells)} nonzero cells)"
        )


# ---------------------------------------------------------------------------
# common-denominator normal form


@record
class SymbolDecomposition:
    """One symbol's share of the common-denominator normal form."""

    arity: int
    child_denominators: tuple  # one UniPolynomial per child variable x1..xk
    matrices: dict  # exponent tuple (i1..ik) -> {(row, col): nonzero Fraction}
    shape: tuple  # (rows, cols) of every matrix


@record
class CommonDenominatorForm:
    q0: UniPolynomial  # shared denominator in x0 (monic lcm)
    symbols: dict  # symbol name -> SymbolDecomposition
    r: int  # max child-variable exponent across all numerators

    def reassemble(self, name: str) -> WeightMatrix:
        """Rebuild the weight matrix of one symbol as SizeRational entries."""
        dec = self.symbols[name]
        nvars = dec.arity + 1
        dens = [self.q0] + list(dec.child_denominators)
        terms = {}
        for exps, cells in dec.matrices.items():
            for key, c in cells.items():
                terms.setdefault(key, {})[(0,) + exps] = c
        cells = {
            key: SizeRational(MultiPolynomial(nvars, monomials), dens)
            for key, monomials in terms.items()
        }
        return WeightMatrix(dec.shape, dec.arity, cells)


def _lcm_of(dens) -> UniPolynomial:
    """Monic lcm of the distinct polynomials in ``dens``; 1 when there are none."""
    out = UniPolynomial.const(1)
    for den in dict.fromkeys(dens):
        if not den.is_one:
            out = poly_lcm(out, den)
    return out


def normalize_common_denominator(weights) -> CommonDenominatorForm:
    """Put all non-nullary weight matrices over a common denominator.

    ``weights`` is a list of (name, arity, matrix) with arity >= 1 and matrix
    a WeightMatrix or a sequence of rows of SizeRational; only nonzero cells
    are read.  Numerator occurrences of x0 are rewritten via
    x0 = 1 + x1 + ... + xk, which leaves the weight unchanged at every
    realizable size tuple.
    """
    weights = [
        (name, k, m if isinstance(m, WeightMatrix) else WeightMatrix.from_rows(m, k))
        for name, k, m in weights
    ]
    # cells share a few denominators: fold and divide each distinct one once
    q0 = _lcm_of(entry.dens[0] for _, _, matrix in weights for entry in matrix.cells.values())
    symbols = {}
    r = 0
    for name, k, matrix in weights:
        nvars = k + 1
        child_dens = [
            _lcm_of(entry.dens[i] for entry in matrix.cells.values()) for i in range(1, nvars)
        ]
        lcms = [q0] + child_dens
        # images for eliminating x0 from numerators: x0 -> 1 + x1 + ... + xk
        x0_image = MultiPolynomial.const(nvars, 1)
        for i in range(1, nvars):
            x0_image = x0_image + MultiPolynomial.var(nvars, i)
        images = [x0_image] + [MultiPolynomial.var(nvars, i) for i in range(1, nvars)]
        cofactors = {}  # (variable, denominator) -> multiplier in x_v, None for 1
        matrices = {}
        for key, entry in matrix.cells.items():
            num = entry.num
            for v in range(nvars):
                den = entry.dens[v]
                if (v, den) not in cofactors:
                    cof = lcms[v].div_exact(den)
                    cofactors[v, den] = (
                        None if cof.is_one else MultiPolynomial.from_uni(cof, nvars, v)
                    )
                if cofactors[v, den] is not None:
                    num = num * cofactors[v, den]
            if num.degree_in(0) > 0:
                num = num.compose(images)
            for exps, c in num.terms.items():
                matrices.setdefault(exps[1:], {})[key] = c
        for exps in matrices:
            r = max(r, max(exps, default=0))
        if not matrices:
            matrices[(0,) * k] = {}
        symbols[name] = SymbolDecomposition(k, tuple(child_dens), matrices, matrix.shape)
    return CommonDenominatorForm(q0, symbols, r)
