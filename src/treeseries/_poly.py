"""Exact polynomials over the rationals.

A ``UniPolynomial`` stores coefficients lowest degree first with no trailing
zeros.  A ``MultiPolynomial`` over variables x0..xk maps exponent tuples to
nonzero coefficients.  Neither is changed after construction, so results
may share them (``p.pow(1)`` is ``p``).  ``exactmath`` builds the size-weight
functions on them and binds every name defined here but ``_ONE``, ``grlex`` and
``power``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroPolynomial

_ONE = (Fraction(1),)  # coefficients of the constant polynomial 1


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational")


def grlex(term):
    """Graded lexicographic sort key of a term (exponents, coefficient)."""
    return sum(term[0]), term[0]


def power(base, e: int, one):
    """base**e for e >= 0 by repeated squaring, in at most 2*log2(e) products;
    ``one`` is the value for e = 0."""
    acc = None
    while e:
        if e & 1:
            acc = base if acc is None else acc * base
        e >>= 1
        if e:
            base = base * base
    return one if acc is None else acc


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPolynomial:
    """Univariate polynomial over the rationals, lowest degree first."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else _frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._hash = None  # hash(coeffs), on first use: cache keys hash it often

    @classmethod
    def const(cls, c) -> "UniPolynomial":
        return cls((c,))

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
        return self is other or (
            isinstance(other, UniPolynomial) and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

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

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = _frac(coeff)
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong length")
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None

    @property
    def arity(self) -> int:
        return self.nvars - 1

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPolynomial":
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
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"MultiPolynomial({self.nvars}, {self.terms})"

    def sorted_terms(self):
        """Terms in descending graded lexicographic order, x0 weightiest."""
        return sorted(self.terms.items(), key=grlex, reverse=True)

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out[exps] + c if exps in out else c
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
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return MultiPolynomial(self.nvars, out)

    def scale(self, c) -> "MultiPolynomial":
        c = _frac(c)
        return MultiPolynomial(self.nvars, {e: a * c for e, a in self.terms.items()})

    def pow(self, n: int) -> "MultiPolynomial":
        return power(self, n, MultiPolynomial.const(self.nvars, 1))

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
        power_cache = [{} for _ in images]
        for exps, c in self.terms.items():
            term = MultiPolynomial.const(nvars, c)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = power_cache[i]
                if e not in cache:
                    cache[e] = images[i].pow(e)
                term = term * cache[e]
            for key, value in term.terms.items():
                acc[key] = acc[key] + value if key in acc else value
        return MultiPolynomial(nvars, acc)

    def restrict(self, keep) -> "MultiPolynomial":
        """The polynomial over len(keep) variables whose variable j is
        variable keep[j] of this one, every variable not in keep set to 0:
        ``compose`` with variables and zeros as images, without a product."""
        kept = set(keep)
        dropped = [i for i in range(self.nvars) if i not in kept]
        terms = {}
        for exps, c in self.terms.items():
            if not any(exps[i] for i in dropped):
                terms[tuple(exps[i] for i in keep)] = c
        return MultiPolynomial(len(keep), terms)

    def partial(self, index: int) -> "MultiPolynomial":
        out = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            out[key] = out[key] + c * e if key in out else c * e
        return MultiPolynomial(self.nvars, out)
