"""Generating-function coefficients and exact series-prefix arithmetic.

The coefficient vectors a_n of an automaton satisfy

    a_0 = sum of nullary weight rows
    a_n = sum over symbols g of arity k >= 1, and over n1+...+nk = n-1, of
          (a_n1 (x) ... (x) a_nk) . mu(g)(n, n1, ..., nk)

The common-denominator form of the weights (exactmath) writes each weight as

    mu(g)(n, n1, ..., nk) = 1/Q0(n) * sum_e M_{g,e} * prod_i n_i^e_i / Q_{g,i}(n_i)

on every realizable size tuple, so a_n[col] is 1/Q0(n) times the sum, over
the nonzero cells c = M_{g,e}[row][col], of c times the k-fold Cauchy
convolution at n-1 of the scalar sequences

    s_i[m] = m^e_i * a_m[row_i] / Q_{g,i}(m).

ConvolutionEngine extends every such sequence by one term per coefficient
and keeps the partial convolutions s_1 * ... * s_j (j < k), shared by all
cells, rows and symbols with the same leading sequences.  A coefficient then
costs O(k n) products per cell, where summing over compositions costs
O(n^(k-1)) weight evaluations.  This is the naive quadratic form of online
series multiplication (van der Hoeven, "Relax, but don't be too lazy",
JSC 2002).  The generating prefix is the first component of each vector.

The arithmetic is fraction-free.  Each sequence and partial convolution is
a list of integer numerators over one shared integer denominator D; a term
is reduced before it is appended, and when its denominator r does not
divide D, D and every stored numerator are multiplied by r / gcd(D, r)
(lifting).  So the convolution of two sequences at index m is one integer
dot product over the product of their denominators, and a component of a_n
is summed as an integer fraction and becomes a Fraction only when it is
divided by Q0(n).  D grows to the lcm of the term denominators seen so far,
which can be far longer than any reduced term (the permutations count keeps
9-bit terms over a D of several hundred bits); lifting then costs one
multiplication per stored term and happens only when a new factor appears.
brute_force_coefficient recomputes a_n by summing mu~ over every tree of
size n and is the independent oracle for the engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import core
from ._record import record
from .core import Automaton, unrank_row
from .exactmath import (
    CommonDenominatorForm,
    UniPolynomial,
    _frac,
    normalize_common_denominator,
)


@record
class SeriesPrefix:
    coefficients: tuple  # of Fraction, index n holds the coefficient of x^n

    @classmethod
    def of(cls, *values) -> "SeriesPrefix":
        return cls(tuple(_frac(v) for v in values))

    def __len__(self):
        return len(self.coefficients)

    def __getitem__(self, n):
        return self.coefficients[n]


@record
class VectorSeriesPrefix:
    vectors: tuple  # of row tuples, all of one length d

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, n):
        return self.vectors[n]

    def firsts(self) -> SeriesPrefix:
        return SeriesPrefix(tuple(v[0] for v in self.vectors))


def series_add(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    n = min(len(s1), len(s2))
    return SeriesPrefix(tuple(s1[i] + s2[i] for i in range(n)))


def series_scale(s: SeriesPrefix, c) -> SeriesPrefix:
    c = _frac(c)
    return SeriesPrefix(tuple(a * c for a in s.coefficients))


def series_cauchy(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    n = min(len(s1), len(s2))
    out = []
    for m in range(n):
        out.append(sum((s1[i] * s2[m - i] for i in range(m + 1)), Fraction(0)))
    return SeriesPrefix(tuple(out))


def s_derive(s: SeriesPrefix) -> SeriesPrefix:
    """The operator f -> x f' on prefixes: coefficient n becomes n * a_n."""
    return SeriesPrefix(tuple(n * a for n, a in enumerate(s.coefficients)))


def initial_vector(a: Automaton) -> tuple:
    """a_0: the sum of the nullary weight rows."""
    a0 = [Fraction(0)] * a.dimension
    for name in a.alphabet.of_arity(0):
        for (_, j), v in a.weight(name).cells.items():
            a0[j] += v
    return tuple(a0)


def common_form(a: Automaton) -> CommonDenominatorForm:
    """The common-denominator form of the non-nullary weights of a."""
    weights = [
        (name, k, a.weight(name)) for name, k in a.alphabet.symbols if k >= 1
    ]
    return normalize_common_denominator(weights)


class _Terms:
    """A scaled sequence or a partial convolution: term m is nums[m] / den.

    Terms are appended in lowest terms; when a term's denominator does not
    divide den, every stored numerator is lifted by the missing factor first.
    """

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums = []
        self.den = 1

    def append(self, num: int, den: int):
        """Append num/den, given in lowest terms with den > 0."""
        shared = self.den
        if shared % den:
            lift = den // gcd(shared, den)
            self.nums = [x * lift for x in self.nums]
            shared = self.den = shared * lift
        self.nums.append(num * (shared // den))


class ConvolutionEngine:
    """Coefficient vectors a_0, a_1, ... from a_0 and a common-denominator form.

    Scaled sequences are keyed by (Q, e, state), partial convolutions by the
    tuple of their sequence keys; each grows by one term per coefficient and
    is stored as _Terms, integer numerators over one shared denominator that
    is lifted only when a new term's reduced denominator does not divide it.
    Convolutions of a cell's full key are needed at one index only and are
    not stored.  The polynomials Q are evaluated with integer coefficients,
    cell coefficients are integers over their common denominator, and each
    component of a_n is summed as an integer numerator and denominator: it
    becomes a Fraction once, when it is divided by Q0(n).
    """

    def __init__(self, a0, form: CommonDenominatorForm):
        self.vectors = [tuple(a0)]
        self._q0 = _cleared(form.q0)
        d = len(a0)
        cells = {}  # full key -> [(col, coefficient)]
        for dec in form.symbols.values():
            for exps, matrix in dec.matrices.items():
                for (row, col), c in matrix.items():
                    states = unrank_row(row, d, dec.arity)
                    key = tuple(zip(dec.child_denominators, exps, states))
                    cells.setdefault(key, []).append((col, c))
        sequences = {}  # (Q, e, state) -> its terms
        partials = {}  # key prefix of length 2..k-1 -> its convolution
        for key in cells:
            for part in key:
                sequences.setdefault(part, _Terms())
            for j in range(2, len(key)):
                partials.setdefault(key[:j], _Terms())

        def factor(prefix):  # the convolution of the sequences in prefix
            if len(prefix) > 1:
                return partials[prefix]
            return sequences[prefix[0]] if prefix else None

        scalings = {}  # (Q, e) -> its index in self._scalings
        self._sequences = [
            (state, scalings.setdefault((q, e), len(scalings)), terms)
            for (q, e, state), terms in sequences.items()
        ]
        self._scalings = [_cleared(q) + (e,) for q, e in scalings]
        # a prefix is inserted before its extensions, so this order computes
        # every left factor before it is used
        self._partials = [
            (factor(prefix[:-1]), sequences[prefix[-1]], terms)
            for prefix, terms in partials.items()
        ]
        den = self._cell_den = lcm(*(c.denominator for t in cells.values() for _, c in t))
        self._cells = [
            (
                factor(key[:-1]),
                sequences[key[-1]],
                [(col, c.numerator * (den // c.denominator)) for col, c in targets],
            )
            for key, targets in cells.items()
        ]

    def up_to(self, n_max: int):
        while len(self.vectors) <= n_max:
            self._step()
        return self.vectors[: n_max + 1]

    def _step(self):
        m = len(self.vectors) - 1
        last = self.vectors[m]
        # m^e / Q(m) as (numerator, positive denominator), computed on first use
        scales = [None] * len(self._scalings)
        for state, i, terms in self._sequences:
            v = last[state]
            if not v:
                terms.nums.append(0)
                continue
            scale = scales[i]
            if scale is None:
                poly, c, e = self._scalings[i]
                q = _at(poly, m)
                if not q:
                    raise ZeroDivisionError(f"denominator vanishes at size {m}")
                scale = scales[i] = (m**e * c, q) if q > 0 else (-(m**e) * c, -q)
            num = v.numerator * scale[0]
            den = v.denominator * scale[1]
            g = gcd(num, den)
            terms.append(num // g, den // g)
        for left, right, terms in self._partials:
            num = _dot(left, right)
            if num:
                den = left.den * right.den
                g = gcd(num, den)
                terms.append(num // g, den // g)
            else:
                terms.nums.append(0)
        nums, dens = [0] * len(last), [1] * len(last)
        for left, right, targets in self._cells:
            if left is None:
                num, den = right.nums[m], right.den
            else:
                num, den = _dot(left, right), left.den * right.den
            if not num:
                continue
            for col, c in targets:
                acc = nums[col]
                if not acc:
                    nums[col], dens[col] = c * num, den
                elif dens[col] == den:
                    nums[col] = acc + c * num
                else:
                    g = gcd(dens[col], den)
                    nums[col] = acc * (den // g) + c * num * (dens[col] // g)
                    dens[col] = dens[col] // g * den
        q0_poly, q0_den = self._q0
        q = _at(q0_poly, m + 1) * self._cell_den
        self.vectors.append(
            tuple(Fraction(num * q0_den, den * q) for num, den in zip(nums, dens))
        )


def _cleared(q: UniPolynomial) -> tuple:
    """(P, c) with q = P / c: P holds integer coefficients, highest degree
    first, and c > 0."""
    c = lcm(*(x.denominator for x in q.coeffs))
    return tuple(int(x * c) for x in reversed(q.coeffs)), c


def _at(poly: tuple, m: int) -> int:
    acc = 0
    for a in poly:
        acc = acc * m + a
    return acc


def _dot(left: _Terms, right: _Terms) -> int:
    """Numerator, over left.den * right.den, of the coefficient at the last
    index of the Cauchy product of two equally long sequences."""
    return sum(map(mul, left.nums, reversed(right.nums)))


class CoefficientStream:
    """Resumable cache of the coefficient vectors of one automaton.

    The engine, and the common-denominator form it runs on, is built on the
    first request for a coefficient of size >= 1; pass ``form`` when it is
    already at hand.  Not safe to share between threads; create one per
    consumer.
    """

    def __init__(self, automaton: Automaton, form: CommonDenominatorForm = None):
        self.automaton = automaton
        self._form = form
        self._a0 = initial_vector(automaton)
        self._engine = None

    def up_to(self, n_max: int):
        if self._engine is None:
            if n_max < 1:
                return [self._a0][: n_max + 1]
            form = self._form if self._form is not None else common_form(self.automaton)
            self._engine = ConvolutionEngine(self._a0, form)
        return self._engine.up_to(n_max)


def coefficients(a: Automaton, n_max: int) -> VectorSeriesPrefix:
    """Coefficient vectors a_0..a_n_max, computed by ConvolutionEngine."""
    return VectorSeriesPrefix(tuple(CoefficientStream(a).up_to(n_max)))


def generating_prefix(a: Automaton, n_max: int) -> SeriesPrefix:
    """First components of the coefficient vectors: the generating function."""
    return coefficients(a, n_max).firsts()


def brute_force_coefficient(a: Automaton, n: int):
    """Sum of mu~(t) over every tree of size n, by exhaustive enumeration."""
    acc = [Fraction(0)] * a.dimension
    for vec in core.mu_tildes(a, core.enumerate_trees(a.alphabet, n)):
        for j, v in enumerate(vec):
            acc[j] += v
    return tuple(acc)
