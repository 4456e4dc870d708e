"""Generating-function coefficients and exact series-prefix arithmetic.

The coefficient vectors a_n of an automaton satisfy

    a_0 = sum of nullary weight rows
    a_n = sum over symbols g of arity k >= 1, and over n1+...+nk = n-1, of
          (a_n1 (x) ... (x) a_nk) . mu(g)(n, n1, ..., nk)

The common-denominator form of the weights (exactmath) writes each weight as

    mu(g)(n, n1, ..., nk) = 1/Q0(n) * sum_e M_{g,e} * prod_i n_i^e_i / Q_{g,i}(n_i)

on every realizable size tuple, so a_n[col] is 1/Q0(n) times the sum, over
the nonzero cells c = M_{g,e}[row][col], of c times the k-fold Cauchy
convolution at m = n-1 of the sequences s_i[m] = m^e_i a_m[row_i] / Q_{g,i}(m).
As n1+...+nk = m, ConvolutionEngine puts nk = m - n1 - ... - n(k-1) into
nk^ek, making c a polynomial in m, where that merges cells.  Cells of
constant c_j that share all children but the last, L, and a column need one
convolution, sum_j c_j (L * R_j) = L * sum_j c_j R_j, where that saves some.
It extends each sequence by one term per coefficient and keeps the partial
convolutions s_1 * ... * s_j (j < k) that cells share: the naive quadratic
form of online series multiplication (van der Hoeven, "Relax, but don't be
too lazy", JSC 2002).  Each is kept fraction-free, as integer numerators
over one denominator that is lifted when a term brings a new factor, so a
convolution is one integer dot product.  brute_force_coefficient, which sums
mu~ over every tree of size n with the tree evaluator of ``_trees``, is the
engine's independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import dropwhile
from math import gcd, lcm
from operator import add, mul, not_

from . import _trees, cli
from .core import Automaton, initial_vector, record, unrank_row
from .exactmath import CommonDenominatorForm, UniPolynomial, _frac, normalize_common_denominator

_ZERO = Fraction(0)


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


def common_form(a: Automaton) -> CommonDenominatorForm:
    """The common-denominator form of the non-nullary weights of a."""
    weights = [
        (name, k, a.weight(name)) for name, k in a.alphabet.symbols if k >= 1
    ]
    return normalize_common_denominator(weights)


class _Terms:
    """A sequence or partial convolution: term m is nums[m] / den."""

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums = []
        self.den = 1

    def append(self, num: int, den: int):
        """Append num/den, den != 0."""
        if not num:
            return self.nums.append(0)
        g = gcd(num, den)
        if den < 0:
            g = -g
        num, den = num // g, den // g
        shared = self.den
        if shared % den:
            lift = den // gcd(shared, den)
            self.nums = [x * lift for x in self.nums]
            shared = self.den = shared * lift
        self.nums.append(num * (shared // den))


class ConvolutionEngine:
    """Coefficient vectors a_0, a_1, ... from a_0 and a common-denominator form.

    A cell key holds (Q, e, state) per child; keys with equal Qs and states
    form a family.  Where expanding n_k^e_k by n_k = m - n_1 - ... - n_(k-1)
    and merging equal keys leaves a family fewer keys, the engine uses that
    form: the cells (0,0), (1,0), (0,1) that x0 = 1 + x1 + x2 makes of c*x0
    become one, (m + 1) c at (0,0).  The form keeps x0, as bound, the
    verdicts and emit-system print what they read from it.  Then the cells of
    constant c of a left factor (all children but the last) that reach fewer
    columns than there are cells become one cell per column, whose sequence
    sums its members (c, Q, e, state) as c * a_m[state] * m^e / Q(m); a plain
    sequence is one member with c = 1.
    """

    def __init__(self, a0, form: CommonDenominatorForm):
        self.vectors = [tuple(a0)]
        self._q0 = _cleared(form.q0)
        d = len(a0)
        dens = {c.denominator for dec in form.symbols.values()
                for matrix in dec.matrices.values() for c in matrix.values()}
        den = 1  # largest first: a q that divides den costs a remainder, not an lcm
        for q in sorted(dens, reverse=True):
            if den % q:
                den = lcm(den, q)
        self._cell_den = den
        quotients = {q: den // q for q in dens}
        families = {}  # (Q_1..Q_k, states) -> {(e_1..e_k): [(col, c * den)]}
        for dec in form.symbols.values():
            for exps, matrix in dec.matrices.items():
                for (row, col), c in matrix.items():
                    family = (dec.child_denominators, unrank_row(row, d, dec.arity))
                    families.setdefault(family, {}).setdefault(exps, []).append(
                        (col, c.numerator * quotients[c.denominator])
                    )
        cells = {}  # full key -> [(col, integer or integer polynomial in m)]
        expansions = {}  # k -> the terms of (m - n_1 - ... - n_(k-1))^e, by e
        for (qs, states), keys in families.items():
            if any(exps[-1] for exps in keys):
                k = len(states)
                keys = _last_size_eliminated(keys, expansions.setdefault(k, [{(0,) * k: 1}]))
            for exps, targets in keys.items():
                cells[tuple(((1, q, e, s),) for q, e, s in zip(qs, exps, states))] = targets
        groups = {}  # left factor -> (keys of constant c, col -> members (c, Q, e, state))
        for key, targets in cells.items():
            if key[1:] and all(c.__class__ is int for _, c in targets):
                keys, sums = groups.setdefault(key[:-1], ([], {}))
                keys.append(key)
                for col, c in targets:
                    sums.setdefault(col, []).append((c, *key[-1][0][1:]))
        for left, (keys, sums) in groups.items():
            if len(sums) < len(keys):
                for key in keys:
                    del cells[key]
                for col, members in sums.items():
                    cells.setdefault(left + (tuple(members),), []).append((col, 1))
        convs = {}  # key prefix -> its sequence (length 1) or partial convolution
        for key in cells:
            for j in range(len(key)):
                convs.setdefault(key[j:j + 1], _Terms())
                if j > 1:
                    convs.setdefault(key[:j], _Terms())
        self._sequences = [
            ([(c, _cleared(q), e, state) for c, q, e, state in members], terms)
            for (members, *longer), terms in convs.items() if not longer
        ]
        # a prefix is inserted after its left factor, which is so computed first
        self._partials = [
            (convs[key[:-1]], convs[key[-1:]], terms) for key, terms in convs.items() if key[1:]
        ]
        self._cells = [
            (convs.get(key[:-1]), convs[key[-1:]], targets) for key, targets in cells.items()
        ]

    def up_to(self, n_max: int):
        while len(self.vectors) <= n_max:
            self._step()
        return self.vectors[: n_max + 1]

    def _step(self):
        m = len(self.vectors) - 1
        last = self.vectors[m]
        for members, terms in self._sequences:
            num, den = 0, 1
            for c, (poly, qc), e, state in members:
                v = last[state]
                if v:  # c * v * m^e / Q(m) = c * v * m^e * qc / q
                    q = _at(poly, m)
                    if not q:
                        raise ZeroDivisionError(f"denominator vanishes at size {m}")
                    n, d = c * qc * v.numerator * m**e, v.denominator * q
                    if den == d:
                        num += n
                    else:
                        num, den = num * d + n * den, den * d
            terms.append(num, den)
        for left, right, terms in self._partials:
            terms.append(_dot(left, right), left.den * right.den)
        nums, dens = [0] * len(last), [1] * len(last)
        for left, right, targets in self._cells:
            if left is None:
                num, den = right.nums[m], right.den
            else:
                num, den = _dot(left, right), left.den * right.den
            if not num:
                continue
            for col, c in targets:
                if c.__class__ is tuple:
                    c = _at(c, m)
                if dens[col] == den:
                    nums[col] += c * num
                else:
                    g = gcd(dens[col], den)
                    nums[col] = nums[col] * (den // g) + c * num * (dens[col] // g)
                    dens[col] = dens[col] // g * den
        q0_poly, q0_den = self._q0
        q = _at(q0_poly, m + 1) * self._cell_den
        self.vectors.append(
            tuple(Fraction(num * q0_den, den * q) if num else _ZERO for num, den in zip(nums, dens))
        )


def _last_size_eliminated(keys: dict, powers: list) -> dict:
    """keys, exponents -> [(col, c)], with n_k^e_k expanded by
    n_k = m - n_1 - ... - n_(k-1) if that leaves fewer keys; powers[e] holds
    (m - n_1 - ... - n_(k-1))^e by the exponents of m, n_1, ..."""
    out, top = {}, max(exps[-1] for exps in keys)
    for exps, targets in keys.items():
        e = exps[-1]
        while len(powers) <= e:
            step = {}
            for key, v in powers[-1].items():
                for i in range(len(key)):
                    up = key[:i] + (key[i] + 1,) + key[i + 1:]
                    step[up] = step.get(up, 0) + (-v if i else v)
            powers.append(step)
        for (j, *js), b in powers[e].items():
            polys = out.setdefault(tuple(map(add, exps, js)) + (0,), {})
            for col, c in targets:
                polys.setdefault(col, [0] * (top + 1))[j] += b * c
    merged = {}
    for exps, polys in out.items():
        for col, p in polys.items():
            p = tuple(dropwhile(not_, reversed(p)))
            if p:
                merged.setdefault(exps, []).append((col, p if len(p) > 1 else p[0]))
    return merged if len(merged) < len(keys) else keys


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
    """Resumable cache of the coefficient vectors of one automaton; the engine
    (and the form, unless ``form`` is given) is built on the first request for
    a size >= 1.  Not safe to share between threads."""

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


# ---------------------------------------------------------------------------
# prefix arithmetic and the brute-force oracle


def series_add(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    n = min(len(s1), len(s2))
    return SeriesPrefix(tuple(s1[i] + s2[i] for i in range(n)))


def series_scale(s: SeriesPrefix, c) -> SeriesPrefix:
    c = _frac(c)
    return SeriesPrefix(tuple(a * c for a in s.coefficients))


def series_cauchy(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    return SeriesPrefix(tuple(
        sum((s1[i] * s2[m - i] for i in range(m + 1)), _ZERO)
        for m in range(min(len(s1), len(s2)))
    ))


def s_derive(s: SeriesPrefix) -> SeriesPrefix:
    """The operator f -> x f' on prefixes: coefficient n becomes n * a_n."""
    return SeriesPrefix(tuple(n * a for n, a in enumerate(s.coefficients)))


def brute_force_coefficient(a: Automaton, n: int):
    """Sum of mu~(t) over every tree of size n, by exhaustive enumeration."""
    acc = [_ZERO] * a.dimension
    for vec in _trees.mu_tildes(a, _trees.enumerate_trees(a.alphabet, n)):
        for j, v in enumerate(vec):
            acc[j] += v
    return tuple(acc)


# ---------------------------------------------------------------------------
# the `series` command


def _emit_series(values, fmt: str):
    if fmt == "json":
        cli._print_json({"coefficients": [str(v) for v in values]})
    elif fmt == "csv":
        print("n,coefficient")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        width = max(len(str(len(values) - 1)), 1)
        vwidth = max((len(str(v)) for v in values), default=1)
        for n, v in enumerate(values):
            print(f"{n:>{width}}  {str(v):>{vwidth}}")


def _cmd_series(args) -> int:
    a = cli._load_automaton(args.automaton)
    values = list(generating_prefix(a, args.n).coefficients)
    if args.counts:
        f = 1
        values = [v * (f := f * (n or 1)) for n, v in enumerate(values)]
    _emit_series(values, args.format)
    return cli.EXIT_OK
