"""Exact scalars, size-weight arithmetic and weight matrices.

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

A ``WeightMatrix`` holds an automaton's weights for one symbol as its
nonzero cells.  ``normalize_common_denominator`` puts the weights of every
non-nullary symbol over one denominator in x0, the form the coefficient
engine (``series``) and the zeroness bound (``decide``) read.

The polynomials live in ``_poly``; the names of theirs that other modules
read here (``UniPolynomial``, ``MultiPolynomial``, ``poly_gcd``,
``poly_lcm``, ``poly_integer_roots``) are bound to the defining objects.
The text forms (``format_*``) live in ``_format``, and their parser
(``parse_size_rational``) in ``_reader``; ``__getattr__`` below reads them
from there on first use, as the package's ``_FORWARDS`` says.

``SizeRational(num, dens)`` checks every value it builds, the results of its
ring operations included: each denominator of a nonzero value must pass
``_check_denominator``.  A bounded ``functools.lru_cache`` remembers the
passes, by denominator and slot; a refusal raises and is never stored.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import _format, _forward, core
from ._poly import MultiPolynomial, UniPolynomial, _frac, poly_gcd, poly_integer_roots, poly_lcm
from .core import record
from .errors import DenominatorZero, InvalidDenominator

Rational = Fraction


def __getattr__(name):
    return _forward(__name__, name)


# ---------------------------------------------------------------------------
# the restricted ring of size-weight functions


_ONE = UniPolynomial.const(1)  # the trivial denominator, shared by every value


@functools.lru_cache(maxsize=1024)
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
        dens = [_ONE] * nvars if dens is None else list(dens)
        if len(dens) != nvars:
            raise ValueError("need one denominator per variable")
        if num.is_zero:
            dens = [_ONE] * nvars
        scale = 1
        for slot, q in enumerate(dens):
            _check_denominator(q, slot)
            lead = q.coeffs[-1]
            if lead != 1:  # a monic q is kept as it is
                scale *= lead
                dens[slot] = q.monic()[0] if q.degree else _ONE
        self.num = num.scale(1 / scale) if scale != 1 else num
        self.dens = tuple(dens)

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
        dens = [_ONE] * nvars
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
# sparse weight matrices


def _is_zero_entry(entry) -> bool:
    return entry.is_zero if isinstance(entry, SizeRational) else entry == 0


class WeightMatrix:
    """A weight matrix of ``shape`` (rows, cols) stored as its nonzero cells.

    ``cells`` maps (row, col) to a nonzero entry, in row-major order: a
    Fraction for a nullary symbol, else a SizeRational of ``arity``.  Zero
    entries are dropped on construction.  ``rows`` groups the cells by row;
    indexing and iteration read the matrix as dense row tuples, built on
    demand from ``rows``.
    """

    __slots__ = ("shape", "arity", "cells", "_rows", "_zero_row")

    def __init__(self, shape, arity: int, cells):
        self.shape = tuple(shape)
        self.arity = arity
        self.cells = {
            key: entry for key, entry in sorted(cells.items()) if not _is_zero_entry(entry)
        }
        self._rows = None
        self._zero_row = None

    @classmethod
    def from_rows(cls, rows, arity: int) -> "WeightMatrix":
        rows = [tuple(row) for row in rows]
        shape = (len(rows), len(rows[0]) if rows else 0)
        cells = {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)}
        return cls(shape, arity, cells)

    @property
    def rows(self) -> dict:
        """The nonzero rows in row-major order: row -> (the children's states,
        [(col, entry)]), grouped and unranked on the first read."""
        if self._rows is None:
            unrank_row, d, k = core.unrank_row, self.shape[1], self.arity
            self._rows = {}
            for (row, col), entry in self.cells.items():
                found = self._rows.get(row)
                if found is None:
                    found = self._rows[row] = (unrank_row(row, d, k), [])
                found[1].append((col, entry))
        return self._rows

    # -- the dense row view ---------------------------------------------------

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        nrows, ncols = self.shape
        if not -nrows <= i < nrows:
            raise IndexError("weight row index out of range")
        if self._zero_row is None:
            if self.arity == 0:
                zero = Fraction(0)
            else:
                zero = SizeRational(MultiPolynomial(self.arity + 1))
            self._zero_row = (zero,) * ncols
        found = self.rows.get(i % nrows)
        if found is None:
            return self._zero_row
        row = list(self._zero_row)
        for c, entry in found[1]:
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


def _lcm_of(dens) -> UniPolynomial:
    """Monic lcm of the distinct polynomials in ``dens``; 1 when there are none."""
    out = UniPolynomial.const(1)
    for den in dict.fromkeys(dens):
        if not den.is_one:
            out = poly_lcm(out, den)
    return out


def _eliminate_x0(num: MultiPolynomial, powers: list) -> dict:
    """The terms of ``num`` over x1..xk after x0 -> 1 + x1 + ... + xk;
    ``powers[e]`` holds those of (1 + x1 + ... + xk)^e, extended as needed."""
    out = {}
    for exps, c in num.terms.items():
        e0, rest = exps[0], exps[1:]
        if e0 == 0:
            out[rest] = out.get(rest, 0) + c
            continue
        while len(powers) <= e0:
            last, step = powers[-1], {}
            for key, value in last.items():
                step[key] = step.get(key, 0) + value
                for i in range(len(key)):
                    up = key[:i] + (key[i] + 1,) + key[i + 1:]
                    step[up] = step.get(up, 0) + value
            powers.append(step)
        for key, value in powers[e0].items():
            key = tuple(a + b for a, b in zip(rest, key))
            out[key] = out.get(key, 0) + c * value
    return {key: c for key, c in out.items() if c}


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
    # cells repeat a few entries: rewrite each distinct one once
    by_entry = []  # per weight: (denominators, numerator) -> [cell]
    for _, _, matrix in weights:
        groups = {}
        for key, entry in matrix.cells.items():
            groups.setdefault((entry.dens, entry.num), []).append(key)
        by_entry.append(groups)
    q0 = _lcm_of(dens[0] for groups in by_entry for dens, _ in groups)
    symbols = {}
    r = 0
    x0_powers = {}  # arity k -> the terms of (1 + x1 + ... + xk)^e, by e
    for (name, k, matrix), groups in zip(weights, by_entry):
        nvars = k + 1
        child_dens = [_lcm_of(dens[i] for dens, _ in groups) for i in range(1, nvars)]
        lcms = [q0] + child_dens
        powers = x0_powers.setdefault(k, [{(0,) * k: 1}])
        matrices = {}
        for (dens, num), cells in groups.items():
            for v in range(nvars):
                cofactor = lcms[v].div_exact(dens[v])
                if not cofactor.is_one:
                    num = num * MultiPolynomial.from_uni(cofactor, nvars, v)
            for exps, c in _eliminate_x0(num, powers).items():
                matrices.setdefault(exps, {}).update(dict.fromkeys(cells, c))
        for exps in matrices:
            r = max(r, max(exps, default=0))
        if not matrices:
            matrices[(0,) * k] = {}
        symbols[name] = SymbolDecomposition(k, tuple(child_dens), matrices, matrix.shape)
    return CommonDenominatorForm(q0, symbols, r)
