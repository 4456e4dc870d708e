"""Sparse weight matrices and the common-denominator normal form.

A ``WeightMatrix`` holds an automaton's weights for one symbol as its
nonzero cells.  ``normalize_common_denominator`` puts the weights of every
non-nullary symbol over one denominator in x0, the form the coefficient
engine (``series``) and the zeroness bound (``decide``) read.  Entries are
``exactmath.SizeRational``s, reached through that module at call time, as
is ``core.unrank_row``, which gives the children's states of a row.
"""

from __future__ import annotations

from fractions import Fraction

from . import core, exactmath
from ._poly import MultiPolynomial, UniPolynomial, poly_lcm
from ._record import record


# ---------------------------------------------------------------------------
# sparse weight matrices


def _is_zero_entry(entry) -> bool:
    return entry.is_zero if isinstance(entry, exactmath.SizeRational) else entry == 0


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
                zero = exactmath.SizeRational(MultiPolynomial(self.arity + 1))
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
