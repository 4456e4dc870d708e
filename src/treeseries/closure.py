"""Constructions producing new automata from old.

Tree-series operations (ts_*) preserve the value of every individual tree;
generating-function operations (gf_*) act on the series only and are free to
rename or merge alphabet symbols.  Every construction maps the nonzero
weight cells of its inputs to cells of the output, so its cost follows the
nonzero cells, not the d^k x d grids: a Hadamard square of dimension d^2
only pairs the nonzero rows of its input.

The operations that shift sizes (``gf_shift_forward``, ``gf_shift_backward``,
``gf_mul_shifted``) and those built on them (``gf_cauchy``, ``gf_derive``,
``gf_integrate``, ``gf_inverse``) are names of this module too, but live in
``_shift``, which runs on the first read of one of them (``__getattr__``
below; the package's ``_FORWARDS``): deciding equivalence only adds and
scales automata.  ``_shift`` reads only ``FinalVector`` and
``absorb_final_vector`` from here, in ``gf_derive`` and ``gf_integrate``, so
the other shift operations run no code of this module; the cell re-indexing
that both modules share, ``core._embed_shifted``, lives in ``core``.
"""

from __future__ import annotations

from . import _forward, core, exactmath
from .core import record
from .errors import AlphabetMismatch, InvalidBeta


def __getattr__(name):
    return _forward(__name__, name)


@record
class FinalVector:
    """Column vector of univariate rational functions of the size, each
    defined at every nonnegative integer."""

    entries: tuple  # of (UniPolynomial numerator, UniPolynomial denominator)

    def __post_init__(self):
        for num, den in self.entries:
            if den.is_zero:
                raise InvalidBeta("final vector denominator is zero")
            bad = {r for r in exactmath.poly_integer_roots(den) if r >= 0}
            if bad:
                raise InvalidBeta(
                    f"final vector denominator has nonnegative root(s) {sorted(bad)}"
                )

    @classmethod
    def of(cls, *entries) -> "FinalVector":
        poly = exactmath.UniPolynomial
        packed = []
        for e in entries:
            if isinstance(e, tuple):
                packed.append(e)
            elif isinstance(e, poly):
                packed.append((e, poly.const(1)))
            else:
                packed.append((poly.const(e), poly.const(1)))
        return cls(tuple(packed))

    @classmethod
    def unit(cls, d: int, scale=1) -> "FinalVector":
        entries = [scale] + [0] * (d - 1)
        return cls.of(*entries)

    def __len__(self):
        return len(self.entries)

    def value_at(self, n: int) -> tuple:
        return tuple(num(n) / den(n) for num, den in self.entries)


def absorb_final_vector(a: core.Automaton, beta: FinalVector) -> core.Automaton:
    """Automaton of dimension d+1 whose value on t is mu~_a(t) . beta(|t|).

    The new first coordinate carries the absorbed value; coordinates 2..d+1
    replay the original automaton unchanged.
    """
    if len(beta) != a.dimension:
        raise InvalidBeta(f"final vector must have {a.dimension} entries")
    d = a.dimension
    beta0 = beta.value_at(0)
    # a constant entry c/1 scales a weight, a zero one drops its terms
    # (ts_add and ts_scale absorb unit vectors); only the others multiply
    constant = [
        value if num.degree <= 0 and den.degree == 0 else None
        for (num, den), value in zip(beta.entries, beta0)
    ]
    shift = core.shift_row
    weights = {}
    for name, arity in a.alphabet.symbols:
        old = a.weight(name).cells
        cells = {}
        # column 0 holds M = mu(g) . beta(x0), one entry per old row
        m_col = {}
        for (row, col), entry in old.items():
            cells[(shift(row, arity, d, d + 1, 1), col + 1)] = entry
            c = beta0[col] if arity == 0 else constant[col]
            if c == 0:
                continue
            if c is not None:
                term = entry * c if arity == 0 else entry.scale(c)
            else:
                num, den = beta.entries[col]
                term = entry.mul_univariate(num, den, 0)
            m_col[row] = m_col[row] + term if row in m_col else term
        for row, value in m_col.items():
            cells[(shift(row, arity, d, d + 1, 1), 0)] = value
        weights[name] = cells
    return core.Automaton.build(d + 1, a.alphabet, weights)


# ---------------------------------------------------------------------------
# formal tree series operations


def ts_add(a1: core.Automaton, a2: core.Automaton) -> core.Automaton:
    """Value on every tree is the sum of the inputs' values.

    Requires genuinely identical alphabets: unify_alphabets preserves series,
    not per-tree values, so it is not applied implicitly here.
    """
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatch("ts_add needs two automata over one identical alphabet")
    d1, d2 = a1.dimension, a2.dimension
    d = d1 + d2
    weights = {}
    for name, arity in a1.alphabet.symbols:
        cells = core._embed_shifted(a1.weight(name), arity, 0, d1, d)
        cells.update(core._embed_shifted(a2.weight(name), arity, d1, d2, d))
        weights[name] = cells
    block = core.Automaton.build(d, a1.alphabet, weights)
    beta = FinalVector.of(*([1] + [0] * (d1 - 1) + [1] + [0] * (d2 - 1)))
    return absorb_final_vector(block, beta)


def ts_scale(a: core.Automaton, c) -> core.Automaton:
    """Value on every tree scaled by the rational c; c = 1 returns a itself."""
    c = exactmath._frac(c)
    if c == 1:
        return a
    return absorb_final_vector(a, FinalVector.unit(a.dimension, scale=c))


def ts_hadamard(a1: core.Automaton, a2: core.Automaton) -> core.Automaton:
    """Value on every tree is the product of the inputs' values (dimension
    d1*d2, paired-index construction: state (i, j) is i*d2 + j)."""
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatch(
            "ts_hadamard needs two automata over one identical alphabet"
        )
    d1, d2 = a1.dimension, a2.dimension
    d = d1 * d2
    row_index = core.row_index
    weights = {}
    for name, arity in a1.alphabet.symbols:
        rows2 = a2.weight(name).rows.values()
        cells = {}
        for states1, entries1 in a1.weight(name).rows.values():
            for states2, entries2 in rows2:
                row = row_index(tuple(i * d2 + j for i, j in zip(states1, states2)), d)
                for i, e1 in entries1:
                    for j, e2 in entries2:
                        cells[(row, i * d2 + j)] = e1 * e2
        weights[name] = cells
    return core.Automaton.build(d, a1.alphabet, weights)


# ---------------------------------------------------------------------------
# generating-function operations


def gf_add(a1: core.Automaton, a2: core.Automaton) -> core.Automaton:
    b1, b2 = core.unify_alphabets(a1, a2)
    return ts_add(b1, b2)


def gf_scale(a: core.Automaton, c) -> core.Automaton:
    return ts_scale(a, c)
