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
below): deciding equivalence only adds and scales automata.
"""

from __future__ import annotations

from . import _shift, core, exactmath
from .errors import AlphabetMismatch

# names of this module that _shift defines
_SHIFT_NAMES = frozenset((
    "_fresh_name", "_rename_apart", "gf_cauchy", "gf_derive", "gf_integrate", "gf_inverse",
    "gf_mul_shifted", "gf_shift_backward", "gf_shift_forward",
))


def __getattr__(name):
    if name in _SHIFT_NAMES:
        return getattr(_shift, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _embed_shifted(matrix, arity: int, offset: int, d_old: int, d_new: int) -> dict:
    """Re-index the cells of a weight matrix into a larger automaton, states
    shifted by offset; rows and columns of foreign states stay empty."""
    shift_row = core.shift_row
    return {
        (shift_row(row, arity, d_old, d_new, offset), offset + col): entry
        for (row, col), entry in matrix.cells.items()
    }


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
        cells = _embed_shifted(a1.weight(name), arity, 0, d1, d)
        cells.update(_embed_shifted(a2.weight(name), arity, d1, d2, d))
        weights[name] = cells
    block = core.Automaton.build(d, a1.alphabet, weights)
    beta = core.FinalVector.of(*([1] + [0] * (d1 - 1) + [1] + [0] * (d2 - 1)))
    return core.absorb_final_vector(block, beta)


def ts_scale(a: core.Automaton, c) -> core.Automaton:
    """Value on every tree scaled by the rational c; c = 1 returns a itself."""
    c = exactmath._frac(c)
    if c == 1:
        return a
    return core.absorb_final_vector(a, core.FinalVector.unit(a.dimension, scale=c))


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
