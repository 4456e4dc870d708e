"""Constructions producing new automata from old.

Tree-series operations (ts_*) preserve the value of every individual tree;
generating-function operations (gf_*) act on the series only and are free to
rename or merge alphabet symbols.  Compound operations chain the primitive
constructions literally, so every link is testable on its own.  Every
construction maps the nonzero weight cells of its inputs to cells of the
output, so its cost follows the nonzero cells, not the d^k x d grids: a
Hadamard square of dimension d^2 only pairs the nonzero rows of its input.

Fresh symbols introduced here use the reserved "__" prefix, which user
alphabets must avoid.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Automaton,
    FinalVector,
    RankedAlphabet,
    Tree,
    absorb_final_vector,
    evaluate,
    make_arity_distinct,
    row_index,
    shift_row,
    unify_alphabets,
    unrank_row,
)
from .errors import AlphabetMismatch, ZeroConstantTerm
from .exactmath import SizeRational, UniPolynomial, _frac
from .series import generating_prefix


def _fresh_name(base: str, taken) -> str:
    name = base
    n = 1
    while name in taken:
        n += 1
        name = f"{base}{n}"
    return name


def _embed_shifted(matrix, arity: int, offset: int, d_old: int, d_new: int) -> dict:
    """Re-index the cells of a weight matrix into a larger automaton, states
    shifted by offset; rows and columns of foreign states stay empty."""
    return {
        (shift_row(row, arity, d_old, d_new, offset), offset + col): entry
        for (row, col), entry in matrix.cells.items()
    }


# ---------------------------------------------------------------------------
# formal tree series operations


def ts_add(a1: Automaton, a2: Automaton) -> Automaton:
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
    block = Automaton.build(d, a1.alphabet, weights)
    beta = FinalVector.of(*([1] + [0] * (d1 - 1) + [1] + [0] * (d2 - 1)))
    return absorb_final_vector(block, beta)


def ts_scale(a: Automaton, c) -> Automaton:
    """Value on every tree scaled by the rational c; c = 1 returns a itself."""
    c = _frac(c)
    if c == 1:
        return a
    return absorb_final_vector(a, FinalVector.unit(a.dimension, scale=c))


def _rows_of(matrix, d: int, arity: int) -> dict:
    """Nonzero rows of a weight matrix: row -> (state tuple, [(col, entry)])."""
    rows = {}
    for (row, col), entry in matrix.cells.items():
        if row not in rows:
            rows[row] = (unrank_row(row, d, arity), [])
        rows[row][1].append((col, entry))
    return rows


def ts_hadamard(a1: Automaton, a2: Automaton) -> Automaton:
    """Value on every tree is the product of the inputs' values (dimension
    d1*d2, paired-index construction: state (i, j) is i*d2 + j)."""
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatch(
            "ts_hadamard needs two automata over one identical alphabet"
        )
    d1, d2 = a1.dimension, a2.dimension
    d = d1 * d2
    weights = {}
    for name, arity in a1.alphabet.symbols:
        rows2 = _rows_of(a2.weight(name), d2, arity).values()
        cells = {}
        for states1, entries1 in _rows_of(a1.weight(name), d1, arity).values():
            for states2, entries2 in rows2:
                row = row_index(tuple(i * d2 + j for i, j in zip(states1, states2)), d)
                for i, e1 in entries1:
                    for j, e2 in entries2:
                        cells[(row, i * d2 + j)] = e1 * e2
        weights[name] = cells
    return Automaton.build(d, a1.alphabet, weights)


# ---------------------------------------------------------------------------
# generating-function operations


def gf_add(a1: Automaton, a2: Automaton) -> Automaton:
    b1, b2 = unify_alphabets(a1, a2)
    return ts_add(b1, b2)


def gf_scale(a: Automaton, c) -> Automaton:
    return ts_scale(a, c)


def gf_shift_forward(a: Automaton) -> Automaton:
    """f(x) -> x * f(x), via a fresh unary root symbol."""
    d = a.dimension
    d_new = d + 1
    u_name = _fresh_name("__u", a.alphabet.names())
    alphabet = RankedAlphabet.of((u_name, 1), *a.alphabet.symbols)
    weights = {
        name: _embed_shifted(a.weight(name), arity, 1, d, d_new)
        for name, arity in a.alphabet.symbols
    }
    weights[u_name] = {(1, 0): SizeRational.const(1, 1)}  # reads the old first coordinate
    return Automaton.build(d_new, alphabet, weights)


def _rename_apart(a2: Automaton, taken) -> Automaton:
    mapping = {}
    for name, arity in a2.alphabet.symbols:
        new = name
        while new in taken or new in mapping.values():
            new = "__r_" + new
        mapping[name] = new
    alphabet = RankedAlphabet.of(*[(mapping[n], k) for n, k in a2.alphabet.symbols])
    weights = {mapping[n]: a2.weight(n).cells for n in a2.alphabet.names()}
    return Automaton.build(a2.dimension, alphabet, weights)


def gf_mul_shifted(a1: Automaton, a2: Automaton) -> Automaton:
    """(f, g) -> x * f(x) * g(x), via a fresh binary root symbol whose left
    subtree is read in a1 and right subtree in a2."""
    a2 = _rename_apart(a2, set(a1.alphabet.names()))
    u_name = _fresh_name("__u", set(a1.alphabet.names()) | set(a2.alphabet.names()))
    d1, d2 = a1.dimension, a2.dimension
    d = d1 + d2 + 1
    alphabet = RankedAlphabet.of(
        (u_name, 2), *a1.alphabet.symbols, *a2.alphabet.symbols
    )
    weights = {}
    for name, arity in a1.alphabet.symbols:
        weights[name] = _embed_shifted(a1.weight(name), arity, 1, d1, d)
    for name, arity in a2.alphabet.symbols:
        weights[name] = _embed_shifted(a2.weight(name), arity, 1 + d1, d2, d)
    weights[u_name] = {(row_index((1, 1 + d1), d), 0): SizeRational.const(2, 1)}
    return Automaton.build(d, alphabet, weights)


def gf_shift_backward(a: Automaton) -> Automaton:
    """f(x) -> (f(x) - f(0)) / x.

    The input is made arity distinct first.  For each symbol g_k and each
    cut position i, a fresh symbol __h_<k>_<i> simulates g_k applied to
    i-1 ordinary subtrees, one shifted subtree, and trailing leaves; the
    instantiated weight substitutes (x0+1, x1, ..., x_{i-1}, xi+1, 0, ..., 0)
    so the simulated tree is one node larger than the real one.
    """
    a = make_arity_distinct(a)
    d = a.dimension
    d_new = 2 * d
    arities = sorted({k for _, k in a.alphabet.symbols})
    leaf = a.alphabet.of_arity(0)[0]
    leaf_row = a.weight(leaf)[0]

    symbols = list(a.alphabet.symbols)
    for k in arities:
        if k == 0:
            continue
        for i in range(k + 1):
            symbols.append((f"__h_{k}_{i}", i))
    alphabet = RankedAlphabet.of(*symbols)

    weights = {
        name: _embed_shifted(a.weight(name), arity, d, d, d_new)
        for name, arity in a.alphabet.symbols
    }

    for k in arities:
        if k == 0:
            continue
        gk = _rows_of(a.weight(f"h{k}"), d, k)
        # arity-0 witness: the size-1 tree g_k(leaf,...,leaf)
        mu_tilde, _ = evaluate(a, Tree(f"h{k}", tuple(Tree(leaf) for _ in range(k))))
        weights[f"__h_{k}_0"] = {(0, j): v for j, v in enumerate(mu_tilde)}
        for i in range(1, k + 1):
            # substituted weight: parent one larger, cut child one larger,
            # trailing children pinned to leaves of size zero
            mapping = [("var", 0, 1)]
            mapping += [("var", v, 0) for v in range(1, i)]
            mapping.append(("var", i, 1))
            mapping += [("const", 0)] * (k - i)
            # fold trailing leaf vectors, M = (I_{d^i} (x) leaf^(k-i)) . sub,
            # and move the i-1 leading states to the shifted copy
            cells = {}
            for states, entries in gk.values():
                tail = Fraction(1)
                for s in states[i:]:
                    tail *= leaf_row[s]
                if tail == 0:
                    continue
                lead = tuple(s + d for s in states[: i - 1]) + (states[i - 1],)
                row = row_index(lead, d_new)
                for col, entry in entries:
                    value = entry.substitute_sizes(mapping, i)
                    if value.is_zero:
                        continue
                    value = value.scale(tail)
                    key = (row, col)
                    cells[key] = cells[key] + value if key in cells else value
            weights[f"__h_{k}_{i}"] = cells
    return Automaton.build(d_new, alphabet, weights)


def gf_derive(a: Automaton) -> Automaton:
    """f -> f', as the x*f' construction followed by a backward shift."""
    theta = absorb_final_vector(
        a, FinalVector.of((UniPolynomial.x(), UniPolynomial.const(1)),
                          *([0] * (a.dimension - 1)))
    )
    return gf_shift_backward(theta)


def gf_integrate(a: Automaton) -> Automaton:
    """f -> integral of f from 0, as (1/x) integral followed by a forward shift."""
    inner = absorb_final_vector(
        a,
        FinalVector.of(
            (UniPolynomial.const(1), UniPolynomial((1, 1))), *([0] * (a.dimension - 1))
        ),
    )
    return gf_shift_forward(inner)


def gf_cauchy(a1: Automaton, a2: Automaton) -> Automaton:
    """(f, g) -> f * g: the shifted product followed by a backward shift."""
    return gf_shift_backward(gf_mul_shifted(a1, a2))


def gf_inverse(a: Automaton) -> Automaton:
    """f -> 1/f, defined when the constant term a_0 is nonzero.

    Builds the backward shift of f, then adds one coordinate computing the
    inverse coefficients b_n = -(1/a_0) * sum a_{i+1} b_{n-1-i} via a fresh
    binary symbol.
    """
    a0 = generating_prefix(a, 0)[0]
    if a0 == 0:
        raise ZeroConstantTerm("series has zero constant term; no inverse")
    shifted = make_arity_distinct(gf_shift_backward(a))
    d = shifted.dimension
    d_new = d + 1
    u_name = _fresh_name("__u", shifted.alphabet.names())
    alphabet = RankedAlphabet.of((u_name, 2), *shifted.alphabet.symbols)
    weights = {
        name: _embed_shifted(shifted.weight(name), arity, 1, d, d_new)
        for name, arity in shifted.alphabet.symbols
    }
    weights[shifted.alphabet.of_arity(0)[0]][(0, 0)] = 1 / a0
    weights[u_name] = {(row_index((1, 0), d_new), 0): SizeRational.const(2, -1 / a0)}
    return Automaton.build(d_new, alphabet, weights)
