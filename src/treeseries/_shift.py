"""Generating-function operations built on shifting the size.

``gf_shift_forward``, ``gf_shift_backward`` and ``gf_mul_shifted`` add fresh
root symbols or substitute sizes, and the calculus built on them
(``gf_cauchy``, ``gf_derive``, ``gf_integrate``, ``gf_inverse``) chains them
literally, so every link is testable on its own.  ``closure`` offers every
name here as its own and runs this module on the first read of one of them:
deciding equivalence only adds and scales automata, so ``equiv`` and ``zero``
never compile this code.  The ``op`` command reads these operations from
here, and this module reads ``closure`` only when ``gf_derive`` or
``gf_integrate`` absorbs a final vector, so the other five run no
``closure``; ``gf_inverse`` reads a_0 with ``core.initial_vector`` and runs
no coefficient engine.

Fresh symbols introduced here use the reserved "__" prefix, which user
alphabets must avoid.
"""

from __future__ import annotations

from fractions import Fraction

from . import closure, core, exactmath
from .errors import ZeroConstantTerm


def _rooted(parts, arity: int, root_states, value):
    """The automata of parts side by side after a new state 0, plus a fresh
    root symbol of the given arity with one cell: children in root_states,
    the constant value, written to state 0.  Returns the arguments of
    Automaton.build, so a caller can add cells first."""
    d = 1 + sum(p.dimension for p in parts)
    symbols = [s for p in parts for s in p.alphabet.symbols]
    taken = {name for name, _ in symbols}
    u_name, n = "__u", 1
    while u_name in taken:
        n += 1
        u_name = f"__u{n}"
    weights, offset = {}, 1
    for p in parts:
        for name, k in p.alphabet.symbols:
            weights[name] = core._embed_shifted(p.weight(name), k, offset, p.dimension, d)
        offset += p.dimension
    root = core.row_index(root_states, d)
    weights[u_name] = {(root, 0): exactmath.SizeRational.const(arity, value)}
    return d, core.RankedAlphabet.of((u_name, arity), *symbols), weights


def gf_shift_forward(a: core.Automaton) -> core.Automaton:
    """f(x) -> x * f(x), via a fresh unary root symbol reading the old first
    coordinate."""
    return core.Automaton.build(*_rooted([a], 1, (1,), 1))


def _rename_apart(a2: core.Automaton, taken) -> core.Automaton:
    mapping = {}
    for name, arity in a2.alphabet.symbols:
        new = name
        while new in taken or new in mapping.values():
            new = "__r_" + new
        mapping[name] = new
    alphabet = core.RankedAlphabet.of(*[(mapping[n], k) for n, k in a2.alphabet.symbols])
    weights = {mapping[n]: a2.weight(n).cells for n in a2.alphabet.names()}
    return core.Automaton.build(a2.dimension, alphabet, weights)


def gf_mul_shifted(a1: core.Automaton, a2: core.Automaton) -> core.Automaton:
    """(f, g) -> x * f(x) * g(x), via a fresh binary root symbol whose left
    subtree is read in a1 and right subtree in a2."""
    a2 = _rename_apart(a2, set(a1.alphabet.names()))
    return core.Automaton.build(*_rooted([a1, a2], 2, (1, 1 + a1.dimension), 1))


def gf_shift_backward(a: core.Automaton) -> core.Automaton:
    """f(x) -> (f(x) - f(0)) / x.

    The input is made arity distinct first.  For each symbol g_k and each
    cut position i, a fresh symbol __h_<k>_<i> simulates g_k applied to
    i-1 ordinary subtrees, one shifted subtree, and trailing leaves; the
    instantiated weight substitutes (x0+1, x1, ..., x_{i-1}, xi+1, 0, ..., 0)
    so the simulated tree is one node larger than the real one.
    """
    a = core.make_arity_distinct(a)
    d = a.dimension
    d_new = 2 * d
    arities = sorted({k for _, k in a.alphabet.symbols})
    leaf_row = a.weight(a.alphabet.of_arity(0)[0])[0]

    symbols = list(a.alphabet.symbols)
    for k in arities:
        if k == 0:
            continue
        for i in range(k + 1):
            symbols.append((f"__h_{k}_{i}", i))
    alphabet = core.RankedAlphabet.of(*symbols)

    weights = {
        name: core._embed_shifted(a.weight(name), arity, d, d, d_new)
        for name, arity in a.alphabet.symbols
    }
    row_index = core.row_index

    def leaf_product(states):
        product = Fraction(1)
        for s in states:
            product *= leaf_row[s]
        return product

    for k in arities:
        if k == 0:
            continue
        gk = a.weight(f"h{k}").rows
        # arity 0: the vector of the size-1 tree g_k(leaf,...,leaf), the
        # Kronecker product of k leaf rows times the weight at sizes (1, 0, ..., 0)
        sizes = (1,) + (0,) * k
        vector = [Fraction(0)] * d
        for states, entries in gk.values():
            tail = leaf_product(states)
            if tail:
                for col, entry in entries:
                    vector[col] += tail * entry(sizes)
        weights[f"__h_{k}_0"] = {(0, j): v for j, v in enumerate(vector)}
        for i in range(1, k + 1):
            # substituted weight: parent one larger, cut child one larger,
            # trailing children pinned to leaves of size zero
            shifts = (1,) + (0,) * (i - 1) + (1,)
            # fold trailing leaf vectors, M = (I_{d^i} (x) leaf^(k-i)) . sub,
            # and move the i-1 leading states to the shifted copy
            cells = {}
            for states, entries in gk.values():
                tail = leaf_product(states[i:])
                if tail == 0:
                    continue
                lead = tuple(s + d for s in states[: i - 1]) + (states[i - 1],)
                row = row_index(lead, d_new)
                for col, entry in entries:
                    value = entry.substitute_sizes(shifts)
                    if value.is_zero:
                        continue
                    value = value.scale(tail)
                    key = (row, col)
                    cells[key] = cells[key] + value if key in cells else value
            weights[f"__h_{k}_{i}"] = cells
    return core.Automaton.build(d_new, alphabet, weights)


def gf_derive(a: core.Automaton) -> core.Automaton:
    """f -> f', as the x*f' construction followed by a backward shift."""
    poly = exactmath.UniPolynomial
    theta = closure.absorb_final_vector(
        a, closure.FinalVector.of((poly.x(), poly.const(1)), *([0] * (a.dimension - 1)))
    )
    return gf_shift_backward(theta)


def gf_integrate(a: core.Automaton) -> core.Automaton:
    """f -> integral of f from 0, as (1/x) integral followed by a forward shift."""
    poly = exactmath.UniPolynomial
    inner = closure.absorb_final_vector(
        a, closure.FinalVector.of((poly.const(1), poly((1, 1))), *([0] * (a.dimension - 1)))
    )
    return gf_shift_forward(inner)


def gf_cauchy(a1: core.Automaton, a2: core.Automaton) -> core.Automaton:
    """(f, g) -> f * g: the shifted product followed by a backward shift."""
    return gf_shift_backward(gf_mul_shifted(a1, a2))


def gf_inverse(a: core.Automaton) -> core.Automaton:
    """f -> 1/f, defined when the constant term a_0 is nonzero.

    Builds the backward shift of f, then adds one coordinate computing the
    inverse coefficients b_n = -(1/a_0) * sum a_{i+1} b_{n-1-i} via a fresh
    binary symbol.
    """
    a0 = core.initial_vector(a)[0]
    if a0 == 0:
        raise ZeroConstantTerm("series has zero constant term; no inverse")
    shifted = core.make_arity_distinct(gf_shift_backward(a))
    d, alphabet, weights = _rooted([shifted], 2, (1, 0), -1 / a0)
    weights[shifted.alphabet.of_arity(0)[0]][(0, 0)] = 1 / a0
    return core.Automaton.build(d, alphabet, weights)
