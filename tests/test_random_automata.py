"""Property tests: closure operations agree with prefix/value oracles on
randomized small automata, not just on the curated ones."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_compile import GOLD_SOURCES, _gold_rds
from test_series import dots_per_coefficient, form_key_convolutions
from treeseries._trees import compositions
from treeseries.closure import (
    gf_add,
    gf_cauchy,
    gf_derive,
    gf_integrate,
    gf_inverse,
    gf_mul_shifted,
    gf_shift_backward,
    gf_shift_forward,
    ts_add,
    ts_hadamard,
    ts_scale,
)
from treeseries.core import (
    Automaton,
    RankedAlphabet,
    automaton_from_json,
    automaton_to_json,
    enumerate_trees,
    evaluate,
    mu_tildes,
    row_index,
    unrank_row,
)
from treeseries.decide import (
    DifferAt,
    NonzeroAt,
    ZeroUpTo,
    check_equiv_genfun,
    check_equiv_tree_series,
)
from treeseries.compile import compile_rda
from treeseries.series import (
    ConvolutionEngine,
    brute_force_coefficient,
    coefficients,
    common_form,
    generating_prefix,
    initial_vector,
    series_add,
    series_cauchy,
)

ALPHABET = RankedAlphabet.of(("a", 0), ("u", 1), ("f", 2))

# weight pool: all members of the restricted ring, mixing denominators in the
# parent's and the children's sizes
_POOL1 = ["0", "1", "-2", "1/(x0)", "(x1+1)/(x0)", "3/(x0+1)", "x1", "x1/(1)*(x1+2)"]
_POOL2 = [
    "0", "0", "1", "1/(x0)", "(x2+1)/(x0)", "-(x1+1)/(x0+1)", "1/2", "x2",
    "(x0+x1)/(x0)*(1)*(x2^2+x2+3)",
]


@st.composite
def automata(draw, dmax=2):
    d = draw(st.integers(1, dmax))
    nullary = [draw(st.integers(-2, 2)) for _ in range(d)]
    unary = [
        [draw(st.sampled_from(_POOL1)) for _ in range(d)] for _ in range(d)
    ]
    binary = [
        [draw(st.sampled_from(_POOL2)) for _ in range(d)] for _ in range(d * d)
    ]
    return Automaton.build(
        d, ALPHABET, {"a": [nullary], "u": unary, "f": binary}
    )


def small_trees():
    out = []
    for n in range(3):
        out.extend(enumerate_trees(ALPHABET, n))
    return out


TREES = small_trees()


@settings(max_examples=20, deadline=None)
@given(automata(), automata())
def test_random_ts_ops_pointwise(a1, a2):
    added = ts_add(a1, a2)
    product = ts_hadamard(a1, a2)
    for t in TREES:
        v1, v2 = evaluate(a1, t)[1], evaluate(a2, t)[1]
        assert evaluate(added, t)[1] == v1 + v2
        assert evaluate(product, t)[1] == v1 * v2


@settings(max_examples=20, deadline=None)
@given(automata(), automata())
def test_random_gf_add_and_cauchy(a1, a2):
    n = 5
    p1, p2 = generating_prefix(a1, n), generating_prefix(a2, n)
    assert (
        generating_prefix(gf_add(a1, a2), n).coefficients
        == series_add(p1, p2).coefficients
    )
    assert (
        generating_prefix(gf_cauchy(a1, a2), n).coefficients
        == series_cauchy(p1, p2).coefficients
    )


# the backward shift pins a trailing child to size 0: there the last binary
# weight has the denominator 3, and the weight x2 vanishes
@example(Automaton.build(2, ALPHABET, {
    "a": [[1, -1]],
    "u": [["x1/(1)*(x1+2)", "1"], ["0", "1/(x0)"]],
    "f": [["x2", "1/2"], ["0", "x2"], ["1", "0"], ["(x0+x1)/(x0)*(1)*(x2^2+x2+3)", "x2"]],
}))
@settings(max_examples=20, deadline=None)
@given(automata())
def test_random_shifts_and_derivative(a):
    n = 5
    base = generating_prefix(a, n + 1)
    assert (
        generating_prefix(gf_shift_forward(a), n).coefficients
        == (F(0),) + base.coefficients[:n]
    )
    assert (
        generating_prefix(gf_shift_backward(a), n).coefficients
        == base.coefficients[1:]
    )
    assert generating_prefix(gf_derive(a), n).coefficients == tuple(
        (m + 1) * base[m + 1] for m in range(n + 1)
    )


def _assert_sparse_store(a: Automaton):
    for name, matrix in a.weights:
        arity = a.alphabet.arity(name)
        stored = matrix.cells
        assert all(e != 0 if arity == 0 else not e.is_zero for e in stored.values())
        dense = {
            (i, j): e
            for i, row in enumerate(matrix)
            for j, e in enumerate(row)
            if (e != 0 if arity == 0 else not e.is_zero)
        }
        assert dense == stored
        assert list(stored) == sorted(stored)
    text = automaton_to_json(a)
    again = automaton_from_json(text)
    assert again == a
    assert automaton_to_json(again) == text


@settings(max_examples=20, deadline=None)
@given(automata(), automata())
def test_random_closure_results_store_nonzero_cells_only(a1, a2):
    results = [
        ts_add(a1, a2), ts_scale(a1, -2), ts_hadamard(a1, a2), gf_add(a1, a2),
        gf_mul_shifted(a1, a2), gf_cauchy(a1, a2), gf_shift_forward(a1),
        gf_shift_backward(a1), gf_derive(a1), gf_integrate(a1),
    ]
    if generating_prefix(a1, 0)[0] != 0:
        results.append(gf_inverse(a1))
    for result in results:
        _assert_sparse_store(result)


@settings(max_examples=30, deadline=None)
@given(automata(dmax=3))
def test_random_weight_rows_group_the_cells(a):
    # rows holds the cells grouped by row, rows in row-major order, with the
    # children's states that unrank_row gives; the dense view agrees, and a
    # second read returns the same object
    d = a.dimension
    for _, matrix in a.weights:
        rows = matrix.rows
        assert matrix.rows is rows
        assert list(rows) == sorted({row for row, _ in matrix.cells})
        assert [
            ((row, col), entry) for row, (_, entries) in rows.items() for col, entry in entries
        ] == list(matrix.cells.items())
        for row, (states, _) in rows.items():
            assert states == unrank_row(row, d, matrix.arity)
            assert row_index(states, d) == row
        for i, dense in enumerate(matrix):
            entries = dict(rows[i][1]) if i in rows else {}
            for j, entry in enumerate(dense):
                if j in entries:
                    assert entry is entries[j]
                else:
                    assert entry == 0 if matrix.arity == 0 else entry.is_zero


@settings(max_examples=20, deadline=None)
@given(automata())
def test_random_dp_equals_brute_force(a):
    vectors = coefficients(a, 4)
    for n in range(5):
        assert brute_force_coefficient(a, n) == vectors[n]


# seeded automata for the coefficient engine: a ternary symbol whose weights
# mix child denominators with powers of the child sizes, and x0 numerators
_POOL3 = [
    "0", "0", "0", "1", "1/(x0)", "(x3+1)/(x0)", "x1*x2", "-(x2+1)/(x0+1)*(x1+1)",
    "(x0+x3)/(x0)*(1)*(1)*(x3+2)", "1/2",
]
_POOLS = {1: _POOL1, 2: _POOL2, 3: _POOL3}


def _seeded_automaton(seed: int, alphabet: RankedAlphabet, dmax: int) -> Automaton:
    rng = random.Random(seed)
    d = rng.randint(1, dmax)
    weights = {}
    for name, k in alphabet.symbols:
        if k == 0:
            weights[name] = [[rng.randint(-2, 2) for _ in range(d)]]
        else:
            weights[name] = [
                [rng.choice(_POOLS[k]) for _ in range(d)] for _ in range(d**k)
            ]
    return Automaton.build(d, alphabet, weights)


def _assert_engine_matches_brute_force(a: Automaton, n_max: int = 4):
    vectors = coefficients(a, n_max)
    for n in range(n_max + 1):
        assert brute_force_coefficient(a, n) == vectors[n], n


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_brute_force_with_ternary_symbol(seed):
    alphabet = RankedAlphabet.of(("a", 0), ("u", 1), ("t", 3))
    _assert_engine_matches_brute_force(_seeded_automaton(seed, alphabet, 2))


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_brute_force_unary_only(seed):
    alphabet = RankedAlphabet.of(("a", 0), ("b", 0), ("u", 1), ("v", 1))
    _assert_engine_matches_brute_force(_seeded_automaton(seed, alphabet, 3), 6)


@pytest.mark.parametrize("seed", range(3))
def test_engine_on_nullary_only_automaton(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    rows = {name: [[rng.choice([-2, -1, 1, 2]) for _ in range(d)]] for name in "ab"}
    a = Automaton.build(d, RankedAlphabet.of(("a", 0), ("b", 0)), rows)
    _assert_engine_matches_brute_force(a)
    vectors = coefficients(a, 4)
    assert vectors[0] == tuple(F(x + y) for x, y in zip(rows["a"][0], rows["b"][0]))
    assert all(v == 0 for n in range(1, 5) for v in vectors[n])


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
           79, 83, 89, 97, 101, 103, 107, 109, 113]
_WIDE = RankedAlphabet.of(("a", 0), ("u", 1), ("f", 2), ("t", 3))


def _sparse_coprime_automaton(seed: int) -> Automaton:
    """Constant weights, each nonzero cell over its own prime denominator, with
    random signs; most cells and all but one entry of a_0 are zero."""
    rng = random.Random(seed)
    d = 2
    primes = iter(_PRIMES)

    def cell():
        if rng.random() < 0.7:
            return 0
        return F(rng.choice([-3, -2, -1, 1, 2]), next(primes))

    a0 = [0] * d
    a0[rng.randrange(d)] = F(rng.choice([-1, 1]), next(primes))
    weights = {"a": [a0]}
    for name, k in _WIDE.symbols:
        if k:
            weights[name] = [[cell() for _ in range(d)] for _ in range(d**k)]
    return Automaton.build(d, _WIDE, weights)


@pytest.mark.parametrize("seed", range(5))
def test_engine_matches_brute_force_on_sparse_coprime_weights(seed):
    a = _sparse_coprime_automaton(seed)
    _assert_engine_matches_brute_force(a, 5)
    vectors = coefficients(a, 5).vectors
    assert all(type(v) is F for vector in vectors for v in vector)


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_brute_force_with_negative_ternary_weights(seed):
    rng = random.Random(seed)
    d = 2
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2), ("t", 3))
    pool = ["0", "-1", "-1/2", "-x1", "-(x1+1)/(x0)", "-3/(x0+1)"]
    weights = {"a": [[rng.choice([-2, -1, 1]) for _ in range(d)]]}
    for name, k in alphabet.symbols:
        if k:
            weights[name] = [[rng.choice(pool) for _ in range(d)] for _ in range(d**k)]
    _assert_engine_matches_brute_force(Automaton.build(d, alphabet, weights), 4)


# ---------------------------------------------------------------------------
# decide verdicts against brute force


def _permuted(a: Automaton, perm) -> Automaton:
    """The automaton with state s renamed perm[s]; perm fixes state 0, whose
    entry is the value, so both compute the same tree series."""
    d = a.dimension
    weights = {
        name: {
            (row_index([perm[s] for s in states], d), perm[col]): e
            for states, entries in matrix.rows.values()
            for col, e in entries
        }
        for name, matrix in a.weights
    }
    return Automaton.build(d, a.alphabet, weights)


_DECIDE_CAP = 6


def _decide_against_brute_force(a1: Automaton, a2: Automaton):
    """Both equivalence verdicts at the cap, checked against brute force."""
    first = [
        (brute_force_coefficient(a1, n)[0], brute_force_coefficient(a2, n)[0])
        for n in range(_DECIDE_CAP + 1)
    ]
    gf_verdict = check_equiv_genfun(a1, a2, _DECIDE_CAP)
    if isinstance(gf_verdict, NonzeroAt):
        assert all(c1 == c2 for c1, c2 in first[: gf_verdict.n])
        c1, c2 = first[gf_verdict.n]
        assert gf_verdict.witness == c1 - c2 != 0
    else:
        assert isinstance(gf_verdict, ZeroUpTo)
        assert all(c1 == c2 for c1, c2 in first)

    # the values of every tree up to the cap, each automaton in one pass (the
    # value of a tree is the first entry of mu_tilde, as evaluate gives it)
    trees = [t for n in range(_DECIDE_CAP + 1) for t in enumerate_trees(ALPHABET, n)]
    values = zip(trees, *([mu[0] for mu in mu_tildes(a, trees)] for a in (a1, a2)))
    differ = next(((t, v1, v2) for t, v1, v2 in values if v1 != v2), None)
    ts_verdict = check_equiv_tree_series(a1, a2, _DECIDE_CAP)
    if differ is None:
        assert isinstance(ts_verdict, ZeroUpTo)
    else:
        assert isinstance(ts_verdict, DifferAt)
        assert (ts_verdict.tree, *ts_verdict.values) == differ
    return gf_verdict, ts_verdict


@settings(max_examples=16, deadline=None, derandomize=True)
@given(automata(), automata())
def test_decide_verdicts_agree_with_brute_force(a1, a2):
    _decide_against_brute_force(a1, a2)


@st.composite
def _equal_pairs(draw):
    """Two automata with the same tree series by construction."""
    how = draw(st.sampled_from(["same", "unit scale", "permuted", "zero added"]))
    if how == "permuted":
        a = draw(automata(dmax=3))
        return a, _permuted(a, [0] + list(range(a.dimension - 1, 0, -1)))
    a = draw(automata())
    if how == "zero added":
        zero = Automaton.build(1, a.alphabet, {name: {} for name, _ in a.alphabet.symbols})
        return a, ts_add(a, zero)
    return a, a if how == "same" else ts_scale(a, 1)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_equal_pairs())
def test_decide_verdicts_on_pairs_equal_by_construction(pair):
    verdicts = _decide_against_brute_force(*pair)
    assert all(isinstance(v, ZeroUpTo) for v in verdicts)


# ---------------------------------------------------------------------------
# the engine against a size-DP oracle, at sizes brute force cannot reach


def _size_dp(a: Automaton, n_max: int) -> tuple:
    """S_0..S_n_max, S_m the sum of mu~(t) over the trees t of size m, by
    dynamic programming over sizes: each nonzero cell's raw SizeRational is
    evaluated at (m, m_1..m_k) for every composition of m - 1 into k parts and
    weighted by the children's S_{m_i}[s_i].  It reads no normal form, no
    integer denominators and no x0 rewrite, only the automaton's weights."""
    d = a.dimension
    leaves = [a.weight(name).cells for name in a.alphabet.of_arity(0)]
    nodes = [(a.weight(name).cells, k) for name, k in a.alphabet.symbols if k]
    sums = [[F(0)] * d]
    for cells in leaves:
        for (_, col), v in cells.items():
            sums[0][col] += v
    for m in range(1, n_max + 1):
        acc = [F(0)] * d
        for cells, k in nodes:
            for sizes in compositions(m - 1, k):
                for (row, col), entry in cells.items():
                    product = math.prod(sums[n][s] for n, s in zip(sizes, unrank_row(row, d, k)))
                    if product:
                        acc[col] += entry((m, *sizes)) * product
        sums.append(acc)
    return tuple(tuple(s) for s in sums)


_TERNARY = RankedAlphabet.of(("a", 0), ("u", 1), ("t", 3))


# seeds whose ternary weights give the last child an exponent of 2 or more,
# so the engine expands (m - n_1 - n_2)^e with its signs and binomial factors
@pytest.mark.parametrize("seed", [0, 5, 7, 9, 11, 12, 13, 17, 23, 24, 25, 27])
def test_engine_matches_size_dp_with_ternary_symbol(seed):
    a = _seeded_automaton(seed, _TERNARY, 2)
    form = common_form(a)
    assert max(exps[-1] for exps in form.symbols["t"].matrices) >= 2
    engine = ConvolutionEngine(initial_vector(a), form)
    # a coefficient of degree 2 or more in m: an n_3^e with e >= 2 was expanded
    assert any(type(c) is tuple and len(c) > 2 for *_, targets in engine._cells for _, c in targets)
    assert tuple(engine.up_to(12)) == _size_dp(a, 12)


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_size_dp_unary_only(seed):
    a = _seeded_automaton(seed, RankedAlphabet.of(("a", 0), ("b", 0), ("u", 1), ("v", 1)), 3)
    assert coefficients(a, 25).vectors == _size_dp(a, 25)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(automata(), automata())
def test_engine_matches_size_dp_on_closure_results(a1, a2):
    for a in (
        a1, ts_add(a1, a2), ts_hadamard(a1, a2), gf_add(a1, a2), gf_cauchy(a1, a2),
        gf_mul_shifted(a1, a2), gf_shift_forward(a1), gf_shift_backward(a1), gf_derive(a1),
        gf_integrate(a1),
    ):
        assert coefficients(a, 10).vectors == _size_dp(a, 10)
        assert dots_per_coefficient(a) <= form_key_convolutions(a)


@pytest.mark.parametrize("label, source", GOLD_SOURCES)
def test_engine_matches_size_dp_on_gold_automata(label, source):
    a = compile_rda(_gold_rds(label, source))
    assert coefficients(a, 12).vectors == _size_dp(a, 12)


@pytest.mark.parametrize("seed", range(30))
def test_engine_convolves_no_more_than_the_form_keys(seed):
    for alphabet in (_TERNARY, _WIDE):
        a = _seeded_automaton(seed, alphabet, 2 + seed % 2)
        assert dots_per_coefficient(a) <= form_key_convolutions(a)


# weights of the cells that share a left factor: constants and the sizes of
# the first children, which keep a cell's coefficient constant, and the last
# child's size and denominator, which go into the summed sequence; x_k^2 may
# turn a coefficient into a polynomial in m, which the engine keeps apart.  No
# weight has a denominator in x0, whose rewrite would do that to every cell
_SHARED_POOLS = {
    2: (["1", "-2", "2/3", "x1", "1/(1)*(x1+1)"], ["x2", "1/(1)*(1)*(x2+2)", "x2^2", "x1*x2"]),
    3: (["1", "-1/2", "x1*x2", "1/(1)*(x1+1)*(1)"], ["x3", "1/(1)*(1)*(1)*(x3+1)", "x3^2"]),
}


def _shared_left_automaton(seed: int) -> Automaton:
    """Three states over a/0, u/1, f/2, t/3.  For two left factors (the
    states of all children but the last) per symbol, 2 or 3 rows that differ
    only in the last state put weights into one column: cells that share a
    left factor and a column, a partial convolution of two sequences being
    the left factor of the ternary ones.  The first left factor's weights
    are constants and sizes of the first children only."""
    rng = random.Random(seed)
    d = 3
    weights = {
        "a": [[rng.choice([-1, 1, 2]) for _ in range(d)]],
        "u": {(rng.randrange(d), rng.randrange(d)): rng.choice(["1", "x1", "-1/3"])},
    }
    for name, k in (("f", 2), ("t", 3)):
        first, more = _SHARED_POOLS[k]
        cells = {}
        for pool in (first, first + more):
            left, col = tuple(rng.randrange(d) for _ in range(k - 1)), rng.randrange(d)
            for last in rng.sample(range(d), rng.randint(2, d)):
                cells[(row_index(left + (last,), d), col)] = rng.choice(pool)
        weights[name] = cells
    return Automaton.build(d, _WIDE, weights)


@pytest.mark.parametrize("seed", range(8))
def test_engine_matches_size_dp_on_cells_that_share_a_left_factor(seed):
    a = _shared_left_automaton(seed)
    engine = ConvolutionEngine(initial_vector(a), common_form(a))
    # some cell convolves a partial convolution with a sequence that sums cells
    summed = {terms for members, terms in engine._sequences if len(members) > 1}
    partials = {terms for *_, terms in engine._partials}
    assert any(left in partials and right in summed for left, right, _ in engine._cells)
    assert tuple(engine.up_to(25)) == _size_dp(a, 25)
