import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

from treeseries.core import (
    ENUMERATION_GUARD,
    Automaton,
    FinalVector,
    RankedAlphabet,
    Tree,
    absorb_final_vector,
    automaton_from_json,
    automaton_to_json,
    check_tree,
    compositions,
    count_trees,
    enumerate_trees,
    evaluate,
    format_tree,
    kron,
    make_arity_distinct,
    parse_tree,
    tree_size,
    unify_alphabets,
)
from treeseries._trees import _beyond_guard
from treeseries.errors import (
    InvalidBeta,
    InvariantError,
    SymbolMismatch,
    TooManyTrees,
)
from treeseries.exactmath import UniPolynomial, parse_size_rational
from treeseries.series import generating_prefix
from zoo import SIGNATURE


def t(name, *children):
    return Tree(name, tuple(children))


# ---------------------------------------------------------------------------
# alphabets and trees


def test_alphabet_requires_nullary():
    with pytest.raises(InvariantError):
        RankedAlphabet.of(("f", 2))


def test_alphabet_rejects_duplicates():
    with pytest.raises(InvariantError):
        RankedAlphabet.of(("a", 0), ("a", 1))


@pytest.mark.parametrize("name", ["a b", "", "f(", "sigma0)", "a,b", "x\ty"])
def test_alphabet_rejects_a_name_no_tree_can_hold(name):
    # format_tree would write a tree that parse_tree reads as another one
    with pytest.raises(InvariantError, match="cannot be read in a tree"):
        RankedAlphabet.of((name, 0), ("f", 1))


def test_every_name_the_alphabet_accepts_reads_back_from_a_tree():
    # the names the package makes up (closure, make_arity_distinct, the
    # compilers), and random strings over symbol and syntax characters
    names = ["__u", "__u2", "__r_sigma0", "h0", "h2", "eps", "sigma", "sigma12", "g3"]
    rng = random.Random(3)
    names += ["".join(rng.choice("a0_-'\u0663() ,/") for _ in range(rng.randrange(4)))
              for _ in range(300)]
    accepted = 0
    for name in names:
        try:
            RankedAlphabet.of((name, 0))
        except InvariantError:
            continue
        accepted += 1
        assert parse_tree(format_tree(t(name))) == t(name)
        assert parse_tree(format_tree(t(name, t(name)))) == t(name, t(name))
    assert accepted >= 50


def test_tree_size():
    assert tree_size(t("sigma0")) == 0
    assert tree_size(t("sigma2", t("sigma0"), t("sigma1", t("sigma0")))) == 2
    assert tree_size(t("sigma1", t("sigma1", t("sigma1", t("sigma0"))))) == 3


def test_tree_parse_format_round_trip():
    text = "(sigma2 (sigma0) (sigma1 (sigma0)))"
    tree = parse_tree(text)
    assert tree == t("sigma2", t("sigma0"), t("sigma1", t("sigma0")))
    assert format_tree(tree) == text
    assert parse_tree("sigma0") == t("sigma0")


def test_check_tree_rejects_bad_arity():
    with pytest.raises(SymbolMismatch):
        check_tree(SIGNATURE, t("sigma1"))
    with pytest.raises(SymbolMismatch):
        check_tree(SIGNATURE, t("mystery"))


# ---------------------------------------------------------------------------
# Kronecker products


def test_kron_definition():
    assert kron((F(1), F(2)), (F(3), F(4))) == (F(3), F(4), F(6), F(8))
    assert kron((F(1), F(1)), (F(1), F(1))) == (F(1),) * 4


def test_kron_mixed_product_property():
    # (u (x) v) (A (x) B) = (uA) (x) (vB) on small rational matrices
    u = (F(1), F(2))
    v = (F(3), F(-1), F(2))
    a_mat = [[F(1), F(2)], [F(0), F(1)]]
    b_mat = [[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]

    def mat_vec(vec, m):
        cols = len(m[0])
        return tuple(
            sum((vec[i] * m[i][j] for i in range(len(vec))), F(0)) for j in range(cols)
        )

    def mat_kron(m1, m2):
        rows = []
        for r1 in m1:
            for r2 in m2:
                rows.append([x * y for x in r1 for y in r2])
        return rows

    lhs = mat_vec(kron(u, v), mat_kron(a_mat, b_mat))
    rhs = kron(mat_vec(u, a_mat), mat_vec(v, b_mat))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_bell_examples(bell):
    assert evaluate(bell, t("sigma0")) == ((F(1), F(1)), F(1))
    assert evaluate(bell, t("sigma1", t("sigma0"))) == ((F(0), F(1)), F(0))
    assert evaluate(bell, t("sigma2", t("sigma0"), t("sigma0"))) == ((F(1), F(0)), F(1))


def test_evaluate_rejects_unknown_symbol(bell):
    with pytest.raises(SymbolMismatch):
        evaluate(bell, t("nope"))


def test_evaluate_total_on_enumerated_trees(bell, labelled, cubic):
    # the ring membership conditions keep every weight defined on real trees
    for a in (bell, labelled, cubic):
        for n in range(5):
            for tree in enumerate_trees(a.alphabet, n):
                evaluate(a, tree)


# ---------------------------------------------------------------------------
# final vectors


def test_final_vector_rejects_nonnegative_roots():
    with pytest.raises(InvalidBeta):
        FinalVector.of((UniPolynomial.const(1), UniPolynomial((0, 1))))  # 1/x


def test_absorb_unit_vector_preserves_values(bell):
    out = absorb_final_vector(bell, FinalVector.unit(bell.dimension))
    assert out.dimension == bell.dimension + 1
    for n in range(5):
        for tree in enumerate_trees(bell.alphabet, n):
            assert evaluate(out, tree)[1] == evaluate(bell, tree)[1]


def test_absorb_size_multiplier(bell):
    beta = FinalVector.of((UniPolynomial.x(), UniPolynomial.const(1)), 0)
    out = absorb_final_vector(bell, beta)
    for n in range(5):
        for tree in enumerate_trees(bell.alphabet, n):
            assert evaluate(out, tree)[1] == n * evaluate(bell, tree)[1]


def test_absorb_integral_weight(bell):
    beta = FinalVector.of((UniPolynomial.const(1), UniPolynomial((1, 1))), 0)
    out = absorb_final_vector(bell, beta)
    for n in range(5):
        for tree in enumerate_trees(bell.alphabet, n):
            assert evaluate(out, tree)[1] == evaluate(bell, tree)[1] / (1 + n)


def test_absorb_matches_mu_beta_generally(bell, labelled):
    beta = FinalVector.of(
        (UniPolynomial((1, 2)), UniPolynomial((1, 1))),  # (1+2x)/(1+x)
        (UniPolynomial((0, 0, 1)), UniPolynomial.const(1)),  # x^2
    )
    for a in (bell, labelled):
        out = absorb_final_vector(a, beta)
        for n in range(5):
            for tree in enumerate_trees(a.alphabet, n):
                mu, _ = evaluate(a, tree)
                expected = sum(
                    (mu[j] * v for j, v in enumerate(beta.value_at(n))), F(0)
                )
                assert evaluate(out, tree)[1] == expected


# ---------------------------------------------------------------------------
# alphabet normalizations


def test_make_arity_distinct_merges_nullaries():
    alphabet = RankedAlphabet.of(("a", 0), ("b", 0))
    a = Automaton.build(1, alphabet, {"a": [1], "b": [2]})
    out = make_arity_distinct(a)
    assert out.alphabet.symbols == (("h0", 0),)
    assert out.weight("h0")[0] == (F(3),)


def test_make_arity_distinct_preserves_series(bell):
    out = make_arity_distinct(bell)
    assert (
        generating_prefix(out, 6).coefficients
        == generating_prefix(bell, 6).coefficients
    )


def test_make_arity_distinct_sums_same_arity():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2), ("g", 2))
    one = "1"
    a = Automaton.build(
        1, alphabet, {"a": [1], "f": [[one]] * 1 + [[one]] * 0, "g": [["2"]]}
    )
    out = make_arity_distinct(a)
    assert out.weight("h2")[0][0]((1, 0, 0)) == F(3)
    for n in range(6):
        assert (
            generating_prefix(out, 5).coefficients
            == generating_prefix(a, 5).coefficients
        )


def test_unify_identical_alphabets_is_identity(bell, labelled):
    b1, b2 = unify_alphabets(bell, labelled)
    assert b1 is bell and b2 is labelled


def test_unify_disjoint_alphabets():
    a1 = Automaton.build(
        1,
        RankedAlphabet.of(("a", 0), ("f", 1)),
        {"a": [1], "f": [["1/(x0)"]]},
    )
    a2 = Automaton.build(
        1,
        RankedAlphabet.of(("b", 0), ("g", 2)),
        {"b": [2], "g": [["1"]] * 1},
    )
    u1, u2 = unify_alphabets(a1, a2)
    assert u1.alphabet == u2.alphabet
    assert [k for _, k in u1.alphabet.symbols] == [0, 1, 2]
    for orig, unified in ((a1, u1), (a2, u2)):
        assert (
            generating_prefix(unified, 5).coefficients
            == generating_prefix(orig, 5).coefficients
        )


def test_unify_pads_only_the_smaller(bell):
    a2 = Automaton.build(
        1, RankedAlphabet.of(("b", 0), ("g", 1)), {"b": [1], "g": [["1/(x0)"]]}
    )
    u1, u2 = unify_alphabets(bell, a2)
    assert u1.alphabet == u2.alphabet
    assert (
        generating_prefix(u1, 5).coefficients
        == generating_prefix(bell, 5).coefficients
    )


# ---------------------------------------------------------------------------
# tree enumeration


def test_enumerate_single_leaf():
    alphabet = RankedAlphabet.of(("a", 0))
    assert enumerate_trees(alphabet, 0) == [t("a")]
    assert enumerate_trees(alphabet, 1) == []


def test_enumerate_counts_match_convolution_recurrence():
    # c_n = c_{n-1} + sum_{i+j=n-1} c_i c_j with c_0 = 1 over {a/0, u/1, f/2}
    alphabet = RankedAlphabet.of(("a", 0), ("u", 1), ("f", 2))
    c = [1]
    for n in range(1, 7):
        c.append(c[n - 1] + sum(c[i] * c[n - 1 - i] for i in range(n)))
    for n in range(7):
        trees = enumerate_trees(alphabet, n)
        assert len(trees) == c[n] == count_trees(alphabet, n)
        assert len(set(map(format_tree, trees))) == len(trees)
        assert all(tree_size(tree) == n for tree in trees)
    assert c[2] == 6


def _count_by_compositions(alphabet, n):
    """Tree count summed over every composition of m - 1 into k parts."""
    counts = [len(alphabet.of_arity(0))]
    for m in range(1, n + 1):
        counts.append(sum(
            how_many * math.prod(counts[part] for part in comp)
            for k, how_many in alphabet.arity_counts().items() if k > 0
            for comp in compositions(m - 1, k)
        ))
    return counts[n]


@pytest.mark.parametrize("seed", range(12))
def test_count_trees_matches_the_composition_count(seed):
    rng = random.Random(seed)
    pairs = [("a", 0)] + [(f"s{i}", rng.randint(0, 4)) for i in range(rng.randint(1, 5))]
    alphabet = RankedAlphabet.of(*pairs)
    for n in range(9):
        assert count_trees(alphabet, n) == _count_by_compositions(alphabet, n), (pairs, n)


def test_count_trees_of_a_wide_symbol():
    # 60-ary trees with n internal nodes: the Fuss-Catalan number
    # C(60n, n) / (59n + 1); counting size 6 must not walk the C(64, 5)
    # compositions of 5 into 60 parts
    alphabet = RankedAlphabet.of(("a", 0), ("f", 60))
    for n in range(8):
        assert count_trees(alphabet, n) == math.comb(60 * n, n) // (59 * n + 1)


@pytest.mark.parametrize("leaves", [2, 3])
def test_wide_alphabet_shortcut_agrees_with_the_count(leaves):
    for k in range(1, 26):
        pairs = [(f"a{i}", 0) for i in range(leaves)] + [("f", k), ("u", 1)]
        alphabet = RankedAlphabet.of(*pairs)
        for n in range(4):
            beyond = count_trees(alphabet, n) > ENUMERATION_GUARD
            assert _beyond_guard(alphabet, n) == beyond, (k, n)


_WIDE_SYMBOL = """
from treeseries.core import RankedAlphabet, Tree, enumerate_trees
from treeseries.errors import TooManyTrees

alphabet = RankedAlphabet.of(("a", 0), ("b", 0), ("f", 10**11))
assert enumerate_trees(alphabet, 0) == [Tree("a"), Tree("b")]
try:
    enumerate_trees(alphabet, 1)
except TooManyTrees:
    print("refused")
"""


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_enumerate_guard_on_a_very_wide_symbol():
    # 2^(10^11) trees of size 1: refused without building that number.  The
    # check runs in a child under a 1 GiB address-space limit and a timeout,
    # so a guard that did build it fails here instead of exhausting memory
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _WIDE_SYMBOL], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_memory,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused\n"


def test_enumerate_guard_stops_at_the_first_size_past_it():
    # the counts never fall once a symbol has arity >= 1, so the guard needs
    # only the Catalan numbers up to C_15, not the 4,000 counts up to size 4,000
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2))
    start = time.perf_counter()
    with pytest.raises(TooManyTrees):
        enumerate_trees(alphabet, 4000)
    assert time.perf_counter() - start < 2


def test_enumerate_catalan():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2))
    assert len(enumerate_trees(alphabet, 3)) == 5


def test_enumerate_below_size_zero():
    # n = -1 is empty for every alphabet, n < -1 is refused by the guard
    for alphabet in (RankedAlphabet.of(("a", 0), ("f", 2)), RankedAlphabet.of(("a", 0), ("u", 1))):
        assert enumerate_trees(alphabet, -1) == []
        with pytest.raises(ValueError):
            enumerate_trees(alphabet, -2)


def test_enumerate_guard():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2))
    with pytest.raises(TooManyTrees):
        enumerate_trees(alphabet, 16)


def test_enumerate_deterministic_order():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2))
    first = [format_tree(x) for x in enumerate_trees(alphabet, 3)]
    second = [format_tree(x) for x in enumerate_trees(alphabet, 3)]
    assert first == second


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(bell, labelled, cubic):
    for a in (bell, labelled, cubic):
        again = automaton_from_json(automaton_to_json(a))
        assert again == a
        assert automaton_to_json(again) == automaton_to_json(a)


def test_json_rejects_out_of_range_column():
    import json

    from treeseries.errors import InputFormatError

    payload = {
        "dimension": 1,
        "alphabet": [{"name": "a", "arity": 0}],
        "weights": {"a": {"entries": [{"row": [], "col": 0, "value": "1"}]}},
    }
    with pytest.raises(InputFormatError):
        automaton_from_json(json.dumps(payload))
    payload["weights"]["a"]["entries"][0]["col"] = 2
    with pytest.raises(InputFormatError):
        automaton_from_json(json.dumps(payload))


def _wide_bell(d: int) -> Automaton:
    """The Bell automaton on states 0 and 1 of a dimension-d automaton whose
    other states carry weights that never reach states 0 and 1."""
    top = d - 1
    return Automaton.build(
        d,
        SIGNATURE,
        {
            "sigma0": {(0, 0): 1, (0, 1): 1, (0, top): 2},
            "sigma1": {(1, 1): "1/(x0)", **{(i, i - 1): "1/(x0+1)" for i in range(3, d)}},
            "sigma2": {
                (d, 0): "1/(x0)",  # row (1, 0)
                (top * d + 2, 3): "(x1+1)/(x0)",  # row (top, 2)
                (d * d - 1, top): "-1",  # row (top, top)
            },
        },
    )


def test_wide_sparse_automaton_loads_and_computes(bell):
    from treeseries.decide import ZeroUpTo, check_equiv_genfun

    d = 2000  # a dense binary weight would hold 8 * 10^9 cells
    text = automaton_to_json(_wide_bell(d))
    a = automaton_from_json(text)
    assert automaton_to_json(a) == text
    assert a == _wide_bell(d)
    assert len(a.weight("sigma2")) == d * d
    assert a.weight("sigma2")[d * d - 1][d - 1] == a.weight("sigma2").cells[(d * d - 1, d - 1)]
    assert generating_prefix(a, 10) == generating_prefix(bell, 10)
    verdict = check_equiv_genfun(a, bell, 10)
    assert isinstance(verdict, ZeroUpTo) and verdict.n == 10


def test_weights_store_nonzero_cells_only():
    a = Automaton.build(
        2, SIGNATURE,
        {"sigma0": [0, 3], "sigma1": {(0, 1): "0", (1, 0): "x1"},
         "sigma2": [["0", "0"], ["0", "0"], ["1/(x0)", "0"], ["0", "0"]]},
    )
    assert list(a.weight("sigma0").cells) == [(0, 1)]
    assert list(a.weight("sigma1").cells) == [(1, 0)]
    assert list(a.weight("sigma2").cells) == [(2, 0)]
    assert a.weight("sigma0")[0] == (F(0), F(3))
    assert a.weight("sigma1")[0][1].is_zero
    with pytest.raises(InvariantError):
        Automaton.build(2, SIGNATURE, {"sigma0": [1, 1], "sigma1": {(2, 0): "1"},
                                       "sigma2": {}})
    with pytest.raises(InvariantError):
        Automaton.build(2, SIGNATURE, {"sigma0": [1, 1], "sigma1": [["1", "0"]],
                                       "sigma2": {}})


@pytest.mark.parametrize("arity", [1, 3])
def test_build_refuses_a_size_rational_of_another_arity(arity):
    # a SizeRational entry is stored as given: one over fewer size variables
    # is not padded, and one over more is refused the same way
    entry = parse_size_rational("x1/(x0)", arity)
    with pytest.raises(InvariantError):
        Automaton.build(2, SIGNATURE, {"sigma0": [1, 1], "sigma1": {},
                                       "sigma2": {(0, 1): entry}})


def test_normalization_folds_each_distinct_denominator_once(bell, monkeypatch):
    from treeseries import exactmath
    from treeseries.closure import gf_add, gf_scale

    a = gf_add(_wide_bell(2000), gf_scale(bell, -1))
    weights = [(name, k, a.weight(name)) for name, k in a.alphabet.symbols if k >= 1]
    # x0 denominators share one lcm; child denominators have one lcm per symbol and child
    distinct = {
        (name if v else None, v, den)
        for name, _, matrix in weights
        for entry in matrix.cells.values()
        for v, den in enumerate(entry.dens)
        if not den.is_one
    }
    cells = sum(len(matrix.cells) for _, _, matrix in weights)
    calls = []
    poly_lcm = exactmath.poly_lcm  # normalization folds denominators in exactmath
    monkeypatch.setattr(exactmath, "poly_lcm", lambda p, q: calls.append(1) or poly_lcm(p, q))
    form = exactmath.normalize_common_denominator(weights)
    assert cells > 2000 and 0 < len(calls) <= len(distinct) <= 3
    assert form.q0 == UniPolynomial((0, 1)) * UniPolynomial((1, 1))


def test_wide_sparse_automaton_matches_brute_force():
    from treeseries.series import brute_force_coefficient, coefficients

    a = _wide_bell(12)
    vectors = coefficients(a, 5).vectors
    for n in range(6):
        assert vectors[n] == brute_force_coefficient(a, n), n
    assert [v[0] for v in vectors] == [1, 1, F(2, 2), F(5, 6), F(15, 24), F(52, 120)]
