import math
import sys
from fractions import Fraction as F

import pytest

from treeseries.closure import gf_add, gf_scale, ts_add, ts_scale
from treeseries.compile import (
    DFiniteRecurrence,
    compile_dfinite,
    compile_rda,
    parse_rds,
    taylor_oracle,
)
from treeseries.core import Automaton, RankedAlphabet, Tree, enumerate_trees, evaluate
from treeseries.decide import (
    DifferAt,
    NonzeroAt,
    ProvenZero,
    ZeroUpTo,
    check_equiv_genfun,
    check_equiv_tree_series,
    check_zero_genfun,
    check_zero_tree_series,
    compute_bound,
    emit_differential_system,
)
from treeseries.exactmath import UniPolynomial, normalize_common_denominator
from treeseries.series import CoefficientStream, brute_force_coefficient, coefficients
from treeseries.species import parse_species, species_to_rds
from zoo import BELL_RDS_TEXT, CUBIC_RDS_TEXT, SIGNATURE


# ---------------------------------------------------------------------------
# bounds


def test_bound_zero_automaton(zero):
    bound = compute_bound(zero)
    assert bound.max_arity == 0
    assert bound.small_value() == 0
    assert bound.cap_reaches(0)


def test_bound_bell_exact_values(bell):
    bound = compute_bound(bell)
    assert (bound.dimension, bound.max_arity, bound.s) == (2, 2, 1)
    assert bound.m == 25
    assert bound.exponent == 25 * 2**25 == 838860800
    assert bound.to_json_dict() == {"base": 2, "exponent": "838860800"}
    assert not bound.cap_reaches(10**9)


def test_bound_unchanged_by_unit_scale(bell):
    assert compute_bound(gf_scale(bell, 1)) == compute_bound(bell)


def test_bound_unary_uses_variable_count():
    r = DFiniteRecurrence((UniPolynomial((0, 1)), UniPolynomial((-1,))), (F(1),))
    a = compile_dfinite(r)
    bound = compute_bound(a)
    assert bound.max_arity == 1
    assert bound.small_value() == bound.m
    assert bound.cap_reaches(bound.m)
    assert not bound.cap_reaches(bound.m - 1)


def test_lazy_comparison_never_materializes(bell):
    bound = compute_bound(bell)
    # huge caps still compare exactly without computing 2^838860800
    assert not bound.cap_reaches(2**4096)


# ---------------------------------------------------------------------------
# zeroness of generating functions


def test_zero_automaton_proven(zero):
    verdict = check_zero_genfun(zero, 5)
    assert isinstance(verdict, ProvenZero)
    assert verdict.bound.small_value() == 0


def test_bell_nonzero_at_origin(bell):
    verdict = check_zero_genfun(bell, 5)
    assert verdict == NonzeroAt(0, F(1))


def test_bell_minus_bell_zero_up_to(bell):
    verdict = check_zero_genfun(gf_add(bell, gf_scale(bell, -1)), 20)
    assert isinstance(verdict, ZeroUpTo)
    assert verdict.n == 20
    assert verdict.bound.max_arity == 2
    assert verdict.bound.small_value() is None
    payload = verdict.to_json_dict()
    assert payload["verdict"] == "zero_up_to"
    assert payload["bound"]["base"] == 2


def test_binary_zero_prefix_never_proven():
    # a D=2 automaton with identically-zero series still only gets ZeroUpTo
    zero2 = Automaton.build(
        1,
        SIGNATURE,
        {"sigma0": [0], "sigma1": [["1/(x0)"]], "sigma2": [["1"]]},
    )
    verdict = check_zero_genfun(zero2, 100)
    assert isinstance(verdict, ZeroUpTo)


def test_nonzero_witness_reverifies(bell, labelled, cubic):
    for a in (bell, labelled, cubic):
        verdict = check_zero_genfun(a, 10)
        assert isinstance(verdict, NonzeroAt)
        assert coefficients(a, verdict.n)[verdict.n][0] == verdict.witness
        assert verdict.witness != 0


# ---------------------------------------------------------------------------
# equivalence of generating functions


def test_equiv_self(bell):
    verdict = check_equiv_genfun(bell, bell, 12)
    assert isinstance(verdict, ZeroUpTo)
    assert verdict.n == 12


def test_equiv_bell_paths(bell):
    other = compile_rda(parse_rds(BELL_RDS_TEXT))
    verdict = check_equiv_genfun(bell, other, 20)
    assert isinstance(verdict, ZeroUpTo)


def test_equiv_bell_vs_labelled(bell, labelled):
    assert check_equiv_genfun(bell, labelled, 10) == NonzeroAt(0, F(1))


# ---------------------------------------------------------------------------
# tree series


def test_tree_zero_cancellation(bell):
    diff = ts_add(bell, ts_scale(bell, -1))
    verdict = check_zero_tree_series(diff, 8)
    assert isinstance(verdict, ZeroUpTo)


def test_tree_zero_witness(bell):
    verdict = check_zero_tree_series(bell, 8)
    assert verdict == DifferAt(Tree("sigma0"), (F(1),))
    assert evaluate(bell, verdict.tree)[1] == verdict.values[0]


def test_tree_equiv_self(bell):
    verdict = check_equiv_tree_series(bell, bell, 6)
    assert isinstance(verdict, ZeroUpTo)


def test_tree_equiv_permuted_states(bell):
    # swap the two states of the Bell automaton: same tree series
    swapped = Automaton.build(
        2,
        SIGNATURE,
        {
            "sigma0": [1, 1],
            "sigma1": [["1/(x0)", "0"], ["0", "0"]],
            "sigma2": [
                ["0", "0"],
                ["0", "1/(x0)"],
                ["0", "0"],
                ["0", "0"],
            ],
        },
    )
    # swapping states permutes mu~, so compare against the value-preserving
    # automaton that reads the swapped first coordinate
    from treeseries.core import FinalVector, absorb_final_vector

    realigned = absorb_final_vector(swapped, FinalVector.of(0, 1))
    verdict = check_equiv_tree_series(bell, realigned, 6)
    assert isinstance(verdict, ZeroUpTo)


def test_tree_equiv_scaled_differs(bell):
    verdict = check_equiv_tree_series(bell, ts_scale(bell, 2), 6)
    assert isinstance(verdict, DifferAt)
    assert verdict.tree == Tree("sigma0")
    assert verdict.values == (F(1), F(2))
    v1 = evaluate(bell, verdict.tree)[1]
    assert v1 != 2 * v1


def test_tree_witness_search_reports_too_many():
    # every tree of size n has value g(n), with g vanishing below 16; the
    # witnesses at size 16 sit among more trees than the enumeration guard
    from treeseries.errors import TooManyTrees
    from treeseries.exactmath import (
        MultiPolynomial,
        SizeRational,
        UniPolynomial,
        format_size_rational,
    )

    poly = UniPolynomial((1,))
    for root in range(1, 16):
        poly = poly * UniPolynomial((-root, 1))
    g16 = SizeRational(MultiPolynomial.from_uni(poly, 3, 0))
    a = Automaton.build(
        2,
        RankedAlphabet.of(("a", 0), ("f", 2)),
        {
            "a": [0, 1],
            "f": [
                ["0", "0"],
                ["0", "0"],
                ["0", "0"],
                [format_size_rational(g16), "1"],
            ],
        },
    )
    for tree in enumerate_trees(a.alphabet, 3):
        assert evaluate(a, tree)[1] == 0
    with pytest.raises(TooManyTrees) as err:
        check_zero_tree_series(a, 20)
    assert "size 16" in str(err.value)


# ---------------------------------------------------------------------------
# the defining differential system


def test_emit_nullary_only(zero):
    system = emit_differential_system(zero)
    assert system.equation_count() == 1
    solved = system.forward_solve(5)
    assert all(v == (F(0),) for v in solved.vectors)


def _assert_solves_to(a, first_components):
    """forward_solve against the independent oracles: every vector to size 7
    by brute force, the generating function to size 10 by the given values."""
    solved = emit_differential_system(a).forward_solve(10)
    for n in range(8):
        assert solved[n] == brute_force_coefficient(a, n), n
    assert solved.firsts().coefficients == tuple(first_components)


def test_forward_solve_matches_oracles(bell, labelled, cubic):
    bell_counts = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    _assert_solves_to(bell, [F(c, math.factorial(n)) for n, c in enumerate(bell_counts)])
    _assert_solves_to(
        labelled, [F(n ** (n - 1), math.factorial(n)) if n else F(0) for n in range(11)]
    )
    cubic_series = taylor_oracle(parse_rds(CUBIC_RDS_TEXT), 10)["y1"].coefficients
    _assert_solves_to(cubic, cubic_series)


def test_forward_solve_equals_coefficient_stream(bell, labelled, cubic):
    for a in (bell, labelled, cubic):
        solved = emit_differential_system(a).forward_solve(40)
        assert solved.vectors == tuple(CoefficientStream(a).up_to(40))


def test_forward_solve_on_rda_output():
    a = compile_rda(parse_rds(BELL_RDS_TEXT))
    _assert_solves_to(a, taylor_oracle(parse_rds(BELL_RDS_TEXT), 10)["y1"].coefficients)


def test_check_zero_genfun_normalizes_once(bell, monkeypatch):
    calls = []
    original = normalize_common_denominator

    def counted(weights):
        calls.append(len(weights))
        return original(weights)

    modules = [m for name, m in sys.modules.items() if name.startswith("treeseries")]
    for module in modules:
        if getattr(module, "normalize_common_denominator", None) is original:
            monkeypatch.setattr(module, "normalize_common_denominator", counted)
    verdict = check_zero_genfun(gf_add(bell, gf_scale(bell, -1)), 12)
    assert isinstance(verdict, ZeroUpTo) and verdict.n == 12
    assert len(calls) == 1


def test_equation_count_formula(bell, cubic):
    # d (1 + sum |Sigma_k| k) scalar equations
    assert emit_differential_system(bell).equation_count() == 2 * (1 + 1 + 2)
    assert emit_differential_system(cubic).equation_count() == 4 * (1 + 1 + 2)


def test_equations_text_mentions_reduction(bell):
    text = emit_differential_system(bell).equations_text()
    assert "Q(x) = x" in text
    assert "V_i" in text and "h_1" in text


# ---------------------------------------------------------------------------
# wide automata


def _hierarchies():
    return compile_rda(species_to_rds(parse_species("H = X + set(H, card>=2)"), "H"))


def test_hierarchies_minus_itself_is_zero_as_tree_series():
    # the Hadamard square of H - H has dimension 196; scanned to cap 12
    h = _hierarchies()
    verdict = check_zero_tree_series(ts_add(h, ts_scale(h, -1)), 12)
    assert isinstance(verdict, ZeroUpTo) and verdict.n == 12
    assert verdict.bound.dimension == 14 * 14


def test_bound_repr_stays_short():
    h = _hierarchies()
    verdict = check_zero_tree_series(ts_add(h, ts_scale(h, -1)), 12)
    bound = verdict.bound
    m = bound.m
    assert bound.exponent == m * 2**m and len(str(bound.exponent)) > 900
    assert f"exponent={m}*2^{m}" in repr(bound)
    assert len(repr(verdict)) < 150
    assert bound.describe() == f"2^{m * 2**m}"
    assert bound.to_json_dict() == {"base": 2, "exponent": str(m * 2**m)}
