"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import functools
import math
import time
from fractions import Fraction as F

from species_gold import GOLD_SPECIES
from treeseries.closure import (
    gf_add,
    gf_cauchy,
    gf_derive,
    gf_integrate,
    gf_inverse,
    gf_mul_shifted,
    gf_scale,
    gf_shift_backward,
    gf_shift_forward,
    ts_add,
    ts_hadamard,
    ts_scale,
)
from treeseries.compile import compile_rda, da_to_rds, parse_da, parse_rds, taylor_oracle
from treeseries.core import count_trees, enumerate_trees, evaluate
from treeseries.decide import (
    NonzeroAt,
    ProvenZero,
    ZeroUpTo,
    check_zero_genfun,
    emit_differential_system,
)
from treeseries.series import (
    brute_force_coefficient,
    coefficients,
    generating_prefix,
    series_add,
    series_cauchy,
    series_scale,
)
from treeseries.species import count_species, parse_species
from zoo import (
    BELL_RDS_TEXT,
    BELL_SPECIES_TEXT,
    CUBIC_DA_TEXT,
    CUBIC_RDS_TEXT,
    LABELLED_TREES_SPECIES_TEXT,
    bell_automaton,
    cubic_automaton,
    labelled_trees_automaton,
    zero_automaton,
)

BELL_COUNTS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return wrapper

    return decorate


@criterion("1 Bell pipeline, three independent paths")
def test_criterion_1_bell_three_paths():
    start = time.monotonic()
    by_hand = generating_prefix(bell_automaton(), 10)
    by_rda = generating_prefix(compile_rda(parse_rds(BELL_RDS_TEXT)), 10)
    by_species = count_species(parse_species(BELL_SPECIES_TEXT), "F", 10)
    assert by_hand.coefficients == by_rda.coefficients
    scaled = [by_hand[n] * math.factorial(n) for n in range(11)]
    assert scaled == BELL_COUNTS
    assert by_species == BELL_COUNTS
    assert time.monotonic() - start < 5.0


@criterion("2 labelled trees, automaton and species")
def test_criterion_2_labelled_trees():
    start = time.monotonic()
    by_hand = generating_prefix(labelled_trees_automaton(), 10)
    by_species = count_species(parse_species(LABELLED_TREES_SPECIES_TEXT), "A", 10)
    for n in range(1, 11):
        assert by_hand[n] * math.factorial(n) == n ** (n - 1)
        assert by_species[n] == n ** (n - 1)
    assert by_hand[0] == 0 and by_species[0] == 0
    assert time.monotonic() - start < 5.0


@criterion("3 cubic ODE published prefix")
def test_criterion_3_cubic():
    start = time.monotonic()
    expected = {
        1: F(1),
        4: F(-2, math.factorial(4)),
        7: F(-20, math.factorial(7)),
        10: F(-3320, math.factorial(10)),
        13: F(-1598960, math.factorial(13)),
        16: F(-1757280800, math.factorial(16)),
    }
    via_rds = generating_prefix(compile_rda(parse_rds(CUBIC_RDS_TEXT)), 16)
    via_da = generating_prefix(compile_rda(da_to_rds(parse_da(CUBIC_DA_TEXT))), 16)
    for prefix in (via_rds, via_da):
        for n in range(17):
            assert prefix[n] == expected.get(n, F(0))
    assert time.monotonic() - start < 10.0


@criterion("4 brute-force oracle suite")
def test_criterion_4_brute_force():
    bell = bell_automaton()
    labelled = labelled_trees_automaton()
    cubic = cubic_automaton()
    shipped = [
        ("bell", bell),
        ("labelled", labelled),
        ("cubic", cubic),
        ("ts_add", ts_add(bell, labelled)),
        ("ts_scale", ts_scale(bell, F(-1, 2))),
        ("ts_hadamard", ts_hadamard(bell, labelled)),
        ("gf_add", gf_add(bell, labelled)),
        ("gf_scale", gf_scale(bell, 3)),
        ("gf_shift_forward", gf_shift_forward(bell)),
        ("gf_mul_shifted", gf_mul_shifted(bell, labelled)),
        ("gf_shift_backward", gf_shift_backward(bell)),
        ("gf_derive", gf_derive(labelled)),
        ("gf_integrate", gf_integrate(bell)),
        ("gf_cauchy", gf_cauchy(bell, labelled)),
        ("gf_inverse", gf_inverse(bell)),
    ]
    budget = 150_000  # enumeration stays well under the 10^6 guard
    for name, a in shipped:
        vectors = coefficients(a, 6)
        checked = 0
        for n in range(7):
            if count_trees(a.alphabet, n) > budget:
                break
            assert brute_force_coefficient(a, n) == vectors[n], (name, n)
            checked = n
        assert checked >= 3, name  # every output is checked to at least size 3


@criterion("5 closure algebra suite")
def test_criterion_5_closure_algebra():
    start = time.monotonic()
    bell = bell_automaton()
    labelled = labelled_trees_automaton()
    n = 8
    pb = generating_prefix(bell, n + 1)
    pl = generating_prefix(labelled, n + 1)

    def prefix(a):
        return generating_prefix(a, n).coefficients

    assert prefix(gf_add(bell, labelled)) == series_add(pb, pl).coefficients[: n + 1]
    assert prefix(gf_scale(bell, F(7, 3))) == series_scale(pb, F(7, 3)).coefficients[: n + 1]
    assert prefix(gf_shift_forward(bell)) == (F(0),) + pb.coefficients[:n]
    assert (
        prefix(gf_mul_shifted(bell, labelled))
        == ((F(0),) + series_cauchy(pb, pl).coefficients)[: n + 1]
    )
    assert prefix(gf_shift_backward(bell)) == pb.coefficients[1:]
    assert prefix(gf_derive(bell)) == tuple(
        (m + 1) * pb[m + 1] for m in range(n + 1)
    )
    assert prefix(gf_integrate(bell)) == (F(0),) + tuple(
        pb[m] / (m + 1) for m in range(n)
    )
    assert prefix(gf_cauchy(bell, labelled)) == series_cauchy(pb, pl).coefficients[: n + 1]
    inverse = [1 / pb[0]]
    for m in range(1, n + 1):
        inverse.append(-1 / pb[0] * sum(pb[i + 1] * inverse[m - 1 - i] for i in range(m)))
    assert prefix(gf_inverse(bell)) == tuple(inverse)

    trees = [
        t for size in range(4) for t in enumerate_trees(bell.alphabet, size)
    ]
    pairs = [
        (ts_add(bell, labelled), lambda v1, v2: v1 + v2),
        (ts_hadamard(bell, labelled), lambda v1, v2: v1 * v2),
    ]
    for result, combine in pairs:
        for t in trees:
            assert evaluate(result, t)[1] == combine(
                evaluate(bell, t)[1], evaluate(labelled, t)[1]
            )
    scaled = ts_scale(bell, F(-5, 7))
    for t in trees:
        assert evaluate(scaled, t)[1] == F(-5, 7) * evaluate(bell, t)[1]
    assert time.monotonic() - start < 30.0


@criterion("6 species gold table")
def test_criterion_6_gold_species():
    from treeseries.species import species_to_rds

    for name, spec_text, target, rds_text, var in GOLD_SPECIES:
        spec = parse_species(spec_text)
        mine = species_to_rds(spec, target)
        printed = parse_rds(rds_text)
        assert (
            taylor_oracle(mine, 10)[target].coefficients
            == taylor_oracle(printed, 10)[var].coefficients
        ), name
    fubini = [1]
    for n in range(1, 11):
        fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    assert count_species(parse_species("M = sequence(set(X, card>=1))"), "M", 10) == fubini


@criterion("7 decision procedure honesty")
def test_criterion_7_decision_honesty():
    bell = bell_automaton()
    cancel = gf_add(bell, gf_scale(bell, -1))
    verdict = check_zero_genfun(cancel, 20)
    assert isinstance(verdict, ZeroUpTo) and verdict.n == 20
    bound = verdict.to_json_dict()["bound"]
    assert bound["base"] == 2 and int(bound["exponent"]) > 10**9
    # the Bell automaton's own bound is the worked formula value
    from treeseries.decide import compute_bound

    assert compute_bound(bell).to_json_dict() == {"base": 2, "exponent": "838860800"}
    # nonzero witnesses re-verify by direct coefficient computation
    for a in (bell, labelled_trees_automaton(), cubic_automaton()):
        v = check_zero_genfun(a, 10)
        assert isinstance(v, NonzeroAt)
        assert coefficients(a, v.n)[v.n][0] == v.witness != 0
    v = check_zero_genfun(zero_automaton(), 5)
    assert isinstance(v, ProvenZero)
    assert v.bound.small_value() == 0


@criterion("8 uniqueness via forward solving")
def test_criterion_8_forward_solve():
    bell_series = [F(c, math.factorial(n)) for n, c in enumerate(BELL_COUNTS)]
    cubic_series = taylor_oracle(parse_rds(CUBIC_RDS_TEXT), 10)["y1"].coefficients
    cases = [(bell_automaton(), bell_series), (cubic_automaton(), cubic_series)]
    for a, series in cases:
        solved = emit_differential_system(a).forward_solve(10)
        for n in range(8):
            assert solved[n] == brute_force_coefficient(a, n)
        assert solved.firsts().coefficients == tuple(series)
