import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from species_gold import GOLD_SPECIES
from treeseries import series
from treeseries.compile import (
    DFiniteRecurrence,
    compile_cda,
    compile_dfinite,
    compile_rda,
    parse_rds,
)
from treeseries.core import RankedAlphabet, Automaton, automaton_from_json, unrank_row
from treeseries.exactmath import UniPolynomial
from treeseries.series import (
    CoefficientStream,
    ConvolutionEngine,
    SeriesPrefix,
    brute_force_coefficient,
    coefficients,
    common_form,
    generating_prefix,
    initial_vector,
    s_derive,
    series_add,
    series_cauchy,
    series_scale,
)
from treeseries.species import count_species, parse_species, species_to_rds

BELL_COUNTS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_bell_prefix(bell):
    prefix = generating_prefix(bell, 6)
    assert prefix.coefficients == (
        F(1), F(1), F(1), F(5, 6), F(5, 8), F(13, 30), F(203, 720),
    )


def test_bell_counts_to_ten(bell):
    prefix = generating_prefix(bell, 10)
    for n, count in enumerate(BELL_COUNTS):
        assert prefix[n] * math.factorial(n) == count


def test_bell_prefix_to_200(bell):
    # Bell numbers by the Bell triangle; the engine's shared denominators
    # grow far past the reduced coefficients here
    row, bell_numbers = [1], [1]
    for _ in range(200):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bell_numbers.append(row[0])
    prefix = generating_prefix(bell, 200)
    assert [prefix[n] * math.factorial(n) for n in range(201)] == bell_numbers


def test_permutation_counts_to_300():
    spec = parse_species("D = set(cycle(X))")
    assert count_species(spec, "D", 300) == [math.factorial(n) for n in range(301)]


def test_labelled_trees_prefix(labelled):
    prefix = generating_prefix(labelled, 5)
    assert prefix.coefficients == (F(0), F(1), F(1), F(3, 2), F(8, 3), F(125, 24))
    longer = generating_prefix(labelled, 10)
    for n in range(1, 11):
        assert longer[n] * math.factorial(n) == n ** (n - 1)


def test_cubic_prefix(cubic):
    prefix = generating_prefix(cubic, 7)
    assert prefix.coefficients == (
        F(0), F(1), F(0), F(0), F(-1, 12), F(0), F(0), F(-1, 252),
    )


def test_cubic_published_tail(cubic):
    prefix = generating_prefix(cubic, 16)
    expected = {
        4: F(-2, math.factorial(4)),
        7: F(-20, math.factorial(7)),
        10: F(-3320, math.factorial(10)),
        13: F(-1598960, math.factorial(13)),
        16: F(-1757280800, math.factorial(16)),
    }
    for n, value in expected.items():
        assert prefix[n] == value
    for n in range(17):
        if n not in expected and n != 1:
            assert prefix[n] == 0


def test_zero_automaton_series(zero):
    assert generating_prefix(zero, 5).coefficients == (F(0),) * 6


def test_dfinite_factorial_series():
    r = DFiniteRecurrence((UniPolynomial((0, 1)), UniPolynomial((-1,))), (F(1),))
    a = compile_dfinite(r)
    assert generating_prefix(a, 4).coefficients == (
        F(1), F(1), F(1, 2), F(1, 6), F(1, 24),
    )


# ---------------------------------------------------------------------------
# prefix arithmetic


def test_s_derive():
    assert s_derive(SeriesPrefix.of(1, 1, 1)).coefficients == (F(0), F(1), F(2))
    assert s_derive(SeriesPrefix.of(5)).coefficients == (F(0),)
    twice = s_derive(s_derive(SeriesPrefix.of(1, 1, 1, 1)))
    assert twice.coefficients == (F(0), F(1), F(4), F(9))


def test_s_derive_matches_pointwise_powers(bell):
    prefix = generating_prefix(bell, 6)
    current = prefix
    for power in range(1, 4):
        current = s_derive(current)
        assert current.coefficients == tuple(
            F(n) ** power * prefix[n] for n in range(7)
        )


def test_series_add():
    assert series_add(SeriesPrefix.of(1, 1), SeriesPrefix.of(2, 3)).coefficients == (
        F(3), F(4),
    )


def test_series_cauchy_geometric_square():
    s = SeriesPrefix.of(1, 1, 1)
    assert series_cauchy(s, s).coefficients == (F(1), F(2), F(3))


def test_series_scale():
    assert series_scale(SeriesPrefix.of(1, F(1, 2)), 3).coefficients == (F(3), F(3, 2))


def test_series_ops_truncate_to_shorter():
    assert len(series_add(SeriesPrefix.of(1, 2, 3), SeriesPrefix.of(1))) == 1


# ---------------------------------------------------------------------------
# the brute-force oracle


def test_brute_force_bell_base(bell):
    assert brute_force_coefficient(bell, 0) == (F(1), F(1))


def test_brute_force_matches_dp(bell, labelled, cubic):
    for a in (bell, labelled, cubic):
        vectors = coefficients(a, 6)
        for n in range(7):
            assert brute_force_coefficient(a, n) == vectors[n]


def test_brute_force_empty_size():
    a = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [1]})
    assert brute_force_coefficient(a, 1) == (F(0),)


def test_stream_is_resumable(bell):
    stream = CoefficientStream(bell)
    first = [tuple(v) for v in stream.up_to(3)]
    extended = stream.up_to(6)
    assert [tuple(v) for v in extended[:4]] == first
    assert tuple(extended) == coefficients(bell, 6).vectors


def test_coefficients_deterministic(bell):
    assert coefficients(bell, 8).vectors == coefficients(bell, 8).vectors


# ---------------------------------------------------------------------------
# the engine's cell denominator


def _cell_dens(form) -> set:
    return {c.denominator for dec in form.symbols.values()
            for matrix in dec.matrices.values() for c in matrix.values()}


def test_cell_denominator_is_the_lcm_of_a_seeded_set():
    rng = random.Random(7)
    d, names = 6, [f"f{i}" for i in range(12)]
    weights = {"a": {"entries": [{"row": [], "col": 1, "value": "1"}]}}
    for name in names:
        entries = weights[name] = {"entries": []}
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if rng.random() < 0.7:
                    den = 2 ** rng.randrange(40) * 3 ** rng.randrange(25) * rng.choice([1, 5, 7, 35])
                    entries["entries"].append({"row": [i], "col": j, "value": f"1/{den}"})
    alphabet = [{"name": "a", "arity": 0}] + [{"name": n, "arity": 1} for n in names]
    a = automaton_from_json(json.dumps({"dimension": d, "alphabet": alphabet, "weights": weights}))
    form = common_form(a)
    dens = _cell_dens(form)
    assert len(dens) > 100
    assert ConvolutionEngine(initial_vector(a), form)._cell_den == math.lcm(*dens)


def test_cell_denominator_of_the_written_out_exponential_sum():
    # y' = 1 + x + x^2/2! + ... + x^199/199!, with 200 terms written out
    rhs = " + ".join(f"x^{k}/{math.factorial(k)}" for k in range(200))
    a = compile_rda(parse_rds(f"y' = {rhs} ; y(0)=0"))
    form = common_form(a)
    dens = _cell_dens(form)
    engine = ConvolutionEngine(initial_vector(a), form)
    assert engine._cell_den == math.lcm(*dens) == math.factorial(199)
    # e^x - 1, the first coefficients of y, through the engine
    assert [v[0] for v in engine.up_to(6)] == [0] + [F(1, math.factorial(n)) for n in range(1, 7)]


# ---------------------------------------------------------------------------
# convolutions per coefficient


def dots_per_coefficient(a: Automaton) -> int:
    """The integer dot products (series._dot calls) of one engine step."""
    engine = ConvolutionEngine(initial_vector(a), common_form(a))
    engine.up_to(3)
    dot, calls = series._dot, []
    series._dot = lambda left, right: calls.append(1) or dot(left, right)
    try:
        engine._step()
    finally:
        series._dot = dot
    return len(calls)


def form_key_convolutions(a: Automaton) -> int:
    """The dot products per coefficient of an engine that convolves each cell
    key (Q, e, state) of the form as it stands: one per distinct key of two or
    more children, and one per distinct proper prefix of two or more."""
    keys = {
        tuple(zip(dec.child_denominators, exps, unrank_row(row, a.dimension, dec.arity)))
        for dec in common_form(a).symbols.values()
        for exps, matrix in dec.matrices.items()
        for row, _ in matrix
    }
    prefixes = {key[:j] for key in keys for j in range(2, len(key))}
    return sum(len(key) > 1 for key in keys) + len(prefixes)


# on the automata `species count` builds; the form's own keys cost 10, 2, 11,
# 4, 23, 3, 14, 4, 38, 6 and 5: a weight term c*x0, which the x0 rewrite
# spreads over three keys, costs one convolution
GOLD_DOTS = {
    "non-plane trees": 6,
    "plane binary trees": 2,
    "plane general trees": 5,
    "permutations": 4,
    "functional graphs": 13,
    "set partitions": 1,
    "non-plane ternary trees": 6,
    "hierarchies": 4,
    "3-constrained functional graphs": 18,
    "3-balanced hierarchies": 2,
    "surjections": 3,
}


@pytest.mark.parametrize("row", GOLD_SPECIES, ids=[r[0] for r in GOLD_SPECIES])
def test_dot_products_per_coefficient_on_gold_species(row):
    label, spec, target, *_ = row
    a = compile_rda(species_to_rds(parse_species(spec), target))
    assert dots_per_coefficient(a) == GOLD_DOTS[label] <= form_key_convolutions(a)


def test_dot_products_per_coefficient_on_samples():
    sample = Path(__file__).resolve().parent.parent / "samples" / "cubic.json"
    cubic = automaton_from_json(sample.read_text())
    assert (dots_per_coefficient(cubic), form_key_convolutions(cubic)) == (3, 5)
    # constant numerators: nothing to rewrite, the ternary key and its prefix stay
    cda = compile_cda(parse_rds("y' = 1 + y^3 ; y(0)=0"))
    assert ("g3", 3) in cda.alphabet.symbols
    assert (dots_per_coefficient(cda), form_key_convolutions(cda)) == (2, 2)
