import math
from fractions import Fraction as F

from treeseries.compile import DFiniteRecurrence, compile_dfinite
from treeseries.core import RankedAlphabet, Automaton
from treeseries.exactmath import UniPolynomial
from treeseries.series import (
    CoefficientStream,
    SeriesPrefix,
    brute_force_coefficient,
    coefficients,
    generating_prefix,
    s_derive,
    series_add,
    series_cauchy,
    series_scale,
)
from treeseries.species import count_species, parse_species

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
