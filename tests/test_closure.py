import hashlib
from fractions import Fraction as F
from pathlib import Path

import pytest

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
from treeseries.compile import compile_dfinite, parse_dfinite
from treeseries.core import (
    Automaton,
    RankedAlphabet,
    automaton_from_json,
    automaton_to_json,
    enumerate_trees,
    evaluate,
    make_arity_distinct,
)
from treeseries.errors import AlphabetMismatch, ZeroConstantTerm
from treeseries.series import (
    generating_prefix,
    series_add,
    series_cauchy,
    series_scale,
)
from zoo import SIGNATURE

N = 8


def prefix(a, n=N):
    return generating_prefix(a, n)


def trees_up_to(alphabet, size):
    out = []
    for n in range(size + 1):
        out.extend(enumerate_trees(alphabet, n))
    return out


@pytest.fixture(scope="module")
def random_pair():
    # two fixed dimension-2 automata over the shared signature with assorted
    # nonzero weights, exercising off-diagonal paths
    a1 = Automaton.build(
        2,
        SIGNATURE,
        {
            "sigma0": [1, F(1, 2)],
            "sigma1": [["1/(x0)", "2"], ["0", "(x1+1)/(x0+1)"]],
            "sigma2": [
                ["1", "0"],
                ["0", "1/(x0)"],
                ["(x2+1)/(1)*(x1+1)", "0"],
                ["0", "3"],
            ],
        },
    )
    a2 = Automaton.build(
        2,
        SIGNATURE,
        {
            "sigma0": [0, 2],
            "sigma1": [["0", "1/(x0+1)"], ["1", "0"]],
            "sigma2": [
                ["0", "1"],
                ["1/(x0)", "0"],
                ["0", "0"],
                ["(x1+1)/(x0)", "0"],
            ],
        },
    )
    return a1, a2


# ---------------------------------------------------------------------------
# tree-series operations: pointwise on every tree of size <= 3


def test_ts_add_values(bell, labelled, random_pair):
    for a1, a2 in [(bell, labelled), random_pair]:
        result = ts_add(a1, a2)
        assert result.dimension == a1.dimension + a2.dimension + 1
        for t in trees_up_to(a1.alphabet, 3):
            assert (
                evaluate(result, t)[1] == evaluate(a1, t)[1] + evaluate(a2, t)[1]
            )


def test_ts_add_zero_like(bell):
    zero_like = ts_scale(bell, 0)
    result = ts_add(bell, zero_like)
    for t in trees_up_to(bell.alphabet, 4):
        assert evaluate(result, t)[1] == evaluate(bell, t)[1]


def test_ts_add_double(bell):
    result = ts_add(bell, bell)
    for t in trees_up_to(bell.alphabet, 3)[:10]:
        assert evaluate(result, t)[1] == 2 * evaluate(bell, t)[1]


def test_ts_add_requires_identical_alphabet(bell):
    other = Automaton.build(1, RankedAlphabet.of(("b", 0)), {"b": [1]})
    with pytest.raises(AlphabetMismatch):
        ts_add(bell, other)


def test_ts_scale_values(bell):
    assert ts_scale(bell, 1) is bell
    zero = ts_scale(bell, 0)
    minus = ts_scale(bell, -1)
    cancel = ts_add(bell, minus)
    for t in trees_up_to(bell.alphabet, 3):
        assert evaluate(zero, t)[1] == 0
        assert evaluate(cancel, t)[1] == 0
    third = ts_scale(bell, F(-7, 3))
    assert third.dimension == bell.dimension + 1
    for t in trees_up_to(bell.alphabet, 3):
        assert evaluate(third, t)[1] == F(-7, 3) * evaluate(bell, t)[1]


def test_ts_hadamard_values(bell, labelled, random_pair):
    for a1, a2 in [(bell, bell), (bell, labelled), random_pair]:
        result = ts_hadamard(a1, a2)
        assert result.dimension == a1.dimension * a2.dimension
        for t in trees_up_to(a1.alphabet, 3):
            assert (
                evaluate(result, t)[1] == evaluate(a1, t)[1] * evaluate(a2, t)[1]
            )


def test_ts_hadamard_zero_absorbs(bell):
    zero = ts_scale(bell, 0)
    result = ts_hadamard(zero, ts_scale(bell, 1))
    for t in trees_up_to(bell.alphabet, 3):
        assert evaluate(result, t)[1] == 0


# ---------------------------------------------------------------------------
# generating-function operations: prefixes vs exact prefix arithmetic


def test_gf_add_prefixes(bell, labelled):
    result = gf_add(bell, labelled)
    assert prefix(result).coefficients == series_add(prefix(bell), prefix(labelled)).coefficients


def test_gf_add_unifies_alphabets(bell):
    other = Automaton.build(
        1, RankedAlphabet.of(("b", 0), ("g", 1)), {"b": [1], "g": [["1/(x0)"]]}
    )
    result = gf_add(bell, other)
    assert prefix(result).coefficients == series_add(prefix(bell), prefix(other)).coefficients


def test_gf_scale_prefixes(bell):
    assert gf_scale(bell, 1) is bell
    assert prefix(gf_scale(bell, 0)).coefficients == (F(0),) * (N + 1)
    got = prefix(gf_scale(bell, F(3, 2)))
    assert got.coefficients == series_scale(prefix(bell), F(3, 2)).coefficients


def test_gf_shift_forward(bell, zero):
    result = gf_shift_forward(bell)
    assert result.dimension == bell.dimension + 1
    assert prefix(result).coefficients == (F(0),) + prefix(bell, N - 1).coefficients
    assert prefix(gf_shift_forward(zero)).coefficients == (F(0),) * (N + 1)
    double = gf_shift_forward(result)
    assert prefix(double).coefficients == (F(0), F(0)) + prefix(bell, N - 2).coefficients


def test_gf_mul_shifted(bell, labelled):
    result = gf_mul_shifted(bell, labelled)
    assert result.dimension == bell.dimension + labelled.dimension + 1
    expected = (F(0),) + series_cauchy(prefix(bell), prefix(labelled)).coefficients[: N]
    assert prefix(result).coefficients == expected


def test_gf_mul_shifted_by_unit_and_zero(bell):
    unit = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [1]})
    result = gf_mul_shifted(bell, unit)
    assert prefix(result).coefficients == (F(0),) + prefix(bell, N - 1).coefficients
    zero_like = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [0]})
    assert prefix(gf_mul_shifted(bell, zero_like)).coefficients == (F(0),) * (N + 1)


def test_gf_shift_backward(bell):
    result = gf_shift_backward(bell)
    assert result.dimension == 2 * bell.dimension
    assert prefix(result, N).coefficients == prefix(bell, N + 1).coefficients[1:]


def test_gf_shift_backward_constant():
    const = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [7]})
    assert prefix(gf_shift_backward(const), 4).coefficients == (F(0),) * 5


def test_gf_shift_round_trip(labelled):
    # labelled trees have zero constant term, so back(forward(f)) = f
    result = gf_shift_backward(gf_shift_forward(labelled))
    assert prefix(result, 6).coefficients == prefix(labelled, 6).coefficients


def test_gf_shift_backward_ternary_alphabet():
    # y' = y^3 compiles with a ternary symbol, exercising the cut positions
    # 0..3 of the backward-shift encoding
    from treeseries.compile import compile_cda, parse_rds

    a = compile_cda(parse_rds("y' = y*y*y ; y(0)=1"))
    assert max(k for _, k in a.alphabet.symbols) == 3
    base = generating_prefix(a, 9)
    result = gf_shift_backward(a)
    assert prefix(result, 8).coefficients == base.coefficients[1:]


def test_gf_derive(bell, labelled):
    for a in (bell, labelled):
        result = gf_derive(a)
        assert result.dimension == 2 * (a.dimension + 1)
        base = prefix(a, N + 1)
        expected = tuple((n + 1) * base[n + 1] for n in range(N + 1))
        assert prefix(result).coefficients == expected


def test_gf_derive_constant_is_zero():
    const = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [5]})
    assert prefix(gf_derive(const), 4).coefficients == (F(0),) * 5


def test_gf_integrate(bell, zero):
    result = gf_integrate(bell)
    assert result.dimension == bell.dimension + 2
    base = prefix(bell, N)
    expected = (F(0),) + tuple(base[n] / (n + 1) for n in range(N))
    assert prefix(result).coefficients == expected
    assert prefix(gf_integrate(zero)).coefficients == (F(0),) * (N + 1)


def test_derive_then_integrate_round_trips(bell):
    result = gf_integrate(gf_derive(bell))
    base = prefix(bell, 6)
    got = prefix(result, 6)
    assert got[0] == 0
    assert got.coefficients[1:] == base.coefficients[1:]


def test_derive_after_integrate_is_identity(bell):
    result = gf_derive(gf_integrate(bell))
    assert prefix(result, 6).coefficients == prefix(bell, 6).coefficients


def test_gf_cauchy(bell, labelled):
    result = gf_cauchy(bell, labelled)
    assert result.dimension == 2 * (bell.dimension + labelled.dimension + 1)
    expected = series_cauchy(prefix(bell), prefix(labelled))
    assert prefix(result).coefficients == expected.coefficients


def test_gf_cauchy_unit_identity(bell):
    unit = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [1]})
    assert prefix(gf_cauchy(bell, unit)).coefficients == prefix(bell).coefficients


def test_gf_cauchy_square():
    geo = Automaton.build(
        1,
        RankedAlphabet.of(("a", 0), ("u", 1)),
        {"a": [1], "u": [["1"]]},
    )  # all-ones series
    sq = gf_cauchy(geo, geo)
    assert prefix(sq, 5).coefficients == tuple(F(n + 1) for n in range(6))


def test_gf_inverse_constant():
    const = Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [2]})
    result = gf_inverse(const)
    assert prefix(result, 4).coefficients == (F(1, 2),) + (F(0),) * 4


def test_gf_inverse_bell(bell):
    result = gf_inverse(bell)
    base = prefix(bell)
    inv = [1 / base[0]]
    for n in range(1, N + 1):
        inv.append(-1 / base[0] * sum(base[i + 1] * inv[n - 1 - i] for i in range(n)))
    assert prefix(result).coefficients == tuple(inv)
    convolution = series_cauchy(prefix(result), base)
    assert convolution.coefficients == (F(1),) + (F(0),) * N


def test_gf_inverse_involution(bell):
    result = gf_inverse(gf_inverse(bell))
    assert prefix(result, 6).coefficients == prefix(bell, 6).coefficients


def test_gf_inverse_convolution_identity_at_automaton_level(bell):
    # compose the automata themselves, not just their prefixes
    ident = gf_cauchy(bell, gf_inverse(bell))
    assert prefix(ident, 8).coefficients == (F(1),) + (F(0),) * 8


def test_gf_inverse_requires_nonzero_constant(labelled):
    with pytest.raises(ZeroConstantTerm):
        gf_inverse(labelled)


# sha256 of automaton_to_json of closure operations on samples/; the three
# JSON samples share one alphabet, so gf-add meets differing alphabets (arities
# 0, 1, 2 against 0, 1) on the automaton compiled from factorial.dfinite
CLOSURE_SHA256 = {
    ("ts-add", "bell.json", "labelled_trees.json"):
        "fdeb4478c43f7e151edf2f56d6883103f0b3eda53ce808f3446166678f294adc",
    ("ts-hadamard", "bell.json", "labelled_trees.json"):
        "0ddae359cb22aef06b6ab643ae34bc2daa50ce4e94a2ceca04badc0cbe523e24",
    ("ts-hadamard", "cubic.json", "cubic.json"):
        "80c75bd84529f1d53a7a2c5b5eee32960c40e50acdf693999df1f715520270de",
    ("gf-add", "bell.json", "cubic.json"):
        "425b35ebe22a2ce1a5af00420d749fd30640bb2d2a405db05da1fdcb72a866ac",
    ("gf-add", "bell.json", "factorial.dfinite"):
        "581782b44c778a1563dca2ae3a0c5801a67e6391066f8f58d24d72acf4c543f9",
    ("gf-cauchy", "bell.json", "labelled_trees.json"):
        "147e6f59042a9b9eaed31efb180f13752bc43b0e769c58272464080bd09040de",
    ("gf-shift-backward", "cubic.json"):
        "c877e09a2435f396e251e23312a62b54382432deecaf7b35e1b3cb52361fbf8e",
    ("gf-inverse", "bell.json"):
        "a5e7e65ffc157098137f3b82bba596993fc8f9085e700c93c980726ad595609f",
    ("arity-distinct", "cubic.json"):
        "6fdb09435824fcff5fc7545c72d02adb7a8476cd87d3bed01826440e460e48e3",
    ("gf-shift-forward", "bell.json"):
        "e5a552b1a06fcad7c5865fd264d2c1b7f9d5bbaa51794fe118201b462335c4c0",
    ("gf-mul-shifted", "bell.json", "labelled_trees.json"):
        "9cbaabebc705f7469b1dfdf89e492cd2af9e943bcd713753ca9b107f95ec4e14",
    ("gf-derive", "bell.json"):
        "05d04a43fab720c784ad89c94cd7e349bc621f557a6417f1bdcb4fb90b59d09e",
    ("gf-integrate", "cubic.json"):
        "968141ea11800b898df24f932a2efa7c3614cbd64088011f0542f3f96f6c4276",
    ("gf-shift-backward", "ternary"):
        "7dc10a33f3dabfc9e63a7f71b87fb7552c463a1a7acbae2a3457e57c1a703731",
}
CLOSURE_OPS = {
    "ts-add": ts_add,
    "ts-hadamard": ts_hadamard,
    "gf-add": gf_add,
    "gf-cauchy": gf_cauchy,
    "gf-shift-forward": gf_shift_forward,
    "gf-mul-shifted": gf_mul_shifted,
    "gf-shift-backward": gf_shift_backward,
    "gf-derive": gf_derive,
    "gf-integrate": gf_integrate,
    "gf-inverse": gf_inverse,
    "arity-distinct": make_arity_distinct,
}
# a ternary automaton whose weights have child denominators: the backward
# shift pins trailing child sizes to 0, where those denominators are evaluated
_LITERALS = {
    "ternary": lambda: Automaton.build(
        2,
        RankedAlphabet.of(("a", 0), ("u", 1), ("t", 3)),
        {
            "a": [[1, 2]],
            "u": {(0, 1): "x1/(x0+1)", (1, 0): "1/2"},
            "t": {
                (0, 0): "(x0+x3)/(x0)*(1)*(1)*(x3+2)",
                (5, 1): "-(x2+1)/(x0+1)*(x1+1)*(x2+3)",
                (7, 0): "x1*x2",
            },
        },
    ),
}


def _sample_automaton(name):
    if name in _LITERALS:
        return _LITERALS[name]()
    path = Path(__file__).resolve().parent.parent / "samples" / name
    if path.suffix == ".dfinite":
        return compile_dfinite(parse_dfinite(path.read_text()))
    return automaton_from_json(path.read_text())


@pytest.mark.parametrize("case", CLOSURE_SHA256)
def test_closure_output_is_byte_exact(case):
    op, *operands = case
    result = CLOSURE_OPS[op](*map(_sample_automaton, operands))
    digest = hashlib.sha256(automaton_to_json(result).encode()).hexdigest()
    assert digest == CLOSURE_SHA256[case]
