import hashlib
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_gold import GOLD_SPECIES
from treeseries._format import automaton_to_json
from treeseries.compile import (
    RDS,
    DFiniteRecurrence,
    _index_tuple,
    compile_cda,
    compile_dfinite,
    compile_rda,
    da_to_rds,
    parse_da,
    parse_dfinite,
    parse_rds,
    rda_normal_forms,
    reduce_degree_two,
    taylor_oracle,
)
from treeseries.errors import (
    InvalidJet,
    LeadingRoot,
    NotPolynomial,
    NotRDA,
    ParseError,
    SeparantVanishes,
)
from treeseries import exactmath
from treeseries.exactmath import MultiPolynomial, UniPolynomial
from treeseries.series import generating_prefix
from treeseries.species import parse_species, species_to_rds
from zoo import BELL_RDS_TEXT, CUBIC_DA_TEXT, CUBIC_RDS_TEXT


def up(*coeffs):
    return UniPolynomial(coeffs)


def unroll(r: DFiniteRecurrence, n_max: int) -> tuple:
    """a_0 .. a_{n_max} solved term by term; the oracle for compile_dfinite."""
    k = r.order
    values = list(r.init)
    for n in range(k, n_max + 1):
        acc = F(0)
        for i in range(1, k + 1):
            acc += r.qs[i](n) * values[n - i]
        values.append(-acc / r.qs[0](n))
    return tuple(values[: n_max + 1])


# ---------------------------------------------------------------------------
# D-finite recurrences


def test_dfinite_factorial():
    r = DFiniteRecurrence((up(0, 1), up(-1)), (F(1),))
    a = compile_dfinite(r)
    assert generating_prefix(a, 4).coefficients == (F(1), F(1), F(1, 2), F(1, 6), F(1, 24))


def test_dfinite_constant():
    r = DFiniteRecurrence((up(1), up(-1)), (F(1),))
    assert generating_prefix(compile_dfinite(r), 5).coefficients == (F(1),) * 6


def test_dfinite_catalan():
    r = DFiniteRecurrence((up(1, 1), up(2, -4)), (F(1),))
    a = compile_dfinite(r)
    assert generating_prefix(a, 5).coefficients == (F(1), F(1), F(2), F(5), F(14), F(42))


def test_dfinite_matches_unrolling_to_thirty():
    cases = [
        DFiniteRecurrence((up(0, 1), up(-1)), (F(1),)),
        DFiniteRecurrence((up(1, 1), up(2, -4)), (F(1),)),
        DFiniteRecurrence((up(1), up(-1), up(-1)), (F(0), F(1))),
        DFiniteRecurrence((up(2, 1), up(0, -1), up(3)), (F(1), F(-1, 2))),
    ]
    for r in cases:
        a = compile_dfinite(r)
        assert generating_prefix(a, 30).coefficients == unroll(r, 30)


def test_dfinite_rejects_leading_root():
    with pytest.raises(LeadingRoot):
        DFiniteRecurrence((up(-3, 1), up(1)), (F(1),))  # Q0 = n - 3 vanishes at 3


def test_dfinite_text_round_trip():
    r = parse_dfinite("(n+1)*a(n) - (4*n-2)*a(n-1) = 0 ; a(0)=1")
    assert r.qs == (up(1, 1), up(-2, 4).scale(-1))
    assert generating_prefix(compile_dfinite(r), 4).coefficients == (
        F(1), F(1), F(2), F(5), F(14),
    )


# ---------------------------------------------------------------------------
# the Taylor oracle


def test_taylor_exponential():
    s = parse_rds("y' = y ; y(0)=1")
    got = taylor_oracle(s, 5)["y"].coefficients
    assert got == tuple(F(1, math.factorial(n)) for n in range(6))


def test_taylor_bell():
    s = parse_rds(BELL_RDS_TEXT)
    got = taylor_oracle(s, 6)["y1"].coefficients
    assert got == (F(1), F(1), F(1), F(5, 6), F(5, 8), F(13, 30), F(203, 720))


def test_taylor_cubic():
    s = parse_rds(CUBIC_RDS_TEXT)
    got = taylor_oracle(s, 7)["y1"].coefficients
    assert got == (F(0), F(1), F(0), F(0), F(-1, 12), F(0), F(0), F(-1, 252))


def test_taylor_rejects_non_rda():
    s = parse_rds("y' = (1)/(y) ; y(0)=0")
    with pytest.raises(NotRDA):
        taylor_oracle(s, 3)


# ---------------------------------------------------------------------------
# polynomial systems


def test_cda_exponential():
    a = compile_cda(parse_rds("y' = y ; y(0)=1"))
    assert generating_prefix(a, 3).coefficients == (F(1), F(1), F(1, 2), F(1, 6))


def test_cda_secant():
    s = parse_rds("y1' = y1*y2 ; y2' = 1 + y2^2 ; y1(0)=1, y2(0)=0")
    a = compile_cda(s)
    assert generating_prefix(a, 4).coefficients == (F(1), F(0), F(1, 2), F(0), F(5, 24))


def test_cda_bell():
    a = compile_cda(parse_rds(BELL_RDS_TEXT))
    assert generating_prefix(a, 6).coefficients == (
        F(1), F(1), F(1), F(5, 6), F(5, 8), F(13, 30), F(203, 720),
    )


def test_cda_rejects_rational():
    with pytest.raises(NotPolynomial):
        compile_cda(parse_rds(CUBIC_RDS_TEXT))


# ---------------------------------------------------------------------------
# rational systems


def test_rda_cubic_published_prefix():
    a = compile_rda(parse_rds(CUBIC_RDS_TEXT))
    prefix = generating_prefix(a, 16)
    assert prefix[4] == F(-2, math.factorial(4))
    assert prefix[7] == F(-20, math.factorial(7))
    assert prefix[10] == F(-3320, math.factorial(10))
    assert prefix[13] == F(-1598960, math.factorial(13))
    assert prefix[16] == F(-1757280800, math.factorial(16))


def test_rda_cubic_matches_paper_automaton(cubic):
    a = compile_rda(parse_rds(CUBIC_RDS_TEXT))
    assert a.dimension == cubic.dimension == 4
    assert (
        generating_prefix(a, 10).coefficients
        == generating_prefix(cubic, 10).coefficients
    )


@pytest.mark.parametrize(
    "text",
    [
        "y' = y ; y(0)=1",
        BELL_RDS_TEXT,
        "y1' = y1*y2 ; y2' = 1 + y2^2 ; y1(0)=1, y2(0)=0",
        "u' = u*u*u ; u(0)=1",
        "p' = 1 + p*q*q ; q' = p ; p(0)=0, q(0)=1",
    ],
)
def test_rda_agrees_with_cda_on_polynomial_systems(text):
    s = parse_rds(text)
    got = generating_prefix(compile_rda(s), 10).coefficients
    assert got == generating_prefix(compile_cda(s), 10).coefficients


def test_rda_reciprocal_logarithm_like():
    s = parse_rds("y' = (1)/(1-y) ; y(0)=0")
    a = compile_rda(s)
    assert generating_prefix(a, 4).coefficients == (F(0), F(1), F(1, 2), F(1, 2), F(5, 8))


def test_rda_matches_taylor_everywhere():
    for text in (BELL_RDS_TEXT, CUBIC_RDS_TEXT, "y' = (1)/(1-y) ; y(0)=0"):
        s = parse_rds(text)
        assert (
            generating_prefix(compile_rda(s), 12).coefficients
            == taylor_oracle(s, 12)[s.variables[0]].coefficients
        )


def test_rda_rejects_vanishing_denominator():
    with pytest.raises(NotRDA):
        compile_rda(parse_rds("y' = (1)/(y) ; y(0)=0"))


def test_rda_prunes_constant_coordinate():
    # no normal-form constant part ever arises, so no automaton coordinate
    # is pinned at 1; the cubic system lands at the hand-pruned dimension 4
    a = compile_rda(parse_rds(CUBIC_RDS_TEXT))
    assert a.dimension == 4


# ---------------------------------------------------------------------------
# degree-2 reduction


def test_reduce_degree_two_structure():
    # y0^3 y1 occurs in a polynomial: it becomes t(0,0) * t(0,1), and every
    # chain and rewritten monomial re-expands to the product it stands for
    p = MultiPolynomial(2, {(3, 1): F(1), (1, 1): F(2)})
    reduced, chains = reduce_degree_two([p], 2)
    assert [exps for exps, _ in chains] == [(2, 0), (1, 1)]

    def expand(indices):
        vectors = [(1, 0) if v == 0 else (0, 1) if v == 1 else chains[v - 2][0] for v in indices]
        return tuple(map(sum, zip(*vectors)))

    for m, (exps, (u, v)) in enumerate(chains):
        assert u < 2 + m and v < 2 + m
        assert expand((u, v)) == exps
    got = {expand(_index_tuple(exps)): c for exps, c in reduced[0].terms.items()}
    assert got == {(3, 1): F(1), (1, 1): F(2)}
    for exps in reduced[0].terms:
        assert sum(exps) <= 2


def test_reduce_degree_two_shares_halves():
    # y0^4 = t(0,0)^2 and y0^3 = y0 * t(0,0) share their one chain
    p = MultiPolynomial(1, {(4,): F(1), (3,): F(1)})
    reduced, chains = reduce_degree_two([p], 1)
    assert chains == [((2,), (0, 0))]
    assert set(reduced[0].terms) == {(0, 2), (1, 1)}


@pytest.mark.parametrize("m", [500, 1000, 2000, 4000])
def test_reduce_degree_two_grows_with_the_log_of_the_degree(m):
    s = parse_rds(f"y' = y^{m} ; y(0)=1")
    _, chains = reduce_degree_two([s.rhs[0][0]], 1)
    assert len(chains) <= 2 * math.log2(m)
    # a chain's normal form also holds the cells of the chains it is built
    # from, so cells per chain creep up with the depth of the split (9.6 at
    # m = 500, 11.2 at m = 4000); one factor at a time, y^m had m^2 cells
    a = compile_rda(s)
    cells = sum(len(a.weight(name).cells) for name, _ in a.alphabet.symbols)
    assert cells <= 12 * len(chains)


@st.composite
def long_monomial_systems(draw):
    # polynomial systems over 2-3 variables whose monomials reach degree 8
    k = draw(st.integers(2, 3))
    monomial = st.lists(st.integers(0, k - 1), max_size=8).map(
        lambda idx: tuple(idx.count(i) for i in range(k))
    )
    coeff = st.integers(-3, 3).filter(bool).map(F)
    rhs = tuple(
        (MultiPolynomial(k, draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3))),
         MultiPolynomial.const(k, 1))
        for _ in range(k)
    )
    init = tuple(F(draw(st.integers(-2, 2))) for _ in range(k))
    return RDS(("y", "u", "v")[:k], rhs, init)


@settings(max_examples=30, deadline=None)
@given(long_monomial_systems())
def test_compile_rda_matches_taylor_on_long_monomials(s):
    expected = taylor_oracle(s, 6)["y"].coefficients
    assert generating_prefix(compile_rda(s), 6).coefficients == expected


# compile_rda dimension per gold species and hand system; a reduction that
# widens the automaton fails here
GOLD_DIMENSIONS = {
    "non-plane trees": (7, 7),
    "plane binary trees": (4, 3),
    "plane general trees": (6, 5),
    "permutations": (6, 4),
    "functional graphs": (13, 13),
    "set partitions": (6, 4),
    "non-plane ternary trees": (7, 11),
    "hierarchies": (7, 9),
    "3-constrained functional graphs": (19, 40),
    "3-balanced hierarchies": (11, 7),
    "surjections": (6, 5),
}


def _gold_rds(label, source):
    _, spec, target, system, _ = next(g for g in GOLD_SPECIES if g[0] == label)
    if source == "species":
        return species_to_rds(parse_species(spec), target)
    return parse_rds(system)


GOLD_SOURCES = [(label, source) for label, *_ in GOLD_SPECIES for source in ("species", "system")]


@pytest.mark.parametrize("label, source", GOLD_SOURCES)
def test_gold_compiled_dimension_and_prefix(label, source):
    s = _gold_rds(label, source)
    a = compile_rda(s)
    assert a.dimension == GOLD_DIMENSIONS[label][0 if source == "species" else 1]
    expected = taylor_oracle(s, 8)[s.variables[0]].coefficients
    assert generating_prefix(a, 8).coefficients == expected


@pytest.mark.parametrize("label, source", GOLD_SOURCES)
def test_compiled_trivial_denominators_are_the_shared_one(label, source):
    # the denominator check's cache then finds each of them by identity
    a = compile_rda(_gold_rds(label, source))
    trivial = [q for name, k in a.alphabet.symbols if k
               for entry in a.weight(name).cells.values() for q in entry.dens if q.is_one]
    assert trivial and all(q is exactmath._ONE for q in trivial)


def test_normal_forms_stay_in_ring():
    systems = [("cubic", parse_rds(CUBIC_RDS_TEXT))]
    systems += [(f"{label}/{source}", _gold_rds(label, source)) for label, source in GOLD_SOURCES]
    for name, s in systems:
        order, forms, pairs = rda_normal_forms(s)
        for key in order:
            for sources, sr in forms[key].items():
                # no constant term (key ()): B_h has arity 1, C_{h,g} arity 2
                assert len(sources) in (1, 2) and sr.arity == len(sources), (name, key, sources)


# sha256 of automaton_to_json of compile_rda on each gold system and species
# and each sample; no other test pins the compiler's output byte for byte
COMPILED_SHA256 = {
    ("system", "non-plane trees"):
        "441564dd6413e02dc62938b8d4e86a96b3d3cbb5566b9a99109db497e1bb9298",
    ("species", "non-plane trees"):
        "441564dd6413e02dc62938b8d4e86a96b3d3cbb5566b9a99109db497e1bb9298",
    ("system", "plane binary trees"):
        "14a8fe36e0ea9d5f94f3b39244da71b5d0260a9661d4850fc56ca9f53ce7697d",
    ("species", "plane binary trees"):
        "b0e3343109b05492e281c7b31b066fb9fb6bfaa21c46ccdaa856152fba6f807b",
    ("system", "plane general trees"):
        "36c9a2c7c239732e82e5d4b639475c1777cf0048bd6d06072efd26b2c57ac7bf",
    ("species", "plane general trees"):
        "eba61158a591c4148481bf88315c4904ab6c9f7cca26a880c68c2b909934d473",
    ("system", "permutations"):
        "ebfefa7ea0ec53bbe40aee673437d670c7c1fa245ea9f0ce58b79fc13bf88772",
    ("species", "permutations"):
        "84618ba21999099575f7bae9c963f4c152e82301846290fb40d62457a0c1de75",
    ("system", "functional graphs"):
        "28fb526f8013cd4fc8b128e3a8163b3d8ff6aeec1de2bde187bceeea6b096c8f",
    ("species", "functional graphs"):
        "ab1cd9c48ad0b901f8020f8a5c5a615c706fba4a0b6417ac13455c8b196ac723",
    ("system", "set partitions"):
        "ba0b04628b267e6bb4a1426ce4b60a3bdf24c45d977231492fce6206d052303e",
    ("species", "set partitions"):
        "e7f805de5d34cea49f03d55588d29112cc3983118f84618d054ca99d4e572eba",
    ("system", "non-plane ternary trees"):
        "a7090bab2589443d61217dd50ebb3a48e9cc26d29a11add3c8924ffc25c657bf",
    ("species", "non-plane ternary trees"):
        "db9ec691b07aca97520a9381f33022362d708aecd022c5a9679c4134f020d356",
    ("system", "hierarchies"):
        "cf69ff5a54c3e57f0c1f9f24d62ec54250bf551676ef595f027bd117c5a5ae11",
    ("species", "hierarchies"):
        "a7d407213b1d6edce6594711c6dc1e1374bb04eda79f0672d0aeb9a072d13215",
    ("system", "3-constrained functional graphs"):
        "9079a5af1dbb06745e437bc2a52673cd849da0ef35a6a99eac1da8ab672fa84c",
    ("species", "3-constrained functional graphs"):
        "3703307bf982e49de6a074e06df6e8281adfbc6560e4ab761f41ccf06b3a6917",
    ("system", "3-balanced hierarchies"):
        "6912e21bdaa82a6a4a0c49d8f8e97653396eefa978e8984c28336408f33cd99c",
    ("species", "3-balanced hierarchies"):
        "327f5da8dc8aa50ac87f8163a3995ea0b0c32b979a695902300664aae9832439",
    ("system", "surjections"):
        "7226ac4d2e4964012a9e75a5296fe9a7bbd8d5e1cbb3b1cc973bc6bbbbb320cf",
    ("species", "surjections"):
        "91cc99adc9d0bbff42452aa07b4ad31b81e0fa43a17c2d95af9c69c0680e7cff",
    ("sample", "bell.rds"):
        "ba0b04628b267e6bb4a1426ce4b60a3bdf24c45d977231492fce6206d052303e",
    ("sample", "cubic.rds"):
        "38112817c234c3a52007f47f390a23c9634960f13212a2f034c2485ca5577994",
    ("sample", "bell.spec"):
        "e7f805de5d34cea49f03d55588d29112cc3983118f84618d054ca99d4e572eba",
    ("sample", "labelled_trees.spec"):
        "441564dd6413e02dc62938b8d4e86a96b3d3cbb5566b9a99109db497e1bb9298",
    ("sample", "surjections.spec"):
        "91cc99adc9d0bbff42452aa07b4ad31b81e0fa43a17c2d95af9c69c0680e7cff",
    ("sample", "cubic.da"):
        "d11d74910a1f0dd4986cfda20f88a61d7794c4628e92f9fd2dc430b231f9464c",
}
SAMPLE_RDS = {
    ".rds": parse_rds,
    ".spec": lambda text: species_to_rds(parse_species(text)),
    ".da": lambda text: da_to_rds(parse_da(text)),
}


@pytest.mark.parametrize("source, label", COMPILED_SHA256)
def test_compiled_automaton_is_byte_exact(source, label):
    if source == "sample":
        path = Path(__file__).resolve().parent.parent / "samples" / label
        s = SAMPLE_RDS[path.suffix](path.read_text())
    else:
        s = _gold_rds(label, source)
    a = compile_rda(s)
    digest = hashlib.sha256(automaton_to_json(a).encode()).hexdigest()
    cells = sum(len(matrix.cells) for _, matrix in a.weights)
    assert digest == COMPILED_SHA256[source, label], f"dimension {a.dimension}, {cells} cells"


# `compile rda` of each gold system and `species compile` of each gold species
# write those bytes too
@pytest.mark.parametrize("label, source", GOLD_SOURCES)
def test_compile_commands_write_the_pinned_bytes(label, source, tmp_path, capsys):
    from treeseries.cli import main

    _, spec, target, system, _ = next(g for g in GOLD_SPECIES if g[0] == label)
    path, out = tmp_path / "input", tmp_path / "out.json"
    if source == "species":
        path.write_text(spec)
        argv = ["species", "compile", "-f", str(path), "--target", target]
    else:
        path.write_text(system)
        argv = ["compile", "rda", "-f", str(path)]
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPILED_SHA256[source, label]


# ---------------------------------------------------------------------------
# differential equations


def test_da_cubic_gives_paper_system():
    e = parse_da(CUBIC_DA_TEXT)
    rds = da_to_rds(e)
    assert rds.variables == ("y", "y'")
    got = taylor_oracle(rds, 7)["y"].coefficients
    assert got == (F(0), F(1), F(0), F(0), F(-1, 12), F(0), F(0), F(-1, 252))


def test_da_linear_first_order_unchanged():
    rds = da_to_rds(parse_da("y' - y ; y(0)=1"))
    assert rds.variables == ("y",)
    assert taylor_oracle(rds, 5)["y"].coefficients == tuple(
        F(1, math.factorial(n)) for n in range(6)
    )


def test_da_harmonic_oscillator():
    rds = da_to_rds(parse_da("y'' + y ; y(0)=0, y'(0)=1"))
    assert rds.variables == ("y", "y'")
    sine = taylor_oracle(rds, 7)["y"].coefficients
    assert sine == (F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120), F(0), F(-1, 5040))
    a = compile_rda(rds)
    assert generating_prefix(a, 7).coefficients == sine


def test_da_separant_vanishes():
    # P = (y')^2: separant 2y' vanishes at jet with y'(0) = 0
    with pytest.raises(SeparantVanishes):
        da_to_rds(parse_da("y'*y' ; y(0)=0, y'(0)=0"))


def test_da_jet_must_satisfy_equation():
    with pytest.raises(InvalidJet):
        da_to_rds(parse_da("y'^3 + y^3 - 1 ; y(0)=1, y'(0)=1"))


# ---------------------------------------------------------------------------
# text parsing details


def test_parse_rds_materializes_x():
    s = parse_rds("y' = y/(1-x) ; y(0)=1")
    assert s.variables == ("y", "x")
    got = taylor_oracle(s, 5)["y"].coefficients
    assert got == tuple(F(1) for _ in range(6))  # y = 1/(1-x)


def test_parse_rds_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_rds("y' = z ; y(0)=1")


def test_parse_rds_requires_initial_values():
    with pytest.raises(ParseError):
        parse_rds("y' = y")


def test_parse_dfinite_rejects_nonlinear():
    with pytest.raises(ParseError):
        parse_dfinite("a(n)*a(n-1) = 0 ; a(0)=1")


# ---------------------------------------------------------------------------
# long flat sums and products: the syntax tree is as deep as the nesting, not
# as long as the input

FLAT = 3000


def test_flat_rds_sum_compiles_and_matches_taylor():
    s = parse_rds("y' = " + "+".join(["y"] * FLAT) + " ; y(0)=1")
    assert s.rhs[0][0] == MultiPolynomial(1, {(1,): FLAT})
    expected = tuple(F(FLAT**n, math.factorial(n)) for n in range(8))  # exp(3000 x)
    assert taylor_oracle(s, 7)["y"].coefficients == expected
    assert generating_prefix(compile_rda(s), 7).coefficients == expected


def test_flat_rds_product_parses_reduces_and_matches_closed_form():
    s = parse_rds("y' = " + "*".join(["y"] * FLAT) + " ; y(0)=1")
    assert s.rhs[0] == (MultiPolynomial(1, {(FLAT,): 1}), MultiPolynomial.const(1, 1))
    _, chains = reduce_degree_two([s.rhs[0][0]], 1)
    assert len(chains) <= 2 * math.log2(FLAT)
    # y = (1 - (N-1) x)^(-1/(N-1)): y_n = prod_{i<n} (1 + i (N-1)) / n!
    expected = tuple(
        F(math.prod(1 + i * (FLAT - 1) for i in range(n)), math.factorial(n)) for n in range(5)
    )
    assert taylor_oracle(s, 4)["y"].coefficients == expected


def test_flat_da_sum():
    e = parse_da("y' - " + "-".join(["y"] * FLAT) + " ; y(0)=1")
    assert e.poly == MultiPolynomial(2, {(0, 1): 1, (1, 0): -FLAT})
    prefix = generating_prefix(compile_rda(da_to_rds(e)), 6).coefficients
    assert prefix == tuple(F(FLAT**n, math.factorial(n)) for n in range(7))


def test_flat_dfinite_sum():
    r = parse_dfinite("n*a(n) - " + " - ".join(["a(n-1)"] * FLAT) + " = 0 ; a(0)=1")
    assert r.qs == (up(0, 1), up(-FLAT))
    assert unroll(r, 5) == tuple(F(FLAT**n, math.factorial(n)) for n in range(6))
