import math
from fractions import Fraction as F

import pytest

from treeseries.compile import (
    DFiniteRecurrence,
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
from treeseries.exactmath import MultiPolynomial, UniPolynomial
from treeseries.series import generating_prefix
from treeseries.zoo import BELL_RDS_TEXT, CUBIC_DA_TEXT, CUBIC_RDS_TEXT


def up(*coeffs):
    return UniPolynomial(coeffs)


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
        assert generating_prefix(a, 30).coefficients == r.unroll(30).coefficients


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
    # y0^3 y1 occurs in a polynomial: the chain re-expands to the monomial
    p = MultiPolynomial(2, {(3, 1): F(1), (1, 1): F(2)})
    reduced, chains = reduce_degree_two([p], 2)
    assert chains  # at least one auxiliary
    for tup in chains:
        assert 2 <= len(tup) <= 4
    # re-expand every monomial of the rewritten polynomial
    def expand(exps):
        out = []
        for i, e in enumerate(exps):
            for _ in range(e):
                if i < 2:
                    out.append((i,))
                else:
                    out.append(chains[i - 2])
        flat = []
        for group in out:
            flat.extend(group)
        return tuple(sorted(flat))

    got = {expand(exps): c for exps, c in reduced[0].terms.items()}
    assert got == {(0, 0, 0, 1): F(1), (0, 1): F(2)}
    for exps in reduced[0].terms:
        assert sum(exps) <= 2


def test_reduce_degree_two_shares_suffixes():
    # y0^4 and y0^3 share the suffix chains
    p = MultiPolynomial(1, {(4,): F(1), (3,): F(1)})
    _, chains = reduce_degree_two([p], 1)
    assert chains == [(0, 0), (0, 0, 0)]


def test_normal_forms_stay_in_ring():
    s = parse_rds(CUBIC_RDS_TEXT)
    order, forms, pairs, _ = rda_normal_forms(s)
    for key in order:
        nf = forms[key]
        assert nf.a.is_zero
        for sr in nf.b.values():
            assert sr.arity == 1
        for sr in nf.c.values():
            assert sr.arity == 2


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
    assert [len(tup) for tup in chains] == list(range(2, FLAT))
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
    assert r.unroll(5).coefficients == tuple(F(FLAT**n, math.factorial(n)) for n in range(6))
