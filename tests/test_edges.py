"""Edge cases cutting across modules: idempotent normalizations, chained
closure operations on irregular alphabets, and odd but legal inputs."""

import functools
from fractions import Fraction as F

import pytest

from treeseries import _expr
from treeseries._expr import tokenize
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
    ts_hadamard,
)
from treeseries.compile import compile_rda, parse_da, parse_dfinite, parse_rds, taylor_oracle
from treeseries.core import (
    Automaton,
    RankedAlphabet,
    automaton_from_json,
    automaton_to_json,
    evaluate,
    make_arity_distinct,
    parse_tree,
    unify_alphabets,
)
from treeseries.errors import AlphabetMismatch, InputFormatError, ParseError
from treeseries.exactmath import parse_size_rational
from treeseries.decide import check_equiv_tree_series
from treeseries.series import generating_prefix, series_cauchy
from treeseries.species import count_species, parse_species
from zoo import bell_automaton


def test_make_arity_distinct_idempotent(bell):
    once = make_arity_distinct(bell)
    twice = make_arity_distinct(once)
    assert once.alphabet == twice.alphabet
    assert once.weights == twice.weights


def test_unify_pads_only_the_missing_side(bell):
    # an automaton already with one symbol per arity keeps its weights
    full = make_arity_distinct(bell)
    small = Automaton.build(
        1, RankedAlphabet.of(("h0", 0), ("h1", 1)), {"h0": [1], "h1": [["1/(x0)"]]}
    )
    u1, u2 = unify_alphabets(full, small)
    assert u1.weights == full.weights
    assert u2.alphabet == u1.alphabet


def test_closure_ops_on_multi_nullary_alphabet():
    # two nullary symbols and a binary one; merging happens inside the ops
    alphabet = RankedAlphabet.of(("a", 0), ("b", 0), ("f", 2))
    a = Automaton.build(
        1,
        alphabet,
        {"a": [1], "b": [F(1, 2)], "f": [["1/(x0)"]]},
    )
    base = generating_prefix(a, 9)
    assert generating_prefix(gf_shift_backward(a), 8).coefficients == base.coefficients[1:]
    inv = gf_inverse(a)
    conv = series_cauchy(generating_prefix(inv, 8), base)
    assert conv.coefficients == (F(1),) + (F(0),) * 8
    sq = gf_cauchy(a, a)
    assert generating_prefix(sq, 6).coefficients == series_cauchy(base, base).coefficients[:7]


def test_equiv_tree_series_alphabet_mismatch(bell):
    other = Automaton.build(1, RankedAlphabet.of(("c", 0)), {"c": [1]})
    with pytest.raises(AlphabetMismatch):
        check_equiv_tree_series(bell, other, 5)


def test_rda_with_constant_in_denominator():
    # y' = y/(2 - y), y(0) = 1: denominator nonzero at the start
    s = parse_rds("y' = (y)/(2-y) ; y(0)=1")
    a = compile_rda(s)
    assert (
        generating_prefix(a, 10).coefficients
        == taylor_oracle(s, 10)["y"].coefficients
    )


def test_rds_negative_fraction_initials():
    s = parse_rds("y' = y ; y(0)=-1/2")
    got = taylor_oracle(s, 3)["y"].coefficients
    assert got == (F(-1, 2), F(-1, 2), F(-1, 4), F(-1, 12))


def test_species_singleton_sets():
    counts = count_species(parse_species("S = set(X)"), "S", 6)
    assert counts == [1] * 7  # exactly one set of singletons per label set


def test_species_ordered_pairs():
    counts = count_species(parse_species("P = X*X"), "P", 4)
    assert counts == [0, 0, 2, 0, 0]


def test_species_parenthesized_and_card_eq():
    spec = parse_species("T = (X + X*X)*set(X, card=2)")
    counts = count_species(parse_species("W = set(X, card=2)"), "W", 4)
    assert counts == [0, 0, 1, 0, 0]
    counts = count_species(spec, "T", 4)
    # size 3: choose 1 label for the X part, 2 for the set: 3 ways;
    # size 4: ordered pair (2 of 4 choose-2-ordered...) = 12 ways times set of 2
    assert counts[3] == 3
    assert counts[4] == 12


def test_species_sequence_card_exact():
    # sequences of exactly two nonempty sets: ordered set partitions in 2 blocks
    spec = parse_species("Q = sequence(set(X, card>=1), card=2)")
    counts = count_species(spec, "Q", 5)
    assert counts == [0, 0, 2, 6, 14, 30]  # 2(2^(n-1) - 1)


def test_chained_operations_deep():
    # derivative of the inverse of a shifted sum: exercised purely via oracles
    geo = Automaton.build(
        1, RankedAlphabet.of(("a", 0), ("u", 1)), {"a": [1], "u": [["1"]]}
    )
    combined = gf_derive(gf_inverse(gf_add(geo, geo)))
    # f = 2/(1-x); 1/f = (1-x)/2; derivative = -1/2
    assert generating_prefix(combined, 4).coefficients == (
        F(-1, 2), F(0), F(0), F(0), F(0),
    )


def test_integrate_scale_mul_chain(bell, labelled):
    left = gf_integrate(bell)
    right = gf_scale(labelled, F(3, 7))
    product = gf_mul_shifted(left, right)
    pb = generating_prefix(bell, 10)
    pl = generating_prefix(labelled, 10)
    int_b = (F(0),) + tuple(pb[n] / (n + 1) for n in range(10))
    from treeseries.series import SeriesPrefix, series_scale

    expected = series_cauchy(SeriesPrefix(int_b), series_scale(pl, F(3, 7)))
    got = generating_prefix(product, 8)
    assert got.coefficients == ((F(0),) + expected.coefficients)[:9]


def test_json_round_trip_every_op(bell, labelled, tmp_path):
    outputs = [
        gf_add(bell, labelled),
        gf_scale(bell, F(-2, 3)),
        gf_shift_forward(bell),
        gf_shift_backward(bell),
        gf_mul_shifted(bell, labelled),
        gf_cauchy(bell, labelled),
        gf_derive(bell),
        gf_integrate(bell),
        gf_inverse(bell),
        ts_hadamard(bell, labelled),
    ]
    for a in outputs:
        text = automaton_to_json(a)
        again = automaton_from_json(text)
        assert again == a
        assert automaton_to_json(again) == text


_DEEP_TREE = "(sigma1 " * 800 + "(sigma0)" + ")" * 800


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_rds("y' = " + "(" * 200 + "y" + ")" * 200 + " ; y(0)=1"), ParseError),
        (lambda: parse_da("(0+" * 300 + "y'" + ")" * 300 + " - 1 ; y(0)=0, y'(0)=1"), ParseError),
        (lambda: parse_dfinite("(0+" * 300 + "n" + ")" * 300 + "*a(n) = 0 ; a(0)=1"), ParseError),
        (lambda: parse_species("H = " + "set(" * 400 + "X" + ")" * 400), ParseError),
        (lambda: parse_size_rational("(" * 1000 + "x1" + ")" * 1000, 1), InputFormatError),
        (lambda: parse_tree("(sigma1 " * 3000 + "(sigma0)" + ")" * 3000), InputFormatError),
        (lambda: evaluate(bell_automaton(), parse_tree(_DEEP_TREE)), InputFormatError),
    ],
    ids=["parse_rds", "parse_da", "parse_dfinite", "parse_species", "parse_size_rational",
         "parse_tree", "evaluate"],
)
def test_deep_nesting_raises_input_error_not_recursion_error(call, error):
    with pytest.raises(error, match="input nested too deeply"):
        call()


# ---------------------------------------------------------------------------
# the text front ends: statements split on tokens, one initial-value parser

_RDS = "y' = y*z\nz' = z\ny(0)=1, z(0)=2"
_DA = "y'' + y\ny(0)=0, y'(0)=1"
_DFINITE = "n*a(n) - a(n-1) = 0\na(0)=1"
_WEIGHT = functools.partial(parse_size_rational, arity=1)

# (parse, text, a text it must read the same as, or None, the error it must raise)
_STATEMENT_CASES = {
    "rds-comment-line": (parse_rds, "y' = y*z\n# z grows\nz' = z\ny(0)=1, z(0)=2", _RDS, None),
    "rds-semicolon-in-comment": (
        parse_rds, "y' = y*z # z grows; fast\nz' = z\ny(0)=1, z(0)=2", _RDS, None),
    "rds-error-line": (parse_rds, _RDS + "\n\nz' = z +* 1", None, r"line 5, column 9"),
    "rds-repeated-initial-value": (
        parse_rds, "y' = y*z ; z' = z ; y(0)=1, z(0)=2, y(0)=3", None, "given twice"),
    "rds-repeated-initial-statement": (parse_rds, _RDS + "\nz(0)=2", None, "given twice"),
    "rds-comments-only": (parse_rds, "# no system yet\n", None, "no equation"),
    "da-comment-line": (parse_da, "y'' + y\n  # the sine\ny(0)=0, y'(0)=1", _DA, None),
    "da-semicolon-in-comment": (parse_da, "y'' + y # sine; cosine\ny(0)=0, y'(0)=1", _DA, None),
    "da-error-line": (parse_da, "y'' + y\n\ny(0)=0, y'(0)=1/", None, r"line 3, column 17"),
    "da-repeated-initial-value": (
        parse_da, "y'' + y ; y(0)=0, y'(0)=1, y'(0)=2", None, "given twice"),
    "dfinite-comment-line": (parse_dfinite, "n*a(n) - a(n-1) = 0\na(0)=1\n# e^x", _DFINITE, None),
    "dfinite-semicolon-in-comment": (
        parse_dfinite, "n*a(n) - a(n-1) = 0 # e^x; n! a(n)\na(0)=1", _DFINITE, None),
    "dfinite-error-line": (parse_dfinite, _DFINITE + "\na(1)=+", None, r"line 3, column 6"),
    "dfinite-trailing-input-after-initial-values": (
        parse_dfinite, "n*a(n) - a(n-1) = 0 ; a(0)=1 garbage here", None, "trailing input"),
    "dfinite-trailing-input-after-recurrence": (
        parse_dfinite, "n*a(n) - a(n-1) = 0 0 ; a(0)=1", None, "trailing input"),
    "dfinite-repeated-initial-value": (
        parse_dfinite, "n*a(n) - a(n-1) = 0 ; a(0)=1, a(0)=2", None, "given twice"),
    "dfinite-second-recurrence": (
        parse_dfinite, "n*a(n) - a(n-1) = 0 ; a(n) - 5*a(n-1) = 0 ; a(0)=1", None,
        "second recurrence"),
    # the order is checked against the values given before anything of its size is built
    "dfinite-large-order-without-values": (
        parse_dfinite, "n*a(n) - a(n-10^12) = 0 ; a(0)=1", None, r"missing initial value\(s\) a\(1\)"),
    "weight-comment-hides-chain": (_WEIGHT, "x1 # /(x0)", "x1", None),
}


@pytest.mark.parametrize("case", sorted(_STATEMENT_CASES))
def test_comments_separators_and_clauses_are_read_on_tokens(case):
    """A comment is no token: it neither makes a statement nor splits one.
    Errors name the line of the text, not of the statement, and trailing
    input, a value given twice and a second recurrence are refused.  (The
    species front end read its statements on tokens already.)"""
    parse, text, same_as, error = _STATEMENT_CASES[case]
    if error is None:
        assert parse(text) == parse(same_as)
    else:
        with pytest.raises(ParseError, match=error):
            parse(text)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_rds, _RDS), (parse_da, _DA), (parse_dfinite, _DFINITE),
     (parse_species, "A = X*set(B)\nB = X + A ; C = A*B"),
     (_WEIGHT, "(x1+1)/(x0+1)*(x1+2)")],
    ids=["parse_rds", "parse_da", "parse_dfinite", "parse_species", "parse_size_rational"],
)
def test_each_front_end_tokenizes_its_input_once(monkeypatch, parse, text):
    calls = []

    def counting(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(_expr, "tokenize", counting)
    parse(text)
    assert calls == [text]
