import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from treeseries._expr import Add, Const, DVar, DivE, Mul, Pow, RatFunc, Var
from treeseries.compile import compile_rda, parse_rds, taylor_oracle
from treeseries.errors import (
    BadCardinality,
    InvariantError,
    NonlinearInDerivatives,
    ParseError,
    SingularInitialValues,
    UnknownName,
    UnsupportedConstruct,
)
from treeseries.series import generating_prefix
from treeseries.species import (
    SpCycle,
    SpSet,
    count_species,
    diffsys_to_rds,
    empty_counts,
    parse_species,
    species_to_diffsys,
    species_to_rds,
)
from zoo import BELL_SPECIES_TEXT, LABELLED_TREES_SPECIES_TEXT

from species_gold import GOLD_SPECIES


# ---------------------------------------------------------------------------
# parsing


def test_parse_binary_trees():
    spec = parse_species("B = X + B*B")
    assert spec.equations == (("B", Add((Var("X"), Mul((Var("B"), Var("B")))))),)


def test_parse_bell():
    spec = parse_species(BELL_SPECIES_TEXT)
    assert spec.equations == (
        ("F", SpSet(SpSet(Var("X"), ("ge", 1)), None)),
    )


def test_parse_rejects_cycle_cardinality():
    with pytest.raises(BadCardinality):
        parse_species("Z = cycle(X, card=2)")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_species("B = X + + B")
    assert err.value.line == 1
    assert err.value.column is not None


def test_parse_rejects_unknown_reference():
    with pytest.raises(UnknownName):
        parse_species("B = X + C")


def test_parse_rejects_bad_cardinality_spelling():
    with pytest.raises(BadCardinality):
        parse_species("B = set(X, size=3)")


@pytest.mark.parametrize("name", ["X", "x", "set", "sequence", "cycle"])
def test_a_reserved_name_cannot_be_defined(name):
    # x is the EGF variable of the translation: a species named x was read as
    # that variable, so `x = X*set(x)` counted 0 1 2 11 101 1299 21484, not
    # the rooted labelled trees 0 1 2 9 64 625 7776 that `T = X*set(T)` counts
    with pytest.raises(ParseError) as err:
        parse_species(f"A = X\n{name} = X*set(A)")
    assert str(err.value) == f"{name!r} cannot be defined (line 2, column 1)"


# ---------------------------------------------------------------------------
# empty-set counts and admissibility


def test_empty_counts():
    spec = parse_species("A = X*set(A)\nB = set(set(X, card>=1))\nC = 1 + X")
    counts = empty_counts(spec)
    assert counts == {"A": F(0), "B": F(1), "C": F(1)}


def test_inadmissible_argument_rejected():
    with pytest.raises(UnsupportedConstruct):
        empty_counts(parse_species("A = set(1 + X)"))


def test_non_stabilizing_counts_rejected():
    with pytest.raises(UnsupportedConstruct):
        empty_counts(parse_species("A = 1 + A"))


# ---------------------------------------------------------------------------
# translation


def test_bell_translation_shape():
    dsys = species_to_diffsys(parse_species(BELL_SPECIES_TEXT))
    kinds = {name: kind for kind, name, _ in dsys.equations}
    assert kinds["F"] == "diff"
    assert dsys.init["F"] == 1


def test_nonplane_trees_translation_solves_like_figure_system():
    # A = X*set(A) and the system {y_a = x z, z' = z y_a'} have equal solutions
    mine = species_to_rds(parse_species(LABELLED_TREES_SPECIES_TEXT), "A")
    figure = parse_rds(
        "ya' = z + x*z^2/(1-x*z) ; z' = z^2/(1-x*z) ; ya(0)=0, z(0)=1"
    )
    assert (
        taylor_oracle(mine, 10)["A"].coefficients
        == taylor_oracle(figure, 10)["ya"].coefficients
    )


def test_surjections_translation():
    mine = species_to_rds(parse_species("M = sequence(set(X, card>=1))"), "M")
    figure = parse_rds("ym' = z0/(1-z1)^2 ; z1' = z0 ; z0' = z0 ; ym(0)=1, z1(0)=0, z0(0)=1")
    assert (
        taylor_oracle(mine, 10)["M"].coefficients
        == taylor_oracle(figure, 10)["ym"].coefficients
    )


# ---------------------------------------------------------------------------
# normalization to rational systems


def test_plane_general_trees_normalization():
    # y_c = x/(1-y_c) differentiates and solves to (1-y_c)/((1-y_c)^2 - x)
    spec = parse_species("C = X*sequence(C)")
    rds = species_to_rds(spec, "C")
    idx = {name: i for i, name in enumerate(rds.variables)}
    nvars = len(rds.variables)
    yc = RatFunc.var(nvars, idx["C"])
    x = RatFunc.var(nvars, idx["x"])
    one = RatFunc.const(nvars, 1)
    expected = (one - yc) / ((one - yc) * (one - yc) - x)
    p, q = rds.rhs[0]
    assert RatFunc(p, q) == expected


def test_permutations_normalization():
    # {y_d' = y_d z', z' = 1/(1-x)} collapses to y_d' = y_d/(1-x)
    spec = parse_species("D = set(cycle(X))")
    rds = species_to_rds(spec, "D")
    idx = {name: i for i, name in enumerate(rds.variables)}
    nvars = len(rds.variables)
    yd = RatFunc.var(nvars, idx["D"])
    x = RatFunc.var(nvars, idx["x"])
    one = RatFunc.const(nvars, 1)
    p, q = rds.rhs[0]
    assert RatFunc(p, q) == yd / (one - x)


def test_rds_passthrough_unchanged():
    # a system already in first-order rational form normalizes to itself
    figure = parse_rds("f' = f*g ; g' = g ; f(0)=1, g(0)=1")
    assert taylor_oracle(figure, 8)["f"].coefficients == generating_prefix(
        compile_rda(figure), 8
    ).coefficients


def test_singular_initial_values_detected():
    from treeseries._expr import DivE, Const, Var, Add, Neg
    from treeseries.species import DiffEqSystem

    # v' = 1/(1-v) at v(0) = 1 is undefined
    dsys = DiffEqSystem(
        (("diff", "v", DivE(Const(F(1)), Add((Const(F(1)), Neg(Var("v")))))),),
        {"v": F(1)},
    )
    with pytest.raises(SingularInitialValues):
        diffsys_to_rds(dsys)


@pytest.mark.parametrize("equation, error", [
    (("diff", "v", Mul((DVar("v"), DVar("v")))), NonlinearInDerivatives),
    (("diff", "v", DivE(Const(F(1)), DVar("v"))), NonlinearInDerivatives),
    (("diff", "v", Pow(DVar("v"), 2)), NonlinearInDerivatives),
    (("alg", "v", Add((Var("x"), DVar("v")))), NonlinearInDerivatives),
    (("diff", "v", DVar("w")), ParseError),
], ids=["product", "denominator", "power", "alg-derivative", "unknown-derivative"])
def test_nonlinear_derivatives_detected(equation, error):
    from treeseries.species import DiffEqSystem

    with pytest.raises(error):
        diffsys_to_rds(DiffEqSystem((equation,), {"v": F(0)}))


def test_coupled_block_solves_the_names_that_depend_on_it(monkeypatch):
    # A depends on the coupled pair B, z1 (z1 = set(B)), so no pass finds A
    # ready and one elimination solves all three; every gold species that
    # reaches a coupled elimination has all its names inside the cycle
    import hashlib

    from treeseries import _species_rds
    from treeseries._format import automaton_to_json

    blocks = []
    solve = _species_rds._solve

    def recorded(names, *args):
        blocks.append(list(names))
        return solve(names, *args)

    monkeypatch.setattr(_species_rds, "_solve", recorded)
    spec = parse_species("B = X*set(B)\nA = X*sequence(B)")
    a = compile_rda(species_to_rds(spec, "A"))
    assert blocks == [["x"], ["z1", "B", "A"]]
    assert hashlib.sha256(automaton_to_json(a).encode()).hexdigest() == (
        "6bd46236ce5f95546cf0c5f8c60058aec1f69297549ecfcebc57c30405e550c5"
    )
    # A = X/(1 - B) with B the rooted labelled trees, n^(n-1) of size n
    b = [F(0)] + [F(n ** (n - 1), math.factorial(n)) for n in range(1, 8)]
    inverse = [F(1)]  # 1/(1 - B) = 1 + B/(1 - B)
    for n in range(1, 8):
        inverse.append(sum(b[k] * inverse[n - k] for k in range(1, n + 1)))
    expected = [0] + [inverse[n - 1] * math.factorial(n) for n in range(1, 9)]
    assert count_species(spec, "A", 8) == expected == [
        0, 1, 2, 12, 108, 1280, 18750, 326592, 6588344,
    ]


@pytest.mark.parametrize("text, alg", [
    ("A = A", [("A", Var("A"))]),
    ("A = X*set(B)\nB = B", [("A", Mul((Var("x"), Var("z1")))), ("B", Var("B"))]),
])
def test_a_name_defined_as_itself_keeps_its_equation(text, alg):
    # only a set or a cycle binds itself to the name it defines; a name
    # defined as itself keeps its equation, whose derivative is undetermined
    # (tests/test_cli.py checks the message)
    dsys = species_to_diffsys(parse_species(text))
    assert [(name, rhs) for kind, name, rhs in dsys.equations if kind == "alg"] == alg


@pytest.mark.parametrize("spelling", ["nested", "flat"])
def test_normalizing_a_product_is_linear_in_its_depth(spelling, monkeypatch):
    # multiplying out the product rule for a product d deep takes about d^2
    # polynomial products (x3.9 per doubling of d); differentiating the
    # lowered rational function takes about x1.85
    from treeseries._poly import MultiPolynomial

    calls = [0]
    multiply = MultiPolynomial.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(MultiPolynomial, "__mul__", counted)
    counts = []
    for depth in (50, 100, 200):
        if spelling == "nested":
            product = "(X*" * depth + "set(X, card>=1)" + ")" * depth
        else:
            product = "X*" * depth + "set(X, card>=1)"
        spec = parse_species(f"B = {product}")
        calls[0] = 0
        species_to_rds(spec)
        counts.append(calls[0])
    for shallow, deep in zip(counts, counts[1:]):
        assert deep <= 2.5 * shallow, counts


def test_normalization_compares_each_cell_denominator_tuple_once(monkeypatch):
    # the 1,312 cells of a set(..., card>=1) nested 20 deep share 3 denominator
    # tuples: grouping the cells by tuple compares each cell's tuple once, and
    # lcms and cofactors are taken per tuple (10,080 comparisons when they were
    # taken per variable and per cell); the cells hold 3 distinct entries, and
    # x0 is eliminated once per entry, not once per cell.  The compiler gives
    # every cell the same x0 + 1, which tuple comparison finds by identity, so
    # each cell is rebuilt from its text, with denominators of its own
    from treeseries import Automaton, exactmath
    from treeseries._poly import UniPolynomial
    from treeseries.exactmath import format_size_rational, normalize_common_denominator

    inner = "X"
    for _ in range(20):
        inner = f"set({inner}, card>=1)"
    a = compile_rda(species_to_rds(parse_species(f"B = X*{inner}"), "B"))
    a = Automaton.build(a.dimension, a.alphabet, {
        name: {key: format_size_rational(e) if k else e for key, e in a.weight(name).cells.items()}
        for name, k in a.alphabet.symbols})
    weights = [(name, k, a.weight(name)) for name, k in a.alphabet.symbols if k >= 1]
    entries = sum(len({(e.dens, e.num) for e in m.cells.values()}) for _, _, m in weights)
    calls, eliminations = [0], [0]
    equal, eliminate = UniPolynomial.__eq__, exactmath._eliminate_x0

    def counted(self, other):
        calls[0] += 1
        return equal(self, other)

    def counted_elimination(num, powers):
        eliminations[0] += 1
        return eliminate(num, powers)

    monkeypatch.setattr(UniPolynomial, "__eq__", counted)
    monkeypatch.setattr(exactmath, "_eliminate_x0", counted_elimination)
    normalize_common_denominator(weights)
    assert 0 < calls[0] <= sum((k + 1) * len(matrix.cells) for _, k, matrix in weights)
    assert eliminations[0] == entries == 3


def test_nested_set_growth_is_pinned():
    # set(..., card>=1) nested d deep: the states grow about x2.4 and the unary
    # and binary cells about x4.2 per doubling of d (the forms that
    # rda_normal_forms inlines grow with d)
    grown = []
    inner = "X"
    for depth in range(1, 41):
        inner = f"set({inner}, card>=1)"
        if depth in (10, 20, 40):
            a = compile_rda(species_to_rds(parse_species(f"B = X*{inner}"), "B"))
            cells = sum(len(a.weight(name).cells) for name, k in a.alphabet.symbols if k >= 1)
            grown.append((a.dimension, cells))
    assert grown == [(64, 316), (150, 1312), (366, 5535)]


@pytest.mark.parametrize("text, sets", [
    ("A = set(X, card>={k})", 1),
    ("A = X + set(A, card>={k})", 1),
    ("A = set(set(X, card>={k}), card>={k})", 2),
])
def test_card_ge_growth_is_logarithmic_in_k(text, sets):
    # set(A, card>=k) writes two powers, A^(k-1) and A^(k-2), and the compiler
    # splits each into about log2 k squarings: doubling k adds at most 4 states
    # and 4 cells per set
    grown = []
    for k in (250, 500, 1000, 2000):
        a = compile_rda(species_to_rds(parse_species(text.format(k=k))))
        grown.append((a.dimension, sum(len(m.cells) for _, m in a.weights)))
    for (states, cells), (more_states, more_cells) in zip(grown, grown[1:]):
        assert more_states - states <= 4 * sets and more_cells - cells <= 4 * sets, grown
    if text == "A = set(X, card>={k})":
        assert grown == [(15, 16), (19, 20), (21, 22), (23, 24)]


# ---------------------------------------------------------------------------
# set(A, card>=k) against an oracle that sums its powers


def _times(a, b):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _power_sum(a, weight, js):
    """sum over j in js of weight(j) * a^j, on the prefix of a, a(0) = 0: a^j
    vanishes below degree j, so powers past the prefix add nothing."""
    total, power = [F(0)] * len(a), [F(1)] + [F(0)] * (len(a) - 1)
    for j in range(len(a)):
        if j in js:
            total = [t + weight(j) * p for t, p in zip(total, power)]
        power = _times(power, a)
    return total


def _oracle_value(e, values, n):
    if isinstance(e, Const):
        return [e.value] + [F(0)] * n
    if e == Var("X"):
        return [F(0), F(1)] + [F(0)] * (n - 1)
    if isinstance(e, Var):
        return values[e.name]
    args = [_oracle_value(arg, values, n) for arg in getattr(e, "args", ())]
    if isinstance(e, Add):
        return [sum(c) for c in zip(*args)]
    if isinstance(e, Mul):
        product = args[0]
        for arg in args[1:]:
            product = _times(product, arg)
        return product
    a = _oracle_value(e.arg, values, n)
    if isinstance(e, SpCycle):
        return _power_sum(a, lambda j: F(1, j), range(1, n + 1))
    kind, k = e.card or ("ge", 0)
    js = range(k, k + 1) if kind == "eq" else range(k, n + 1)
    weight = (lambda j: F(1, math.factorial(j))) if isinstance(e, SpSet) else (lambda j: F(1))
    return _power_sum(a, weight, js)


def _oracle_counts(text, n):
    """Counts of sizes 0..n of the first name, from the EGF prefixes of every
    name, iterated from zero to a fixpoint: each round fixes at least one more
    coefficient of a recursive name."""
    spec = parse_species(text)
    values = {name: [F(0)] * (n + 1) for name in spec.names()}
    for _ in range((n + 2) * len(values)):
        new = {name: _oracle_value(e, values, n) for name, e in spec.equations}
        if new == values:
            return [c * math.factorial(m) for m, c in enumerate(values[spec.names()[0]])]
        values = new
    raise AssertionError("the prefixes do not reach a fixpoint")


def _card_ge_specifications():
    for k in range(10):
        j = max(k, 1)  # an inner set must have no empty structure
        yield f"A = set(X, card>={k})"
        yield f"A = set(set(X, card>={j}), card>={k})"
        yield f"A = set(set(set(X, card>={j}), card>={j}), card>={k})"
        yield f"A = X + X*set(A, card>={k})"
        if k >= 2:
            yield f"A = X + set(A, card>={k})"
        yield f"A = X*set(X, card>={k})*set(cycle(X), card>={k})"
        yield f"A = set(B, card>={k})\nB = X + X*A"


@pytest.mark.parametrize("text", _card_ge_specifications())
def test_card_ge_counts_match_the_power_sum_oracle(text):
    assert count_species(parse_species(text), n_max=20) == _oracle_counts(text, 20)


def _random_species(rng, names, depth, top=False):
    """A random expression over 1, X, the names, +, *, cycle, and sequence
    and set with no constraint, card=k or card>=k (k <= 3), at most depth
    constructs and operators deep; a top-level one is no bare leaf."""
    roll = rng.uniform(0.3 if top else 0, 1)
    if depth == 0 or roll < 0.3:
        leaf = rng.choice(["1", "X", "X"] + names)
        return f"X*{leaf}" if leaf in names and rng.random() < 0.3 else leaf
    if roll < 0.55:
        left, right = (_random_species(rng, names, depth - 1) for _ in range(2))
        return f"({left} {rng.choice('+*')} {right})"
    arg = _random_species(rng, names, depth - 1)
    if rng.random() < 0.7:
        arg = f"X*{arg}"  # most arguments then have no empty structure
    construct = rng.choice(["cycle", "sequence", "set"])
    if construct == "cycle" or rng.random() < 0.4:
        return f"{construct}({arg})"
    return f"{construct}({arg}, card{rng.choice(['=', '>='])}{rng.randint(0, 3)})"


def _random_specifications(count, seed):
    """Specifications of one to three names A, B, C, mutually recursive ones
    included, cut to the names that A reaches: the oracle iterates every
    name, and a name the pipeline does not translate may have no fixpoint.
    A is two levels deep and B and C one; three coupled names two levels
    deep can take seconds each to normalize."""
    rng = random.Random(seed)
    for _ in range(count):
        names = ["A", "B", "C"][: rng.randint(1, 3)]
        defined = {n: _random_species(rng, names, 2 if n == "A" else 1, top=True) for n in names}
        reached, todo = set(), ["A"]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(re.findall(r"\b[ABC]\b", defined[name]))
        yield "\n".join(f"{n} = {defined[n]}" for n in names if n in reached)


def test_random_specifications_count_as_the_oracle_does():
    # the pipeline refuses some of them (an argument with an empty
    # structure, a derivative left undetermined, a budget); the oracle must
    # reach a fixpoint on every one it counts, and agree
    compared = 0
    for text in _random_specifications(200, seed=1):
        try:
            counts = count_species(parse_species(text), n_max=8)
        except InvariantError:
            continue
        assert counts == _oracle_counts(text, 8), text
        compared += 1
    assert compared >= 150


# ---------------------------------------------------------------------------
# the eleven gold species: pipeline output vs hand-normalized systems


@pytest.mark.parametrize("row", GOLD_SPECIES, ids=[r[0] for r in GOLD_SPECIES])
def test_gold_species_solution_equality(row):
    _, spec_text, target, rds_text, var = row
    spec = parse_species(spec_text)
    mine = species_to_rds(spec, target)
    assert mine.is_rda
    printed = parse_rds(rds_text)
    assert printed.is_rda
    assert (
        taylor_oracle(mine, 10)[target].coefficients
        == taylor_oracle(printed, 10)[var].coefficients
    )


# ---------------------------------------------------------------------------
# counting


def test_bell_counts():
    spec = parse_species(BELL_SPECIES_TEXT)
    assert count_species(spec, "F", 6) == [1, 1, 2, 5, 15, 52, 203]


def test_labelled_trees_counts():
    spec = parse_species(LABELLED_TREES_SPECIES_TEXT)
    assert count_species(spec, "A", 5) == [0, 1, 2, 9, 64, 625]


@pytest.mark.parametrize("coefficients, message", [
    ((F(1), F(1), F(7, 4)), "count at size 2 is 7/2, not a nonnegative integer"),
    ((F(1), F(-3)), "count at size 1 is -3, not a nonnegative integer"),
])
def test_a_count_that_is_no_nonnegative_integer_is_refused(monkeypatch, coefficients, message):
    # the prefix of a series whose coefficients times n! are no counts
    from treeseries import series
    from treeseries.errors import NonIntegerCount

    monkeypatch.setattr(series, "generating_prefix", lambda a, n: series.SeriesPrefix(coefficients))
    with pytest.raises(NonIntegerCount) as info:
        count_species(parse_species(BELL_SPECIES_TEXT), None, len(coefficients) - 1)
    assert str(info.value) == message


def test_surjection_counts_match_fubini_recurrence():
    # a_n = sum_{k=1..n} C(n,k) a_{n-k}, a_0 = 1
    fubini = [1]
    for n in range(1, 9):
        fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    spec = parse_species("M = sequence(set(X, card>=1))")
    assert count_species(spec, "M", 8) == fubini
    assert fubini[:6] == [1, 1, 3, 13, 75, 541]


def _fubini(n):
    # ordered set partitions: a_n = sum_{k=1..n} C(n,k) a_{n-k}, a_0 = 1
    return 1 if n == 0 else sum(math.comb(n, k) * _fubini(n - k) for k in range(1, n + 1))


@pytest.mark.parametrize("text, closed_form", [
    ("L = sequence(X, card>=2)", lambda n: math.factorial(n) if n >= 2 else 0),
    ("L = sequence(X*X, card>=1)", lambda n: math.factorial(n) if n >= 2 and n % 2 == 0 else 0),
    ("L = sequence(set(X, card>=1), card>=2)", lambda n: _fubini(n) - 1 if n >= 1 else 0),
    ("L = set(X, card=0)", lambda n: 1 if n == 0 else 0),
    ("L = set(X, card>=0)", lambda n: 1),
    ("O = 1", lambda n: 1 if n == 0 else 0),
], ids=["sequence-card>=2", "sequence-of-pairs", "ordered-partitions-2-blocks", "set-card=0",
        "set-card>=0", "one"])
def test_translations_count_their_closed_forms(text, closed_form):
    name = text.split()[0]
    assert count_species(parse_species(text), name, 9) == [closed_form(n) for n in range(10)]


@pytest.mark.parametrize(
    "spec_text,target",
    [(r[1], r[2]) for r in GOLD_SPECIES],
    ids=[r[0] for r in GOLD_SPECIES],
)
def test_counts_are_nonnegative_integers(spec_text, target):
    spec = parse_species(spec_text)
    counts = count_species(spec, target, 12)
    assert len(counts) == 13
    assert all(isinstance(c, int) and c >= 0 for c in counts)


def test_product_of_three_species():
    # EGF x * e^x / (1 - x): the product rule over three factors at once
    spec = parse_species("T = X*set(X)*sequence(X)")
    expected = [math.factorial(n) * sum(F(1, math.factorial(j)) for j in range(n)) for n in range(8)]
    assert count_species(spec, n_max=7) == expected


def test_flat_sum_of_3000_singletons():
    spec = parse_species("A = " + "+".join(["X"] * 3000))
    assert count_species(spec, n_max=5) == [0, 3000, 0, 0, 0, 0]


def test_counts_translate_only_the_names_the_target_reaches():
    # a name the target never uses does not take part in its translation, so
    # B's inadmissible set(B) and A1's oversized right-hand side refuse neither
    # A nor A0; the whole file still fails where it is read as a whole
    spec = parse_species("A = X + A*A\nB = set(B)")
    # n! times the Catalan number C(n-1): ordered binary trees with n labelled leaves
    expected = [0] + [math.factorial(n) * math.comb(2 * n - 2, n - 1) // n for n in range(1, 9)]
    assert count_species(spec, "A", 8) == expected
    with pytest.raises(UnsupportedConstruct):
        count_species(spec, "B", 3)
    with pytest.raises(UnsupportedConstruct):
        empty_counts(spec)
    with pytest.raises(UnknownName):
        species_to_rds(spec, "C")
    a0 = "A0 = cycle(X*cycle(X*sequence(X*X)))"
    spec = parse_species(f"{a0}\nA1 = sequence(X*((X + A0 + A1)*(A0 + X)))")
    expected = [0, 0, 2, 3, 44, 210, 2874, 25620, 390704]
    assert count_species(parse_species(a0), "A0", 8) == expected
    assert count_species(spec, "A0", 8) == expected


# ---------------------------------------------------------------------------
# well-founded recursions (the implicit-species condition) and the work of
# solving for the derivatives


_ILL_FOUNDED = "the species would have infinitely many structures of some size"


@pytest.mark.parametrize("text, cycle", [
    ("A = ((A + (X + A)) + cycle(X))", "A -> A"),
    ("A = ((cycle(A) + (X * 1)) + X)", "A -> A"),
    ("A = X + A", "A -> A"),
    ("A = X + B\nB = A", "A -> B -> A"),
    ("A = 1 + A", "A -> A"),
    ("A = X*B\nB = 1 + A + B", "B -> B"),
])
def test_an_ill_founded_recursion_is_refused_by_its_cycle(tmp_path, capsys, text, cycle):
    # at the parent these ended in a negative count, an undefined right-hand
    # side, a degenerate linear system and counts that do not stabilize
    from treeseries import cli

    path = tmp_path / "s.spec"
    path.write_text(text + "\n")
    assert cli.main(["species", "count", "-f", str(path), "-n", "5"]) == 3
    assert capsys.readouterr() == ("", f"error: ill-founded recursion {cycle}: {_ILL_FOUNDED}\n")
    with pytest.raises(UnsupportedConstruct):
        empty_counts(parse_species(text))


@pytest.mark.parametrize("text, counts", [
    # B depends on A only through X: the Jacobian at X = 0 is nilpotent
    ("A = X + B\nB = X*A", [0, 1, 2, 6, 24, 120, 720]),
    # a name without structures is the empty species, set aside before the
    # check, and counts as zeros
    ("A = cycle(A)", [0] * 7),
    ("A = ((X + B) * set(X*1))\nB = cycle(B)", [0, 1, 2, 3, 4, 5, 6]),
    # A*A has no linear part at X = 0, and set(H, card>=2) none in H
    ("A = X + A*A", [0, 1, 2, 12, 120, 1680, 30240]),
    ("H = X + set(H, card>=2)", [0, 1, 1, 4, 26, 236, 2752]),
])
def test_a_well_founded_or_empty_recursion_counts(text, counts):
    assert count_species(parse_species(text), n_max=6) == counts


def test_a_solve_past_its_work_budget_is_refused_before_it_multiplies():
    # at the parent this formed a right-hand side of 4,341 terms in 1.1 s
    # before the term budget refused it
    spec = parse_species(
        "A = (cycle(X*A) + (X*C * B))\nB = (X*A * C)\nC = sequence(X*A, card=1)")
    with pytest.raises(InvariantError) as info:
        count_species(spec, n_max=8)
    assert str(info.value) == ("solving for z1' needs 2328450 products of terms, past 1000000;"
                               " the specification nests too deeply")


def test_a_specification_that_took_minutes_to_solve_exits_3_quickly(tmp_path):
    # at the parent a 25 s timeout stopped it, inside two _solve calls
    spec = tmp_path / "slow.spec"
    spec.write_text("A = (sequence(X*X*B, card>=1) * sequence(X*C))\n"
                    "B = cycle(X*set(X*A, card>=0))\nC = (X + (X*A * X*A))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "treeseries", "species", "count", "-f", str(spec), "-n", "8"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (3, "")
    assert len(done.stderr.splitlines()) == 1 and "nests too deeply" in done.stderr
