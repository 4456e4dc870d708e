import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeseries import exactmath
from treeseries.closure import FinalVector
from treeseries.errors import (
    DenominatorZero,
    InputFormatError,
    InvalidBeta,
    InvalidDenominator,
    ZeroPolynomial,
)
from treeseries.exactmath import (
    MultiPolynomial,
    SizeRational,
    UniPolynomial,
    WeightMatrix,
    format_size_rational,
    normalize_common_denominator,
    parse_size_rational,
    poly_gcd,
    poly_integer_roots,
    poly_lcm,
    size_rational_eval,
)
from treeseries._expr import RatFunc
from zoo import bell_automaton, cubic_automaton, labelled_trees_automaton


def up(*coeffs):
    return UniPolynomial(coeffs)


# ---------------------------------------------------------------------------
# integer roots


def test_integer_roots_linear():
    assert poly_integer_roots(up(-3, 1)) == {3}


def test_integer_roots_none():
    assert poly_integer_roots(up(1, 1)) == {-1}
    assert not {r for r in poly_integer_roots(up(1, 1)) if r >= 0}


def test_integer_roots_quadratic():
    # x^2 - 5x + 6 = (x-2)(x-3)
    assert poly_integer_roots(up(6, -5, 1)) == {2, 3}


def test_integer_roots_zero_root_and_fractions():
    # x(x - 1/2)(x + 4), cleared or not
    p = up(0, -2, 7, 2)  # 2x^3 + 7x^2 - 2x = x(2x-... ) pick explicit instead
    p = UniPolynomial((0, F(-1, 2), F(1, 2)))  # (x^2 - x)/2 = x(x-1)/2
    assert poly_integer_roots(p) == {0, 1}


def test_integer_roots_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        poly_integer_roots(UniPolynomial())


def _divisor_search_roots(p):
    """The rational root theorem run exhaustively: every integer root of an
    integer polynomial with nonzero constant term divides that term.  Costs
    sqrt(|constant term|) divisions, so only small constants are feasible."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    roots = set()
    while ints[0] == 0:
        roots.add(0)
        ints = ints[1:]
    n = abs(ints[0])
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for r in (d, -d, n // d, -(n // d)):
                if sum(c * r**i for i, c in enumerate(ints)) == 0:
                    roots.add(r)
    return roots


@pytest.mark.parametrize("seed", range(5))
def test_integer_roots_match_the_divisor_search(seed):
    rng = random.Random(seed)
    for _ in range(200):
        p = up(F(rng.choice([1, -2, 3]), rng.choice([1, 2, 7])))
        for _ in range(rng.randint(0, 4)):  # linear factors with integer roots, repeats likely
            p = p * up(-rng.randint(-9, 9), 1)
        for _ in range(rng.randint(0, 2)):  # and factors with small random coefficients
            p = p * UniPolynomial(
                [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
                + [rng.randint(1, 5)]
            )
        if p.degree >= 1:
            assert poly_integer_roots(p) == _divisor_search_roots(p), p


def test_integer_roots_of_repeated_factors_of_degree_three_and_more():
    # (x - 2)^3 (x + 5)^4 x^2 (x^2 + 1)^2 (2x - 1)^3
    p = up(1)
    for factor, times in ((up(-2, 1), 3), (up(5, 1), 4), (up(0, 1), 2), (up(1, 0, 1), 2),
                          (up(-1, 2), 3)):
        for _ in range(times):
            p = p * factor
    assert poly_integer_roots(p) == {2, -5, 0}
    q = p * up(-7, 1)
    assert poly_integer_roots(q) == {2, -5, 0, 7} == _divisor_search_roots(q)


def test_integer_roots_of_coefficients_past_a_hundred_bits():
    big, other = 2**127 - 1, 3**70 + 2  # 127 and 111 bits
    # (x - big)^3 (x + other)^2 (3x + 5) (x^2 + big)
    p = up(-big, 1) * up(-big, 1) * up(-big, 1) * up(other, 1) * up(other, 1)
    p = p * up(5, 3) * up(big, 0, 1)
    assert max(abs(c).numerator.bit_length() for c in p.coeffs) > 500
    assert poly_integer_roots(p) == {big, -other}
    # rational coefficients with 100-bit denominators: (x - 2^100)(x + 1/(2^100 + 1))
    q = up(-(2**100), 1) * up(F(1, 2**100 + 1), 1)
    assert poly_integer_roots(q) == {2**100}


def test_integer_roots_of_huge_constant_terms_come_fast():
    start = time.perf_counter()
    big = 10**21
    assert poly_integer_roots(up(big, 1)) == {-big}
    parse_size_rational(f"1/(x0+{big})", 1)
    # (x - (2^61 - 1)) (x - (10^30 + 3)) (3x + 5) (x^2 + 1)
    p = up(-(2**61 - 1), 1) * up(-(10**30 + 3), 1) * up(5, 3) * up(1, 0, 1)
    assert poly_integer_roots(p) == {2**61 - 1, 10**30 + 3}
    assert poly_integer_roots(up(-(10**40), 0, 1) * up(1, 0, 1)) == {10**20, -(10**20)}
    assert time.perf_counter() - start < 2


def test_gcd_lcm():
    a = up(-1, 1) * up(2, 1)
    b = up(-1, 1) * up(3, 1)
    assert poly_gcd(a, b) == up(-1, 1)
    assert poly_lcm(a, b) == up(-1, 1) * up(2, 1) * up(3, 1)


# ---------------------------------------------------------------------------
# ring laws on randomized small operands

finite_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def unipolys(draw):
    return UniPolynomial(draw(st.lists(finite_fracs, max_size=4)))


@st.composite
def multipolys(draw, nvars=2):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[exps] = draw(finite_fracs)
    return MultiPolynomial(nvars, terms)


_DENOMS_X0 = [up(1), up(1, 1), up(F(1, 2), 1), up(1, 2, 1)]
_DENOMS_XI = [up(1), up(1, 1), up(2, 1), up(1, 0, 1)]


@st.composite
def size_rationals(draw):
    num = draw(multipolys(nvars=2))
    d0 = draw(st.sampled_from(_DENOMS_X0))
    d1 = draw(st.sampled_from(_DENOMS_XI))
    return SizeRational(num, [d0, d1])


@settings(max_examples=60, deadline=None)
@given(unipolys(), unipolys(), unipolys())
def test_unipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(unipolys(), unipolys(), size_rationals())
def test_unipoly_product_by_one_is_the_other_factor(a, b, f):
    one, zero = UniPolynomial.const(1), UniPolynomial()
    assert a * one is a and (one * a is a or a.is_one)
    for p, q in [(a, b), (a, one), (one, b), (a, zero), (zero, b), (a, UniPolynomial.const(F(1, 2)))]:
        expected = [F(0)] * (len(p.coeffs) + len(q.coeffs))
        for i, x in enumerate(p.coeffs):
            for j, y in enumerate(q.coeffs):
                expected[i + j] += x * y
        assert p * q == UniPolynomial(expected)
    # a product by a constant keeps the very denominators, which the
    # denominator check's cache then finds by identity
    assert all(x is y for x, y in zip((f * SizeRational.const(1, 3)).dens, f.dens))


@settings(max_examples=60, deadline=None)
@given(multipolys(), multipolys(), multipolys())
def test_multipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(multipolys(nvars=3), st.lists(multipolys(nvars=2), min_size=3, max_size=3),
       st.lists(finite_fracs, min_size=2, max_size=2))
def test_compose_is_evaluation_of_the_images(p, images, point):
    # p(images)(point) = p(images(point)) at a random rational point
    composed = p.compose(images)
    assert composed.nvars == 2
    assert composed(point) == p([image(point) for image in images])


def _repeated(base, e, one):
    acc = one
    for _ in range(e):
        acc = acc * base
    return acc


# univariate, so that a 40th power stays small; pow never looks at nvars
@settings(max_examples=40, deadline=None)
@given(multipolys(nvars=1), st.integers(0, 40))
def test_pow_equals_repeated_multiplication(p, e):
    assert p.pow(e).terms == _repeated(p, e, MultiPolynomial.const(1, 1)).terms


@settings(max_examples=40, deadline=None)
@given(multipolys(nvars=1), multipolys(nvars=1), st.integers(0, 40))
def test_ratfunc_pow_equals_repeated_multiplication(num, den, e):
    if den.is_zero:
        den = MultiPolynomial.const(1, 1)
    f = RatFunc(num, den)
    power, reference = f.pow(e), _repeated(f, e, RatFunc.const(1, 1))
    assert (power.num.terms, power.den.terms) == (reference.num.terms, reference.den.terms)


def _count_products(monkeypatch, cls):
    calls = []
    product = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    return calls


@pytest.mark.parametrize("e", [1, 2, 3, 7, 8, 40, 255, 256, 30000, 10**6])
def test_pow_takes_at_most_2_log2_e_products(monkeypatch, e):
    bound = 2 * math.log2(e) + 2
    x0, x1 = MultiPolynomial.var(2, 0), MultiPolynomial.var(2, 1)
    calls = _count_products(monkeypatch, MultiPolynomial)
    assert x0.pow(e).terms == {(e, 0): 1}
    assert len(calls) <= bound
    calls = _count_products(monkeypatch, RatFunc)
    power = RatFunc(x0, x1).pow(e)
    assert (power.num.terms, power.den.terms) == ({(e, 0): 1}, {(0, e): 1})
    assert len(calls) <= bound


def test_compose_raises_each_image_to_a_power_by_squaring(monkeypatch):
    # a permutation of the variables, as rds_with_target does, of y0^30000 * y1
    p = MultiPolynomial(2, {(30000, 1): 3})
    images = [MultiPolynomial.var(2, 1), MultiPolynomial.var(2, 0)]
    calls = _count_products(monkeypatch, MultiPolynomial)
    assert p.compose(images).terms == {(1, 30000): 3}
    assert len(calls) <= 2 * math.log2(30000) + 2 + 2  # the term times its two powers


@settings(max_examples=40, deadline=None)
@given(size_rationals(), size_rationals(), size_rationals())
def test_size_rational_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(size_rationals(), size_rationals())
def test_representations_agree_at_legal_points(f, g):
    # two routes to the same value: canonical product vs distributed sum
    lhs = f * (g + g)
    rhs = f * g + f * g
    points = [(n0, n1) for n0 in range(1, 11) for n1 in range(5)]
    for point in points[:50]:
        assert lhs(point) == rhs(point)


# ---------------------------------------------------------------------------
# membership and evaluation


def test_membership_x1_root_zero_rejected():
    num = MultiPolynomial.const(2, 1)
    with pytest.raises(InvalidDenominator):
        SizeRational(num, [up(1), up(0, 1)])  # x1 in the x1 slot has root 0


def test_membership_x0_root_one_rejected():
    num = MultiPolynomial.const(2, 1)
    with pytest.raises(InvalidDenominator):
        SizeRational(num, [up(-1, 1), up(1)])  # x0 - 1


def test_membership_x0_root_zero_accepted():
    num = MultiPolynomial.const(2, 1)
    f = SizeRational(num, [up(0, 1), up(1)])  # 1/x0 is fine
    assert f((2, 7)) == F(1, 2)


# x0 - 2 and x0^2 + 3*x0 - 10 = (x0 - 2)(x0 + 5): the root 2 is a size of every slot
FORBIDDEN_ROOT_2 = [("x0-2", up(-2, 1)), ("x0^2+3*x0-10", up(-10, 3, 1))]


@pytest.mark.parametrize("text, q", FORBIDDEN_ROOT_2, ids=[t for t, _ in FORBIDDEN_ROOT_2])
def test_a_forbidden_root_is_refused_on_every_construction(text, q):
    # the denominator check remembers passes only: each construction of a
    # refused value misses the cache, runs the check, and refuses again
    check = exactmath._check_denominator
    num = MultiPolynomial.const(2, 1)
    SizeRational(num)  # the constant denominators pass, and are stored
    constructions = [
        (lambda: SizeRational(num, [q, up(1)]), InvalidDenominator,
         "denominator for x0 has forbidden integer root(s) [2]", 1),
        (lambda: SizeRational(num, [up(1), q]), InvalidDenominator,
         "denominator for x1 has forbidden integer root(s) [2]", 1),
        (lambda: parse_size_rational(f"1/({text})", 1), InvalidDenominator,
         "denominator for x0 has forbidden integer root(s) [2]", 1),
        # the final vector checks its denominators itself, with no cache
        (lambda: FinalVector.of((up(1), q)), InvalidBeta,
         "final vector denominator has nonnegative root(s) [2]", 0),
    ]
    for build, error, message, misses in constructions:
        for _ in range(2):
            before = check.cache_info()
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message
            after = check.cache_info()
            assert (after.misses - before.misses, after.currsize) == (misses, before.currsize)


def test_the_denominator_cache_is_bounded_and_still_refuses_when_full():
    check = exactmath._check_denominator
    bound = check.cache_info().maxsize
    num = MultiPolynomial.const(1, 1)
    # x0 + k has the root -k, allowed in x0's slot: each one passes, and is stored
    for k in range(bound + 50):
        assert SizeRational(num, [up(k, 1)]).dens == (up(k, 1),)
    assert check.cache_info().currsize == bound
    for _ in range(2):
        with pytest.raises(InvalidDenominator, match=r"x0 has forbidden integer root\(s\) \[2\]"):
            SizeRational(num, [up(-2, 1)])
    assert check.cache_info().currsize == bound


def test_eval_examples():
    f = parse_size_rational("(x1+1)/(x0+1)", 1)
    assert size_rational_eval(f, (1, 0)) == F(1, 2)
    g = parse_size_rational("1/(x0)", 1)
    assert size_rational_eval(g, (3, 2)) == F(1, 3)
    h = parse_size_rational("-(x2+1)/(x0+1)", 2)
    assert size_rational_eval(h, (4, 0, 3)) == F(-4, 5)


def test_eval_denominator_zero_signals():
    f = SizeRational(MultiPolynomial.const(1, 1), [up(0, 1)])
    with pytest.raises(DenominatorZero):
        f((0,))


def test_zero_size_rational_is_canonical():
    f = parse_size_rational("1/(x0)", 1)
    z = f + f.scale(-1)
    assert z.is_zero
    assert all(q.is_one for q in z.dens)


def _seeded_size_rational(rng: random.Random, arity: int) -> SizeRational:
    nvars = arity + 1
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [str(rng.randint(-3, 3))]
        factors += [f"x{rng.randrange(nvars)}" for _ in range(rng.randint(0, 2))]
        terms.append("*".join(factors))
    dens = [rng.choice(["1", "x0", "x0+2", "x0^2+1"])]
    dens += [rng.choice(["1", f"x{i}+1", f"x{i}+3", f"x{i}^2+x{i}+2"]) for i in range(1, nvars)]
    text = "(" + "+".join(terms) + ")/" + "*".join(f"({q})" for q in dens)
    return parse_size_rational(text, arity)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_substitute_sizes_agrees_with_evaluation(arity, seed):
    # f.substitute_sizes(s) at p is f at (p0+s0, ..., pj+sj, 0, ..., 0)
    rng = random.Random(seed * 10 + arity)
    f = _seeded_size_rational(rng, arity)
    for j in range(1, arity + 2):
        for shifts in itertools.product(range(3), repeat=j):
            g = f.substitute_sizes(shifts)
            assert g.nvars == j
            for _ in range(3):
                point = [rng.randint(max(0, 1 - shifts[0]), 4)]
                point += [rng.randint(0, 4) for _ in range(1, j)]
                shifted = [p + s for p, s in zip(point, shifts)] + [0] * (arity + 1 - j)
                assert g(point) == f(shifted), (shifts, point)
    with pytest.raises(ValueError):
        f.substitute_sizes((0,) * (arity + 2))


def _assert_canonical(f: SizeRational):
    """Denominators monic (all 1 for zero), every coefficient a Fraction, and
    the same fields as the value read back from its text form."""
    if f.is_zero:
        assert all(q.is_one for q in f.dens)
    assert all(q.coeffs[-1] == 1 for q in f.dens)
    coeffs = [*f.num.terms.values()] + [c for q in f.dens for c in q.coeffs]
    assert all(type(c) is F for c in coeffs), coeffs
    again = parse_size_rational(format_size_rational(f), f.arity)
    assert (again.num.nvars, again.num.terms, again.dens) == (f.nvars, f.num.terms, f.dens)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("arity", [1, 2])
def test_ring_results_are_canonical(arity, seed):
    rng = random.Random(1000 + seed * 10 + arity)
    f, g = _seeded_size_rational(rng, arity), _seeded_size_rational(rng, arity)
    results = [f + g, f * g, f - g, f - f, f * (g - g), f.scale(F(-3, 2)), f.scale(0),
               f.mul_univariate(up(1, 2), up(6, 2), 0),
               f.mul_univariate(up(0, 3), up(4, 4, 1), arity)]
    results += [f.substitute_sizes(shifts) for shifts in [(0,), (1, 0), (2,) * (arity + 1)]]
    for result in [f, g] + results:
        _assert_canonical(result)


# ---------------------------------------------------------------------------
# text format


@pytest.mark.parametrize(
    "text,arity",
    [
        ("0", 2),
        ("1/2", 0),
        ("x1+1", 1),
        ("(x2+1)/(x0+1)", 2),
        ("-(x2+1)/(x0+1)", 2),
        ("1/(x0)", 2),
        ("(3*x1^2-1/3)/(x0+2)*(x1^2+1)", 1),
        ("(x1*x2+5)/(1)*(x1+1)*(x2+2)", 2),
    ],
)
def test_text_round_trip(text, arity):
    f = parse_size_rational(text, arity)
    again = parse_size_rational(format_size_rational(f), arity)
    assert f == again


@settings(max_examples=40, deadline=None)
@given(size_rationals())
def test_format_parse_round_trip(f):
    assert parse_size_rational(format_size_rational(f), f.arity) == f


@pytest.mark.parametrize(
    "text, arity, expected",
    [
        ("3 / 4", 1, "3/4"),
        ("--x1", 1, "x1"),
        ("x1-(-x1)", 1, "2*x1"),
        ("1/(2*x0)", 1, "1/2/(x0)"),
        ("-3*x0^2/(x0)", 1, "(-3*x0^2)/(x0)"),
        ("1/2/(x0)", 1, "1/2/(x0)"),
        ("1/(x1 - x1 + x0)", 1, "1/(x0)"),  # the shape is checked on the value
        # the README examples
        ("(x2+1)/(x0+1)", 2, "(x2+1)/(x0+1)"),
        ("1/(x0)", 1, "1/(x0)"),
        ("-(x1+1)/(x0)*(x1+2)", 1, "(-x1-1)/(x0)*(x1+2)"),
        # accepted since weights share the expression syntax of the text formats
        ("x0/2", 1, "1/2*x0"),
        ("+x1", 1, "x1"),
        ("(3)/4", 1, "3/4"),
        ("x1  # a comment", 1, "x1"),
        ("1/((x0+1)/2)", 1, "2/(x0+1)"),
        ("+".join(["x1"] * 3000), 1, "3000*x1"),
    ],
)
def test_weight_forms(text, arity, expected):
    assert format_size_rational(parse_size_rational(text, arity)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "x01",  # zero-padded indices are not variable names
        "x0\n+1",  # a weight is one line
        "x3",
        "x1+*2",
        "1/x0",  # a numerator with a denominator outside the chain
        "1/(1/x0)",
        "1/(x1)",  # an x1 factor in the x0 slot
        "1/(x0+1)*(x1+1)*(x1+2)",  # more factors than variables
        "1/(x0)/(x1)",
        "x0'",
    ],
)
def test_weight_rejections(text):
    with pytest.raises(InputFormatError):
        parse_size_rational(text, 1)


# ---------------------------------------------------------------------------
# common-denominator normal form


def _weights_of(a):
    return [
        (name, k, a.weight(name)) for name, k in a.alphabet.symbols if k >= 1
    ]


def reassemble(form, name: str) -> WeightMatrix:
    """Rebuild the weight matrix of one symbol of a common-denominator form as
    SizeRational entries."""
    dec = form.symbols[name]
    nvars = dec.arity + 1
    dens = [form.q0] + list(dec.child_denominators)
    terms = {}
    for exps, cells in dec.matrices.items():
        for key, c in cells.items():
            terms.setdefault(key, {})[(0,) + exps] = c
    cells = {
        key: SizeRational(MultiPolynomial(nvars, monomials), dens)
        for key, monomials in terms.items()
    }
    return WeightMatrix(dec.shape, dec.arity, cells)


def legal_equal(f: SizeRational, g: SizeRational) -> bool:
    """Equality as functions on realizable size tuples (x0 = 1 + x1 + ... + xk).

    Decided exactly: f - g vanishes on that hyperplane iff its numerator does
    after substituting x0, since the denominators are nonzero off finitely
    many hyperplane slices.
    """
    if f.nvars != g.nvars:
        return False
    diff = f - g
    if diff.is_zero:
        return True
    nvars = diff.nvars
    x0_image = MultiPolynomial.const(nvars, 1)
    for i in range(1, nvars):
        x0_image = x0_image + MultiPolynomial.var(nvars, i)
    images = [x0_image] + [MultiPolynomial.var(nvars, i) for i in range(1, nvars)]
    return diff.num.compose(images).is_zero


def test_normalize_bell():
    form = normalize_common_denominator(_weights_of(bell_automaton()))
    assert form.q0 == up(0, 1)  # x0
    assert form.r == 0
    for dec in form.symbols.values():
        assert all(q.is_one for q in dec.child_denominators)


def test_normalize_constant_weights():
    const = SizeRational.const(1, F(3, 2))
    form = normalize_common_denominator([("u", 1, ((const, const), (const, const)))])
    assert form.q0.is_one
    assert form.r == 0


def test_normalize_splits_numerator_exponents():
    entry = parse_size_rational("(x2+1)/(x0+1)", 2)
    zero = SizeRational(MultiPolynomial(3))
    matrix = tuple(
        tuple(entry if (i, j) == (3, 1) else zero for j in range(2)) for i in range(4)
    )
    form = normalize_common_denominator([("g", 2, matrix)])
    assert form.q0 == up(1, 1)
    dec = form.symbols["g"]
    assert all(q.is_one for q in dec.child_denominators)
    assert set(dec.matrices) == {(0, 0), (0, 1)}
    assert form.r == 1


def test_normalize_round_trips_exactly_for_shared_denominator():
    # every nonzero Bell entry already has the common x0 denominator, so the
    # decomposition reassembles to the identical SizeRational
    a = bell_automaton()
    form = normalize_common_denominator(_weights_of(a))
    for name, k, matrix in _weights_of(a):
        rebuilt = reassemble(form, name)
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                assert rebuilt[i][j] == entry


@pytest.mark.parametrize(
    "factory", [bell_automaton, labelled_trees_automaton, cubic_automaton]
)
def test_normalize_round_trips_on_legal_tuples(factory):
    # mixed x0 denominators force the lcm cofactor into some numerators,
    # where x0 is eliminated via x0 = 1 + x1 + ... + xk; equality of the
    # reassembled weight holds exactly on that hyperplane
    a = factory()
    form = normalize_common_denominator(_weights_of(a))
    for name, k, matrix in _weights_of(a):
        rebuilt = reassemble(form, name)
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                assert legal_equal(rebuilt[i][j], entry)


def test_normalize_x0_numerator_agrees_on_legal_points():
    entry = parse_size_rational("x0+x1", 1)  # numerator mentions x0
    zero = SizeRational(MultiPolynomial(2))
    matrix = ((entry, zero), (zero, zero))
    form = normalize_common_denominator([("u", 1, matrix)])
    rebuilt = reassemble(form, "u")[0][0]
    for n1 in range(6):
        point = (n1 + 1, n1)  # legal: parent size = 1 + child size
        assert rebuilt(point) == entry(point)
