"""The shortcuts of the size-weight kernel give exactly what the general
path gives: the same numerators and denominators, not only equal values.

- ``SizeRational.scale`` keeps the operand's denominators;
- ``SizeRational.__add__`` takes no lcm of equal denominators;
- ``normalize_common_denominator`` eliminates x0 from a list of powers of
  1 + x1 + ... + xk instead of ``MultiPolynomial.compose``;
- ``absorb_final_vector`` scales by constant final-vector entries and skips
  zero ones instead of multiplying every cell by ``mul_univariate``;
- ``MultiPolynomial.restrict`` relabels variables and sets the others to 0
  as ``MultiPolynomial.compose`` with variables and zeros as images does,
  and the species and differential-algebraic front ends relabel through it;
- ``UniPolynomial`` hashes its coefficients once.
"""

import fractions
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st
from test_exactmath import finite_fracs, multipolys, size_rationals
from test_random_automata import automata

from treeseries.compile import da_to_rds, parse_da
from treeseries.core import FinalVector, absorb_final_vector, shift_row
from treeseries.exactmath import (
    MultiPolynomial,
    SizeRational,
    UniPolynomial,
    normalize_common_denominator,
    poly_lcm,
)
from treeseries.species import diffsys_to_rds, parse_species, rds_with_target, species_to_diffsys


def _parts(f: SizeRational):
    return f.num, f.dens


def _sum_through_lcm(a: SizeRational, b: SizeRational) -> SizeRational:
    """a + b with an lcm and two exact divisions in every slot."""
    nvars = a.nvars
    num_a, num_b, dens = a.num, b.num, []
    for i, (qa, qb) in enumerate(zip(a.dens, b.dens)):
        common = poly_lcm(qa, qb)
        dens.append(common)
        num_a = num_a * MultiPolynomial.from_uni(common.div_exact(qa), nvars, i)
        num_b = num_b * MultiPolynomial.from_uni(common.div_exact(qb), nvars, i)
    return SizeRational(num_a + num_b, dens)


@settings(max_examples=80, deadline=None)
@given(size_rationals(), st.one_of(st.just(F(0)), finite_fracs))
def test_scale_keeps_the_canonical_denominators(a, c):
    assert _parts(a.scale(c)) == _parts(SizeRational(a.num.scale(c), a.dens))


@settings(max_examples=80, deadline=None)
@given(size_rationals(), size_rationals())
def test_sum_matches_the_lcm_sum_for_unequal_denominators(a, b):
    assert _parts(a + b) == _parts(_sum_through_lcm(a, b))


@settings(max_examples=80, deadline=None)
@given(size_rationals(), multipolys(nvars=2))
def test_sum_matches_the_lcm_sum_for_equal_denominators(a, num):
    b = SizeRational(num, a.dens)
    assert _parts(a + b) == _parts(_sum_through_lcm(a, b))
    assert _parts(a + a.scale(-1)) == _parts(SizeRational(MultiPolynomial(2)))


# ---------------------------------------------------------------------------
# x0 elimination


def _x0_images(nvars: int):
    x0 = MultiPolynomial.const(nvars, 1)
    for i in range(1, nvars):
        x0 = x0 + MultiPolynomial.var(nvars, i)
    return [x0] + [MultiPolynomial.var(nvars, i) for i in range(1, nvars)]


@st.composite
def weight_rows(draw):
    """Cells of random SizeRationals over 2 to 4 variables, with x0 degrees
    up to 4 and mixed denominators, as one (name, arity, rows) weight."""
    nvars = draw(st.integers(2, 4))
    dens0 = [UniPolynomial((1,)), UniPolynomial((1, 1)), UniPolynomial((0, 1))]
    densi = [UniPolynomial((1,)), UniPolynomial((2, 1))]
    row = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {
            tuple(draw(st.integers(0, 4 if i == 0 else 2)) for i in range(nvars)):
            draw(finite_fracs)
            for _ in range(draw(st.integers(0, 4)))
        }
        dens = [draw(st.sampled_from(dens0))]
        dens += [draw(st.sampled_from(densi)) for _ in range(1, nvars)]
        row.append(SizeRational(MultiPolynomial(nvars, terms), dens))
    return ("g", nvars - 1, (tuple(row),))


def _matrices_through_compose(entries, lcms):
    """The normal form's matrices, with x0 eliminated by compose."""
    nvars = len(lcms)
    matrices = {}
    for key, entry in entries.items():
        num = entry.num
        for v in range(nvars):
            num = num * MultiPolynomial.from_uni(lcms[v].div_exact(entry.dens[v]), nvars, v)
        for exps, c in num.compose(_x0_images(nvars)).terms.items():
            matrices.setdefault(exps[1:], {})[key] = c
    return matrices


@settings(max_examples=60, deadline=None)
@given(st.lists(weight_rows(), min_size=1, max_size=3))
def test_x0_elimination_matches_compose(weights):
    weights = [(f"g{i}", k, rows) for i, (_, k, rows) in enumerate(weights)]
    form = normalize_common_denominator(weights)
    for name, k, rows in weights:
        dec = form.symbols[name]
        entries = {(0, j): e for j, e in enumerate(rows[0]) if not e.is_zero}
        expected = _matrices_through_compose(entries, [form.q0, *dec.child_denominators])
        assert dec.matrices == (expected or {(0,) * k: {}})
        assert max(max(exps, default=0) for exps in dec.matrices) <= form.r


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(multipolys(nvars=n), max_size=4)))
def test_eliminate_x0_matches_compose_with_shared_powers(nums):
    from treeseries.exactmath import _eliminate_x0

    powers = {}
    for num in nums:
        k = num.nvars - 1
        got = _eliminate_x0(num, powers.setdefault(k, [{(0,) * k: 1}]))
        expected = num.compose(_x0_images(num.nvars)).terms
        assert got == {exps[1:]: c for exps, c in expected.items()}


# ---------------------------------------------------------------------------
# final-vector absorption

_BETA_ENTRIES = [
    (UniPolynomial(()), UniPolynomial((1,))),  # zero
    (UniPolynomial((3,)), UniPolynomial((1,))),  # constant
    (UniPolynomial((F(-1, 2),)), UniPolynomial((1,))),
    (UniPolynomial((2,)), UniPolynomial((4,))),  # constant over a constant
    (UniPolynomial((0, 1)), UniPolynomial((1,))),  # x
    (UniPolynomial((1, 1)), UniPolynomial((1,))),  # 1 + x
    (UniPolynomial((1,)), UniPolynomial((1, 1))),  # 1/(x + 1)
]


def _absorbed_through_mul_univariate(a, beta):
    """The cells of absorb_final_vector(a, beta), multiplying every cell."""
    d, beta0 = a.dimension, beta.value_at(0)
    out = {}
    for name, arity in a.alphabet.symbols:
        cells, column = {}, {}
        for (row, col), entry in a.weight(name).cells.items():
            row = shift_row(row, arity, d, d + 1, 1)
            cells[(row, col + 1)] = entry
            if arity == 0:
                term = entry * beta0[col]
            else:
                term = entry.mul_univariate(*beta.entries[col], 0)
            column[row] = column[row] + term if row in column else term
        cells.update(((row, 0), value) for row, value in column.items())
        out[name] = {
            key: value if arity == 0 else _parts(value)
            for key, value in cells.items()
            if (value != 0 if arity == 0 else not value.is_zero)
        }
    return out


@settings(max_examples=40, deadline=None)
@given(automata(dmax=3), st.data())
def test_absorb_final_vector_matches_multiplying_every_cell(a, data):
    entries = [data.draw(st.sampled_from(_BETA_ENTRIES)) for _ in range(a.dimension)]
    beta = FinalVector(tuple(entries))
    absorbed = absorb_final_vector(a, beta)
    got = {
        name: {
            key: value if arity == 0 else _parts(value)
            for key, value in absorbed.weight(name).cells.items()
        }
        for name, arity in a.alphabet.symbols
    }
    assert got == _absorbed_through_mul_univariate(a, beta)


# ---------------------------------------------------------------------------
# relabelling variables


@st.composite
def polys_and_keeps(draw):
    """A random polynomial over 1 to 5 variables and a keep list: a
    permutation of all its variables or a prefix of them."""
    nvars = draw(st.integers(1, 5))
    p = draw(multipolys(nvars=nvars))
    if draw(st.booleans()):
        keep = draw(st.permutations(range(nvars)))
    else:
        keep = list(range(draw(st.integers(0, nvars))))
    return p, keep


@settings(max_examples=120, deadline=None)
@given(polys_and_keeps())
def test_restrict_matches_compose_with_variables_and_zeros(case):
    p, keep = case
    m = len(keep)
    images = [MultiPolynomial.const(m, 0)] * p.nvars
    for j, i in enumerate(keep):
        images[i] = MultiPolynomial.var(m, j)
    restricted = p.restrict(keep)
    expected = p.compose(images)
    assert restricted.nvars == m
    assert restricted.terms == expected.terms
    assert list(restricted.terms) == list(expected.terms)  # the same term order


def test_relabelling_front_ends_call_neither_compose_nor_a_product(monkeypatch):
    spec = parse_species("A = X * set(B)\nB = X + cycle(A)")
    rds = diffsys_to_rds(species_to_diffsys(spec))
    assert rds.variables[0] != "B"  # so that B is permuted to the front
    # equations linear in the top derivative: y^(n) is dropped by relabelling
    equations = [parse_da("y' - y ; y(0)=1"), parse_da("y'' + y*y' - y ; y(0)=0, y'(0)=1")]
    calls = []
    for method in ("compose", "__mul__"):
        original = getattr(MultiPolynomial, method)

        def counting(self, *args, _original=original, _method=method):
            calls.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(MultiPolynomial, method, counting)
    assert rds_with_target(rds, "B").variables[0] == "B"
    for e in equations:
        da_to_rds(e)
    assert calls == []


# ---------------------------------------------------------------------------
# hashing univariate polynomials


def test_a_univariate_polynomial_hashes_its_coefficients_once(monkeypatch):
    calls = []
    original = fractions.Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    p = UniPolynomial((1, F(1, 2), 3))
    monkeypatch.setattr(fractions.Fraction, "__hash__", counting)
    first = hash(p)
    assert len(calls) == 3
    assert hash(p) == first
    assert len(calls) == 3
    q = UniPolynomial((1, F(1, 2), 3))
    assert hash(q) == first and q == p
