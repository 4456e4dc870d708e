"""Cross-route integration checks: the same series reached through genuinely
different constructions must agree, and the deciders must say so."""

from fractions import Fraction as F

import pytest

from treeseries.closure import gf_cauchy, gf_derive, gf_integrate
from treeseries.compile import compile_dfinite, compile_rda, parse_dfinite, parse_rds
from treeseries.decide import ZeroUpTo, check_equiv_genfun
from treeseries.errors import InputFormatError
from treeseries.exactmath import parse_size_rational, poly_integer_roots, UniPolynomial
from treeseries.series import generating_prefix
from treeseries.cli import main


def test_derivative_of_bell_equals_bell_times_exponential(bell):
    # f' = f g with g = e^x: the derivative route and the product route of
    # the same series go through unrelated constructions
    exp = compile_dfinite(parse_dfinite("n*a(n) - a(n-1) = 0 ; a(0)=1"))
    derived = gf_derive(bell)
    product = gf_cauchy(bell, exp)
    verdict = check_equiv_genfun(derived, product, 15)
    assert isinstance(verdict, ZeroUpTo) and verdict.n == 15


def test_integral_of_exponential_shifts_it():
    exp = compile_dfinite(parse_dfinite("n*a(n) - a(n-1) = 0 ; a(0)=1"))
    integrated = gf_integrate(exp)
    # int_0^x e^t dt = e^x - 1
    got = generating_prefix(integrated, 6)
    base = generating_prefix(exp, 6)
    assert got[0] == 0
    assert got.coefficients[1:] == base.coefficients[1:]


def test_catalan_two_routes():
    # OGF route: the recurrence (n+1) a_n = (4n-2) a_{n-1};
    # functional-equation route: y = 1 + x y^2 as a rational system
    rec = compile_dfinite(parse_dfinite("(n+1)*a(n) - (4*n-2)*a(n-1) = 0 ; a(0)=1"))
    # differentiate y = 1 + x y^2: y' = y^2 + 2 x y y' => y' = y^2/(1-2xy)
    sys = compile_rda(parse_rds("y' = (y^2)/(1-2*x*y) ; y(0)=1"))
    verdict = check_equiv_genfun(rec, sys, 15)
    assert isinstance(verdict, ZeroUpTo)
    assert generating_prefix(rec, 8).coefficients == (
        F(1), F(1), F(2), F(5), F(14), F(42), F(132), F(429), F(1430),
    )


def test_parse_size_rational_error_paths():
    with pytest.raises(InputFormatError):
        parse_size_rational("(x1+1)/(x1)", 1)  # x1 in the x0 slot
    with pytest.raises(InputFormatError):
        parse_size_rational("x3", 1)  # variable out of range
    with pytest.raises(InputFormatError):
        parse_size_rational("x1+*2", 1)
    with pytest.raises(InputFormatError):
        parse_size_rational("1/(x0)*(x1)*(x2)", 1)  # more factors than slots


def test_integer_roots_constant_polynomial():
    assert poly_integer_roots(UniPolynomial((7,))) == set()


def test_cli_species_compile(tmp_path, capsys):
    spec = tmp_path / "pairs.spec"
    spec.write_text("S = set(X)\n")
    out = tmp_path / "s.json"
    code = main(["species", "compile", "-f", str(spec), "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    code = main(["series", "-a", str(out), "-n", "4", "--counts", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,1", "4,1"]


@pytest.mark.parametrize(
    "name,needs_b",
    [
        ("ts-add", True),
        ("ts-hadamard", True),
        ("gf-add", True),
        ("gf-mul-shifted", True),
        ("gf-cauchy", True),
        ("gf-shift-forward", False),
        ("gf-shift-backward", False),
        ("gf-derive", False),
        ("gf-integrate", False),
        ("gf-inverse", False),
        ("arity-distinct", False),
    ],
)
def test_cli_every_op_round_trips(name, needs_b, tmp_path, capsys):
    from treeseries.core import automaton_from_json, automaton_to_json
    from zoo import bell_automaton

    src = tmp_path / "bell.json"
    src.write_text(automaton_to_json(bell_automaton()))
    out = tmp_path / "out.json"
    argv = ["op", name, "-a", str(src), "-o", str(out)]
    if needs_b:
        argv += ["-b", str(src)]
    assert main(argv) == 0
    capsys.readouterr()
    text = out.read_text()
    assert automaton_to_json(automaton_from_json(text)) == text
