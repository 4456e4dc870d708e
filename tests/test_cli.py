import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from treeseries.cli import main
from treeseries.compile import parse_rds, taylor_oracle
from treeseries.core import automaton_from_json, automaton_to_json
from treeseries.series import generating_prefix
from zoo import (
    BELL_RDS_TEXT,
    BELL_SPECIES_TEXT,
    CUBIC_DA_TEXT,
    bell_automaton,
)


@pytest.fixture()
def bell_path(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(automaton_to_json(bell_automaton()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_table(bell_path, capsys):
    code, out, err = run(capsys, "series", "-a", bell_path, "-n", "6")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[-1].split() == ["6", "203/720"]


def test_series_counts_and_formats(bell_path, capsys):
    code, out, _ = run(capsys, "series", "-a", bell_path, "-n", "6", "--counts", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,203"
    code, out, _ = run(capsys, "series", "-a", bell_path, "-n", "2", "--format", "json")
    assert json.loads(out) == {"coefficients": ["1", "1", "1"]}


def test_series_deterministic(bell_path, capsys):
    _, first, _ = run(capsys, "series", "-a", bell_path, "-n", "8")
    _, second, _ = run(capsys, "series", "-a", bell_path, "-n", "8")
    assert first == second


def test_eval(bell_path, capsys):
    code, out, _ = run(
        capsys, "eval", "-a", bell_path, "-t", "(sigma2 (sigma0) (sigma0))", "--vector"
    )
    assert code == 0
    assert out.splitlines() == ["1", "1 0"]


def test_species_count(tmp_path, capsys):
    spec = tmp_path / "bell.spec"
    spec.write_text(BELL_SPECIES_TEXT + "\n")
    code, out, _ = run(capsys, "species", "count", "-f", str(spec), "-n", "6")
    assert code == 0
    assert out.strip() == "1 1 2 5 15 52 203"


def test_compile_and_equiv_cross_path(tmp_path, bell_path, capsys):
    rds = tmp_path / "bell.rds"
    rds.write_text(BELL_RDS_TEXT + "\n")
    out_path = tmp_path / "bell_from_rds.json"
    code, _, _ = run(capsys, "compile", "rda", "-f", str(rds), "-o", str(out_path))
    assert code == 0
    code, out, _ = run(
        capsys, "equiv", "-a", bell_path, "-b", str(out_path), "--cap", "20"
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "zero_up_to" and verdict["n"] == 20


def test_compile_da(tmp_path, capsys):
    eq = tmp_path / "cubic.da"
    eq.write_text(CUBIC_DA_TEXT + "\n")
    out_path = tmp_path / "cubic.json"
    code, _, _ = run(capsys, "compile", "da", "-f", str(eq), "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "series", "-a", str(out_path), "-n", "7", "--format", "csv")
    assert out.strip().splitlines()[-1] == "7,-1/252"


def test_op_round_trip(tmp_path, bell_path, capsys):
    out_path = tmp_path / "sum.json"
    code, _, _ = run(
        capsys, "op", "gf-add", "-a", bell_path, "-b", bell_path, "-o", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    again = automaton_from_json(text)
    assert automaton_to_json(again) == text  # canonical serialization


def test_op_scale_requires_constant(bell_path, capsys):
    code, _, err = run(capsys, "op", "gf-scale", "-a", bell_path)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("op", ["gf-scale", "ts-scale"])
def test_op_scale_reads_a_negative_fraction_after_c(op, bell_path, capsys):
    # argparse takes -3/2 for an unknown option; it is read as -c=-3/2
    code, out, err = run(capsys, "op", op, "-a", bell_path, "-c", "-3/2")
    assert code == 0 and err == ""
    assert (code, out, err) == run(capsys, "op", op, "-a", bell_path, "-c=-3/2")
    code, out, err = run(capsys, "op", op, "-a", bell_path, "-c", "-1")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36d78592387c3898d0ca1b0ddde37cc440d0d32548d22be7a789714ce488ddbd"
    )


def test_zero_require_decided_exit_code(tmp_path, bell_path, capsys):
    out_path = tmp_path / "cancel.json"
    run(capsys, "op", "gf-scale", "-a", bell_path, "-c", "-1", "-o", str(out_path))
    sum_path = tmp_path / "sum.json"
    run(capsys, "op", "gf-add", "-a", bell_path, "-b", str(out_path), "-o", str(sum_path))
    code, out, _ = run(capsys, "zero", "-a", str(sum_path), "--cap", "10")
    assert code == 0
    assert json.loads(out)["verdict"] == "zero_up_to"
    code, _, _ = run(
        capsys, "zero", "-a", str(sum_path), "--cap", "10", "--require-decided"
    )
    assert code == 4


def test_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "series", "-a", str(bad), "-n", "3")
    assert code == 2
    assert err.startswith("error:")


def test_invariant_violation_exits_3(tmp_path, capsys):
    # inverse of a series with zero constant term
    from treeseries.core import automaton_to_json as dump
    from zoo import labelled_trees_automaton

    path = tmp_path / "lt.json"
    path.write_text(dump(labelled_trees_automaton()))
    code, _, err = run(capsys, "op", "gf-inverse", "-a", str(path))
    assert code == 3
    assert "constant term" in err


def test_a_weight_with_a_forbidden_root_exits_3_every_time(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "alphabet": [{"name": "a", "arity": 0}, {"name": "f", "arity": 1}],
        "weights": {"a": {"entries": [{"row": [], "col": 1, "value": "1"}]},
                    "f": {"entries": [{"row": [1], "col": 1, "value": "1/(x0-2)"}]}},
    }))
    for _ in range(2):  # a refusal is not remembered: the second run checks again
        assert run(capsys, "series", "-a", str(path), "-n", "3") == (
            3, "", "error: denominator for x0 has forbidden integer root(s) [2]\n")


def test_enum_trees(capsys):
    code, out, _ = run(capsys, "enum-trees", "--alphabet", "a/0,f/2", "-n", "2")
    assert code == 0
    assert out.splitlines() == [
        "(f (a) (f (a) (a)))",
        "(f (f (a) (a)) (a))",
    ]


def test_enum_trees_of_a_unary_chain_1000_deep(capsys):
    # one tree, 1000 nodes deep: writing and building it must not recurse per node
    code, out, err = run(capsys, "enum-trees", "--alphabet", "a/0,u/1", "-n", "1000")
    assert code == 0 and err == ""
    assert out == "(u " * 1000 + "(a)" + ")" * 1000 + "\n"


def test_enum_trees_guard_on_a_wide_symbol_exits_3_quickly():
    # 8,167,059,012 trees of size 6; counting them must not walk the
    # C(64, 5) compositions of 5 into 60 parts
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "treeseries", "enum-trees", "--alphabet", "a/0,f/60", "-n", "6"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "error: more than 1000000 trees of size 6; refusing to enumerate\n"


@pytest.mark.parametrize("name", ["a b", "", "f(", "sigma0)"])
def test_a_symbol_name_no_tree_can_hold_exits_3(name, tmp_path, capsys):
    # the witness tree of the verdict would read back as another tree
    payload = json.loads(automaton_to_json(bell_automaton()))
    payload["alphabet"][0]["name"] = name
    payload["weights"][name] = payload["weights"].pop("sigma0")
    path = tmp_path / "a.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "zero", "--tree-series", "-a", str(path), "--cap", "3")
    assert (code, out, err) == (3, "", f"error: symbol {name!r} cannot be read in a tree\n")
    code, out, err = run(capsys, "enum-trees", "--alphabet", f"{name}/0,f/1", "-n", "2")
    assert (code, out, err) == (3, "", f"error: symbol {name!r} cannot be read in a tree\n")


def test_emit_system(bell_path, capsys):
    code, out, _ = run(capsys, "emit-system", "-a", bell_path, "--solve", "4")
    assert code == 0
    assert "Q(x) = x" in out
    assert "5/8" in out  # forward-solved coefficient 4


def test_bound(bell_path, capsys):
    code, out, _ = run(capsys, "bound", "-a", bell_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 25
    assert payload["B"] == {"base": 2, "exponent": "838860800"}


def test_verdict_text_at_max_arity_one(tmp_path, capsys):
    # a unary automaton has a small zeroness bound: its text and JSON, and the
    # proven_zero verdict when the cap reaches it
    sample = Path(__file__).resolve().parent.parent / "samples" / "factorial.dfinite"
    path = str(tmp_path / "factorial.json")
    assert main(["compile", "dfinite", "-f", str(sample), "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "bound", "-a", path)
    assert code == 0
    assert out.splitlines() == ["dimension 1, max arity 1, s 1", "M = 7", "B = 7"]
    code, out, _ = run(capsys, "bound", "-a", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dimension": 1, "max_arity": 1, "s": 1, "M": 7, "B": {"value": 7}}
    code, out, _ = run(capsys, "equiv", "-a", path, "-b", path, "--cap", "50")
    assert code == 0
    assert json.loads(out) == {"verdict": "proven_zero", "bound": {"value": 25}}
    code, out, _ = run(
        capsys, "equiv", "-a", path, "-b", path, "--cap", "24", "--require-decided"
    )
    assert code == 4
    assert json.loads(out) == {"verdict": "zero_up_to", "n": 24, "bound": {"value": 25}}


def test_emit_system_of_a_nullary_automaton(tmp_path, capsys):
    path = tmp_path / "nullary.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "alphabet": [{"name": "a", "arity": 0}],
        "weights": {"a": {"entries": [
            {"row": [], "col": 1, "value": "3"}, {"row": [], "col": 2, "value": "-1/2"},
        ]}},
    }))
    code, out, _ = run(capsys, "emit-system", "-a", str(path), "--solve", "2")
    assert code == 0
    assert "\nf = a0\n" in out
    assert "a0 = (3, -1/2)" in out


def test_taylor(tmp_path, capsys):
    rds = tmp_path / "exp.rds"
    rds.write_text("y' = y ; y(0)=1\n")
    code, out, _ = run(capsys, "taylor", "-f", str(rds), "-n", "4")
    assert code == 0
    assert out.strip() == "y: 1 1 1/2 1/6 1/24"


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "-a", "BELL", "-n", "-1"),
        ("species", "count", "-f", "SPEC", "-n", "-1"),
        ("emit-system", "-a", "BELL", "--solve", "-2"),
        ("zero", "-a", "BELL", "--cap", "-1"),
        ("equiv", "-a", "BELL", "-b", "BELL", "--cap", "-1"),
        ("enum-trees", "--alphabet", "a/0,f/2", "-n", "-1"),
    ],
)
def test_negative_sizes_exit_2(argv, tmp_path, bell_path, capsys):
    spec = tmp_path / "bell.spec"
    spec.write_text(BELL_SPECIES_TEXT + "\n")
    argv = [{"BELL": bell_path, "SPEC": str(spec)}.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nonnegative" in err
    assert len(err.splitlines()) == 1


def test_emit_system_solve_zero_does_not_solve(bell_path, capsys):
    code, out, _ = run(capsys, "emit-system", "-a", bell_path, "--solve", "0")
    assert code == 0
    assert out.endswith("scalar equations\n")


# sha256 of the stdout of `emit-system -a A --solve 5`, recorded before the
# polynomial writers shared one term joiner; no other test pins the text of
# the denominators (Q(x), Q_{g,i}(x)) byte for byte
EMIT_SYSTEM_SHA256 = {
    ("sample", "bell.json"):
        "da8d601e1cc283ef33a749978017d19f409fc057d1412ed35a022ce733e474b8",
    ("sample", "cubic.json"):
        "3dfe5f0ebee5b5b3c28699f42eab2ba3a27933e4f389e4ef117ccc97285c816d",
    ("sample", "labelled_trees.json"):
        "a86c8b7687580c6be32f7c92846fd5de2733904209438348ff7cc736af66dfe7",
    ("species", "functional graphs"):
        "325bd6f5817998f8f39c56b93861be6c4773708abaf1eac613e9cd0ffdf9b0ec",
    ("species", "3-constrained functional graphs"):
        "838c6b77b80cb6c2aef3e3ec7caa2d287a020dbd9d073ebb4ae319bd0f9e4d82",
    ("compile dfinite", "factorial.dfinite"):
        "098e9e553515a8f59509ceef6372f8443e77e6a669e09d8e196b3f885da5b0f5",
    ("op gf-derive", "cubic.json"):
        "14769dd0a1b32da3c1ead478c37277cb4e255ca5447d0d633a152637e56ad084",
}


@pytest.mark.parametrize("source, label", EMIT_SYSTEM_SHA256)
def test_emit_system_text_is_byte_exact(source, label, tmp_path, capsys):
    from species_gold import GOLD_SPECIES

    sample = str(Path(__file__).resolve().parent.parent / "samples" / label)
    path = str(tmp_path / "a.json")
    if source == "sample":
        path = sample
    elif source == "species":
        spec = tmp_path / "a.spec"
        spec.write_text(next(g for g in GOLD_SPECIES if g[0] == label)[1] + "\n")
        assert main(["species", "compile", "-f", str(spec), "-o", path]) == 0
    elif source == "compile dfinite":
        assert main(["compile", "dfinite", "-f", sample, "-o", path]) == 0
    else:
        assert main(["op", "gf-derive", "-a", sample, "-o", path]) == 0
    code, out, err = run(capsys, "emit-system", "-a", path, "--solve", "5")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_SYSTEM_SHA256[source, label], out


def _exits_2_without_traceback(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def test_weight_dividing_by_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(automaton_to_json(bell_automaton()))
    payload["weights"]["sigma1"]["entries"][0]["value"] = "1/0"
    path.write_text(json.dumps(payload))
    err = _exits_2_without_traceback(capsys, "series", "-a", str(path), "-n", "3")
    assert "division by zero" in err


@pytest.mark.parametrize(
    "value, message",
    [
        ("x3", "unknown variable 'x3'"),
        ("x1+*2", "expected an expression"),
        ("1/(x1)", "must only use x0"),
        ("1/(x0+1)*(x1+1)*(x1+2)", "more denominator factors than variables"),
        ("x01", "unknown variable 'x01'"),
        ("x0\n+1", "trailing input"),
        ("x0^²", "unexpected character '²' (line 1, column 4)"),
    ],
)
def test_malformed_weight_exits_2(value, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(automaton_to_json(bell_automaton()))
    payload["weights"]["sigma1"]["entries"][0]["value"] = value  # a unary symbol
    path.write_text(json.dumps(payload))
    err = _exits_2_without_traceback(capsys, "series", "-a", str(path), "-n", "3")
    assert message in err


def _duplicate_entry(payload):
    entries = payload["weights"]["f"]["entries"]
    entries.append(dict(entries[0], value="2/(x0)"))


# a one-state automaton, so that every value that was read as 1 was in range
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p["weights"]["g"]["entries"][0].update(row="11"), "a row of 'g' must be"),
        (lambda p: p.update(dimension=True), "the dimension must be"),
        (lambda p: p["alphabet"][1].update(arity=1.9), "an arity must be"),
        (lambda p: p["weights"]["f"]["entries"][0].update(row=[1.7]), "a row index must be"),
        (lambda p: p["weights"]["f"]["entries"][0].update(col=True), "a column must be"),
        (lambda p: p["alphabet"][0].update(name=None), "a symbol name must be"),
        (_duplicate_entry, "two entries of 'f' at row [1] and column 1"),
        (lambda p: p["weights"].update(h={"entries": []}), "weight of 'h', which is not in"),
        (lambda p: p["weights"]["a"]["entries"][0].update(row=[7, "x"]),
         "bad row [7, 'x'] for nullary symbol 'a'"),
        (lambda p: p.update(dimension=2.0), "the dimension must be"),
        (lambda p: p["alphabet"][1].update(arity=1.0), "an arity must be"),
        (lambda p: p["weights"]["f"]["entries"][0].update(row=[1.0]), "a row index must be"),
        (lambda p: p["weights"]["f"]["entries"][0].update(col=1.0), "a column must be"),
        (lambda p: p["weights"]["f"]["entries"][0].update(value=0.1), "unexpected character '.'"),
    ],
    ids=["row string", "dimension true", "arity 1.9", "row index 1.7", "col true", "name null",
         "two entries of one cell", "weight of no symbol", "nullary row not empty",
         "dimension 2.0", "arity 1.0", "row index 1.0", "col 1.0", "unary value 0.1"],
)
def test_automaton_json_that_was_reinterpreted_exits_2(mutate, message, tmp_path, capsys):
    payload = {
        "dimension": 1,
        "alphabet": [{"name": "a", "arity": 0}, {"name": "f", "arity": 1},
                     {"name": "g", "arity": 2}],
        "weights": {
            "a": {"entries": [{"row": [], "col": 1, "value": "1"}]},
            "f": {"entries": [{"row": [1], "col": 1, "value": "1/(x0)"}]},
            "g": {"entries": [{"row": [1, 1], "col": 1, "value": "1/(x0)"}]},
        },
    }
    path = tmp_path / "a.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "series", "-a", str(path), "-n", "3")[0] == 0
    mutate(payload)
    path.write_text(json.dumps(payload))
    err = _exits_2_without_traceback(capsys, "series", "-a", str(path), "-n", "3")
    assert message in err


# a JSON number is read from its literal, not through a binary float
@pytest.mark.parametrize("literal, value", [
    ("12345678901234567890.5", "24691357802469135781/2"),
    ("1e-400", f"1/1{'0' * 400}"),
    ("-0.5", "-1/2"),
], ids=["20 digits", "1e-400", "-0.5"])
def test_a_nullary_value_written_as_a_json_number_is_read_exactly(literal, value, tmp_path,
                                                                    capsys):
    path = tmp_path / "a.json"
    path.write_text('{"dimension": 1, "alphabet": [{"name": "a", "arity": 0}], "weights": '
                    f'{{"a": {{"entries": [{{"row": [], "col": 1, "value": {literal}}}]}}}}}}')
    assert run(capsys, "series", "-a", str(path), "-n", "0") == (0, f"0  {value}\n", "")


# '²' is a digit to str.isdigit, but int() does not read it
@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("rds", "y' = y^²\ny(0)=1\n", "unexpected character '²' (line 1, column 8)"),
        ("spec", "A = set(X, card>=²)\n", "unexpected character '²' (line 1, column 18)"),
        ("alphabet", "a/0,f/²", "bad alphabet entry 'f/²'"),
    ],
    ids=["rds", "spec", "alphabet"],
)
def test_a_digit_that_is_not_decimal_exits_2(kind, text, message, tmp_path, capsys):
    path = tmp_path / "input"
    if kind == "rds":
        argv = ["compile", "rda", "-f", str(path)]
    elif kind == "spec":
        argv = ["species", "count", "-f", str(path)]
    else:
        argv = ["enum-trees", "--alphabet", text, "-n", "3"]
    path.write_text(text, encoding="utf-8")
    assert message in _exits_2_without_traceback(capsys, *argv)


def test_decimal_digits_of_other_scripts_are_read(tmp_path, capsys):
    arabic = run(capsys, "enum-trees", "--alphabet", "a/0,f/٣", "-n", "4")
    assert arabic == run(capsys, "enum-trees", "--alphabet", "a/0,f/3", "-n", "4")
    system = tmp_path / "s.rds"
    system.write_text("y' = y^٢ ; y(0)=1\n", encoding="utf-8")
    assert run(capsys, "taylor", "-f", str(system), "-n", "4") == (0, "y: 1 1 1 1 1\n", "")


def test_compile_da_initial_value_dividing_by_zero_exits_2(tmp_path, capsys):
    eq = tmp_path / "bad.da"
    eq.write_text("y'^3 + y^3 - 1 ; y(0)=1/0, y'(0)=1\n")
    err = _exits_2_without_traceback(capsys, "compile", "da", "-f", str(eq))
    assert "division by zero" in err


def test_compile_da_unknown_derivative_exits_2(tmp_path, capsys):
    eq = tmp_path / "bad.da"
    eq.write_text("yx'^3 + y^3 - 1 ; y(0)=0, y'(0)=1\n")
    err = _exits_2_without_traceback(capsys, "compile", "da", "-f", str(eq))
    assert "yx'" in err


@pytest.mark.parametrize(
    "mode, text",
    [
        ("rda", "y' = y/0 ; y(0)=1"),
        ("rda", "y' = 1/(y-y) ; y(0)=1"),
        ("da", "y'*0 - y/0 ; y(0)=1"),
    ],
)
def test_compile_right_hand_side_dividing_by_zero_exits_2(mode, text, tmp_path, capsys):
    source = tmp_path / f"bad.{mode}"
    source.write_text(text + "\n")
    err = _exits_2_without_traceback(capsys, "compile", mode, "-f", str(source))
    assert "division by zero" in err


@pytest.mark.parametrize("weights", [[], {"sigma1": []}, {"sigma1": {"entries": {}}}, None])
def test_weights_of_the_wrong_json_type_exit_2(weights, tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(automaton_to_json(bell_automaton()))
    payload["weights"] = weights
    path.write_text(json.dumps(payload))
    err = _exits_2_without_traceback(capsys, "series", "-a", str(path), "-n", "2")
    assert "bad automaton JSON" in err


@pytest.mark.parametrize("op", ["gf-scale", "ts-scale"])
def test_scale_by_a_zero_denominator_exits_2(op, bell_path, capsys):
    err = _exits_2_without_traceback(capsys, "op", op, "-a", bell_path, "-c", "1/0")
    assert "division by zero" in err


def test_right_hand_side_nested_200_deep_exits_2(tmp_path, capsys):
    source = tmp_path / "deep.rds"
    source.write_text("y' = " + "(" * 200 + "y" + ")" * 200 + " ; y(0)=1\n")
    err = _exits_2_without_traceback(capsys, "compile", "rda", "-f", str(source))
    assert "nested too deeply" in err


def test_species_nested_400_deep_exits_2(tmp_path, capsys):
    spec = tmp_path / "deep.spec"
    spec.write_text("H = " + "set(" * 400 + "X" + ")" * 400 + "\n")
    err = _exits_2_without_traceback(capsys, "species", "count", "-f", str(spec))
    assert "nested too deeply" in err


_ILL_FOUNDED = "the species would have infinitely many structures of some size"


@pytest.mark.parametrize("text, message", [
    ("A = A", "cannot solve for A': degenerate linear system"),
    ("A = X*set(B)\nB = B", "cannot solve for B': degenerate linear system"),
    ("A = X + A", f"ill-founded recursion A -> A: {_ILL_FOUNDED}"),
    ("A = X + B\nB = A", f"ill-founded recursion A -> B -> A: {_ILL_FOUNDED}"),
], ids=["A=A", "B=B", "A=X+A", "A=X+B,B=A"])
def test_species_with_undetermined_derivatives_exits_3(tmp_path, capsys, text, message):
    # the derivatives of these species are not determined by their equations.
    # A name with no structure at all is not checked for well-foundedness, and
    # the elimination names the derivative it cannot solve for; a name that
    # depends on itself through nonzero partials at X = 0 is refused before,
    # by the cycle it lies on
    spec = tmp_path / "s.spec"
    spec.write_text(text + "\n")
    for command in ("count", "compile"):
        code, out, err = run(capsys, "species", command, "-f", str(spec))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


def _species_count_in_child(tmp_path, species):
    spec = tmp_path / "a.spec"
    spec.write_text(f"A = {species}\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "treeseries", "species", "count", "-f", str(spec), "-n", "5"],
        env=env, capture_output=True, text=True, timeout=10,
    )


def test_cycles_nested_50_deep_exit_3_quickly(tmp_path):
    # each level of cycle( doubles the terms of a right-hand side; the term
    # budget stops the normalization long before memory runs out
    done = _species_count_in_child(tmp_path, "cycle(" * 50 + "X" + ")" * 50)
    assert done.returncode == 3 and done.stdout == ""
    assert "grows past 2000 terms" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("card", [
    f"card>={2**63}", f"card>={10**20}", f"card={2**63}", f"card={10**20}",
    f"card={10**8}", f"card>={10**8}",
])
def test_set_with_a_cardinality_out_of_reach_exits_3_quickly(tmp_path, card):
    # card=k divides by k! and card>=k by (k-1)!; a factorial past
    # FACTORIAL_LIMIT is refused before it is computed
    done = _species_count_in_child(tmp_path, f"set(X, {card})")
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "past the limit of 100000" in done.stderr


@pytest.mark.parametrize("species", [
    "set(X, card=5000)", "sequence(X, card=5000)", "sequence(X, card>=5000)",
    "set(X, card>=5000)", "set(X, card>=100000)",
])
def test_large_cardinality_within_reach_counts_quickly(tmp_path, species):
    done = _species_count_in_child(tmp_path, species)
    assert done.returncode == 0 and done.stdout.split() == ["0"] * 6


@pytest.mark.parametrize("species", [f"sequence(X, card={2**63})", f"sequence(X, card>={10**20})"])
def test_sequence_with_a_huge_cardinality_counts_quickly(tmp_path, species):
    # degree reduction splits exponent vectors, so X^k costs log k chains
    # and no step writes out k factors
    done = _species_count_in_child(tmp_path, species)
    assert done.returncode == 0 and done.stdout.split() == ["0"] * 6


# CPython converts an int of more than 4,300 digits to or from text only once
# that limit is lifted; main lifts it, so an exact answer prints in full


def test_species_count_prints_a_count_of_more_than_4300_digits(tmp_path, capsys):
    spec = tmp_path / "permutations.spec"
    spec.write_text("D = set(cycle(X))\n")
    code, out, err = run(capsys, "species", "count", "-f", str(spec), "-n", "1600")
    assert (code, err) == (0, "")
    last = out.split()[-1]
    assert len(last) > 4300 and int(last) == math.factorial(1600)


def test_equiv_prints_a_bound_exponent_of_more_than_4300_digits(tmp_path, capsys):
    from species_gold import GOLD_SPECIES

    _, text, target, *_ = next(g for g in GOLD_SPECIES if g[0] == "3-constrained functional graphs")
    spec, k = tmp_path / "k.spec", str(tmp_path / "k.json")
    spec.write_text(text + "\n")
    assert main(["species", "compile", "-f", str(spec), "--target", target, "-o", k]) == 0
    code, out, err = run(capsys, "equiv", "-a", k, "-b", k, "--tree-series", "--cap", "5")
    assert (code, err) == (0, "")
    exponent = json.loads(out)["bound"]["exponent"]
    # the verdict's bound is that of the Hadamard square of K - K
    neg, d, square = (str(tmp_path / f"{name}.json") for name in ("neg", "d", "square"))
    for op in (["ts-scale", "-a", k, "-c", "-1", "-o", neg], ["ts-add", "-a", k, "-b", neg, "-o", d],
               ["ts-hadamard", "-a", d, "-b", d, "-o", square]):
        assert main(["op", *op]) == 0
    code, out, _ = run(capsys, "bound", "-a", square, "--format", "json")
    m = json.loads(out)["M"]
    assert code == 0 and len(exponent) > 4300 and exponent == str(m * 2**m)


def test_species_compile_writes_a_weight_of_more_than_4300_digits(tmp_path, capsys):
    # set(X, card>=1800) subtracts X^1799/1799!, and 1799! has 5,077 digits
    spec, out = tmp_path / "a.spec", str(tmp_path / "a.json")
    spec.write_text("A = set(X, card>=1800)\n")
    code, _, err = run(capsys, "species", "compile", "-f", str(spec), "-o", out)
    assert (code, err) == (0, "")
    code, text, _ = run(capsys, "series", "-a", out, "-n", "1801", "--counts")
    counts = [line.split()[1] for line in text.splitlines()]
    assert code == 0 and counts == ["0"] * 1800 + ["1", "1"]


def test_compile_rda_y_to_the_10_20_compiles_quickly_and_matches_closed_form(tmp_path):
    # y' = y^N, y(0) = 1 has a_n = prod_{i<n} (1 + i (N - 1)) / n!
    big = 10**20
    system = tmp_path / "huge.rds"
    system.write_text(f"y' = y^{big} ; y(0)=1\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "treeseries", "compile", "rda", "-f", str(system)],
        env=env, capture_output=True, text=True, timeout=15,
    )
    assert done.returncode == 0 and done.stderr == ""
    expected, a = [], Fraction(1)
    for n in range(5):
        expected.append(a)
        a = a * (1 + n * (big - 1)) / (n + 1)
    assert list(generating_prefix(automaton_from_json(done.stdout), 4).coefficients) == expected


def test_tree_nested_800_deep_exits_2(bell_path, capsys):
    tree = "(sigma1 " * 800 + "(sigma0)" + ")" * 800
    err = _exits_2_without_traceback(capsys, "eval", "-a", bell_path, "-t", tree)
    assert "nested too deeply" in err


def test_compile_rda_y3000_compiles_quickly_and_matches_taylor(tmp_path, capsys):
    # split in halves, y^3000 needs 17 chain variables; the time bound
    # catches a reduction whose cost grows with the degree
    text = "y' = y^3000 ; y(0)=1\n"
    system = tmp_path / "long.rds"
    system.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "compile", "rda", "-f", str(system))
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    prefix = generating_prefix(automaton_from_json(out), 5).coefficients
    assert prefix == taylor_oracle(parse_rds(text), 5)["y"].coefficients


def test_compile_rda_y150_is_narrow_and_matches_taylor(tmp_path, capsys):
    # one-factor-at-a-time chains gave y^150 dimension 151; halves give 14
    text = "y' = y^150 ; y(0)=1\n"
    system = tmp_path / "y150.rds"
    system.write_text(text)
    code, out, err = run(capsys, "compile", "rda", "-f", str(system))
    assert code == 0 and err == ""
    automaton = automaton_from_json(out)
    assert automaton.dimension == 14
    prefix = generating_prefix(automaton, 8).coefficients
    assert prefix == taylor_oracle(parse_rds(text), 8)["y"].coefficients


# ---------------------------------------------------------------------------
# the command's exit: `python -m treeseries` runs `cli.run`, which runs the
# atexit callbacks after `main`, flushes stdout and stderr, and ends in
# `os._exit`, skipping the interpreter's teardown

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def exit_inputs(tmp_path, bell_path, capsys):
    from zoo import labelled_trees_automaton

    paths = {"bell": bell_path, "bad": str(tmp_path / "bad.json"),
             "lt": str(tmp_path / "lt.json"), "sum": str(tmp_path / "sum.json")}
    Path(paths["bad"]).write_text("{not json")
    Path(paths["lt"]).write_text(automaton_to_json(labelled_trees_automaton()))
    cancel = str(tmp_path / "cancel.json")
    run(capsys, "op", "gf-scale", "-a", bell_path, "-c", "-1", "-o", cancel)
    run(capsys, "op", "gf-add", "-a", bell_path, "-b", cancel, "-o", paths["sum"])
    return paths


def _treeseries_in_child(*argv, code=None, buffered=False, **run_args):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), COLUMNS="80")
    if buffered:  # stdout block-buffered, as in a pipe by default
        env.pop("PYTHONUNBUFFERED", None)
    command = ["-m", "treeseries"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command, *argv], cwd=_ROOT, env=env, text=True,
                          timeout=60, **{"capture_output": True, **run_args})


@pytest.mark.parametrize("argv, exit_code", [
    (["series", "-a", "{bell}", "-n", "6", "--counts"], 0),
    (["series", "-a", "{bad}", "-n", "3"], 2),
    (["op", "gf-inverse", "-a", "{lt}"], 3),
    (["zero", "-a", "{sum}", "--cap", "10", "--require-decided"], 4),
    (["--help"], 0),
    (["series", "-n", "5"], 2),
    (["op", "ts-add", "-a", "{bell}", "-b", "{bell}", "-o", "{out}"], 0),
], ids=["ok", "format", "invariant", "undecided", "help", "usage", "write"])
def test_python_m_treeseries_exits_as_main_returns(argv, exit_code, exit_inputs, tmp_path,
                                                   capsys, monkeypatch):
    def command(out):
        return [arg.format(out=tmp_path / out, **exit_inputs) for arg in argv]

    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command("main.json"))
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == exit_code
    done = _treeseries_in_child(*command("child.json"), buffered=True)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    if "{out}" in argv:
        written = (tmp_path / "child.json").read_text()
        assert written == (tmp_path / "main.json").read_text()
        assert automaton_from_json(written).dimension == 5


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [["series", "-n", "3"], ["eval", "-t", "(f (a))"],
                                  ["op", "gf-derive"]], ids=lambda argv: argv[0])
def test_running_out_of_memory_exits_3(argv, tmp_path):
    # a dimension of 10^9 passes every check of the JSON reader; the child's
    # 1 GiB address-space limit makes the first vector of that length fail
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "dimension": 10**9,
        "alphabet": [{"name": "a", "arity": 0}, {"name": "f", "arity": 1}],
        "weights": {"a": {"entries": [{"row": [], "col": 1, "value": "1"}]},
                    "f": {"entries": [{"row": [1], "col": 1, "value": "1/(x0)"}]}},
    }))
    done = subprocess.run(
        [sys.executable, "-m", "treeseries", *argv, "-a", str(path)],
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")), capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_memory,
    )
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory\n")


# an atexit callback registered before the command runs, and os._exit, which
# reports its code and then exits
_ATEXIT_PROBE = """
import atexit, os, runpy
atexit.register(lambda: print("atexit callback"))
exit = os._exit

def reporting_exit(code):
    print("os._exit", code, flush=True)
    exit(code)

os._exit = reporting_exit
runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, exit_code", [
    (["series", "-a", "{bell}", "-n", "2"], 0),
    (["--help"], 0),
    (["series", "-n", "5"], 2),
    (["series", "-a", "{bad}", "-n", "3"], 2),
    (["op", "gf-inverse", "-a", "{lt}"], 3),
    (["zero", "-a", "{sum}", "--cap", "10", "--require-decided"], 4),
], ids=["ok", "help", "usage", "format", "invariant", "undecided"])
def test_the_exit_runs_atexit_callbacks_once_then_os_exit(argv, exit_code, exit_inputs):
    argv = [arg.format(**exit_inputs) for arg in argv]
    done = _treeseries_in_child(*argv, code=_ATEXIT_PROBE, buffered=True)
    assert done.returncode == exit_code
    lines = done.stdout.splitlines()
    assert lines.count("atexit callback") == 1
    assert lines[-2:] == ["atexit callback", f"os._exit {exit_code}"]


# measured at the commit before the exit skipped teardown: when stdout is a
# closed pipe, a write that reaches the pipe in `main` is an error (exit 2),
# and output still buffered at the exit fails the interpreter's last flush
_FLUSH_FAILED = ("Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                 "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, exit_code, err", [
    (["series", "-a", "samples/bell.json", "-n", "3"], 120, _FLUSH_FAILED),
    (["--help"], 120, _FLUSH_FAILED),
    (["series", "-a", "samples/bell.json", "-n", "400", "--counts"], 2,
     "error: [Errno 32] Broken pipe\n"),
    (["series", "-n", "5"], 2, "usage: treeseries series [-h] -a AUTOMATON [-n N] [--counts]\n"
     "                         [--format {table,csv,json}]\n"
     "treeseries series: error: the following arguments are required: -a\n"),
], ids=["buffered", "help", "large", "usage"])
def test_a_closed_stdout_pipe_exits_as_before(argv, exit_code, err):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _treeseries_in_child(*argv, buffered=True, stdout=write, stderr=subprocess.PIPE,
                                    capture_output=False)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (exit_code, err)


def test_an_output_file_and_a_buffered_stdout_are_written_in_full(tmp_path, capsys):
    spec, bell = str(_ROOT / "samples" / "bell.spec"), str(_ROOT / "samples" / "bell.json")
    code, expected, _ = run(capsys, "species", "compile", "-f", spec)
    done = _treeseries_in_child("species", "compile", "-f", spec, "-o", str(tmp_path / "bell.json"),
                                buffered=True)
    assert (code, done.returncode, done.stdout, done.stderr) == (0, 0, "", "")
    assert (tmp_path / "bell.json").read_text() == expected
    argv = ["series", "-a", bell, "-n", "300", "--counts"]
    code, expected, _ = run(capsys, *argv)
    assert len(expected) > 16 * 8192  # many buffers
    done = _treeseries_in_child(*argv, buffered=True)
    assert (code, done.returncode, done.stdout, done.stderr) == (0, 0, expected, "")


_ESCAPE_PROBE = """
import atexit, runpy, treeseries.cli
atexit.register(lambda: print("atexit callback"))

def failing(args):
    raise RuntimeError("not a TreeSeriesError")

treeseries.cli._check_sizes = failing
runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
"""


def test_an_exception_that_escapes_main_exits_1_with_a_traceback():
    done = _treeseries_in_child("series", "-a", "samples/bell.json", "-n", "3", code=_ESCAPE_PROBE)
    assert done.returncode == 1
    assert done.stdout == "atexit callback\n"
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("RuntimeError: not a TreeSeriesError\n")


def test_main_in_process_never_freezes(bell_path, capsys):
    run(capsys, "series", "-a", bell_path, "-n", "2")
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_the_installed_script_calls_what_python_m_calls():
    # read as text: tomllib is not in Python 3.10, which requires-python allows
    pyproject = (_ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n")[1].split("\n[")[0]
    target = re.fullmatch(r'treeseries = "treeseries\.cli:(\w+)"\n*', scripts).group(1)
    main_module = (_ROOT / "src" / "treeseries" / "__main__.py").read_text()
    assert f"from .cli import {target}\n" in main_module
    assert f"sys.exit({target}())" in main_module
