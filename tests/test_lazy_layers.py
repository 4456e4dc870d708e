"""The package runs a layer only when something uses it, and still offers
the same public names, bound to the same objects, as an eager import did."""

import ast
import itertools
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import treeseries

_ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("exactmath", "core", "_trees", "_format", "_reader", "series", "closure", "_shift",
          "_expr", "compile", "_languages", "decide", "species")

# a layer has run once its module is no longer the LazyLoader placeholder
_REPORT = """
import sys, types
layers = {layers!r}
print(" ".join(n for n in layers if type(sys.modules["treeseries." + n]) is types.ModuleType))
"""
_RUN_CLI = """
import contextlib, io, os, runpy, sys
os._exit = sys.exit  # the command ends in os._exit, which would end the probe
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code or 0
print(code)
"""


def _python(code, *argv, **extra_env):
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _layers_run(code, *argv):
    return set(_python(code + _REPORT.format(layers=LAYERS), *argv).split())


def test_import_runs_no_layer():
    assert _layers_run("import treeseries") == set()


# --help and usage errors run no layer (argparse builds the parser in cli);
# reading an automaton runs core and exactmath, _reader, which reads it, and _expr, which parses the weight
# strings, while compiling runs no _reader; only commands that build, evaluate
# or enumerate trees run _trees, only the source languages other than
# rational systems run _languages, and only closure operations and the
# decisions built on them (equiv, tree-series zero) run closure; only the
# operations that shift sizes run _shift, of which only gf-derive and
# gf-integrate run closure, and only commands that write an automaton or a
# system run _format
READ = {"core", "exactmath", "_reader", "_expr"}
DECIDE = READ | {"series", "decide"}
COMPILE = {"core", "exactmath", "_expr", "compile"}
SPLIT = {"_format", "_shift"}
LAYER_ROWS = [
    (["--help"], 0, set()),
    (["series", "-n", "5"], 2, set()),
    (["eval", "-a", "samples/bell.json", "-t", "(sigma1 (sigma0))"], 0, READ | {"_trees"}),
    (["enum-trees", "--alphabet", "a/0,f/2", "-n", "3"], 0, {"core", "_trees"}),
    (["series", "-a", "samples/bell.json", "-n", "5"], 0, READ | {"series"}),
    (["bound", "-a", "samples/bell.json"], 0, DECIDE),
    (["zero", "-a", "samples/bell.json", "--cap", "5"], 0, DECIDE),
    (["zero", "--tree-series", "-a", "samples/bell.json", "--cap", "5"], 0,
     DECIDE | {"closure", "_trees"}),
    (["equiv", "-a", "samples/bell.json", "-b", "samples/bell.json", "--cap", "5"], 0,
     DECIDE | {"closure"}),
    (["emit-system", "-a", "samples/bell.json", "--solve", "3"], 0, DECIDE | {"_format"}),
    (["op", "gf-derive", "-a", "samples/bell.json"], 0,
     READ | {"closure", "_shift", "_format"}),
    (["op", "gf-inverse", "-a", "samples/bell.json"], 0, READ | {"_shift", "_format"}),
    (["op", "ts-add", "-a", "samples/bell.json", "-b", "samples/bell.json"], 0,
     READ | {"closure", "_format"}),
    (["compile", "rda", "-f", "samples/bell.rds"], 0, COMPILE | {"_format"}),
    (["compile", "cda", "-f", "samples/bell.rds"], 0, COMPILE | {"_languages", "_format"}),
    (["compile", "da", "-f", "samples/cubic.da"], 0, COMPILE | {"_languages", "_format"}),
    (["compile", "dfinite", "-f", "samples/factorial.dfinite"], 0,
     COMPILE | {"_languages", "_format"}),
    (["taylor", "-f", "samples/bell.rds", "-n", "5"], 0, COMPILE | {"_languages", "series"}),
    (["species", "count", "-f", "samples/bell.spec", "-n", "5"], 0,
     COMPILE | {"series", "species"}),
    (["species", "compile", "-f", "samples/bell.spec"], 0,
     COMPILE | {"species", "_format"}),
    (["op", "gf-cauchy", "-a", "samples/bell.json", "-b", "samples/bell.json"], 0,
     READ | {"_shift", "_format"}),
    (["op", "gf-mul-shifted", "-a", "samples/bell.json", "-b", "samples/bell.json"], 0,
     READ | {"_shift", "_format"}),
]


@pytest.mark.parametrize("argv, code, ran", LAYER_ROWS)
def test_command_runs_only_the_layers_it_uses(argv, code, ran):
    exit_code, *layers = _python(_RUN_CLI + _REPORT.format(layers=LAYERS), *argv).split()
    assert int(exit_code) == code
    assert set(layers) == ran


@pytest.mark.parametrize(
    "argv",
    [
        ["equiv", "-a", "samples/bell.json", "-b", "samples/bell.json", "--cap", "5"],
        ["zero", "-a", "samples/bell.json", "--cap", "5"],
        ["bound", "-a", "samples/bell.json"],
        ["series", "-a", "samples/bell.json", "-n", "5"],
        ["species", "count", "-f", "samples/bell.spec", "-n", "5"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_deciding_and_counting_run_no_split_module(argv):
    exit_code, *layers = _python(_RUN_CLI + _REPORT.format(layers=LAYERS), *argv).split()
    assert int(exit_code) == 0
    assert "series" in layers and not SPLIT & set(layers)


def test_species_count_does_not_import_json():
    probe = _RUN_CLI + "import sys\nprint('json' in sys.modules)\n"
    # writing an automaton needs no json module
    for argv in (["species", "count", "-f", "samples/surjections.spec", "-n", "8"],
                 ["compile", "rda", "-f", "samples/bell.rds"],
                 ["species", "compile", "-f", "samples/bell.spec"]):
        assert _python(probe, *argv).split() == ["0", "False"], argv
    # the commands that read or print JSON do import it
    for argv in (["op", "gf-derive", "-a", "samples/bell.json"],
                 ["series", "-a", "samples/bell.json", "-n", "3", "--format", "json"]):
        assert _python(probe, *argv).split() == ["0", "True"], argv


def test_help_imports_no_fractions():
    # only `op -c` reads a Fraction in the CLI; no layer runs for --help
    probe = _RUN_CLI + "import sys\nprint('fractions' in sys.modules)\n"
    assert _python(probe, "--help").split() == ["0", "False"]
    argv = ["op", "gf-scale", "-a", "samples/bell.json", "-c", "2/3"]
    assert _python(probe, *argv).split() == ["0", "True"]


# the command's exit code, stdout and stderr, and which of the parser's
# modules it imported
_PARSER_PROBE = """
import contextlib, io, os, runpy, sys
os._exit = sys.exit  # the command ends in os._exit, which would end the probe
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code or 0
print(repr((code, out.getvalue(), err.getvalue(),
            [m for m in ("argparse", "gettext", "locale") if m in sys.modules])))
"""


@pytest.mark.parametrize("argv", [
    ["series", "-a", "samples/bell.json", "-n", "3"],
    ["equiv", "-a", "samples/bell.json", "-b", "samples/bell.json", "--cap", "5"],
], ids=lambda argv: argv[0])
def test_a_plain_command_imports_no_argparse(argv):
    code, out, err, imported = ast.literal_eval(_python(_PARSER_PROBE, *argv))
    assert (code, err, imported) == (0, "", []) and out


def test_help_and_usage_errors_run_argparse():
    from test_cli_parser import HELP

    code, out, err, imported = ast.literal_eval(_python(_PARSER_PROBE, "--help", COLUMNS="80"))
    assert (code, out, err) == (0, HELP[""], "") and "argparse" in imported
    code, out, err, imported = ast.literal_eval(
        _python(_PARSER_PROBE, "series", "-n", "5", COLUMNS="80"))
    assert (code, out) == (2, "") and "argparse" in imported
    assert err == """\
usage: treeseries series [-h] -a AUTOMATON [-n N] [--counts]
                         [--format {table,csv,json}]
treeseries series: error: the following arguments are required: -a
"""


def test_cli_import_puts_every_layer_in_sys_modules():
    # bench/tracing.py imports treeseries.cli and then indexes sys.modules for
    # every layer
    probe = """
import sys
import treeseries.cli
print(all("treeseries." + n in sys.modules for n in {layers!r}))
""".format(layers=LAYERS)
    assert _python(probe) == "True\n"


def test_each_operation_and_handler_is_read_from_its_home_module():
    # an operation read through closure's forwarding would run closure
    from treeseries import cli

    for name, (module, function, _) in cli._OPS.items():
        assert getattr(module, function).__module__ == module.__name__, name
    assert all(row[2] is not cli for row in cli._COMMANDS)


def test_binary_op_calls_the_function_closure_holds_when_it_runs(monkeypatch, capsys):
    # bench/tracing.py traces an op by patching the function in closure's namespace
    from treeseries import cli, closure

    original, calls = closure.ts_add, []

    def patched(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(closure, "ts_add", patched)
    bell = str(_ROOT / "samples" / "bell.json")
    assert cli.main(["op", "ts-add", "-a", bell, "-b", bell]) == 0
    assert len(calls) == 1 and capsys.readouterr().out.startswith("{")


# ---------------------------------------------------------------------------
# public API

ALL = [
    "Automaton", "DAEquation", "DFiniteRecurrence", "FinalVector", "MultiPolynomial", "RDS",
    "RankedAlphabet", "Rational", "SeriesPrefix", "SizeRational", "SpeciesSpec", "Tree",
    "UniPolynomial", "VectorSeriesPrefix", "absorb_final_vector", "automaton_from_json",
    "automaton_to_json", "brute_force_coefficient", "check_equiv_genfun",
    "check_equiv_tree_series", "check_zero_genfun", "check_zero_tree_series", "closure",
    "coefficients", "compile", "compile_cda", "compile_dfinite", "compile_rda", "compute_bound",
    "core", "count_species", "da_to_rds", "decide", "diffsys_to_rds",
    "emit_differential_system", "enumerate_trees", "errors", "evaluate", "exactmath",
    "generating_prefix", "gf_add", "gf_cauchy", "gf_derive", "gf_integrate", "gf_inverse",
    "gf_mul_shifted", "gf_scale", "gf_shift_backward", "gf_shift_forward", "kron",
    "make_arity_distinct", "normalize_common_denominator", "parse_da", "parse_dfinite",
    "parse_rds", "parse_size_rational", "parse_species", "parse_tree", "poly_integer_roots",
    "s_derive", "series", "series_add", "series_cauchy", "series_scale", "size_rational_eval",
    "species", "species_to_diffsys", "species_to_rds", "taylor_oracle", "tree_size", "ts_add",
    "ts_hadamard", "ts_scale", "unify_alphabets",
]

HOME = {
    "core": "Automaton RankedAlphabet Tree automaton_from_json automaton_to_json "
            "enumerate_trees evaluate kron make_arity_distinct parse_tree tree_size "
            "unify_alphabets",
    "exactmath": "MultiPolynomial Rational SizeRational UniPolynomial "
                 "normalize_common_denominator parse_size_rational poly_integer_roots "
                 "size_rational_eval",
    "series": "SeriesPrefix VectorSeriesPrefix brute_force_coefficient coefficients "
              "generating_prefix s_derive series_add series_cauchy series_scale",
    "closure": "FinalVector absorb_final_vector gf_add gf_cauchy gf_derive gf_integrate "
               "gf_inverse gf_mul_shifted gf_scale gf_shift_backward gf_shift_forward ts_add "
               "ts_hadamard ts_scale",
    "compile": "DAEquation DFiniteRecurrence RDS compile_cda compile_dfinite compile_rda "
               "da_to_rds parse_da parse_dfinite parse_rds taylor_oracle",
    "decide": "check_equiv_genfun check_equiv_tree_series check_zero_genfun "
              "check_zero_tree_series compute_bound emit_differential_system",
    "species": "SpeciesSpec count_species diffsys_to_rds parse_species species_to_diffsys "
               "species_to_rds",
}


def test_all_is_unchanged():
    assert treeseries.__all__ == ALL


def test_each_name_is_the_object_of_its_module():
    homes = {name: module for module, names in HOME.items() for name in names.split()}
    for name in ALL:
        value = getattr(treeseries, name)
        if name in homes:
            assert value is getattr(sys.modules["treeseries." + homes[name]], name), name
        else:
            assert isinstance(value, types.ModuleType)
            assert value is sys.modules["treeseries." + name], name
    assert len(homes) + 8 == len(ALL) == 74


def test_star_import_and_dir_offer_every_name():
    namespace = {}
    exec("from treeseries import *", namespace)
    assert set(ALL) <= set(namespace)
    assert all(namespace[name] is getattr(treeseries, name) for name in ALL)
    assert set(ALL) <= set(dir(treeseries))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        treeseries.no_such_name
    assert not hasattr(treeseries, "WeightMatrix")


def test_each_forwarded_name_is_read_from_the_module_that_defines_it():
    layers = set()
    for (layer, home), names in treeseries._FORWARDS.items():
        module = sys.modules["treeseries." + layer]
        defining = sys.modules["treeseries." + home]
        layers.add(module)
        for name in names.split():
            value = getattr(module, name)
            assert value is vars(defining)[name], (layer, name)
            if isinstance(value, (type, types.FunctionType)):  # not one that only imports it
                assert value.__module__ == defining.__name__, (layer, name)
            assert name not in vars(module), (layer, name)
            namespace = {}
            exec(f"from treeseries.{layer} import {name}", namespace)
            assert namespace[name] is value, (layer, name)
    assert len(layers) == 4
    for module in layers:
        with pytest.raises(AttributeError) as raised:
            module.x
        assert str(raised.value) == f"module {module.__name__!r} has no attribute 'x'"


# ---------------------------------------------------------------------------
# source size

MODULE_BYTES = 16384


def test_no_module_is_over_16_kib():
    """Without a bytecode cache (PYTHONDONTWRITEBYTECODE=1, as the benchmark
    runs), a command compiles every module it runs from source, and the
    compiler's peak memory grows with the size of the file it compiles.  So
    the largest module compiled, not the command's own data, sets a
    command's peak RSS.  Measured with CPython 3.11 on x86-64 Linux:
    `python -c pass` peaks at 13.8 MB; compiling exactmath.py alone raised
    VmHWM by 2.3-2.4 MB when it was 30,648 bytes, and species.py by 2.0 MB at
    22,608 bytes; the five modules they were split into, 6.7-14 KB each,
    raise it by 0.5-1.2 MB.  A module that outgrows the cap is split along
    its sections."""
    package = _ROOT / "src" / "treeseries"
    sizes = {path.name: path.stat().st_size for path in package.glob("*.py")}
    assert {name: size for name, size in sizes.items() if size > MODULE_BYTES} == {}


# the benchmark runs every job without a bytecode cache, so a command compiles
# the source of each module it runs
_COUNT_COMPILED = """
import ast, builtins, pathlib
sizes = []

def counting(source, filename, *args, **kwargs):
    path = pathlib.Path(str(filename))
    if path.parent.name == "treeseries":
        tree = original(source, filename, "exec", ast.PyCF_ONLY_AST)
        sizes.append((path.name, len(source), sum(1 for _ in ast.walk(tree))))
    return original(source, filename, *args, **kwargs)

original, builtins.compile = builtins.compile, counting
""" + _RUN_CLI + "print(repr(sizes))\n"


def _compiled(tmp_path, argv, code=0):
    """(module, source bytes, AST nodes) of each package module the command
    compiled; the command exits with ``code``."""
    # an empty cache prefix: nothing is read from or written to __pycache__
    out = _python(_COUNT_COMPILED, *argv, PYTHONPYCACHEPREFIX=str(tmp_path),
                  PYTHONDONTWRITEBYTECODE="1")
    exit_code, sizes = out.split("\n", 1)
    assert int(exit_code) == code
    return ast.literal_eval(sizes)


# Compile time tracks AST nodes, not bytes: in fresh processes, compile() cost
# 2.3-2.7 us per node in every module of the package, but anywhere from 0.18
# to 0.43 us per byte (the best of 20 warm compiles: 0.91-1.12 us per node,
# 0.09-0.21 us per byte; CPython 3.11.7, 2-core x86-64 VM).  2,497 nodes that
# never run, added to cli.py, made `species count`, `equiv` and `op gf-derive`
# 2.9-4.2% slower and `--help` 7.0% slower (31 fresh processes per side).  So
# each command's count is pinned, and its bytes are not capped: a change that
# moves a count re-pins it and says by how much every run of the command pays.
# Before the command handlers left cli.py and the JSON reader left core.py and
# exactmath.py, these commands compiled 3,375, 23,858, 19,074, 17,929 and
# 21,496 nodes; before the layers' name tables became the package's one
# _FORWARDS, 2,372, 22,303, 18,567, 16,050 and 21,215; before the prefix
# arithmetic joined series and the argparse parser joined cli, 2,449, 22,201,
# 18,435, 15,982 and 21,083, and `series` 15,924; before the weight matrices
# joined exactmath, @record core and the differential system decide, 2,411,
# 22,567, 18,825, 16,085 and 21,473, `series` 16,290, `bound` 17,572 and
# `emit-system` 17,674; before species specifications were written in
# _expr's nodes, `species count` 22,530; before `op` read each operation from
# the module that defines it and its handler, `initial_vector` and
# `_embed_shifted` joined core, and species recursions were checked for
# well-foundedness and their solving for work, 2,404, 22,447, 19,336, 16,049
# and 21,983, `series` 16,254, `bound` 18,083 and `emit-system` 18,895.
COMPILED_NODES = [
    (["--help"], 2238),
    (["species", "count", "-f", "samples/bell.spec", "-n", "5"], 23215),
    (["equiv", "-a", "samples/bell.json", "-b", "samples/bell.json", "--cap", "5"], 19332),
    (["compile", "rda", "-f", "samples/bell.rds"], 16183),
    (["zero", "--tree-series", "-a", "samples/bell.json", "--cap", "5"], 21979),
    (["series", "-a", "samples/bell.json", "-n", "5"], 16315),
    (["bound", "-a", "samples/bell.json"], 18144),
    (["emit-system", "-a", "samples/bell.json", "--solve", "3"], 18956),
]


@pytest.mark.parametrize("argv, nodes", COMPILED_NODES,
                         ids=[" ".join(argv[:2]) for argv, _ in COMPILED_NODES])
def test_command_compiles_its_pinned_number_of_ast_nodes(tmp_path, argv, nodes):
    compiled = _compiled(tmp_path, argv)
    assert sum(n for _, _, n in compiled) == nodes, ", ".join(f"{m} {n}" for m, _, n in compiled)


def test_no_two_modules_are_compiled_by_the_same_commands(tmp_path):
    """A module split off another pays for its import by keeping its nodes off
    the commands that compile the other one but not it.  Two modules that
    the same commands compile keep nothing off any of them, so they are one
    module, unless together they would be over the size cap.  The modules
    that --help compiles (the package, __main__, cli and errors) are
    compiled by every command and are exempt."""
    rows = {tuple(argv): code for argv, code, _ in LAYER_ROWS}
    rows.update((tuple(argv), 0) for argv, _ in COMPILED_NODES)
    with ThreadPoolExecutor(max_workers=2) as pool:
        compiled = dict(zip(rows, pool.map(
            lambda argv: _compiled(tmp_path, list(argv), rows[argv]), rows)))
    exempt = {module for module, _, _ in compiled[("--help",)]}
    commands, sizes = {}, {}
    for argv, modules in compiled.items():
        for module, size, _ in modules:
            commands.setdefault(module, set()).add(argv)
            sizes[module] = size
    groups = {}
    for module in sorted(commands.keys() - exempt):
        groups.setdefault(frozenset(commands[module]), []).append(module)
    assert [(a, b) for group in groups.values() for a, b in itertools.combinations(group, 2)
            if sizes[a] + sizes[b] <= MODULE_BYTES] == []
