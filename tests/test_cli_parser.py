"""The command-line parser gives arguments only to the subcommand its argv
names; on every argv it must behave exactly as the parser of every
subcommand does: same output, same exit code, same parsed arguments."""

import contextlib
import io

import pytest

from treeseries.cli import build_parser

# per subcommand: a valid call, one missing a required argument, and one with
# a bad choice (or, where the subcommand has no choices, a bad number)
CALLS = {
    "eval": (["-a", "a.json", "-t", "(f (a))", "--vector"], ["-t", "(f (a))"],
             ["-a", "a.json", "-t", "(a)", "--format", "xml"]),
    "series": (["-a", "a.json", "-n", "3", "--counts", "--format", "csv"], ["-n", "3"],
               ["-a", "a.json", "--format", "xml"]),
    "bound": (["-a", "a.json", "--format", "json"], ["--format", "json"],
              ["-a", "a.json", "--format", "csv"]),
    "zero": (["-a", "a.json", "--cap", "5", "--tree-series"], ["--cap", "5"],
             ["-a", "a.json", "--cap", "many"]),
    "equiv": (["-a", "a.json", "-b", "b.json", "--require-decided"], ["-a", "a.json"],
              ["-a", "a.json", "-b", "b.json", "--cap", "1.5"]),
    "op": (["gf-scale", "-a", "a.json", "-c", "2/3", "-o", "out.json"], ["ts-add", "-b", "b"],
           ["gf-frobnicate", "-a", "a.json"]),
    "compile": (["rda", "-f", "s.rds"], ["rda"], ["fortran", "-f", "s.f"]),
    "species": (["count", "-f", "s.spec", "-n", "4", "--target", "A"], ["count"],
                ["draw", "-f", "s.spec"]),
    "emit-system": (["-a", "a.json", "--solve", "3"], ["--solve", "3"],
                    ["-a", "a.json", "--solve", "x"]),
    "enum-trees": (["--alphabet", "a/0,f/2", "-n", "3"], ["-n", "3"],
                   ["--alphabet", "a/0", "-n", "three"]),
    "taylor": (["-f", "s.rds", "-n", "4"], ["-n", "4"], ["-f", "s.rds", "-n", "4.5"]),
}

ARGVS = [
    ["-h"],
    [],
    ["frobnicate", "-a", "a.json"],
    ["--verbose", "series", "-a", "a.json"],
    ["--verbose", "series"],
    ["--", "series", "-a", "a.json"],
]
for command, (valid, missing, bad) in CALLS.items():
    ARGVS += [[command, "--help"], [command, *valid], [command, *missing], [command, *bad]]


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


def test_every_subcommand_is_covered():
    assert set(CALLS) == set(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_selective_parser_matches_the_full_parser(argv):
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def test_selective_parser_gives_other_subcommands_no_arguments():
    out, err, code, _ = _parse(build_parser(["series"]), ["eval", "-a", "a.json", "-t", "(a)"])
    assert code == 2 and "unrecognized arguments: -a a.json -t (a)" in err
