"""The command-line parser gives arguments only to the subcommand its argv
names; on every argv it must behave exactly as the parser of every
subcommand does: same output, same exit code, same parsed arguments.  The
reader of plain lines, which runs before argparse, must return what argparse
returns or decline the line."""

import contextlib
import io
import random
import shlex
from pathlib import Path

import pytest

from treeseries.cli import _COMMANDS, _plain_args, build_parser

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


# the commands of the README's tour, without the leading `treeseries`
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
TOUR = [shlex.split(line, comments=True)[1:] for line in README.splitlines()
        if line.startswith("treeseries ")]


def _read_alike(argv):
    """The plain reader's namespace for argv, checked against argparse's:
    the reader declines every line argparse refuses or explains, and reads
    every line it does not decline as argparse does."""
    plain = _plain_args(argv)
    _, _, code, namespace = _parse(build_parser(argv), argv)
    if code is not None:
        assert plain is None, argv
    elif plain is not None:
        assert vars(plain) == vars(namespace), argv
    return plain


@pytest.mark.parametrize("argv", ARGVS + TOUR, ids=" ".join)
def test_plain_reader_matches_argparse(argv):
    _read_alike(argv)


def test_plain_reader_reads_every_valid_call_and_tour_command():
    assert len(TOUR) >= 20
    calls = [[command, *valid] for command, (valid, _, _) in CALLS.items()]
    # argparse reads a negative number as a value; the reader declines it
    declined = [argv for argv in calls + TOUR if _read_alike(argv) is None]
    assert declined == [["op", "gf-scale", "-a", "samples/bell.json", "-c", "-1", "-o",
                         "/tmp/neg.json"]]


# tokens that a line may hold in place of, or next to, a subcommand's own
SAMPLES = ["a.json", "(f (a))", "3", "0", "-1", "-3/2", "", "\u0663", "-", "--", "-h", "--help",
           "x y", "1.5", "--cap=5", "-n5", "--tree", "--form", "-a=a.json", "series"]


def _random_line(rng):
    """A subcommand's arguments in a random order with random values, then up
    to two tokens inserted, deleted or replaced."""
    name, _, _, arguments = rng.choice(_COMMANDS)
    pool = list(SAMPLES)
    groups = []
    for flag, options in arguments:
        values = options.get("choices") or (["7", "-2", "x"] if "type" in options else SAMPLES[:2])
        pool += [flag, *values]
        if rng.random() < 0.9:
            value = rng.choice(values)
            groups.append([value] if flag[0] != "-" else [flag] if "action" in options
                          else [flag, value])
    rng.shuffle(groups)
    tokens = [token for group in groups for token in group]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(tokens) + 1)
        if i == len(tokens) or rng.random() < 0.4:
            tokens.insert(i, rng.choice(pool))
        elif rng.random() < 0.5:
            del tokens[i]
        else:
            tokens[i] = rng.choice(pool)
    return [name if rng.random() < 0.97 else rng.choice(pool), *tokens]


def test_plain_reader_matches_argparse_on_random_lines():
    rng = random.Random(7)
    read = sum(_read_alike(_random_line(rng)) is not None for _ in range(2000))
    assert read >= 500


def test_every_argument_uses_only_options_the_plain_reader_handles():
    known = {"dest", "type", "default", "required", "action", "choices", "help"}
    for name, _, _, arguments in _COMMANDS:
        for flag, options in arguments:
            assert set(options) <= known, (name, flag)
            assert options.get("action", "store_true") == "store_true", (name, flag)
            # the reader catches the ValueError of int, and keeps a default as
            # it is, where argparse would convert a string through the type
            assert options.get("type", int) is int, (name, flag)
            assert not ("type" in options and isinstance(options.get("default"), str))


def test_selective_parser_gives_other_subcommands_no_arguments():
    out, err, code, _ = _parse(build_parser(["series"]), ["eval", "-a", "a.json", "-t", "(a)"])
    assert code == 2 and "unrecognized arguments: -a a.json -t (a)" in err


# the exact text of `--help` and of each `<command> --help`, 80 columns wide
HELP = {
    "": """\
usage: treeseries [-h]
                  {eval,series,bound,zero,equiv,op,compile,species,emit-system,enum-trees,taylor}
                  ...

size-weighted tree automata, their series, and compilers

positional arguments:
  {eval,series,bound,zero,equiv,op,compile,species,emit-system,enum-trees,taylor}
    eval                evaluate an automaton on one tree
    series              generating-function prefix
    bound               zeroness bound of an automaton
    zero                decide zeroness (series or tree series)
    equiv               decide equivalence of two automata
    op                  apply a closure operation
    compile             compile a source file to an automaton
    species             count or compile a species specification
    emit-system         print the defining differential system
    enum-trees          list all trees of one size
    taylor              solve a rational system term by term

options:
  -h, --help            show this help message and exit
""",
    "eval": """\
usage: treeseries eval [-h] -a AUTOMATON -t TREE [--vector]
                       [--format {table,json}]

options:
  -h, --help            show this help message and exit
  -a AUTOMATON
  -t TREE               s-expression tree
  --vector              also print mu~(t)
  --format {table,json}
""",
    "series": """\
usage: treeseries series [-h] -a AUTOMATON [-n N] [--counts]
                         [--format {table,csv,json}]

options:
  -h, --help            show this help message and exit
  -a AUTOMATON
  -n N
  --counts              multiply by n!
  --format {table,csv,json}
""",
    "bound": """\
usage: treeseries bound [-h] -a AUTOMATON [--format {table,json}]

options:
  -h, --help            show this help message and exit
  -a AUTOMATON
  --format {table,json}
""",
    "zero": """\
usage: treeseries zero [-h] -a AUTOMATON [--cap CAP] [--tree-series]
                       [--require-decided]

options:
  -h, --help         show this help message and exit
  -a AUTOMATON
  --cap CAP
  --tree-series
  --require-decided
""",
    "equiv": """\
usage: treeseries equiv [-h] -a AUTOMATON -b B [--cap CAP] [--tree-series]
                        [--require-decided]

options:
  -h, --help         show this help message and exit
  -a AUTOMATON
  -b B
  --cap CAP
  --tree-series
  --require-decided
""",
    "op": """\
usage: treeseries op [-h] -a AUTOMATON [-b B] [-c SCALAR] [-o OUTPUT]
                     {arity-distinct,gf-derive,gf-integrate,gf-inverse,gf-scale,gf-shift-backward,gf-shift-forward,ts-scale,gf-add,gf-cauchy,gf-mul-shifted,ts-add,ts-hadamard}

positional arguments:
  {arity-distinct,gf-derive,gf-integrate,gf-inverse,gf-scale,gf-shift-backward,gf-shift-forward,ts-scale,gf-add,gf-cauchy,gf-mul-shifted,ts-add,ts-hadamard}

options:
  -h, --help            show this help message and exit
  -a AUTOMATON
  -b B
  -c SCALAR             rational scalar for the scale ops
  -o OUTPUT
""",
    "compile": """\
usage: treeseries compile [-h] -f FILE [-o OUTPUT] {dfinite,cda,rda,da}

positional arguments:
  {dfinite,cda,rda,da}

options:
  -h, --help            show this help message and exit
  -f FILE
  -o OUTPUT
""",
    "species": """\
usage: treeseries species [-h] -f FILE [--target TARGET] [-n N] [-o OUTPUT]
                          {count,compile}

positional arguments:
  {count,compile}

options:
  -h, --help       show this help message and exit
  -f FILE
  --target TARGET  species name (default: first)
  -n N
  -o OUTPUT
""",
    "emit-system": """\
usage: treeseries emit-system [-h] -a AUTOMATON [--solve SOLVE]

options:
  -h, --help     show this help message and exit
  -a AUTOMATON
  --solve SOLVE  also forward-solve to n
""",
    "enum-trees": """\
usage: treeseries enum-trees [-h] --alphabet ALPHABET -n N

options:
  -h, --help           show this help message and exit
  --alphabet ALPHABET  e.g. "a/0,f/2"
  -n N
""",
    "taylor": """\
usage: treeseries taylor [-h] -f FILE [-n N]

options:
  -h, --help  show this help message and exit
  -f FILE
  -n N
""",
}


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in HELP.items():
        argv = [command, "--help"] if command else ["--help"]
        assert _parse(build_parser(argv), argv) == (text, "", 0, None), command
