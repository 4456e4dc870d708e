"""Command-line front end.

Exit codes: 0 success; 2 parse or file-format error; 3 invariant violation
in the inputs, or out of memory; 4 verdict undecided (ZeroUpTo) under
--require-decided.
Errors print one structured line on stderr; there are no tracebacks.
``json`` is imported only to read JSON or print a JSON result, and
``argparse`` (inside ``build_parser``) only for lines that ``_plain_args``
declines.  One table, ``_COMMANDS``, gives every subcommand its help,
handler and arguments, and one, ``_OPS``, every ``op`` operation.  Every
handler lives in a module its command runs (``op``'s in ``core``), every
operation is read from the module that defines it, and handlers and
operations are read from their module when one runs, so a command compiles
no other command's handler and ``--help`` runs no layer.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from . import (_format, _languages, _reader, _shift, _trees, closure, compile, core, decide,
               series, species)
from .errors import InputFormatError, TreeSeriesError


EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_INVARIANT = 3
EXIT_UNDECIDED = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _load_automaton(path: str) -> core.Automaton:
    return _reader.automaton_from_json(_read(path))


def _write_automaton(a: core.Automaton, path: str):
    text = _format.automaton_to_json(a)
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_json(value):
    import json

    print(json.dumps(value))


# op name -> (the module that defines its function, from which the function is
# read when it runs, the function's name, the operand it needs); the order is
# that of the help text: the sorted operations on one automaton, then the
# sorted binary ones.  So arity-distinct runs no closure, and the operations
# that shift sizes run it only where they absorb a final vector.
_OPS = {
    "arity-distinct": (core, "make_arity_distinct", None),
    "gf-derive": (_shift, "gf_derive", None),
    "gf-integrate": (_shift, "gf_integrate", None),
    "gf-inverse": (_shift, "gf_inverse", None),
    "gf-scale": (closure, "gf_scale", "-c"),
    "gf-shift-backward": (_shift, "gf_shift_backward", None),
    "gf-shift-forward": (_shift, "gf_shift_forward", None),
    "ts-scale": (closure, "ts_scale", "-c"),
    "gf-add": (closure, "gf_add", "-b"),
    "gf-cauchy": (_shift, "gf_cauchy", "-b"),
    "gf-mul-shifted": (_shift, "gf_mul_shifted", "-b"),
    "ts-add": (closure, "ts_add", "-b"),
    "ts-hadamard": (closure, "ts_hadamard", "-b"),
}


class _ClosureOps(dict):
    """Rows of ``_OPS``, read as name -> function, looked up on each access:
    an access sees whatever the module holds then (the benchmark's tracer
    patches ``closure.ts_add`` there)."""

    def __getitem__(self, name):
        module, function, _ = dict.__getitem__(self, name)
        return getattr(module, function)


_BINARY_OPS = _ClosureOps(_OPS)  # every operation; bench/test_bench.py reads it by this name


# the arguments several subcommands share: (flag, keyword arguments of add_argument)
_AUTOMATON = ("-a", {"dest": "automaton", "required": True})
_FILE = ("-f", {"dest": "file", "required": True})
_OUTPUT = ("-o", {"dest": "output", "default": "-"})
_N = ("-n", {"type": int, "default": 10})
_FORMAT = ("--format", {"choices": ["table", "json"], "default": "table"})
_DECISION = (("--cap", {"type": int, "default": 50}), ("--tree-series", {"action": "store_true"}),
             ("--require-decided", {"action": "store_true"}))

# every subcommand, in the order of the help text: name, help, the module its
# handler `_cmd_<name>` (`-` read as `_`) is read from when it runs, arguments
_COMMANDS = (
    ("eval", "evaluate an automaton on one tree", _trees, (
        _AUTOMATON, ("-t", {"dest": "tree", "required": True, "help": "s-expression tree"}),
        ("--vector", {"action": "store_true", "help": "also print mu~(t)"}), _FORMAT)),
    ("series", "generating-function prefix", series, (
        _AUTOMATON, _N, ("--counts", {"action": "store_true", "help": "multiply by n!"}),
        ("--format", {"choices": ["table", "csv", "json"], "default": "table"}))),
    ("bound", "zeroness bound of an automaton", decide, (_AUTOMATON, _FORMAT)),
    ("zero", "decide zeroness (series or tree series)", decide, (_AUTOMATON, *_DECISION)),
    ("equiv", "decide equivalence of two automata", decide, (
        _AUTOMATON, ("-b", {"required": True}), *_DECISION)),
    ("op", "apply a closure operation", core, (
        ("name", {"choices": list(_OPS)}), _AUTOMATON, ("-b", {}),
        ("-c", {"dest": "scalar", "help": "rational scalar for the scale ops"}), _OUTPUT)),
    ("compile", "compile a source file to an automaton", compile, (
        ("language", {"choices": ["dfinite", "cda", "rda", "da"]}), _FILE, _OUTPUT)),
    ("species", "count or compile a species specification", species, (
        ("action", {"choices": ["count", "compile"]}), _FILE,
        ("--target", {"help": "species name (default: first)"}), _N, _OUTPUT)),
    ("emit-system", "print the defining differential system", decide, (
        _AUTOMATON, ("--solve", {"type": int, "default": 0, "help": "also forward-solve to n"}))),
    ("enum-trees", "list all trees of one size", _trees, (
        ("--alphabet", {"required": True, "help": 'e.g. "a/0,f/2"'}),
        ("-n", {"type": int, "required": True}))),
    ("taylor", "solve a rational system term by term", _languages, (_FILE, _N)),
)


def _plain_args(argv):
    """What argparse reads from a plain ``argv`` (a subcommand, exact flags,
    values not starting with "-", positionals), else None."""
    row = next((r for r in _COMMANDS if argv[:1] == [r[0]]), None)
    options = dict(row[3]) if row else {}
    queue = [f for f in options if f[0] != "-"]
    given, rest = {}, iter(argv[1:])
    for token in rest:
        if token[:1] != "-" and queue:
            flag, value = queue.pop(0), token
        elif token[:1] == "-" and token in options:
            flag, value = token, "action" in options[token] or next(rest, "-")
        else:
            return None
        opts = options[flag]
        if value is not True:
            if value[:1] == "-":
                return None
            try:
                value = opts.get("type", str)(value)
            except ValueError:
                return None
            if value not in opts.get("choices", [value]):
                return None
        given[flag] = value
    if not row or queue or any(o.get("required") and f not in given for f, o in row[3]):
        return None
    return SimpleNamespace(command=row[0], module=row[2], **{
        o.get("dest", f.lstrip("-").replace("-", "_")):
        given.get(f, o.get("default", False if "action" in o else None)) for f, o in row[3]})


def build_parser(argv=None):
    """The parser of every subcommand, or, given ``argv``, one on which every
    subcommand has its name and help but only the one ``argv`` names (its
    first argument not starting with ``-``) has its arguments: the only
    subparser that parsing ``argv`` can reach."""
    import argparse

    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="treeseries",
        description="size-weighted tree automata, their series, and compilers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, module, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(module=module)
    return parser


_SIZE_FLAGS = {"n": "-n", "cap": "--cap", "solve": "--solve"}


def _check_sizes(args):
    for dest, flag in _SIZE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise InputFormatError(f"{flag} must be nonnegative, got {value}")


def main(argv=None) -> int:
    sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes -3/2 for an unknown option, though it reads -1 as a
    # value: a negative number after -c is joined to it, as -c=-3/2
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "-c" and argv[i].startswith("-") and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = ["-c=" + argv[i]]
    args = _plain_args(argv) or build_parser(argv).parse_args(argv)
    try:
        _check_sizes(args)
        return getattr(args.module, "_cmd_" + args.command.replace("-", "_"))(args)
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except TreeSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RecursionError:
        # the parsers and the tree and expression walkers recurse once per
        # level of nesting in the input
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_FORMAT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INVARIANT


def run() -> int:
    """The command's exit: `main()` (or argparse's exit), the atexit
    callbacks, a flush of stdout and stderr, then `os._exit`, which skips
    the interpreter's teardown.  If a flush fails, the interpreter exits as
    usual.  `main` never exits: tests and the benchmark call it many times."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code or 0
        if not isinstance(code, int):
            raise
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
