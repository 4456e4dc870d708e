"""Command-line front end.

Exit codes: 0 success; 2 parse or file-format error; 3 invariant violation
in the inputs, or out of memory; 4 verdict undecided (ZeroUpTo) under
--require-decided.
Errors print one structured line on stderr; there are no tracebacks.
``json`` is imported only to read JSON or print a JSON result, ``Fraction``
only for ``op -c``, and ``argparse`` (with ``_argparser``) only for lines
that ``_plain_args`` declines.  One table, ``_COMMANDS``, gives every
subcommand its help, handler and arguments, and one, ``_OPS``, every ``op``
operation; the operations are read from their module when one runs, so
``--help`` runs no layer.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import closure, compile, core, decide, series, species
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
    return core.automaton_from_json(_read(path))


def _write_automaton(a: core.Automaton, path: str):
    text = core.automaton_to_json(a)
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_json(value):
    import json

    print(json.dumps(value))


def _emit_series(values, fmt: str):
    if fmt == "json":
        _print_json({"coefficients": [str(v) for v in values]})
    elif fmt == "csv":
        print("n,coefficient")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        width = max(len(str(len(values) - 1)), 1)
        vwidth = max((len(str(v)) for v in values), default=1)
        for n, v in enumerate(values):
            print(f"{n:>{width}}  {str(v):>{vwidth}}")


def _cmd_eval(args) -> int:
    a = _load_automaton(args.automaton)
    t = core.parse_tree(args.tree)
    mu_tilde, value = core.evaluate(a, t)
    if args.format == "json":
        out = {"value": str(value)}
        if args.vector:
            out["mu_tilde"] = [str(v) for v in mu_tilde]
        _print_json(out)
    else:
        print(value)
        if args.vector:
            print(" ".join(str(v) for v in mu_tilde))
    return EXIT_OK


def _cmd_series(args) -> int:
    a = _load_automaton(args.automaton)
    prefix = series.generating_prefix(a, args.n)
    values = list(prefix.coefficients)
    if args.counts:
        f = 1
        values = [v * (f := f * (n or 1)) for n, v in enumerate(values)]
    _emit_series(values, args.format)
    return EXIT_OK


def _cmd_bound(args) -> int:
    bound = decide.compute_bound(_load_automaton(args.automaton))
    if args.format == "json":
        _print_json({"dimension": bound.dimension, "max_arity": bound.max_arity, "s": bound.s,
                     "M": bound.m, "B": bound.to_json_dict()})
    else:
        print(f"dimension {bound.dimension}, max arity {bound.max_arity}, s {bound.s}")
        print(f"M = {bound.m}")
        print(f"B = {bound.describe()}")
    return EXIT_OK


def _verdict_exit(verdict, args) -> int:
    _print_json(verdict.to_json_dict())
    if args.require_decided and isinstance(verdict, decide.ZeroUpTo):
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_zero(args) -> int:
    a = _load_automaton(args.automaton)
    check = decide.check_zero_tree_series if args.tree_series else decide.check_zero_genfun
    return _verdict_exit(check(a, args.cap), args)


def _cmd_equiv(args) -> int:
    a = _load_automaton(args.automaton)
    b = _load_automaton(args.b)
    check = decide.check_equiv_tree_series if args.tree_series else decide.check_equiv_genfun
    return _verdict_exit(check(a, b, args.cap), args)


# op name -> (the module its function is read from when it runs, the function's
# name, the operand it needs); the order is that of the help text: the sorted
# operations on one automaton, then the sorted binary ones.  arity-distinct is
# read from core, so that it does not run closure.
_OPS = {
    "arity-distinct": (core, "make_arity_distinct", None),
    "gf-derive": (closure, "gf_derive", None),
    "gf-integrate": (closure, "gf_integrate", None),
    "gf-inverse": (closure, "gf_inverse", None),
    "gf-scale": (closure, "gf_scale", "-c"),
    "gf-shift-backward": (closure, "gf_shift_backward", None),
    "gf-shift-forward": (closure, "gf_shift_forward", None),
    "ts-scale": (closure, "ts_scale", "-c"),
    "gf-add": (closure, "gf_add", "-b"),
    "gf-cauchy": (closure, "gf_cauchy", "-b"),
    "gf-mul-shifted": (closure, "gf_mul_shifted", "-b"),
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


def _parse_scalar(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputFormatError(f"division by zero in -c {text}") from None


def _cmd_op(args) -> int:
    a = _load_automaton(args.automaton)
    operand = _OPS[args.name][2]
    operands = ()
    if operand == "-c":
        if args.scalar is None:
            raise InputFormatError(f"{args.name} needs -c <rational>")
        operands = (_parse_scalar(args.scalar),)
    elif operand == "-b":
        if args.b is None:
            raise InputFormatError(f"{args.name} needs a second automaton (-b)")
        operands = (_load_automaton(args.b),)
    _write_automaton(_BINARY_OPS[args.name](a, *operands), args.output)
    return EXIT_OK


def _cmd_compile(args) -> int:
    text = _read(args.file)
    if args.language == "dfinite":
        automaton = compile.compile_dfinite(compile.parse_dfinite(text))
    elif args.language == "cda":
        automaton = compile.compile_cda(compile.parse_rds(text))
    elif args.language == "rda":
        automaton = compile.compile_rda(compile.parse_rds(text))
    else:
        automaton = compile.compile_rda(compile.da_to_rds(compile.parse_da(text)))
    _write_automaton(automaton, args.output)
    return EXIT_OK


def _cmd_species(args) -> int:
    spec = species.parse_species(_read(args.file))
    if args.action == "count":
        counts = species.count_species(spec, args.target, args.n)
        print(" ".join(str(c) for c in counts))
    else:
        rds = species.species_to_rds(spec, args.target)
        _write_automaton(compile.compile_rda(rds), args.output)
    return EXIT_OK


def _cmd_emit_system(args) -> int:
    system = decide.emit_differential_system(_load_automaton(args.automaton))
    sys.stdout.write(system.equations_text())
    if args.solve:
        prefix = system.forward_solve(args.solve)
        print()
        _emit_series([v[0] for v in prefix.vectors], "table")
    return EXIT_OK


def _cmd_enum_trees(args) -> int:
    pairs = []
    for part in args.alphabet.split(","):
        name, _, arity = part.strip().partition("/")
        if not arity.isdecimal():
            raise InputFormatError(f"bad alphabet entry {part!r}; use name/arity")
        pairs.append((name, int(arity)))
    alphabet = core.RankedAlphabet.of(*pairs)
    for t in core.enumerate_trees(alphabet, args.n):
        print(core.format_tree(t))
    return EXIT_OK


def _cmd_taylor(args) -> int:
    rds = compile.parse_rds(_read(args.file))
    result = compile.taylor_oracle(rds, args.n)
    for name in rds.variables:
        print(f"{name}: " + " ".join(str(v) for v in result[name].coefficients))
    return EXIT_OK


# the arguments several subcommands share: (flag, keyword arguments of add_argument)
_AUTOMATON = ("-a", {"dest": "automaton", "required": True})
_FILE = ("-f", {"dest": "file", "required": True})
_OUTPUT = ("-o", {"dest": "output", "default": "-"})
_N = ("-n", {"type": int, "default": 10})
_FORMAT = ("--format", {"choices": ["table", "json"], "default": "table"})
_DECISION = (("--cap", {"type": int, "default": 50}), ("--tree-series", {"action": "store_true"}),
             ("--require-decided", {"action": "store_true"}))

# every subcommand, in the order of the help text: name, help, handler, arguments
_COMMANDS = (
    ("eval", "evaluate an automaton on one tree", _cmd_eval, (
        _AUTOMATON, ("-t", {"dest": "tree", "required": True, "help": "s-expression tree"}),
        ("--vector", {"action": "store_true", "help": "also print mu~(t)"}), _FORMAT)),
    ("series", "generating-function prefix", _cmd_series, (
        _AUTOMATON, _N, ("--counts", {"action": "store_true", "help": "multiply by n!"}),
        ("--format", {"choices": ["table", "csv", "json"], "default": "table"}))),
    ("bound", "zeroness bound of an automaton", _cmd_bound, (_AUTOMATON, _FORMAT)),
    ("zero", "decide zeroness (series or tree series)", _cmd_zero, (_AUTOMATON, *_DECISION)),
    ("equiv", "decide equivalence of two automata", _cmd_equiv, (
        _AUTOMATON, ("-b", {"required": True}), *_DECISION)),
    ("op", "apply a closure operation", _cmd_op, (
        ("name", {"choices": list(_OPS)}), _AUTOMATON, ("-b", {}),
        ("-c", {"dest": "scalar", "help": "rational scalar for the scale ops"}), _OUTPUT)),
    ("compile", "compile a source file to an automaton", _cmd_compile, (
        ("language", {"choices": ["dfinite", "cda", "rda", "da"]}), _FILE, _OUTPUT)),
    ("species", "count or compile a species specification", _cmd_species, (
        ("action", {"choices": ["count", "compile"]}), _FILE,
        ("--target", {"help": "species name (default: first)"}), _N, _OUTPUT)),
    ("emit-system", "print the defining differential system", _cmd_emit_system, (
        _AUTOMATON, ("--solve", {"type": int, "default": 0, "help": "also forward-solve to n"}))),
    ("enum-trees", "list all trees of one size", _cmd_enum_trees, (
        ("--alphabet", {"required": True, "help": 'e.g. "a/0,f/2"'}),
        ("-n", {"type": int, "required": True}))),
    ("taylor", "solve a rational system term by term", _cmd_taylor, (_FILE, _N)),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``_argparser``, which is imported, with argparse, only
    for the lines that ``_plain_args`` declines."""
    from . import _argparser

    return _argparser.build_parser(argv)


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
    return SimpleNamespace(command=row[0], func=row[2], **{
        o.get("dest", f.lstrip("-").replace("-", "_")):
        given.get(f, o.get("default", False if "action" in o else None)) for f, o in row[3]})


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
        return args.func(args)
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
    """The command's exit: `main()`, then `gc.freeze()`, so that shutdown's
    collections skip every object alive by then.  `main` itself never
    freezes: it runs many times in one process in tests and the benchmark."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
