"""Command-line front end.

Exit codes: 0 success; 2 parse or file-format error; 3 invariant violation
in the inputs; 4 verdict undecided (ZeroUpTo) under --require-decided.
Errors print one structured line on stderr; there are no tracebacks.
``json`` is imported only where output is written as JSON, and ``Fraction``
only where ``op -c`` is read.  The closure operations are looked up in
``closure`` when one runs, and the parser gives arguments only to the
subcommand named on the command line, so ``--help`` runs no layer.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _emit_series(values, fmt: str):
    if fmt == "json":
        import json

        print(json.dumps({"coefficients": [str(v) for v in values]}))
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
        import json

        out = {"value": str(value)}
        if args.vector:
            out["mu_tilde"] = [str(v) for v in mu_tilde]
        print(json.dumps(out))
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
        values = [v * math.factorial(n) for n, v in enumerate(values)]
    _emit_series(values, args.format)
    return EXIT_OK


def _cmd_bound(args) -> int:
    bound = decide.compute_bound(_load_automaton(args.automaton))
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "dimension": bound.dimension,
                    "max_arity": bound.max_arity,
                    "s": bound.s,
                    "M": bound.m,
                    "B": bound.to_json_dict(),
                }
            )
        )
    else:
        print(f"dimension {bound.dimension}, max arity {bound.max_arity}, s {bound.s}")
        print(f"M = {bound.m}")
        print(f"B = {bound.describe()}")
    return EXIT_OK


def _verdict_exit(verdict, args) -> int:
    import json

    print(json.dumps(verdict.to_json_dict()))
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


_UNARY_OPS = {
    "gf-scale": lambda a, c: closure.gf_scale(a, c),
    "ts-scale": lambda a, c: closure.ts_scale(a, c),
    "gf-shift-forward": lambda a, c: closure.gf_shift_forward(a),
    "gf-shift-backward": lambda a, c: closure.gf_shift_backward(a),
    "gf-derive": lambda a, c: closure.gf_derive(a),
    "gf-integrate": lambda a, c: closure.gf_integrate(a),
    "gf-inverse": lambda a, c: closure.gf_inverse(a),
    "arity-distinct": lambda a, c: core.make_arity_distinct(a),
}

class _ClosureOps(dict):
    """Operation name -> ``closure`` function, looked up on each access: the
    table names the functions, so building it runs no layer, and an access
    sees whatever ``closure`` holds then (the benchmark's tracer patches
    ``closure.ts_add`` there)."""

    def __getitem__(self, name):
        return getattr(closure, dict.__getitem__(self, name))


_BINARY_OPS = _ClosureOps({
    "ts-add": "ts_add",
    "ts-hadamard": "ts_hadamard",
    "gf-add": "gf_add",
    "gf-mul-shifted": "gf_mul_shifted",
    "gf-cauchy": "gf_cauchy",
})


def _parse_scalar(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputFormatError(f"division by zero in -c {text}") from None


def _cmd_op(args) -> int:
    a = _load_automaton(args.automaton)
    if args.name in _UNARY_OPS:
        if args.name.endswith("scale"):
            if args.scalar is None:
                raise InputFormatError(f"{args.name} needs -c <rational>")
            result = _UNARY_OPS[args.name](a, _parse_scalar(args.scalar))
        else:
            result = _UNARY_OPS[args.name](a, None)
    else:
        if args.b is None:
            raise InputFormatError(f"{args.name} needs a second automaton (-b)")
        result = _BINARY_OPS[args.name](a, _load_automaton(args.b))
    _write_automaton(result, args.output)
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
        if not arity.isdigit():
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``argv``, one on which every
    subcommand has its name and help but only the one ``argv`` names (its
    first argument not starting with ``-``) has its arguments: the only
    subparser that parsing ``argv`` can reach."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")

    def wanted(command):
        return named is None or named == command

    parser = argparse.ArgumentParser(
        prog="treeseries",
        description="size-weighted tree automata, their series, and compilers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an automaton on one tree")
    if wanted("eval"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("-t", dest="tree", required=True, help="s-expression tree")
        p.add_argument("--vector", action="store_true", help="also print mu~(t)")
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("series", help="generating-function prefix")
    if wanted("series"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("-n", type=int, default=10)
        p.add_argument("--counts", action="store_true", help="multiply by n!")
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
        p.set_defaults(func=_cmd_series)

    p = sub.add_parser("bound", help="zeroness bound of an automaton")
    if wanted("bound"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("zero", help="decide zeroness (series or tree series)")
    if wanted("zero"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("--cap", type=int, default=50)
        p.add_argument("--tree-series", action="store_true")
        p.add_argument("--require-decided", action="store_true")
        p.set_defaults(func=_cmd_zero)

    p = sub.add_parser("equiv", help="decide equivalence of two automata")
    if wanted("equiv"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("-b", dest="b", required=True)
        p.add_argument("--cap", type=int, default=50)
        p.add_argument("--tree-series", action="store_true")
        p.add_argument("--require-decided", action="store_true")
        p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("op", help="apply a closure operation")
    if wanted("op"):
        p.add_argument("name", choices=sorted(_UNARY_OPS) + sorted(_BINARY_OPS))
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("-b", dest="b")
        p.add_argument("-c", dest="scalar", help="rational scalar for the scale ops")
        p.add_argument("-o", dest="output", default="-")
        p.set_defaults(func=_cmd_op)

    p = sub.add_parser("compile", help="compile a source file to an automaton")
    if wanted("compile"):
        p.add_argument("language", choices=["dfinite", "cda", "rda", "da"])
        p.add_argument("-f", dest="file", required=True)
        p.add_argument("-o", dest="output", default="-")
        p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("species", help="count or compile a species specification")
    if wanted("species"):
        p.add_argument("action", choices=["count", "compile"])
        p.add_argument("-f", dest="file", required=True)
        p.add_argument("--target", default=None, help="species name (default: first)")
        p.add_argument("-n", type=int, default=10)
        p.add_argument("-o", dest="output", default="-")
        p.set_defaults(func=_cmd_species)

    p = sub.add_parser("emit-system", help="print the defining differential system")
    if wanted("emit-system"):
        p.add_argument("-a", dest="automaton", required=True)
        p.add_argument("--solve", type=int, default=0, help="also forward-solve to n")
        p.set_defaults(func=_cmd_emit_system)

    p = sub.add_parser("enum-trees", help="list all trees of one size")
    if wanted("enum-trees"):
        p.add_argument("--alphabet", required=True, help='e.g. "a/0,f/2"')
        p.add_argument("-n", type=int, required=True)
        p.set_defaults(func=_cmd_enum_trees)

    p = sub.add_parser("taylor", help="solve a rational system term by term")
    if wanted("taylor"):
        p.add_argument("-f", dest="file", required=True)
        p.add_argument("-n", type=int, default=10)
        p.set_defaults(func=_cmd_taylor)

    return parser


_SIZE_FLAGS = {"n": "-n", "cap": "--cap", "solve": "--solve"}


def _check_sizes(args):
    for dest, flag in _SIZE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise InputFormatError(f"{flag} must be nonnegative, got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes -3/2 for an unknown option, though it reads -1 as a
    # value: a negative number after -c is joined to it, as -c=-3/2
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "-c" and argv[i].startswith("-") and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = ["-c=" + argv[i]]
    args = build_parser(argv).parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
