"""Command-line front end.

Exit codes: 0 success; 2 parse or file-format error; 3 invariant violation
in the inputs; 4 verdict undecided (ZeroUpTo) under --require-decided.
Errors print one structured line on stderr; there are no tracebacks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import closure
from .compile import (
    compile_cda,
    compile_dfinite,
    compile_rda,
    da_to_rds,
    parse_da,
    parse_dfinite,
    parse_rds,
    taylor_oracle,
)
from .core import (
    Automaton,
    RankedAlphabet,
    automaton_from_json,
    automaton_to_json,
    enumerate_trees,
    evaluate,
    format_tree,
    make_arity_distinct,
    parse_tree,
)
from .decide import (
    ZeroUpTo,
    check_equiv_genfun,
    check_equiv_tree_series,
    check_zero_genfun,
    check_zero_tree_series,
    compute_bound,
    emit_differential_system,
)
from .errors import InputFormatError, InvariantError, TreeSeriesError
from .series import generating_prefix
from .species import count_species, parse_species, species_to_rds

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


def _load_automaton(path: str) -> Automaton:
    return automaton_from_json(_read(path))


def _write_automaton(a: Automaton, path: str):
    text = automaton_to_json(a)
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_series(values, fmt: str, label: str = "coefficient"):
    if fmt == "json":
        print(json.dumps({label + "s": [str(v) for v in values]}))
    elif fmt == "csv":
        print(f"n,{label}")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        width = max(len(str(len(values) - 1)), 1)
        vwidth = max((len(str(v)) for v in values), default=1)
        for n, v in enumerate(values):
            print(f"{n:>{width}}  {str(v):>{vwidth}}")


def _cmd_eval(args) -> int:
    a = _load_automaton(args.automaton)
    t = parse_tree(args.tree)
    mu_tilde, value = evaluate(a, t)
    if args.format == "json":
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
    prefix = generating_prefix(a, args.n)
    values = list(prefix.coefficients)
    if args.counts:
        values = [v * math.factorial(n) for n, v in enumerate(values)]
    _emit_series(values, args.format)
    return EXIT_OK


def _cmd_bound(args) -> int:
    bound = compute_bound(_load_automaton(args.automaton))
    if args.format == "json":
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
    print(json.dumps(verdict.to_json_dict()))
    if args.require_decided and isinstance(verdict, ZeroUpTo):
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_zero(args) -> int:
    a = _load_automaton(args.automaton)
    check = check_zero_tree_series if args.tree_series else check_zero_genfun
    return _verdict_exit(check(a, args.cap), args)


def _cmd_equiv(args) -> int:
    a = _load_automaton(args.automaton)
    b = _load_automaton(args.b)
    check = check_equiv_tree_series if args.tree_series else check_equiv_genfun
    return _verdict_exit(check(a, b, args.cap), args)


_UNARY_OPS = {
    "gf-scale": lambda a, c: closure.gf_scale(a, c),
    "ts-scale": lambda a, c: closure.ts_scale(a, c),
    "gf-shift-forward": lambda a, c: closure.gf_shift_forward(a),
    "gf-shift-backward": lambda a, c: closure.gf_shift_backward(a),
    "gf-derive": lambda a, c: closure.gf_derive(a),
    "gf-integrate": lambda a, c: closure.gf_integrate(a),
    "gf-inverse": lambda a, c: closure.gf_inverse(a),
    "arity-distinct": lambda a, c: make_arity_distinct(a),
}

_BINARY_OPS = {
    "ts-add": closure.ts_add,
    "ts-hadamard": closure.ts_hadamard,
    "gf-add": closure.gf_add,
    "gf-mul-shifted": closure.gf_mul_shifted,
    "gf-cauchy": closure.gf_cauchy,
}


def _parse_scalar(text: str) -> Fraction:
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
    elif args.name in _BINARY_OPS:
        if args.b is None:
            raise InputFormatError(f"{args.name} needs a second automaton (-b)")
        result = _BINARY_OPS[args.name](a, _load_automaton(args.b))
    else:
        raise InputFormatError(f"unknown operation {args.name!r}")
    _write_automaton(result, args.output)
    return EXIT_OK


def _cmd_compile(args) -> int:
    text = _read(args.file)
    if args.language == "dfinite":
        automaton = compile_dfinite(parse_dfinite(text))
    elif args.language == "cda":
        automaton = compile_cda(parse_rds(text))
    elif args.language == "rda":
        automaton = compile_rda(parse_rds(text))
    elif args.language == "da":
        automaton = compile_rda(da_to_rds(parse_da(text)))
    else:
        raise InputFormatError(f"unknown compile source {args.language!r}")
    _write_automaton(automaton, args.output)
    return EXIT_OK


def _cmd_species(args) -> int:
    spec = parse_species(_read(args.file))
    if args.action == "count":
        counts = count_species(spec, args.target, args.n)
        print(" ".join(str(c) for c in counts))
    else:
        rds = species_to_rds(spec, args.target)
        _write_automaton(compile_rda(rds), args.output)
    return EXIT_OK


def _cmd_emit_system(args) -> int:
    system = emit_differential_system(_load_automaton(args.automaton))
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
    alphabet = RankedAlphabet.of(*pairs)
    for t in enumerate_trees(alphabet, args.n):
        print(format_tree(t))
    return EXIT_OK


def _cmd_taylor(args) -> int:
    rds = parse_rds(_read(args.file))
    result = taylor_oracle(rds, args.n)
    for name in rds.variables:
        print(f"{name}: " + " ".join(str(v) for v in result[name].coefficients))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeseries",
        description="size-weighted tree automata, their series, and compilers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an automaton on one tree")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("-t", dest="tree", required=True, help="s-expression tree")
    p.add_argument("--vector", action="store_true", help="also print mu~(t)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("series", help="generating-function prefix")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--counts", action="store_true", help="multiply by n!")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("bound", help="zeroness bound of an automaton")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("zero", help="decide zeroness (series or tree series)")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("--cap", type=int, default=50)
    p.add_argument("--tree-series", action="store_true")
    p.add_argument("--require-decided", action="store_true")
    p.set_defaults(func=_cmd_zero)

    p = sub.add_parser("equiv", help="decide equivalence of two automata")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("-b", dest="b", required=True)
    p.add_argument("--cap", type=int, default=50)
    p.add_argument("--tree-series", action="store_true")
    p.add_argument("--require-decided", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("op", help="apply a closure operation")
    p.add_argument("name", choices=sorted(_UNARY_OPS) + sorted(_BINARY_OPS))
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("-b", dest="b")
    p.add_argument("-c", dest="scalar", help="rational scalar for the scale ops")
    p.add_argument("-o", dest="output", default="-")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("compile", help="compile a source file to an automaton")
    p.add_argument("language", choices=["dfinite", "cda", "rda", "da"])
    p.add_argument("-f", dest="file", required=True)
    p.add_argument("-o", dest="output", default="-")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("species", help="count or compile a species specification")
    p.add_argument("action", choices=["count", "compile"])
    p.add_argument("-f", dest="file", required=True)
    p.add_argument("--target", default=None, help="species name (default: first)")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("-o", dest="output", default="-")
    p.set_defaults(func=_cmd_species)

    p = sub.add_parser("emit-system", help="print the defining differential system")
    p.add_argument("-a", dest="automaton", required=True)
    p.add_argument("--solve", type=int, default=0, help="also forward-solve to n")
    p.set_defaults(func=_cmd_emit_system)

    p = sub.add_parser("enum-trees", help="list all trees of one size")
    p.add_argument("--alphabet", required=True, help='e.g. "a/0,f/2"')
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_enum_trees)

    p = sub.add_parser("taylor", help="solve a rational system term by term")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except TreeSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
