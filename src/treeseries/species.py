"""Combinatorial species: parsing, translation to differential systems over
exponential generating functions, and counting.

The supported constructions are 1, X, named references, +, *, sequence, set,
and cycle, with cardinality constraints card=k and card>=k on sequence and
set.  A specification is ``_expr`` nodes (``Const(1)``, ``Var("X")`` for the
atom, ``Var(name)``, ``Add``, ``Mul``) plus the construct records ``SpSeq``,
``SpSet`` and ``SpCycle``; ``x``, the EGF variable, cannot be defined, nor
can ``X`` or a construct name.  Each construct contributes equations over
EGF variables:

    set(A):       v' = v * A'            v(0) = 1
    set(A,>=k):   v = u - A^(k-1) / (k-1)!, with u = set(A,>=k-1)
                  (u' = A' * (u + A^(k-2) / (k-2)!), u(0) = 0, for k >= 2)
    set(A,=k):    v = A^k / k!
    sequence(A):  v = 1 / (1 - A)        (and the card variants v = A^k ...)
    cycle(A):     v' = A' / (1 - A)      v(0) = 0

all requiring A(0) = 0.  Initial values come from counting structures on the
empty label set: one evaluator, ``_empty_count``, gives them for the
specification's names (a least fixpoint) and for the helper variables of
the translation; ``empty_counts`` refuses an ill-founded recursion.

This module keeps the species syntax, the translation and the counting.  The
normalization of the translated system to a first-order rational system
lives in ``_species_rds``; its public names ``diffsys_to_rds``,
``rds_with_target`` and ``RHS_TERM_BUDGET`` are bound here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import cli, series
from ._expr import (
    Add,
    Const,
    DVar,
    DivE,
    Mul,
    Neg,
    Pow,
    TokenStream,
    Var,
    nary,
    statements,
)
from ._species_rds import RHS_TERM_BUDGET, diffsys_to_rds, rds_with_target
from .compile import RDS, compile_rda
from .core import record
from .errors import (
    BadCardinality,
    NonIntegerCount,
    ParseError,
    UnknownName,
    UnsupportedConstruct,
    nesting_guard,
)


# ---------------------------------------------------------------------------
# species AST and parser


@record
class SpSeq:
    arg: object
    card: tuple = None  # ("eq"|"ge", k)


@record
class SpSet:
    arg: object
    card: tuple = None


@record
class SpCycle:
    arg: object


@record
class SpeciesSpec:
    equations: tuple  # of (name, species expression), order significant

    def names(self):
        return [n for n, _ in self.equations]

    def expression(self, name: str):
        for n, e in self.equations:
            if n == name:
                return e
        raise UnknownName(f"species {name!r} is not defined")


_CONSTRUCTS = {"set", "sequence", "cycle"}
_RESERVED = _CONSTRUCTS | {"X", "x"}


@nesting_guard(ParseError)
def parse_species(text: str) -> SpeciesSpec:
    """Parse `Name = expr` lines into a specification."""
    ts = None  # the statement being read, for the helpers below
    equations = []

    def expr():
        terms = [term()]
        while ts.accept("+"):
            terms.append(term())
        return nary(Add, terms)

    def term():
        factors = [factor()]
        while ts.accept("*"):
            factors.append(factor())
        return nary(Mul, factors)

    def factor():
        tok = ts.peek()
        if tok.kind == "number":
            ts.next()
            if tok.text != "1":
                raise ParseError(
                    f"the only literal species is 1, found {tok.text}", tok.line, tok.column
                )
            return Const(Fraction(1))
        if tok.kind == "(":
            ts.next()
            inner = expr()
            ts.expect(")")
            return inner
        if tok.kind != "name":
            raise ParseError(
                f"expected a species, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        ts.next()
        if tok.text in _CONSTRUCTS:
            ts.expect("(")
            arg = expr()
            card = None
            if ts.accept(","):
                card = cardinality()
            ts.expect(")")
            if tok.text == "set":
                return SpSet(arg, card)
            if tok.text == "sequence":
                return SpSeq(arg, card)
            if card is not None:
                raise BadCardinality(
                    "cycle does not take a cardinality constraint", tok.line, tok.column
                )
            return SpCycle(arg)
        return Var(tok.text)

    def cardinality():
        tok = ts.expect("name")
        if tok.text != "card":
            raise BadCardinality("expected card=k or card>=k", tok.line, tok.column)
        op = ts.peek()
        if ts.accept("="):
            kind = "eq"
        elif ts.accept(">="):
            kind = "ge"
        else:
            raise BadCardinality("expected card=k or card>=k", op.line, op.column)
        k = ts.expect("number")
        return (kind, int(k.text))

    for stmt in statements(text):
        ts = TokenStream(stmt)
        name_tok = ts.expect("name")
        if name_tok.text in _RESERVED:
            raise ParseError(
                f"{name_tok.text!r} cannot be defined", name_tok.line, name_tok.column
            )
        ts.expect("=")
        equations.append((name_tok.text, expr()))
        ts.expect_end()
    if not equations:
        raise ParseError("empty species specification")
    names = [n for n, _ in equations]
    if len(set(names)) != len(names):
        raise ParseError("a species is defined twice")
    spec = SpeciesSpec(tuple(equations))
    defined = set(names)
    for name, e in equations:
        for ref in _references(e):
            if ref not in defined:
                raise UnknownName(f"species {ref!r} is not defined")
    return spec


def _references(expr, out=None):
    if out is None:
        out = set()
    if isinstance(expr, Var) and expr.name != "X":
        out.add(expr.name)
    elif isinstance(expr, (Add, Mul)):
        for arg in expr.args:
            _references(arg, out)
    elif isinstance(expr, (SpSeq, SpSet, SpCycle)):
        _references(expr.arg, out)
    return out


# ---------------------------------------------------------------------------
# empty-set counts (initial values)


def _empty_count(e, values: dict) -> Fraction:
    """Structures of e on the empty label set, given those of every name."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return Fraction(0) if e.name == "X" else values[e.name]
    if isinstance(e, Add):
        return sum(_empty_count(arg, values) for arg in e.args)
    if isinstance(e, Mul):
        return math.prod(_empty_count(arg, values) for arg in e.args)
    if isinstance(e, (SpSeq, SpSet)):
        if e.card and e.card[1] >= 1:
            return Fraction(0)
        return Fraction(1)
    if isinstance(e, SpCycle):
        return Fraction(0)
    raise TypeError(f"not a species node: {e!r}")


def _inhabited(e, names: set) -> bool:
    """Whether e has a structure of some size, given the names that do."""
    if isinstance(e, (Add, Mul)):
        return (any if isinstance(e, Add) else all)(_inhabited(arg, names) for arg in e.args)
    if isinstance(e, SpCycle) or isinstance(e, (SpSeq, SpSet)) and e.card and e.card[1]:
        return _inhabited(e.arg, names)
    return not isinstance(e, Var) or e.name in names or e.name == "X"


# sequence(A) and set(A) have a nonzero derivative at A = 0 under these
_LINEAR_CARDS = {("ge", 0), ("ge", 1), ("eq", 1)}


def _linear_refs(e, values: dict, names: set) -> set:
    """The names, of ``names``, in which e has a nonzero partial at X = 0
    and the counts ``values``; no partial is negative."""
    if isinstance(e, Var):
        return {e.name} & names
    if isinstance(e, Add):
        return set().union(*(_linear_refs(arg, values, names) for arg in e.args))
    if isinstance(e, Mul):  # a factor counts if the others are nonzero
        counts = [_empty_count(arg, values) for arg in e.args]
        return set().union(*(_linear_refs(arg, values, names) for i, arg in enumerate(e.args)
                             if math.prod(counts[:i] + counts[i + 1:])))
    if isinstance(e, SpCycle) or (
            isinstance(e, (SpSeq, SpSet)) and (e.card or ("ge", 0)) in _LINEAR_CARDS):
        return _linear_refs(e.arg, values, names)
    return set()


def _refuse_ill_founded(spec: SpeciesSpec, values: dict):
    """Refuse a name with structures that depends on itself through nonzero
    partials at X = 0 and ``values``: the implicit-species condition wants
    the Jacobian in those names nilpotent."""
    inhabited = set()
    while len(inhabited) < len(grown := {n for n, e in spec.equations if _inhabited(e, inhabited)}):
        inhabited = grown
    # peel the names that depend on no name left; a walk in the rest closes a cycle
    left = {name: _linear_refs(expr, values, inhabited) for name, expr in spec.equations}
    while done := [name for name, refs in left.items() if refs.isdisjoint(left)]:
        for name in done:
            del left[name]
    if left:
        walk = [next(iter(left))]
        while walk.count(walk[-1]) < 2:
            walk.append(min(left[walk[-1]] & left.keys()))
        raise UnsupportedConstruct(
            f"ill-founded recursion {' -> '.join(walk[walk.index(walk[-1]):])}: the species"
            " would have infinitely many structures of some size"
        )


def empty_counts(spec: SpeciesSpec) -> dict:
    """Structures on the empty label set, as a least fixpoint, of a
    well-founded recursion."""
    values = {name: Fraction(0) for name in spec.names()}
    for _ in range(len(values) + 2):
        new = {name: _empty_count(expr, values) for name, expr in spec.equations}
        if new == values:
            break
        values = new
    else:  # a name then depends on itself at the last iterate
        _refuse_ill_founded(spec, values)
        raise UnsupportedConstruct("empty-set counts do not stabilize; bad recursion")
    _refuse_ill_founded(spec, values)

    def check(e):
        if isinstance(e, (Add, Mul)):
            for arg in e.args:
                check(arg)
        elif isinstance(e, (SpSeq, SpSet, SpCycle)):
            if _empty_count(e.arg, values) != 0:
                raise UnsupportedConstruct(
                    "set/sequence/cycle need an argument with no empty-set structure"
                )
            check(e.arg)

    for _, e in spec.equations:
        check(e)
    return values


# ---------------------------------------------------------------------------
# translation to a differential system over EGF variables


@record
class DiffEqSystem:
    """Equations over EGF variables: ("alg", v, rhs) meaning v = rhs, or
    ("diff", v, rhs) meaning v' = rhs; rhs may mention other variables,
    their first derivatives, and x, which the normalization reads as the
    independent variable: no other variable may be named x."""

    equations: tuple  # of (kind, name, Expr)
    init: dict  # name -> Fraction

    def names(self):
        return [name for _, name, _ in self.equations]


# the largest j whose j! a set's cardinality may need: 10^5! takes 0.09 s to
# compute and has 456,574 digits; a larger j is refused before any work
FACTORIAL_LIMIT = 10**5


def _power(w: str, j: int, card: tuple):
    """w^j / j! as an expression, for a set with constraint ``card``."""
    if j > FACTORIAL_LIMIT:
        op = "=" if card[0] == "eq" else ">="
        raise UnsupportedConstruct(
            f"set(..., card{op}{card[1]}) needs {j}!, past the limit of {FACTORIAL_LIMIT}!"
        )
    if j == 0:
        return Const(Fraction(1))
    return Mul((Const(Fraction(1, math.factorial(j))), Pow(Var(w), j)))


def species_to_diffsys(spec: SpeciesSpec) -> DiffEqSystem:
    counts = empty_counts(spec)
    equations = []
    init = {}
    taken = set(spec.names())
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"z{counter[0]}"
            if name not in taken:
                taken.add(name)
                return name

    def ensure_var(e) -> str:
        """A variable name whose series is the EGF of e."""
        t = translate(e)
        if isinstance(t, Var):
            return t.name
        name = fresh()
        equations.append(("alg", name, t))
        init[name] = _empty_count(e, counts)
        return name

    def translate(e, bind: str = None):
        """Translate e; when bind is given, make that the defining variable."""
        if isinstance(e, Var) and e.name == "X":
            return Var("x")  # the atom's EGF
        if isinstance(e, (Const, Var)):
            return e
        if isinstance(e, (Add, Mul)):
            return type(e)(tuple(map(translate, e.args)))
        if isinstance(e, SpSeq):
            w = ensure_var(e.arg)
            one_minus = Add((Const(Fraction(1)), Neg(Var(w))))
            if e.card is None:
                return DivE(Const(Fraction(1)), one_minus)
            kind, k = e.card
            if kind == "eq":
                return Pow(Var(w), k) if k != 0 else Const(Fraction(1))
            return DivE(Pow(Var(w), k), one_minus)
        if isinstance(e, SpSet):
            w = ensure_var(e.arg)
            kind, k = e.card or ("ge", 0)
            if kind == "eq":
                return _power(w, k, e.card)
            # u = set(A, card>=k-1), so that v = u - A^(k-1)/(k-1)! and v' = A'*u
            u = bind if (e.card is None and bind) else fresh()
            grow = Var(u) if k <= 1 else Add((Var(u), _power(w, k - 2, e.card)))
            equations.append(("diff", u, Mul((grow, DVar(w)))))
            init[u] = Fraction(1 if k <= 1 else 0)
            return Var(u) if k == 0 else Add((Var(u), Neg(_power(w, k - 1, e.card))))
        if isinstance(e, SpCycle):
            w = ensure_var(e.arg)
            v = bind if bind else fresh()
            one_minus = Add((Const(Fraction(1)), Neg(Var(w))))
            equations.append(("diff", v, DivE(DVar(w), one_minus)))
            init[v] = Fraction(0)
            return Var(v)
        raise TypeError(f"not a species node: {e!r}")

    for name, e in spec.equations:
        result = translate(e, bind=name)
        if isinstance(e, (SpSet, SpCycle)) and result == Var(name):
            continue  # the construct bound itself to this name
        equations.append(("alg", name, result))
        init[name] = counts[name]
    return DiffEqSystem(tuple(equations), init)


# ---------------------------------------------------------------------------
# counting


def species_to_rds(spec: SpeciesSpec, target: str = None) -> RDS:
    """Full pipeline: translate the equations the target reaches, normalize,
    and put the target first."""
    if target is None:
        target = spec.names()[0]
    spec.expression(target)
    defining, reached, todo = dict(spec.equations), set(), [target]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_references(defining[name]))
    spec = SpeciesSpec(tuple((n, e) for n, e in spec.equations if n in reached))
    rds = diffsys_to_rds(species_to_diffsys(spec))
    return rds_with_target(rds, target)


def count_species(spec: SpeciesSpec, target: str = None, n_max: int = 10):
    """Numbers of labelled structures of sizes 0..n_max, via the automaton."""
    rds = species_to_rds(spec, target)
    prefix = series.generating_prefix(compile_rda(rds), n_max)
    counts, factorial = [], 1
    for n, c in enumerate(prefix.coefficients):
        factorial *= n or 1
        count, rest = divmod(c.numerator * factorial, c.denominator)
        if rest or count < 0:
            raise NonIntegerCount(
                f"count at size {n} is {c * factorial}, not a nonnegative integer"
            )
        counts.append(count)
    return counts


# ---------------------------------------------------------------------------
# the `species` command


def _cmd_species(args) -> int:
    spec = parse_species(cli._read(args.file))
    if args.action == "count":
        print(" ".join(str(c) for c in count_species(spec, args.target, args.n)))
    else:
        cli._write_automaton(compile_rda(species_to_rds(spec, args.target)), args.output)
    return cli.EXIT_OK
