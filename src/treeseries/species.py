"""Combinatorial species: parsing, translation to differential systems over
exponential generating functions, and normalization to first-order rational
systems.

The supported constructions are 1, X, named references, +, *, sequence, set,
and cycle, with cardinality constraints card=k and card>=k on sequence and
set.  Each construct contributes equations over EGF variables:

    set(A):       v' = v * A'            v(0) = 1
    set(A,>=k):   u' = u * A', v = u - sum_{j<k} A^j / j!
    set(A,=k):    v = A^k / k!
    sequence(A):  v = 1 / (1 - A)        (and the card variants v = A^k ...)
    cycle(A):     v' = A' / (1 - A)      v(0) = 0

all requiring A(0) = 0.  Initial values come from counting structures on the
empty label set, computed as a least fixpoint over the specification.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import series
from ._expr import (
    Add,
    Const,
    DVar,
    DivE,
    Mul,
    Neg,
    Pow,
    RatFunc,
    TokenStream,
    Var,
    expr_variables,
    nary,
    to_ratfunc,
    tokenize,
)
from ._record import record
from .compile import RDS, compile_rda
from .errors import (
    BadCardinality,
    InvariantError,
    NonIntegerCount,
    NonlinearInDerivatives,
    ParseError,
    SingularInitialValues,
    UnknownName,
    UnsupportedConstruct,
    nesting_guard,
)
from .exactmath import MultiPolynomial, _frac


# ---------------------------------------------------------------------------
# species AST and parser


@record
class SpOne:
    pass


@record
class SpX:
    pass


@record
class SpRef:
    name: str


@record
class SpSum:
    args: tuple  # two or more summands


@record
class SpProd:
    args: tuple  # two or more factors


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

# Most terms, numerator and denominator together, that normalization lets a
# right-hand side reach.  Solving for the derivatives multiplies
# denominators, so each level of cycle(cycle(...)) doubles the terms; the
# largest right-hand side of the gold species and their joins has 80.
RHS_TERM_BUDGET = 2000


@nesting_guard(ParseError)
def parse_species(text: str) -> SpeciesSpec:
    """Parse `Name = expr` lines into a specification."""
    ts = TokenStream(tokenize(text))
    equations = []

    def expr():
        terms = [term()]
        while ts.accept("+"):
            terms.append(term())
        return nary(SpSum, terms)

    def term():
        factors = [factor()]
        while ts.accept("*"):
            factors.append(factor())
        return nary(SpProd, factors)

    def factor():
        tok = ts.peek()
        if tok.kind == "number":
            ts.next()
            if tok.text != "1":
                raise ParseError(
                    f"the only literal species is 1, found {tok.text}", tok.line, tok.column
                )
            return SpOne()
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
        if tok.text == "X":
            return SpX()
        return SpRef(tok.text)

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

    ts.skip_newlines()
    while ts.peek().kind != "end":
        name_tok = ts.expect("name")
        if name_tok.text in _CONSTRUCTS or name_tok.text == "X":
            raise ParseError(
                f"{name_tok.text!r} cannot be defined", name_tok.line, name_tok.column
            )
        ts.expect("=")
        equations.append((name_tok.text, expr()))
        if ts.peek().kind not in ("newline", "end", ";"):
            tok = ts.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        while ts.peek().kind in ("newline", ";"):
            ts.next()
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
    if isinstance(expr, SpRef):
        out.add(expr.name)
    elif isinstance(expr, (SpSum, SpProd)):
        for arg in expr.args:
            _references(arg, out)
    elif isinstance(expr, (SpSeq, SpSet, SpCycle)):
        _references(expr.arg, out)
    return out


# ---------------------------------------------------------------------------
# empty-set counts (initial values)


def empty_counts(spec: SpeciesSpec) -> dict:
    """Structures on the empty label set, as a least fixpoint."""
    values = {name: Fraction(0) for name in spec.names()}

    def ev(e):
        if isinstance(e, SpOne):
            return Fraction(1)
        if isinstance(e, SpX):
            return Fraction(0)
        if isinstance(e, SpRef):
            return values[e.name]
        if isinstance(e, SpSum):
            return sum(map(ev, e.args))
        if isinstance(e, SpProd):
            return math.prod(map(ev, e.args))
        if isinstance(e, (SpSeq, SpSet)):
            if e.card and e.card[1] >= 1:
                return Fraction(0)
            return Fraction(1)
        if isinstance(e, SpCycle):
            return Fraction(0)
        raise TypeError(f"not a species node: {e!r}")

    for _ in range(len(values) + 2):
        new = {name: ev(expr) for name, expr in spec.equations}
        if new == values:
            break
        values = new
    else:
        raise UnsupportedConstruct("empty-set counts do not stabilize; bad recursion")

    def check(e):
        if isinstance(e, (SpSum, SpProd)):
            for arg in e.args:
                check(arg)
        elif isinstance(e, (SpSeq, SpSet, SpCycle)):
            if ev(e.arg) != 0:
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
    their first derivatives, and x."""

    equations: tuple  # of (kind, name, Expr)
    init: dict  # name -> Fraction

    def names(self):
        return [name for _, name, _ in self.equations]


def species_to_diffsys(spec: SpeciesSpec) -> DiffEqSystem:
    counts = empty_counts(spec)
    equations = []
    init = {}
    taken = set(spec.names()) | {"x"}
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"z{counter[0]}"
            if name not in taken:
                taken.add(name)
                return name

    def sp_count(e) -> Fraction:
        if isinstance(e, SpOne):
            return Fraction(1)
        if isinstance(e, SpX):
            return Fraction(0)
        if isinstance(e, SpRef):
            return counts[e.name]
        if isinstance(e, SpSum):
            return sum(map(sp_count, e.args))
        if isinstance(e, SpProd):
            return math.prod(map(sp_count, e.args))
        if isinstance(e, (SpSeq, SpSet)):
            return Fraction(0) if (e.card and e.card[1] >= 1) else Fraction(1)
        return Fraction(0)

    def ensure_var(e) -> str:
        """A variable name whose series is the EGF of e."""
        if isinstance(e, SpX):
            return "x"
        if isinstance(e, SpRef):
            return e.name
        t = translate(e)
        if isinstance(t, Var):
            return t.name
        name = fresh()
        equations.append(("alg", name, t))
        init[name] = sp_count(e)
        return name

    def truncation(w: str, k: int):
        """sum_{j<k} w^j / j! as an expression."""
        terms = [Const(Fraction(1))]
        for j in range(1, k):
            terms.append(Mul((Const(Fraction(1, math.factorial(j))), Pow(Var(w), j))))
        return nary(Add, terms)

    def translate(e, bind: str = None):
        """Translate e; when bind is given, make that the defining variable."""
        if isinstance(e, SpOne):
            return Const(Fraction(1))
        if isinstance(e, SpX):
            return Var("x")
        if isinstance(e, SpRef):
            return Var(e.name)
        if isinstance(e, SpSum):
            return Add(tuple(map(translate, e.args)))
        if isinstance(e, SpProd):
            return Mul(tuple(map(translate, e.args)))
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
            if e.card is not None and e.card[0] == "eq":
                k = e.card[1]
                if k == 0:
                    return Const(Fraction(1))
                return Mul((Const(Fraction(1, math.factorial(k))), Pow(Var(w), k)))
            full = bind if (e.card is None and bind) else fresh()
            equations.append(("diff", full, Mul((Var(full), DVar(w)))))
            init[full] = Fraction(1)
            if e.card is None:
                return Var(full)
            k = e.card[1]
            if k == 0:
                return Var(full)
            return Add((Var(full), Neg(truncation(w, k))))
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
        if isinstance(result, Var) and result.name == name:
            continue  # the construct bound itself to this name
        equations.append(("alg", name, result))
        init[name] = counts[name]
    return DiffEqSystem(tuple(equations), init)


# ---------------------------------------------------------------------------
# normalization to a first-order rational system


def differentiate(expr):
    """d/dx of an AST over power-series variables: Var(v) -> DVar(v); the
    distinguished name "x" differentiates to 1."""
    if isinstance(expr, Const):
        return Const(Fraction(0))
    if isinstance(expr, Var):
        if expr.name == "x":
            return Const(Fraction(1))
        return DVar(expr.name)
    if isinstance(expr, DVar):
        raise NonlinearInDerivatives("second derivatives are not supported")
    if isinstance(expr, Add):
        return Add(tuple(differentiate(arg) for arg in expr.args))
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg))
    if isinstance(expr, Mul):
        args = expr.args
        return Add(
            tuple(
                Mul(args[:i] + (differentiate(arg),) + args[i + 1 :])
                for i, arg in enumerate(args)
            )
        )
    if isinstance(expr, DivE):
        # (a/b)' = a'/b - a b'/b^2
        return Add(
            (
                DivE(differentiate(expr.left), expr.right),
                Neg(
                    DivE(
                        Mul((expr.left, differentiate(expr.right))),
                        Pow(expr.right, 2),
                    )
                ),
            )
        )
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return Const(Fraction(0))
        return Mul(
            (
                Const(Fraction(expr.exponent)),
                Pow(expr.base, expr.exponent - 1),
                differentiate(expr.base),
            )
        )
    raise TypeError(f"not an expression node: {expr!r}")


def to_linear_in_derivatives(expr, var_index: dict, nvars: int):
    """Write an AST as  constant + sum coeff_v * v'  with RatFunc parts.

    Raises NonlinearInDerivatives when a derivative occurs inside a product
    of derivatives, a denominator, or a power.
    """
    if isinstance(expr, DVar):
        if expr.name not in var_index:
            raise ParseError(f"unknown variable {expr.name!r}")
        return RatFunc.const(nvars, 0), {expr.name: RatFunc.const(nvars, 1)}
    if isinstance(expr, (Const, Var)):
        return to_ratfunc(expr, var_index, nvars), {}
    if isinstance(expr, Add):
        const, lin = to_linear_in_derivatives(expr.args[0], var_index, nvars)
        for arg in expr.args[1:]:
            c, l = to_linear_in_derivatives(arg, var_index, nvars)
            const = const + c
            for k, v in l.items():
                lin[k] = lin[k] + v if k in lin else v
        return const, lin
    if isinstance(expr, Neg):
        c, lin = to_linear_in_derivatives(expr.arg, var_index, nvars)
        return -c, {k: -v for k, v in lin.items()}
    if isinstance(expr, Mul):
        const, lin = to_linear_in_derivatives(expr.args[0], var_index, nvars)
        for arg in expr.args[1:]:
            c, l = to_linear_in_derivatives(arg, var_index, nvars)
            if lin and l:
                raise NonlinearInDerivatives("product of two derivative terms")
            if l:
                const, lin, c = c, l, const
            const, lin = const * c, {k: v * c for k, v in lin.items()}
        return const, lin
    if isinstance(expr, DivE):
        c1, l1 = to_linear_in_derivatives(expr.left, var_index, nvars)
        c2, l2 = to_linear_in_derivatives(expr.right, var_index, nvars)
        if l2:
            raise NonlinearInDerivatives("derivative inside a denominator")
        return c1 / c2, {k: v / c2 for k, v in l1.items()}
    if isinstance(expr, Pow):
        c, lin = to_linear_in_derivatives(expr.base, var_index, nvars)
        if lin:
            if expr.exponent == 1:
                return c, lin
            raise NonlinearInDerivatives("derivative inside a power")
        return c.pow(expr.exponent), {}
    raise TypeError(f"not an expression node: {expr!r}")


def diffsys_to_rds(dsys: DiffEqSystem, initial=None) -> RDS:
    """Differentiate the algebraic equations and solve the resulting system,
    linear in the derivatives, for every derivative at once.

    ``initial`` may override or supply initial values by name.
    """
    init = dict(dsys.init)
    if initial:
        init.update({k: _frac(v) for k, v in initial.items()})
    names = list(dsys.names())
    referenced = set()
    for _, _, rhs in dsys.equations:
        expr_variables(rhs, referenced)
    use_x = "x" in referenced
    if use_x and "x" not in names:
        names.append("x")
        init["x"] = Fraction(0)
    missing = [n for n in names if n not in init]
    if missing:
        raise InvariantError(f"missing initial value(s) for {missing}")
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)

    # rows: D_v - sum coeff_u D_u = const
    rows = {}
    for kind, name, rhs in dsys.equations:
        expr = rhs if kind == "diff" else differentiate(rhs)
        const, lin = to_linear_in_derivatives(expr, index, nvars)
        rows[name] = (const, lin)
    if use_x and "x" not in rows:
        rows["x"] = (RatFunc.const(nvars, 1), {})

    solved = {}
    pending = dict(rows)
    while pending:
        progressed = False
        for name in list(pending):
            const, lin = pending[name]
            unresolved = [u for u in lin if u not in solved and u != name]
            if unresolved:
                continue
            for u, coeff in lin.items():
                if u == name:
                    continue
                const = _budgeted(const + coeff * solved[u], name)
            self_coeff = lin.get(name)
            if self_coeff is not None:
                denom = RatFunc.const(nvars, 1) - self_coeff
                if denom.is_zero:
                    raise NonlinearInDerivatives(
                        f"cannot solve for {name}': degenerate linear system"
                    )
                const = _budgeted(const / denom, name)
            solved[name] = const
            del pending[name]
            progressed = True
        if not progressed:
            _solve_coupled(pending, solved, nvars)
            break

    point = tuple(init[n] for n in names)
    rhs = []
    for n in names:
        rf = solved[n]
        if rf.den(point) == 0:
            raise SingularInitialValues(
                f"right-hand side for {n}' is undefined at the initial values"
            )
        rhs.append((rf.num, rf.den))
    return RDS(tuple(names), tuple(rhs), point)


def _budgeted(rf: RatFunc, name: str) -> RatFunc:
    terms = len(rf.num.terms) + len(rf.den.terms)
    if terms > RHS_TERM_BUDGET:
        raise InvariantError(
            f"the right-hand side for {name}' grows past {RHS_TERM_BUDGET} terms"
            f" ({terms}); the specification nests too deeply"
        )
    return rf


def _solve_coupled(pending, solved, nvars: int):
    """Gaussian elimination for the residual coupled block."""
    names = list(pending)
    m = len(names)
    pos = {n: i for i, n in enumerate(names)}
    matrix = []
    rhs = []
    for n in names:
        const, lin = pending[n]
        row = [RatFunc.const(nvars, 0)] * m
        row[pos[n]] = RatFunc.const(nvars, 1)
        for u, coeff in lin.items():
            if u in solved:
                const = _budgeted(const + coeff * solved[u], n)
            elif u in pos:
                row[pos[u]] = row[pos[u]] - coeff
            else:
                raise NonlinearInDerivatives(f"unknown derivative {u}'")
        matrix.append(row)
        rhs.append(const)
    for col in range(m):
        pivot = None
        for r in range(col, m):
            if not matrix[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            raise NonlinearInDerivatives("derivatives are not uniquely determined")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = matrix[col][col]
        for r in range(m):
            if r == col or matrix[r][col].is_zero:
                continue
            factor = matrix[r][col] / inv
            for c in range(col, m):
                matrix[r][c] = _budgeted(matrix[r][c] - factor * matrix[col][c], names[r])
            rhs[r] = _budgeted(rhs[r] - factor * rhs[col], names[r])
    for i, n in enumerate(names):
        solved[n] = _budgeted(rhs[i] / matrix[i][i], n)
    pending.clear()


# ---------------------------------------------------------------------------
# counting


def rds_with_target(rds: RDS, name: str) -> RDS:
    """Permute an RDS so the named variable sits first (the series target)."""
    if name not in rds.variables:
        raise UnknownName(f"{name!r} is not a variable of the system")
    order = [rds.variables.index(name)] + [
        i for i in range(len(rds.variables)) if rds.variables[i] != name
    ]
    nvars = len(rds.variables)
    images = [None] * nvars
    for new_pos, old_pos in enumerate(order):
        images[old_pos] = MultiPolynomial.var(nvars, new_pos)
    permuted = []
    for i in order:
        p, q = rds.rhs[i]
        permuted.append((p.compose(images), q.compose(images)))
    return RDS(
        tuple(rds.variables[i] for i in order),
        tuple(permuted),
        tuple(rds.init[i] for i in order),
    )


def species_to_rds(spec: SpeciesSpec, target: str = None, initial=None) -> RDS:
    """Full pipeline: translate, normalize, and put the target first."""
    if target is None:
        target = spec.names()[0]
    spec.expression(target)
    rds = diffsys_to_rds(species_to_diffsys(spec), initial=initial)
    return rds_with_target(rds, target)


def count_species(spec: SpeciesSpec, target: str = None, n_max: int = 10, initial=None):
    """Numbers of labelled structures of sizes 0..n_max, via the automaton."""
    rds = species_to_rds(spec, target, initial=initial)
    prefix = series.generating_prefix(compile_rda(rds), n_max)
    counts = []
    for n, c in enumerate(prefix.coefficients):
        value = c * math.factorial(n)
        if value.denominator != 1 or value < 0:
            raise NonIntegerCount(
                f"count at size {n} is {value}, not a nonnegative integer"
            )
        counts.append(int(value))
    return counts
