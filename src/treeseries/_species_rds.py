"""Normalization of a species' differential system to a first-order
rational dynamical system.

``diffsys_to_rds`` differentiates the algebraic equations of a
``species.DiffEqSystem``, writes every equation as linear in the
derivatives, and solves for all derivatives at once; ``rds_with_target``
puts the series target first.  ``species`` re-exports every name defined
here.
"""

from __future__ import annotations

from fractions import Fraction

from ._expr import (
    Add,
    Const,
    DVar,
    DivE,
    Mul,
    Neg,
    Pow,
    RatFunc,
    Var,
    expr_variables,
    to_ratfunc,
)
from ._poly import MultiPolynomial, _frac
from .compile import RDS
from .errors import (
    InvariantError,
    NonlinearInDerivatives,
    ParseError,
    SingularInitialValues,
    UnknownName,
)

# Most terms, numerator and denominator together, that normalization lets a
# right-hand side reach.  Solving for the derivatives multiplies
# denominators, so each level of cycle(cycle(...)) doubles the terms; the
# largest right-hand side of the gold species and their joins has 80.
# species checks set(A, card>=k) against it before writing out its k + 1 terms.
RHS_TERM_BUDGET = 2000


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
# the series target


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
