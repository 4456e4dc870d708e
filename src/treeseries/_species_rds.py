"""Normalization of a species' differential system to a first-order
rational dynamical system.

``diffsys_to_rds`` lowers every equation of a ``species.DiffEqSystem``
once to a rational function over the variables and their derivatives.  A
differential equation v' = F is read off its part linear in the
derivatives; an algebraic one v = F is differentiated by the chain rule on
F = P/Q, as ``_languages.da_to_rds`` differentiates a polynomial.  One
Gaussian elimination, ``_solve``, then solves for the derivatives: one name
at a time while some name's dependencies are solved, and the coupled rest
together.  Each step of the elimination is refused before it multiplies
operands whose term counts have a product past ``SOLVE_WORK_BUDGET``, and
after when its result has more than ``RHS_TERM_BUDGET`` terms, so a
specification that nests too deeply ends in a refusal, not in minutes of
work.  ``rds_with_target`` puts the series target first.  Both relabel
variables only through ``MultiPolynomial.restrict``, which drops the
derivative slots and permutes the variables without multiplying
polynomials.  ``species`` re-exports the public names of this module.
"""

from __future__ import annotations

from fractions import Fraction

from ._expr import RatFunc, expr_variables, to_ratfunc
from ._poly import MultiPolynomial
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
RHS_TERM_BUDGET = 2000
# Most work, the product of its operands' term counts, that one step of
# ``_solve`` may do: the work of multiplying two right-hand sides of half the
# term budget.  Among the gold species, samples/*.spec and the specifications
# of seeds 1-14 of tests/test_species.py's random generator, the largest
# step of one that counts does 64,328; at about 4 us a unit (CPython 3.11,
# 2-core x86-64 VM), the budget bounds a step to a few seconds.
SOLVE_WORK_BUDGET = (RHS_TERM_BUDGET // 2) ** 2


# ---------------------------------------------------------------------------
# normalization to a first-order rational system


def diffsys_to_rds(dsys: DiffEqSystem) -> RDS:
    """Lower every equation once to a rational function, read it as linear
    in the derivatives, and solve for the derivatives."""
    init = dict(dsys.init)
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
    nvars = len(names)
    # y is variable i and y' the slot nvars + i.  The derivative of a name no
    # equation defines gets a slot past 2 * nvars, so that it is refused as
    # an unknown variable in v' = F and as a second derivative in v = F,
    # not by to_ratfunc, whose message would name the derivative instead
    slot_names = names + sorted(referenced.difference(names))
    index = {n: i for i, n in enumerate(names)}
    index.update({n + "'": nvars + i for i, n in enumerate(slot_names)})

    # rows: D_v - sum coeff_u D_u = const
    rows = {}
    for kind, name, rhs in dsys.equations:
        rf = to_ratfunc(rhs, index, nvars + len(slot_names))
        read = _linear_part if kind == "diff" else _chain_rule
        rows[name] = read(rf, slot_names, nvars)
    zero, one = RatFunc.const(nvars, 0), RatFunc.const(nvars, 1)
    if use_x and "x" not in rows:
        rows["x"] = (one, {})

    # a pass solves each name whose dependencies are solved, in order; when a
    # pass finds none, the rest is solved together
    solved = {}
    pending = dict(rows)
    while pending:
        progressed = False
        for name in list(pending):
            if all(u in solved or u == name for u in pending[name][1]):
                _solve([name], pending, solved, zero, one)
                progressed = True
        if not progressed:
            _solve(list(pending), pending, solved, zero, one)

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


def _linear_part(rf: RatFunc, slot_names: list, nvars: int):
    """(constant, {u: coefficient of u'}) of an equation v' = rf, which must
    be linear in the derivatives."""

    def slots(exps):
        used = [i for i in range(nvars, len(exps)) if exps[i]]
        if used and used[-1] >= 2 * nvars:
            raise ParseError(f"unknown variable {slot_names[used[-1] - nvars]!r}")
        return used

    if any(slots(e) for e in rf.den.terms):
        raise NonlinearInDerivatives("derivative inside a denominator")
    const, terms = {}, {}
    for e, c in rf.num.terms.items():
        used = slots(e)
        if not used:
            const[e[:nvars]] = c
        elif len(used) > 1:
            raise NonlinearInDerivatives("product of two derivative terms")
        elif e[used[0]] > 1:
            raise NonlinearInDerivatives("derivative inside a power")
        else:
            terms.setdefault(used[0], {})[e[:nvars]] = c
    den = rf.den.restrict(range(nvars))
    lin = {
        slot_names[i - nvars]: RatFunc(MultiPolynomial(nvars, terms[i]), den)
        for i in sorted(terms)
    }
    return RatFunc(MultiPolynomial(nvars, const), den), lin


def _chain_rule(rf: RatFunc, slot_names: list, nvars: int):
    """(constant, {u: coefficient of u'}) of the derivative of an equation
    v = F: v' = dF/dx + sum_u dF/du u', with u in the order of the names."""
    if any(any(e[nvars:]) for part in (rf.num, rf.den) for e in part.terms):
        raise NonlinearInDerivatives("second derivatives are not supported")
    p, q = rf.num.restrict(range(nvars)), rf.den.restrict(range(nvars))
    used = sorted({i for part in (p, q) for e in part.terms for i, k in enumerate(e) if k})
    const, lin = RatFunc.const(nvars, 0), {}
    for i in used:
        dp, dq = p.partial(i), q.partial(i)
        # RatFunc cancels no common factor, so the quotient rule would leave
        # a spare factor Q on both sides when Q does not use the variable
        d = RatFunc(dp, q) if dq.is_zero else RatFunc(dp * q - p * dq, q * q)
        if slot_names[i] == "x":
            const = d
        elif not d.is_zero:
            lin[slot_names[i]] = d
    return const, lin


def _budgeted(name: str, form, *operands: RatFunc) -> RatFunc:
    """form(*operands) for the row of ``name``, refused before it is formed
    when the operands' term counts multiply past ``SOLVE_WORK_BUDGET`` (the
    products multiply every term of one operand by every term of the next),
    and after when its terms pass ``RHS_TERM_BUDGET``."""
    work = 1
    for rf in operands:
        work *= len(rf.num.terms) + len(rf.den.terms)
    if work > SOLVE_WORK_BUDGET:
        raise InvariantError(
            f"solving for {name}' needs {work} products of terms, past {SOLVE_WORK_BUDGET};"
            " the specification nests too deeply"
        )
    rf = form(*operands)
    terms = len(rf.num.terms) + len(rf.den.terms)
    if terms > RHS_TERM_BUDGET:
        raise InvariantError(
            f"the right-hand side for {name}' grows past {RHS_TERM_BUDGET} terms"
            f" ({terms}); the specification nests too deeply"
        )
    return rf


def _plus_product(a: RatFunc, f: RatFunc, b: RatFunc) -> RatFunc:
    return a + f * b


def _minus_product(a: RatFunc, f: RatFunc, b: RatFunc) -> RatFunc:
    return a - f * b


def _solve(names: list, pending: dict, solved: dict, zero: RatFunc, one: RatFunc):
    """Gaussian elimination for the derivatives of ``names``, whose rows it
    takes out of ``pending``.  Every other derivative a row uses is in
    ``solved`` and is substituted, in the order of the row's terms.  The
    caller builds the constants 0 and 1 once, not once per name."""
    m = len(names)
    pos = {n: i for i, n in enumerate(names)}
    matrix, rhs = [], []
    for n in names:
        const, lin = pending.pop(n)
        row = [zero] * m
        row[pos[n]] = one
        for u, coeff in lin.items():
            if u in pos:
                row[pos[u]] = _budgeted(n, RatFunc.__sub__, row[pos[u]], coeff)
            else:
                const = _budgeted(n, _plus_product, const, coeff, solved[u])
        matrix.append(row)
        rhs.append(const)
    for col in range(m):
        pivot = next((r for r in range(col, m) if not matrix[r][col].is_zero), None)
        if pivot is None:
            raise NonlinearInDerivatives(
                f"cannot solve for {names[col]}': degenerate linear system"
            )
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = matrix[col][col]
        for r in range(m):
            if r == col or matrix[r][col].is_zero:
                continue
            factor = _budgeted(names[r], RatFunc.__truediv__, matrix[r][col], inv)
            for c in range(col, m):
                matrix[r][c] = _budgeted(names[r], _minus_product, matrix[r][c], factor,
                                         matrix[col][c])
            rhs[r] = _budgeted(names[r], _minus_product, rhs[r], factor, rhs[col])
    for i, n in enumerate(names):
        # RatFunc writes a pivot equal to 1 as 1/1; a row without a
        # self-coefficient is not divided
        diagonal = matrix[i][i]
        unit = diagonal.num.terms == diagonal.den.terms
        solved[n] = rhs[i] if unit else _budgeted(n, RatFunc.__truediv__, rhs[i], diagonal)


# ---------------------------------------------------------------------------
# the series target


def rds_with_target(rds: RDS, name: str) -> RDS:
    """Permute an RDS so the named variable sits first (the series target);
    the right-hand sides are relabelled by ``MultiPolynomial.restrict``."""
    if name not in rds.variables:
        raise UnknownName(f"{name!r} is not a variable of the system")
    order = [rds.variables.index(name)] + [
        i for i in range(len(rds.variables)) if rds.variables[i] != name
    ]
    rhs = (rds.rhs[i] for i in order)
    return RDS(
        tuple(rds.variables[i] for i in order),
        tuple((p.restrict(order), q.restrict(order)) for p, q in rhs),
        tuple(rds.init[i] for i in order),
    )
