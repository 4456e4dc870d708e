"""Compilers for the source languages other than rational systems, and the
Taylor oracle.

* DFiniteRecurrence: a linear recurrence with polynomial coefficients maps to
  a dimension-k automaton over one nullary and one unary symbol that shifts a
  window of k consecutive sequence values.
* Polynomial systems (compile_cda): each monomial of degree l becomes an
  l-ary symbol whose weight distributes 1/x0 across the product of child
  coefficient vectors.
* DAEquation: a differential equation P(y, y', ..., y^(n)) = 0 with its
  initial jet, rewritten as a first-order rational system (da_to_rds) that
  compile_rda compiles.

taylor_oracle solves a rational system coefficient by coefficient straight
from the defining equations and never touches automata; it is the
independent check for every compiler.  ``compile`` offers every name here as
its own and runs this module on the first read of one of them, so the
rational-system path (``compile rda``, species) never compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from . import cli, series
from ._expr import RatFunc, Token, TokenStream, expr_variables, parse_expression, statements, to_ratfunc
from .compile import RDS, _at_zero, _index_tuple, _parse_init_clause, parse_rds
from .core import Automaton, RankedAlphabet, record, row_index
from .errors import (
    InvalidJet,
    LeadingRoot,
    NotPolynomial,
    NotRDA,
    ParseError,
    SeparantVanishes,
    ZeroPolynomial,
    nesting_guard,
)
from .exactmath import (
    MultiPolynomial,
    SizeRational,
    UniPolynomial,
    poly_integer_roots,
    _frac,
)


# ---------------------------------------------------------------------------
# source-language values


@record
class DFiniteRecurrence:
    """Q0(n) a_n + Q1(n) a_{n-1} + ... + Qk(n) a_{n-k} = 0 for n >= k,
    with initial values a_0 .. a_{k-1} and Q0(n) != 0 for all n >= k."""

    qs: tuple  # UniPolynomial Q0..Qk
    init: tuple  # Fraction a0..a_{k-1}

    def __post_init__(self):
        k = self.order
        if k < 1:
            raise ZeroPolynomial("recurrence must have order at least 1")
        if len(self.init) != k:
            raise LeadingRoot(f"need exactly {k} initial values")
        q0 = self.qs[0]
        if q0.is_zero:
            raise ZeroPolynomial("leading polynomial must be nonzero")
        bad = {r for r in poly_integer_roots(q0) if r >= k}
        if bad:
            raise LeadingRoot(
                f"leading polynomial vanishes at admissible index(es) {sorted(bad)}"
            )

    @property
    def order(self) -> int:
        return len(self.qs) - 1


@record
class DAEquation:
    """A differential polynomial P(y, y', ..., y^(n)) with an initial jet."""

    poly: MultiPolynomial  # over n+1 variables: index i is y^(i)
    jet: tuple  # of Fraction, length n or n+1 (top value optional when linear)

    def __post_init__(self):
        if self.order < 1:
            raise ZeroPolynomial("differential equation must have order >= 1")
        if len(self.jet) not in (self.order, self.order + 1):
            raise InvalidJet(
                f"jet must give y(0) .. y^({self.order - 1})(0) and optionally"
                f" y^({self.order})(0)"
            )

    @property
    def order(self) -> int:
        return self.poly.nvars - 1


# ---------------------------------------------------------------------------
# the Taylor oracle


def taylor_oracle(s: RDS, n_max: int) -> dict:
    """Solve the system coefficient by coefficient; exact, automaton-free.

    From Q_j(y) y_j' = P_j(y): the x^n coefficient pins (n+1) Q_j(y(0)) times
    y_{j,n+1} against quantities of order <= n, so coefficients are forced
    one at a time (this is the uniqueness argument, run forwards).
    """
    if not s.is_rda:
        raise NotRDA("a right-hand side denominator vanishes at the initial point")
    k = len(s.variables)
    ys = [[s.init[j]] for j in range(k)]
    for n in range(n_max):
        # compositions P_j(y), Q_j(y) truncated to order n, from coefficients <= n
        for j in range(k):
            p, q = s.rhs[j]
            p_ser = _poly_on_series(p, ys, n + 1)
            q_ser = _poly_on_series(q, ys, n + 1)
            rhs = p_ser[n]
            for ell in range(1, n + 1):
                rhs -= q_ser[ell] * (n + 1 - ell) * ys[j][n + 1 - ell]
            ys[j].append(rhs / ((n + 1) * q_ser[0]))
    return {
        s.variables[j]: series.SeriesPrefix(tuple(ys[j][: n_max + 1])) for j in range(k)
    }


def _poly_on_series(p: MultiPolynomial, ys, length: int):
    """Coefficients 0..length-1 of p(y_1(x), ..., y_k(x))."""
    out = [Fraction(0)] * length
    pow_cache = {}  # j -> [None, y_j, y_j^2, ...], each power from the one before

    def var_power(j, e):
        if j not in pow_cache:
            pow_cache[j] = [None, [ys[j][i] if i < len(ys[j]) else Fraction(0)
                                   for i in range(length)]]
        powers = pow_cache[j]
        while len(powers) <= e:
            powers.append(_trunc_mul(powers[-1], powers[1], length))
        return powers[e]

    for exps, coeff in p.terms.items():
        term = None
        for j, e in enumerate(exps):
            if e == 0:
                continue
            factor = var_power(j, e)
            term = factor if term is None else _trunc_mul(term, factor, length)
        if term is None:
            out[0] += coeff
        else:
            for i in range(length):
                out[i] += coeff * term[i]
    return out


def _trunc_mul(a, b, length: int):
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(min(len(b), length - i)):
            if b[j] != 0:
                out[i + j] += x * b[j]
    return out


# ---------------------------------------------------------------------------
# D-finite and polynomial-system compilers


def compile_dfinite(r: DFiniteRecurrence) -> Automaton:
    """Automaton over {sigma0/0, sigma1/1} whose coefficient vector at size n
    is the window (a_n, ..., a_{n+k-1})."""
    k = r.order
    alphabet = RankedAlphabet.of(("sigma0", 0), ("sigma1", 1))
    shifted = [q.shift_argument(k) for q in r.qs]  # arguments land at x1 + k
    q0 = shifted[0]
    cells = {}
    for j in range(k):
        if j >= 1:
            cells[(j, j - 1)] = SizeRational.const(1, 1)
        num = MultiPolynomial.from_uni(-shifted[k - j], 2, 1)
        cells[(j, k - 1)] = SizeRational(num, [UniPolynomial.const(1), q0])
    return Automaton.build(
        k, alphabet, {"sigma0": [list(r.init)], "sigma1": cells}
    )


def _monomial_tuples(p: MultiPolynomial):
    """(coefficient, sorted variable-index tuple) per monomial of p."""
    return [
        (c, _index_tuple(exps))
        for exps, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]


def compile_cda(s: RDS) -> Automaton:
    """Automaton for a polynomial system: dimension k+1, with one extra
    coordinate whose series is the indicator of size 0, feeding constant
    monomials through the unary symbol exactly once (at size 1)."""
    if not s.is_polynomial():
        raise NotPolynomial("compile_cda needs polynomial right-hand sides")
    k = len(s.variables)
    d = k + 1
    polys = []
    for p, q in s.rhs:
        c = q.constant_value()
        polys.append(p if c == 1 else p.scale(1 / c))
    r = max((max((sum(e) for e in p.terms), default=0) for p in polys), default=0)
    symbols = [("eps", 0), ("sigma", 1)] + [(f"g{l}", l) for l in range(1, r + 1)]
    alphabet = RankedAlphabet.of(*symbols)

    def alpha_over_x0(arity: int, c) -> SizeRational:
        num = MultiPolynomial.const(arity + 1, c)
        dens = [UniPolynomial.x()] + [UniPolynomial.const(1)] * arity
        return SizeRational(num, dens)

    weights = {"eps": [list(s.init) + [Fraction(1)]]}
    # The extra coordinate must vanish for sizes >= 1: a constant monomial
    # contributes to the coefficient of x^1 only, so the unary symbol reads
    # it from a coordinate that is 1 at size 0 and 0 afterwards.
    sigma = {}
    for j, p in enumerate(polys):
        const = p.terms.get((0,) * k)
        if const:
            sigma[(k, j)] = alpha_over_x0(1, const)
    weights["sigma"] = sigma
    for l in range(1, r + 1):
        cells = {}
        for j, p in enumerate(polys):
            for c, tup in _monomial_tuples(p):
                if len(tup) == l:
                    cells[(row_index(tup, d), j)] = alpha_over_x0(l, c)
        weights[f"g{l}"] = cells
    return Automaton.build(d, alphabet, weights)


# ---------------------------------------------------------------------------
# differential equations to systems


def da_to_rds(e: DAEquation) -> RDS:
    """Rewrite P(y, y', ..., y^(n)) = 0 as a first-order rational system.

    When P is linear in the top derivative it is solved for y^(n) directly,
    giving n variables (y, ..., y^(n-1)).  Otherwise the equation is
    differentiated once and solved for y^(n+1) via the separant S = dP/dy^(n),
    giving n+1 variables.  Fails loudly when the relevant coefficient
    vanishes at the jet."""
    n = e.order
    nvars = n + 1
    if e.poly.degree_in(n) == 1:
        lead = e.poly.partial(n)  # in y^(<n) only, since the top degree is 1
        # y^(n) set to 0: the part of P free of the top derivative
        lead_low = lead.restrict(range(n))
        rest_low = e.poly.restrict(range(n))
        jet = tuple(_frac(v) for v in e.jet[:n])
        if len(e.jet) == nvars and e.poly(e.jet) != 0:
            raise InvalidJet("the jet does not satisfy the equation")
        if lead_low(jet) == 0:
            raise SeparantVanishes(
                "leading coefficient of the top derivative vanishes at the jet"
            )
        variables = tuple("y" + "'" * i for i in range(n))
        rhs = [
            (MultiPolynomial.var(n, i + 1), MultiPolynomial.const(n, 1))
            for i in range(n - 1)
        ]
        rhs.append((-rest_low, lead_low))
        return RDS(variables, tuple(rhs), jet)
    if len(e.jet) != nvars:
        raise InvalidJet(f"need the full jet y(0) .. y^({n})(0) for this equation")
    if e.poly(e.jet) != 0:
        raise InvalidJet("the jet does not satisfy the equation")
    separant = e.poly.partial(n)
    rest = MultiPolynomial(nvars)
    for i in range(n):
        rest = rest + e.poly.partial(i) * MultiPolynomial.var(nvars, i + 1)
    if separant(e.jet) == 0:
        raise SeparantVanishes("separant vanishes at the jet")
    variables = tuple("y" + "'" * i for i in range(nvars))
    rhs = [
        (MultiPolynomial.var(nvars, i + 1), MultiPolynomial.const(nvars, 1))
        for i in range(n)
    ]
    rhs.append((-rest, separant))
    return RDS(variables, tuple(rhs), tuple(_frac(v) for v in e.jet))


# ---------------------------------------------------------------------------
# text formats


@nesting_guard(ParseError)
def parse_dfinite(text: str) -> DFiniteRecurrence:
    """Parse `Q0(n)*a(n) + Q1(n)*a(n-1) + ... = 0 ; a(0)=..., a(1)=...`.

    A statement that starts `name(number` is an initial clause; exactly one
    other statement is the recurrence.  Its left side is lowered by
    ``to_ratfunc`` over n and one variable per shift, and read as a form
    linear in those; the order is the largest shift written."""
    recurrence, init = None, {}
    for stmt in statements(text):
        if [tok.kind for tok in stmt[:3]] == ["name", "(", "number"]:
            _parse_init_clause(TokenStream(stmt), init, _of_a)
        elif recurrence is None:
            recurrence = stmt
        else:
            raise ParseError("a second recurrence", stmt[0].line, stmt[0].column)
    if recurrence is None:
        raise ParseError("no recurrence equation found")
    tokens, shifts = _shift_names(recurrence)
    ts = TokenStream(tokens)
    lhs = parse_expression(ts)
    ts.expect("=")
    zero = ts.expect("number")
    if zero.text != "0":
        raise ParseError("recurrence must be equated to 0", zero.line, zero.column)
    ts.expect_end()
    if not shifts:
        raise ParseError("the recurrence has no term a(...)")
    k = max(shifts)
    # checked before anything of size k is built, so that k <= len(init)
    missing = next((i for i in range(k) if i not in init), None)
    if missing is not None:
        raise ParseError(f"missing initial value(s) a({missing})")
    names = {"n": 0, **{f"a(n-{i})": i + 1 for i in range(k + 1)}}
    rf = to_ratfunc(lhs, names, k + 2)
    if not rf.is_polynomial():
        raise ParseError("recurrence coefficients must be polynomials in n")
    qs = [[0] * (rf.num.degree_in(0) + 1) for _ in range(k + 1)]
    for exps, c in rf.num.terms.items():
        if sum(exps[1:]) != 1:
            raise ParseError("every term must be a polynomial in n times one a(...)")
        qs[exps.index(1, 1) - 1][exps[0]] = c  # the term's a(n-i) is variable i + 1
    return DFiniteRecurrence(tuple(map(UniPolynomial, qs)), tuple(init[i] for i in range(k)))


def _of_a(name, name_tok, k_tok):
    """The rule of recurrences: values of a, keyed by the index."""
    if name != "a":
        raise ParseError("initial values use a(i)=...", name_tok.line, name_tok.column)
    return int(k_tok.text)


def _shift_names(tokens):
    """The tokens of a recurrence with each run `a(<n - k>)`, k a nonnegative
    integer, made one name token `a(n-k)`, which no input can spell, and
    the set of shifts k written."""
    ts, out, shifts = TokenStream(tokens), [], set()
    while True:
        tok = ts.next()
        if tok.kind == "name" and tok.text == "a" and ts.accept("("):
            shift = RatFunc.var(1, 0) - to_ratfunc(parse_expression(ts), {"n": 0}, 1)
            ts.expect(")")
            k = shift.num.constant_value() if shift.is_polynomial() else None
            if k is None or k < 0 or k.denominator != 1:
                raise ParseError("a(...) argument must be n or n-<int>", tok.line, tok.column)
            shifts.add(int(k))
            tok = Token("name", f"a(n-{int(k)})", tok.line, tok.column)
        out.append(tok)
        if tok.kind == "end":
            return out, shifts


@nesting_guard(ParseError)
def parse_da(text: str) -> DAEquation:
    """Parse a differential polynomial in y, y', y'', ... plus a jet clause."""
    stmts = statements(text)
    if len(stmts) < 2:
        raise ParseError("expected `polynomial ; jet values`")
    init = {}
    for stmt in stmts[1:]:
        _parse_init_clause(TokenStream(stmt), init, _at_zero)
    ts = TokenStream(stmts[0])
    expr = parse_expression(ts)
    ts.expect_end()
    order = max(name.count("'") for name in expr_variables(expr, primed=True))
    var_index = {"y" + "'" * i: i for i in range(order + 1)}
    rf = to_ratfunc(expr, var_index, order + 1)
    if not rf.is_polynomial():
        raise ParseError("differential equation must be polynomial")
    poly = rf.num
    jet = []
    for i in range(order + 1):
        name = "y" + "'" * i
        if name not in init:
            if i == order:
                break  # the top value is optional when the equation is linear in it
            raise ParseError(f"missing jet value {name}(0)")
        jet.append(init[name])
    return DAEquation(poly, tuple(jet))


# ---------------------------------------------------------------------------
# the `taylor` command


def _cmd_taylor(args) -> int:
    rds = parse_rds(cli._read(args.file))
    result = taylor_oracle(rds, args.n)
    for name in rds.variables:
        print(f"{name}: " + " ".join(str(v) for v in result[name].coefficients))
    return cli.EXIT_OK
