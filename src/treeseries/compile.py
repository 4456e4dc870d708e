"""Compilers turning recurrences and first-order ODE systems into automata.

Three source languages, in increasing generality:

* DFiniteRecurrence: a linear recurrence with polynomial coefficients maps to
  a dimension-k automaton over one nullary and one unary symbol that shifts a
  window of k consecutive sequence values.
* Polynomial systems (compile_cda): each monomial of degree l becomes an
  l-ary symbol whose weight distributes 1/x0 across the product of child
  coefficient vectors.
* Rational systems (compile_rda): the system Q_j(y) y_j' = x P_j(y) is first
  reduced so every polynomial has degree at most two (chaining long monomials
  through fresh variables), then each shifted coefficient v_{n+1} is written
  in the normal form

      A(n) + sum_h B_h(n, n-1) h_n + sum_{h,g} sum_l C_{h,g}(n, l, n-1-l) h_l g_{n-1-l}

  whose B rows become the unary weight and C cells the binary weight.

taylor_oracle solves a rational system coefficient by coefficient straight
from the defining equations and never touches automata; it is the
independent check for every compiler in this module.
"""

from __future__ import annotations

from fractions import Fraction

from . import series
from ._expr import (
    Add,
    Call,
    Const,
    DivE,
    Mul,
    Neg,
    Pow,
    TokenStream,
    Var,
    expr_variables,
    nary,
    parse_expression,
    to_ratfunc,
    tokenize,
)
from ._record import record
from .core import Automaton, RankedAlphabet, row_index
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
        bad = {r for r in poly_integer_roots(q0) if r >= k} if q0.degree >= 1 else set()
        if bad:
            raise LeadingRoot(
                f"leading polynomial vanishes at admissible index(es) {sorted(bad)}"
            )

    @property
    def order(self) -> int:
        return len(self.qs) - 1

    def unroll(self, n_max: int) -> series.SeriesPrefix:
        """Direct term-by-term solution; the oracle for compile_dfinite."""
        k = self.order
        values = list(self.init)
        for n in range(k, n_max + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.qs[i](n) * values[n - i]
            values.append(-acc / self.qs[0](n))
        return series.SeriesPrefix(tuple(values[: n_max + 1]))


@record
class RDS:
    """First-order rational dynamical system y_i' = P_i(y)/Q_i(y) with the
    target series in the first variable."""

    variables: tuple  # of names
    rhs: tuple  # of (P, Q) MultiPolynomial pairs over len(variables) vars
    init: tuple  # of Fraction, one per variable

    def __post_init__(self):
        k = len(self.variables)
        if len(self.rhs) != k or len(self.init) != k:
            raise NotRDA("need one right-hand side and one initial value per variable")
        for p, q in self.rhs:
            if q.is_zero:
                raise ZeroPolynomial("right-hand side denominator is zero")

    @property
    def is_rda(self) -> bool:
        return all(q(self.init) != 0 for _, q in self.rhs)

    def is_polynomial(self) -> bool:
        return all(q.constant_value() is not None for _, q in self.rhs)


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


@record
class RecurrenceNormalForm:
    """One coordinate's shifted-coefficient recurrence: constant part A(x0),
    lag-one parts B_h(x0, x1), convolution parts C_{h,g}(x0, x1, x2)."""

    a: SizeRational
    b: dict  # coordinate key -> SizeRational of arity 1
    c: dict  # (coordinate key, coordinate key) -> SizeRational of arity 2


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
    out = []
    for exps, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        tup = []
        for i, e in enumerate(exps):
            tup.extend([i] * e)
        out.append((c, tuple(tup)))
    return out


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
# the rational-system compiler


def reduce_degree_two(polys, k: int):
    """Rewrite polynomials over y_0..y_{k-1} so every monomial has degree at
    most two, chaining longer monomials through fresh variables.

    Returns (rewritten polys over k+s variables, chains) where chains[m] is
    the sorted index tuple whose product the m-th fresh variable denotes;
    its defining equation is t_m = y_{first} * t_{rest} (or y_a * y_b for a
    pair).  Monomials are processed in graded lexicographic order.
    """
    chain_index = {}
    chains = []

    def ensure_chain(tup):
        # every suffix of two or more indices, shortest first
        for start in range(len(tup) - 2, -1, -1):
            suffix = tup[start:]
            if suffix not in chain_index:
                chain_index[suffix] = len(chains)
                chains.append(suffix)

    monomials = set()
    for p in polys:
        for exps in p.terms:
            if sum(exps) > 2:
                monomials.add(exps)
    for exps in sorted(monomials, key=lambda e: (sum(e), e)):
        tup = []
        for i, e in enumerate(exps):
            tup.extend([i] * e)
        ensure_chain(tuple(tup[1:]))
    s = len(chains)
    nvars = k + s

    def rewrite(p: MultiPolynomial) -> MultiPolynomial:
        terms = {}
        for exps, c in p.terms.items():
            if sum(exps) <= 2:
                key = exps + (0,) * s
            else:
                tup = []
                for i, e in enumerate(exps):
                    tup.extend([i] * e)
                key = [0] * nvars
                key[tup[0]] += 1
                key[k + chain_index[tuple(tup[1:])]] += 1
                key = tuple(key)
            terms[key] = terms.get(key, Fraction(0)) + c
        return MultiPolynomial(nvars, terms)

    return [rewrite(p) for p in polys], chains


def _dual(a0, a1=Fraction(0)):
    return (_frac(a0), _frac(a1))


def _dual_mul(u, v):
    return (u[0] * v[0], u[0] * v[1] + u[1] * v[0])


def _poly_on_duals(p: MultiPolynomial, duals):
    acc = _dual(0)
    for exps, c in p.terms.items():
        term = _dual(c)
        for j, e in enumerate(exps):
            for _ in range(e):
                term = _dual_mul(term, duals[j])
        acc = (acc[0] + term[0], acc[1] + term[1])
    return acc


class _NF:
    """Mutable accumulator for one coordinate's normal form."""

    def __init__(self):
        self.a = SizeRational(MultiPolynomial(1))
        self.b = {}
        self.c = {}

    def add_b(self, key, sr: SizeRational):
        self.b[key] = self.b[key] + sr if key in self.b else sr

    def add_c(self, pair, sr: SizeRational):
        self.c[pair] = self.c[pair] + sr if pair in self.c else sr

    def add_scaled(self, coeff: Fraction, other: "_NF"):
        if coeff == 0:
            return
        if not other.a.is_zero:
            self.a = self.a + other.a.scale(coeff)
        for key, sr in other.b.items():
            self.add_b(key, sr.scale(coeff))
        for pair, sr in other.c.items():
            self.add_c(pair, sr.scale(coeff))

    def freeze(self) -> RecurrenceNormalForm:
        return RecurrenceNormalForm(self.a, dict(self.b), dict(self.c))


def _inv_shifted_x0(scale: Fraction) -> SizeRational:
    """1 / (scale * (x0 + 1)) as a SizeRational of arity 0."""
    num = MultiPolynomial.const(1, 1 / scale)
    return SizeRational(num, [UniPolynomial((1, 1))])


def rda_normal_forms(s: RDS):
    """Shifted-coefficient normal forms for every coordinate of the reduced
    system, plus supporting data.

    Returns (order, forms, pairs, chains) where order lists the kept
    coordinate keys, forms maps every Gamma variable to its
    RecurrenceNormalForm, and pairs maps variables to order-1 series values.
    """
    if not s.is_rda:
        raise NotRDA("a right-hand side denominator vanishes at the initial point")
    k = len(s.variables)
    raw = [p for pair in s.rhs for p in pair]  # P1, Q1, P2, Q2, ...
    reduced, chains = reduce_degree_two(raw, k)
    w_defs = reduced[0::2]
    z_defs = reduced[1::2]
    n_chain = len(chains)
    nvars = k + n_chain

    # order-1 (value, first-derivative-coefficient) pairs for every variable
    z0 = [q(s.init) for _, q in s.rhs]
    w0 = [p(s.init) for p, _ in s.rhs]
    duals = [_dual(s.init[j], w0[j] / z0[j]) for j in range(k)]
    for tup in chains:
        acc = _dual(1)
        for i in tup:
            acc = _dual_mul(acc, duals[i])
        duals.append(acc)
    pairs = {("y", j): duals[j] for j in range(k)}
    for m in range(n_chain):
        pairs[("t", m)] = duals[k + m]
    for j in range(k):
        pairs[("z", j)] = _poly_on_duals(z_defs[j], duals)
        pairs[("w", j)] = _poly_on_duals(w_defs[j], duals)

    # merge rule: constants vanish after the shift, single unit monomials alias
    reps = {}

    def classify(key, poly):
        if poly.constant_value() is not None:
            reps[key] = None
            return
        if len(poly.terms) == 1:
            exps, c = next(iter(poly.terms.items()))
            if sum(exps) == 1:
                i = exps.index(1)
                target = ("y", i) if i < k else ("t", i - k)
                reps[key] = (c, target)
                return
        reps[key] = (Fraction(1), key)

    for j in range(k):
        classify(("z", j), z_defs[j])
        classify(("w", j), w_defs[j])

    def resolve(key):
        if key[0] in ("y", "t"):
            return (Fraction(1), key)
        rep = reps[key]
        if rep is None:
            return None
        c, target = rep
        if target == key:
            return rep
        inner = resolve(target)
        return None if inner is None else (c * inner[0], inner[1])

    forms = {}
    # coefficient recurrences for the y's
    for j in range(k):
        nf = _NF()
        inv = _inv_shifted_x0(z0[j])
        w_ref = resolve(("w", j))
        if w_ref is not None:
            nf.add_b(w_ref[1], inv.lift(1).scale(w_ref[0]))
        z_ref = resolve(("z", j))
        if z_ref is not None:
            # -(x2+1)/(z0_j (x0+1)) on the ordered pair (z_j, y_j)
            num = MultiPolynomial(3, {(0, 0, 1): -z_ref[0] / z0[j],
                                      (0, 0, 0): -z_ref[0] / z0[j]})
            sr = SizeRational(num, [UniPolynomial((1, 1)),
                                    UniPolynomial.const(1),
                                    UniPolynomial.const(1)])
            nf.add_c((z_ref[1], ("y", j)), sr)
        forms[("y", j)] = nf

    def nf_of_poly(poly: MultiPolynomial) -> _NF:
        nf = _NF()
        for exps, coeff in poly.terms.items():
            deg = sum(exps)
            if deg == 0:
                continue  # constants have no coefficient beyond order 0
            vars_used = []
            for i, e in enumerate(exps):
                vars_used.extend([i] * e)
            if deg == 1:
                u = _gamma_key(vars_used[0], k)
                nf.add_scaled(coeff, forms[u])
            elif deg == 2:
                u = _gamma_key(vars_used[0], k)
                v = _gamma_key(vars_used[1], k)
                u0, v0 = pairs[u][0], pairs[v][0]
                if v0:
                    nf.add_scaled(coeff * v0, forms[u])
                if u0:
                    nf.add_scaled(coeff * u0, forms[v])
                nf.add_c((u, v), SizeRational.const(2, coeff))
            else:
                raise AssertionError("degree > 2 survived reduction")
        return nf

    for m, tup in enumerate(chains):
        # t_m = y_{tup[0]} * (t of tup[1:])  or  y_a * y_b for a pair
        if len(tup) == 2:
            poly = MultiPolynomial(
                nvars,
                {_exps_for(nvars, (tup[0], tup[1])): Fraction(1)},
            )
        else:
            rest = k + chains.index(tup[1:])
            poly = MultiPolynomial(
                nvars, {_exps_for(nvars, (tup[0], rest)): Fraction(1)}
            )
        forms[("t", m)] = nf_of_poly(poly)
    for j in range(k):
        if resolve(("z", j)) == (Fraction(1), ("z", j)):
            forms[("z", j)] = nf_of_poly(z_defs[j])
        if resolve(("w", j)) == (Fraction(1), ("w", j)):
            forms[("w", j)] = nf_of_poly(w_defs[j])

    order = [("y", j) for j in range(k)]
    order += [("z", j) for j in range(k) if ("z", j) in forms]
    order += [("w", j) for j in range(k) if ("w", j) in forms]
    order += [("t", m) for m in range(n_chain)]
    frozen = {key: nf.freeze() for key, nf in forms.items()}
    return order, frozen, pairs, chains


def _gamma_key(index: int, k: int):
    return ("y", index) if index < k else ("t", index - k)


def _exps_for(nvars: int, indices):
    exps = [0] * nvars
    for i in indices:
        exps[i] += 1
    return tuple(exps)


def compile_rda(s: RDS) -> Automaton:
    """Automaton over {eps/0, sigma1/1, sigma2/2} whose generating function
    is the first variable's series."""
    order, forms, pairs, _ = rda_normal_forms(s)
    use_one = any(not forms[key].a.is_zero for key in order)
    coords = ["target"] + order + (["one"] if use_one else [])
    pos = {key: i for i, key in enumerate(coords)}
    d = len(coords)

    eps = [Fraction(0)] * d
    eps[0] = s.init[0]
    for key in order:
        eps[pos[key]] = pairs[key][1]
    if use_one:
        eps[pos["one"]] = Fraction(1)

    def add(cells, key, sr):
        cells[key] = cells[key] + sr if key in cells else sr

    sigma1 = {(pos[("y", 0)], 0): SizeRational.const(1, 1)}
    sigma2 = {}
    for key in order:
        nf = forms[key]
        col = pos[key]
        if use_one and not nf.a.is_zero:
            sigma1[(pos["one"], col)] = nf.a.lift(1)
        for h, sr in nf.b.items():
            if not sr.is_zero:
                add(sigma1, (pos[h], col), sr.lift(1))
        for (h, g), sr in nf.c.items():
            if not sr.is_zero:
                add(sigma2, (pos[h] * d + pos[g], col), sr.lift(2))
    if use_one:
        sigma1[(pos["one"], pos["one"])] = SizeRational.const(1, 1)

    alphabet = RankedAlphabet.of(("eps", 0), ("sigma1", 1), ("sigma2", 2))
    return Automaton.build(d, alphabet, {"eps": [eps], "sigma1": sigma1, "sigma2": sigma2})


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
        images = [MultiPolynomial.var(n, i) for i in range(n)] + [
            MultiPolynomial.const(n, 0)
        ]
        lead_low = lead.compose(images)
        rest_low = e.poly.compose(images)
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


def _split_statements(text: str):
    parts = []
    for chunk in text.replace("\r", "").split("\n"):
        parts.extend(chunk.split(";"))
    return [p for p in (part.strip() for part in parts) if p]


@nesting_guard(ParseError)
def parse_rds(text: str) -> RDS:
    """Parse lines `name' = expr` plus initial clauses `name(0)=p/q`.

    The name `x` may be used freely on right-hand sides; if it has no
    equation of its own it is appended as a variable with x' = 1, x(0) = 0.
    """
    equations = []
    init = {}
    for stmt in _split_statements(text):
        ts = TokenStream(tokenize(stmt))
        first = ts.expect("name")
        if ts.peek().kind == "(":
            _parse_init_clause(stmt, init)
            continue
        ts.expect("prime")
        ts.expect("=")
        rhs = parse_expression(ts)
        ts.expect_end()
        equations.append((first.text, rhs))
    names = [name for name, _ in equations]
    if len(set(names)) != len(names):
        raise ParseError("duplicate equation for a variable")
    referenced = set()
    for _, rhs in equations:
        expr_variables(rhs, referenced)
    if "x" in referenced and "x" not in names:
        equations.append(("x", Const(Fraction(1))))
        init.setdefault("x", Fraction(0))
    names = [name for name, _ in equations]
    unknown = referenced - set(names)
    if unknown:
        raise ParseError(f"variables {sorted(unknown)} have no equation")
    missing = [n for n in names if n not in init]
    if missing:
        raise ParseError(f"missing initial value(s) for {missing}")
    var_index = {n: i for i, n in enumerate(names)}
    rhs_pairs = []
    for _, rhs in equations:
        rf = to_ratfunc(rhs, var_index, len(names))
        rhs_pairs.append((rf.num, rf.den))
    return RDS(tuple(names), tuple(rhs_pairs), tuple(init[n] for n in names))


def _parse_init_clause(stmt: str, out: dict):
    ts = TokenStream(tokenize(stmt))
    while True:
        name = ts.expect("name").text
        primes = 0
        while ts.accept("prime"):
            primes += 1
        name = name + "'" * primes
        ts.expect("(")
        zero = ts.expect("number")
        if zero.text != "0":
            raise ParseError("initial values are given at 0", zero.line, zero.column)
        ts.expect(")")
        ts.expect("=")
        out[name] = _parse_rational(ts)
        if not ts.accept(","):
            break
    ts.expect_end()


def _parse_rational(ts: TokenStream) -> Fraction:
    sign = 1
    if ts.accept("-"):
        sign = -1
    num = int(ts.expect("number").text)
    if ts.accept("/"):
        tok = ts.expect("number")
        den = int(tok.text)
        if den == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


@nesting_guard(ParseError)
def parse_dfinite(text: str) -> DFiniteRecurrence:
    """Parse `Q0(n)*a(n) + Q1(n)*a(n-1) + ... = 0 ; a(0)=..., a(1)=...`."""
    statements = _split_statements(text)
    recurrence = None
    init = {}
    for stmt in statements:
        if "=" in stmt and stmt.lstrip().startswith("a") and "(" in stmt.split("=")[0] and "n" not in stmt.split("=")[0]:
            _parse_dfinite_init(stmt, init)
        else:
            recurrence = stmt
    if recurrence is None:
        raise ParseError("no recurrence equation found")
    ts = TokenStream(tokenize(recurrence))
    lhs = parse_expression(ts, allow_calls=True)
    ts.expect("=")
    zero = ts.expect("number")
    if zero.text != "0":
        raise ParseError("recurrence must be equated to 0", zero.line, zero.column)
    coeffs = {}
    _collect_linear_in_a(lhs, UniPolynomial.const(1), coeffs)
    k = max(coeffs)
    qs = [coeffs.get(i, UniPolynomial()) for i in range(k + 1)]
    missing = [i for i in range(k) if i not in init]
    if missing:
        raise ParseError(f"missing initial value(s) a({missing[0]})")
    return DFiniteRecurrence(tuple(qs), tuple(init[i] for i in range(k)))


def _parse_dfinite_init(stmt: str, out: dict):
    ts = TokenStream(tokenize(stmt))
    while True:
        name = ts.expect("name")
        if name.text != "a":
            raise ParseError("initial values use a(i)=...", name.line, name.column)
        ts.expect("(")
        index = int(ts.expect("number").text)
        ts.expect(")")
        ts.expect("=")
        out[index] = _parse_rational(ts)
        if not ts.accept(","):
            break


def _collect_linear_in_a(expr, scale: UniPolynomial, out: dict):
    """Flatten sums of polynomial-in-n multiples of a(n-i) terms."""
    if isinstance(expr, Add):
        for arg in expr.args:
            _collect_linear_in_a(arg, scale, out)
        return
    if isinstance(expr, Neg):
        _collect_linear_in_a(expr.arg, -scale, out)
        return
    if isinstance(expr, Mul):
        with_a = [i for i, arg in enumerate(expr.args) if _mentions_a(arg)]
        if len(with_a) > 1:
            raise ParseError("recurrence must be linear in a(...)")
        if with_a:
            i = with_a[0]
            rest = expr.args[:i] + expr.args[i + 1 :]
            coeff = to_ratfunc(nary(Mul, rest), {"n": 0}, 1)
            if not coeff.is_polynomial():
                raise ParseError("recurrence coefficients must be polynomials in n")
            _collect_linear_in_a(expr.args[i], scale * coeff.num.to_uni(0), out)
            return
    if isinstance(expr, Call) and expr.name == "a":
        shift = _parse_shift(expr)
        out[shift] = out.get(shift, UniPolynomial()) + scale
        return
    raise ParseError("term is not a polynomial multiple of a(...)")


def _mentions_a(expr) -> bool:
    if isinstance(expr, Call):
        return expr.name == "a" or any(_mentions_a(arg) for arg in expr.args)
    if isinstance(expr, (Add, Mul)):
        return any(_mentions_a(arg) for arg in expr.args)
    if isinstance(expr, DivE):
        return _mentions_a(expr.left) or _mentions_a(expr.right)
    if isinstance(expr, Neg):
        return _mentions_a(expr.arg)
    if isinstance(expr, Pow):
        return _mentions_a(expr.base)
    return False


def _parse_shift(call: Call) -> int:
    if len(call.args) != 1:
        raise ParseError("a(...) takes one argument")
    arg = call.args[0]
    if isinstance(arg, Var) and arg.name == "n":
        return 0
    if isinstance(arg, Add) and len(arg.args) == 2:
        left, right = arg.args
        if isinstance(left, Var) and left.name == "n" and isinstance(right, Neg) and isinstance(right.arg, Const):
            return int(right.arg.value)
    raise ParseError("a(...) argument must be n or n-<int>")


@nesting_guard(ParseError)
def parse_da(text: str) -> DAEquation:
    """Parse a differential polynomial in y, y', y'', ... plus a jet clause."""
    statements = _split_statements(text)
    if len(statements) < 2:
        raise ParseError("expected `polynomial ; jet values`")
    poly_text = statements[0]
    init = {}
    for stmt in statements[1:]:
        _parse_init_clause(stmt, init)
    ts = TokenStream(tokenize(poly_text))
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
