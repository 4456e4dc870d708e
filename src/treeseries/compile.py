"""The rational-system compiler: first-order ODE systems into automata.

Rational systems (compile_rda): the system Q_j(y) y_j' = x P_j(y) is first
reduced so every polynomial has degree at most two (chaining long monomials
through fresh variables), then each shifted coefficient v_{n+1} is written in
the normal form

    A(n) + sum_h B_h(n, n-1) h_n + sum_{h,g} sum_l C_{h,g}(n, l, n-1-l) h_l g_{n-1-l}

whose B rows become the unary weight and C cells the binary weight.

The other source languages (recurrences, polynomial systems, differential
equations) and the Taylor oracle are names of this module too, but live in
``_languages``, which runs on the first read of one of them (``__getattr__``
below): species and ``compile rda`` never use them.
"""

from __future__ import annotations

from fractions import Fraction

from . import _languages
from ._expr import Const, TokenStream, expr_variables, parse_expression, to_ratfunc, tokenize
from ._record import record
from .core import Automaton, RankedAlphabet
from .errors import InvariantError, NotRDA, ParseError, ZeroPolynomial, nesting_guard
from .exactmath import MultiPolynomial, SizeRational, UniPolynomial, _frac

# names of this module that _languages defines
_LANGUAGE_NAMES = frozenset((
    "DAEquation", "DFiniteRecurrence", "compile_cda", "compile_dfinite", "da_to_rds",
    "parse_da", "parse_dfinite", "taylor_oracle",
))


def __getattr__(name):
    if name in _LANGUAGE_NAMES:
        return getattr(_languages, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# source-language values


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
class RecurrenceNormalForm:
    """One coordinate's shifted-coefficient recurrence: constant part A(x0),
    lag-one parts B_h(x0, x1), convolution parts C_{h,g}(x0, x1, x2)."""

    a: SizeRational
    b: dict  # coordinate key -> SizeRational of arity 1
    c: dict  # (coordinate key, coordinate key) -> SizeRational of arity 2


# ---------------------------------------------------------------------------
# the rational-system compiler


# Most chain variables the degree reduction may introduce.  A monomial of
# degree m needs up to m - 2 of them, each a coordinate of the compiled
# automaton, and the compile time and output grow with the square of their
# number: y' = y^150 (148 chains) takes about 1 s and writes 1.5 MB, y' =
# y^322 (320, the budget) 4 s and 6.7 MB.  The bench, gold and sample systems
# need at most 62.
RDA_CHAIN_BUDGET = 320


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
    A reduction that needs more than RDA_CHAIN_BUDGET chain variables raises
    InvariantError.
    """
    if not s.is_rda:
        raise NotRDA("a right-hand side denominator vanishes at the initial point")
    k = len(s.variables)
    raw = [p for pair in s.rhs for p in pair]  # P1, Q1, P2, Q2, ...
    reduced, chains = reduce_degree_two(raw, k)
    if len(chains) > RDA_CHAIN_BUDGET:
        raise InvariantError(
            f"reducing the system to degree two needs {len(chains)} chain variables,"
            f" more than {RDA_CHAIN_BUDGET}; its monomials are too long"
        )
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
