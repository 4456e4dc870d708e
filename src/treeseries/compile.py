"""The rational-system compiler: first-order ODE systems into automata.

Rational systems (compile_rda): the system Q_j(y) y_j' = x P_j(y) is first
reduced so every polynomial has degree at most two (a long monomial is split
in halves, each half of two or more variables a fresh variable split the same
way), then each shifted coefficient v_{n+1} is written in the normal form

    sum_h B_h(n, n-1) h_n + sum_{h,g} sum_l C_{h,g}(n, l, n-1-l) h_l g_{n-1-l}

whose B rows become the unary weight and C cells the binary weight.
Constants vanish after the shift, so there is no constant term and no
all-ones coordinate.

The other source languages (recurrences, polynomial systems, differential
equations) and the Taylor oracle are names of this module too, but live in
``_languages``, which runs on the first read of one of them (``__getattr__``
below): species and ``compile rda`` never use them.
"""

from __future__ import annotations

from fractions import Fraction

from . import _languages
from ._expr import Const, TokenStream, expr_variables, parse_expression, statements, to_ratfunc
from ._record import record
from .core import Automaton, RankedAlphabet, row_index
from .errors import NotRDA, ParseError, ZeroPolynomial, nesting_guard
from .exactmath import MultiPolynomial, SizeRational, UniPolynomial, _ONE, _frac

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


# ---------------------------------------------------------------------------
# the rational-system compiler


def _index_tuple(exps) -> tuple:
    """The sorted variable-index tuple of a monomial: index i repeated exps[i]
    times."""
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def reduce_degree_two(polys, k: int):
    """Rewrite polynomials over y_0..y_{k-1} so every monomial has degree at
    most two, chaining longer monomials through fresh variables.

    A monomial of degree m >= 3, as its exponent vector, becomes the product
    of its two halves: the first m // 2 units of the vector in index order,
    and the rest.  A half of degree one is that variable; a longer half is a
    fresh variable split the same way, and equal halves share one.  So y^m
    needs at most 2 log2(m) fresh variables (a product of m distinct
    variables, m - 2), and the work is linear in k per fresh variable,
    whatever the exponents.

    Returns (rewritten polys over k+s variables, chains) where chains[m] =
    (exps, (u, v)): the fresh variable k+m denotes the monomial with
    exponent vector exps and is defined as the product of variables u and
    v, both below k+m.  Monomials are processed in graded lexicographic
    order.
    """
    chain_var = {}
    chains = []

    def var(exps, degree):
        if degree == 1:
            return exps.index(1)
        if exps not in chain_var:
            factors = halves(exps, degree)
            chain_var[exps] = k + len(chains)
            chains.append((exps, factors))
        return chain_var[exps]

    def halves(exps, degree):
        left, rest = [], degree // 2
        for e in exps:
            take = min(e, rest)
            left.append(take)
            rest -= take
        right = tuple(e - l for e, l in zip(exps, left))
        return var(tuple(left), degree // 2), var(right, degree - degree // 2)

    long_monomials = {exps for p in polys for exps in p.terms if sum(exps) > 2}
    split = {
        exps: halves(exps, sum(exps))
        for exps in sorted(long_monomials, key=lambda e: (sum(e), e))
    }
    nvars = k + len(chains)

    def rewrite(p: MultiPolynomial) -> MultiPolynomial:
        pad = (0,) * len(chains)
        return MultiPolynomial(nvars, {
            _exps_for(nvars, split[exps]) if exps in split else exps + pad: c
            for exps, c in p.terms.items()
        })

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


def _add(terms: dict, key, sr: SizeRational):
    terms[key] = terms[key] + sr if key in terms else sr


def _add_scaled(terms: dict, c: Fraction, form: dict):
    for key, sr in form.items():
        _add(terms, key, sr.scale(c))


def _inv_shifted_x0(scale: Fraction) -> SizeRational:
    """1 / (scale * (x0 + 1)) as a SizeRational of arity 1."""
    num = MultiPolynomial.const(2, 1 / scale)
    return SizeRational(num, [UniPolynomial((1, 1)), _ONE])


def rda_normal_forms(s: RDS):
    """Shifted-coefficient normal forms for every coordinate of the reduced
    system, plus supporting data.

    Returns (order, forms, pairs) where order lists the kept coordinate
    keys, forms maps every Gamma variable to its normal form, a dict
    {sources: SizeRational} whose key (h,) holds B_h (arity 1) and (h, g)
    holds C_{h,g} (arity 2), and pairs maps variables to order-1 series
    values.
    """
    z0 = [q(s.init) for _, q in s.rhs]
    if 0 in z0:
        raise NotRDA("a right-hand side denominator vanishes at the initial point")
    k = len(s.variables)
    raw = [p for pair in s.rhs for p in pair]  # P1, Q1, P2, Q2, ...
    reduced, chains = reduce_degree_two(raw, k)
    w_defs = reduced[0::2]
    z_defs = reduced[1::2]
    n_chain = len(chains)

    # order-1 (value, first-derivative-coefficient) pairs for every variable
    w0 = [p(s.init) for p, _ in s.rhs]
    duals = [_dual(s.init[j], w0[j] / z0[j]) for j in range(k)]
    for _, (u, v) in chains:
        duals.append(_dual_mul(duals[u], duals[v]))
    pairs = {("y", j): duals[j] for j in range(k)}
    for m in range(n_chain):
        pairs[("t", m)] = duals[k + m]
    for j in range(k):
        pairs[("z", j)] = _poly_on_duals(z_defs[j], duals)
        pairs[("w", j)] = _poly_on_duals(w_defs[j], duals)

    # merge rule: constants vanish after the shift, single unit monomials
    # alias a y or t variable, which has a form of its own; reps[key] is
    # None, (c, alias) or (1, key)
    reps = {}

    def classify(key, poly):
        if poly.constant_value() is not None:
            reps[key] = None
            return
        if len(poly.terms) == 1:
            exps, c = next(iter(poly.terms.items()))
            if sum(exps) == 1:
                reps[key] = (c, _gamma_key(exps.index(1), k))
                return
        reps[key] = (Fraction(1), key)

    for j in range(k):
        classify(("z", j), z_defs[j])
        classify(("w", j), w_defs[j])

    forms = {}
    # coefficient recurrences for the y's
    for j in range(k):
        terms = {}
        w_ref = reps[("w", j)]
        if w_ref is not None:
            terms[(w_ref[1],)] = _inv_shifted_x0(z0[j]).scale(w_ref[0])
        z_ref = reps[("z", j)]
        if z_ref is not None:
            # -(x2+1)/(z0_j (x0+1)) on the ordered pair (z_j, y_j)
            c = -z_ref[0] / z0[j]
            num = MultiPolynomial(3, {(0, 0, 1): c, (0, 0, 0): c})
            terms[(z_ref[1], ("y", j))] = SizeRational(num, [UniPolynomial((1, 1)), _ONE, _ONE])
        forms[("y", j)] = terms

    def add_product(terms, coeff, i, j):
        """Add coeff times the form of the product u v of the variables of
        indices i <= j: u0 v' + v0 u' + the convolution term (u, v), where '
        is the variable's own form."""
        u, v = _gamma_key(i, k), _gamma_key(j, k)
        u0, v0 = pairs[u][0], pairs[v][0]
        if v0:
            _add_scaled(terms, coeff * v0, forms[u])
        if u0:
            _add_scaled(terms, coeff * u0, forms[v])
        _add(terms, (u, v), SizeRational.const(2, coeff))

    def form_of_poly(poly: MultiPolynomial) -> dict:
        terms = {}
        for exps, coeff in poly.terms.items():
            deg = sum(exps)
            if deg == 1:
                _add_scaled(terms, coeff, forms[_gamma_key(exps.index(1), k)])
            elif deg == 2:
                add_product(terms, coeff, *_index_tuple(exps))
            elif deg:
                raise AssertionError("degree > 2 survived reduction")
            # constants have no coefficient beyond order 0
        return terms

    for m, (_, factors) in enumerate(chains):
        forms[("t", m)] = terms = {}
        add_product(terms, Fraction(1), *sorted(factors))
    for j in range(k):
        if reps[("z", j)] == (Fraction(1), ("z", j)):
            forms[("z", j)] = form_of_poly(z_defs[j])
        if reps[("w", j)] == (Fraction(1), ("w", j)):
            forms[("w", j)] = form_of_poly(w_defs[j])

    order = [("y", j) for j in range(k)]
    order += [("z", j) for j in range(k) if ("z", j) in forms]
    order += [("w", j) for j in range(k) if ("w", j) in forms]
    order += [("t", m) for m in range(n_chain)]
    return order, forms, pairs


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
    order, forms, pairs = rda_normal_forms(s)
    pos = {key: i for i, key in enumerate(["target"] + order)}
    d = len(pos)
    weights = {
        "eps": [[s.init[0]] + [pairs[key][1] for key in order]],
        "sigma1": {(pos[("y", 0)], 0): SizeRational.const(1, 1)},
        "sigma2": {},
    }
    for key in order:
        for sources, sr in forms[key].items():
            if not sr.is_zero:
                cell = (row_index([pos[h] for h in sources], d), pos[key])
                weights[f"sigma{len(sources)}"][cell] = sr
    alphabet = RankedAlphabet.of(("eps", 0), ("sigma1", 1), ("sigma2", 2))
    return Automaton.build(d, alphabet, weights)


# ---------------------------------------------------------------------------
# text formats


@nesting_guard(ParseError)
def parse_rds(text: str) -> RDS:
    """Parse lines `name' = expr` plus initial clauses `name(0)=p/q`.

    The name `x` may be used freely on right-hand sides; if it has no
    equation of its own it is appended as a variable with x' = 1, x(0) = 0.
    """
    equations = []
    init = {}
    for stmt in statements(text):
        ts = TokenStream(stmt)
        if stmt[1].kind == "(":
            _parse_init_clause(ts, init, _at_zero)
            continue
        first = ts.expect("name")
        ts.expect("prime")
        ts.expect("=")
        rhs = parse_expression(ts)
        ts.expect_end()
        equations.append((first.text, rhs))
    names = [name for name, _ in equations]
    if not names:
        raise ParseError("no equation `name' = expr`")
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


def _parse_init_clause(ts: TokenStream, out: dict, rule):
    """Read the statement `name'...(k) = p/q, ...` into ``out``.  The caller's
    ``rule(name, name_token, k_token)`` refuses what its format does not
    allow and returns the key of the value; a key given twice is refused."""
    while True:
        name_tok = ts.expect("name")
        name = name_tok.text
        while ts.accept("prime"):
            name += "'"
        ts.expect("(")
        k_tok = ts.expect("number")
        ts.expect(")")
        key = rule(name, name_tok, k_tok)
        if key in out:
            raise ParseError(
                f"initial value {name}({k_tok.text}) given twice", name_tok.line, name_tok.column
            )
        ts.expect("=")
        sign = -1 if ts.accept("-") else 1
        num, den = int(ts.expect("number").text), 1
        if ts.accept("/"):
            tok = ts.expect("number")
            den = int(tok.text)
            if den == 0:
                raise ParseError("division by zero", tok.line, tok.column)
        out[key] = Fraction(sign * num, den)
        if not ts.accept(","):
            break
    ts.expect_end()


def _at_zero(name, name_tok, k_tok):
    """The rule of rational systems and differential equations: values at 0,
    keyed by the (primed) name."""
    if k_tok.text != "0":
        raise ParseError("initial values are given at 0", k_tok.line, k_tok.column)
    return name
