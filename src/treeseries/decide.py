"""Zeroness and equivalence decisions, and the defining differential system.

The generating function of an automaton is the unique power-series solution
of an explicit differential system built from the common-denominator form of
its weights.  That uniqueness yields an effective zeroness bound

    B = D^(M 2^M),   M = d (s+2) (1 + sum_k |Sigma_k| k) + 1,   D = max arity

so a zero prefix of length B+1 certifies the zero series.  For D >= 2 the
bound is astronomical and never materialized: verdicts report it lazily and
honest partial scans return ZeroUpTo.  For D = 0 there are no trees of
positive size, so B = 0.  For D = 1 the system's generators are affine and
the bound degenerates to the variable-count term; B = M is used (the printed
D^(M 2^M) = 1 would wrongly certify, e.g., the series x^2 from its first two
coefficients).

Tree-series zeroness reduces to generating-function zeroness of the squared
(Hadamard) automaton, whose coefficients are sums of squares.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .closure import gf_add, gf_scale, ts_add, ts_hadamard, ts_scale
from .core import Automaton, Tree, enumerate_trees, evaluate, format_tree
from .errors import TooManyTrees
from .exactmath import CommonDenominatorForm, format_unipoly
from .series import (
    CoefficientStream,
    ConvolutionEngine,
    VectorSeriesPrefix,
    common_form,
    initial_vector,
)


# ---------------------------------------------------------------------------
# the zeroness bound


@record
class ZeroBound:
    dimension: int
    max_arity: int  # D
    s: int
    m: int  # M
    exponent: int  # M * 2^M, exact

    def __repr__(self):
        # the exact exponent has about M/3 digits; M is enough to rebuild it
        return (
            f"ZeroBound(dimension={self.dimension}, max_arity={self.max_arity},"
            f" s={self.s}, m={self.m}, exponent={self.m}*2^{self.m})"
        )

    def small_value(self):
        """B as an int when D <= 1, else None (B = D^exponent, astronomical)."""
        if self.max_arity == 0:
            return 0
        if self.max_arity == 1:
            return self.m
        return None

    def cap_reaches(self, cap: int) -> bool:
        """Exact comparison cap >= B without materializing B."""
        small = self.small_value()
        if small is not None:
            return cap >= small
        if cap <= 0:
            return False
        if self.exponent >= cap.bit_length():
            return False  # D^E >= 2^E > cap
        return self.max_arity**self.exponent <= cap

    def describe(self) -> str:
        small = self.small_value()
        if small is not None:
            return str(small)
        return f"{self.max_arity}^{self.exponent}"

    def to_json_dict(self) -> dict:
        small = self.small_value()
        if small is not None:
            return {"value": small}
        return {"base": self.max_arity, "exponent": str(self.exponent)}


def compute_bound(a: Automaton, form: CommonDenominatorForm = None) -> ZeroBound:
    """The bound for a; ``form`` is its common-denominator form, if at hand."""
    if form is None:
        form = common_form(a)
    s = form.r
    if form.q0.degree > s:
        s = form.q0.degree
    for dec in form.symbols.values():
        for q in dec.child_denominators:
            if q.degree > s:
                s = q.degree
    weighted = sum(k * count for k, count in a.alphabet.arity_counts().items() if k > 0)
    m = a.dimension * (s + 2) * (1 + weighted) + 1
    d_arity = a.alphabet.max_arity
    return ZeroBound(a.dimension, d_arity, s, m, m * (2**m))


# ---------------------------------------------------------------------------
# verdicts


@record
class ProvenZero:
    bound: ZeroBound

    def to_json_dict(self):
        return {"verdict": "proven_zero", "bound": self.bound.to_json_dict()}


@record
class ZeroUpTo:
    n: int
    bound: ZeroBound

    def to_json_dict(self):
        return {"verdict": "zero_up_to", "n": self.n, "bound": self.bound.to_json_dict()}


@record
class NonzeroAt:
    n: int
    witness: Fraction

    def to_json_dict(self):
        return {"verdict": "nonzero_at", "n": self.n, "witness": str(self.witness)}


@record
class DifferAt:
    tree: Tree
    values: tuple

    def to_json_dict(self):
        return {
            "verdict": "differ_at",
            "tree": format_tree(self.tree),
            "values": [str(v) for v in self.values],
        }


# ---------------------------------------------------------------------------
# zeroness and equivalence of generating functions


def check_zero_genfun(a: Automaton, cap: int, progress=None):
    """Scan coefficients to min(cap, B): the first nonzero one refutes,
    a full zero scan either proves (cap >= B) or reports the honest prefix."""
    form = common_form(a)
    bound = compute_bound(a, form)
    limit = cap
    small = bound.small_value()
    if small is not None and small < cap:
        limit = small
    stream = CoefficientStream(a, form)
    for n in range(limit + 1):
        value = stream.up_to(n)[n][0]
        if value != 0:
            return NonzeroAt(n, value)
        if progress is not None and n % 100 == 0 and n > 0:
            progress(n)
    if bound.cap_reaches(cap):
        return ProvenZero(bound)
    return ZeroUpTo(cap, bound)


def check_equiv_genfun(a1: Automaton, a2: Automaton, cap: int, progress=None):
    return check_zero_genfun(gf_add(a1, gf_scale(a2, -1)), cap, progress=progress)


# ---------------------------------------------------------------------------
# zeroness and equivalence of formal tree series


def _witness_tree(a: Automaton, n: int):
    try:
        for t in enumerate_trees(a.alphabet, n):
            _, value = evaluate(a, t)
            if value != 0:
                return t, value
    except TooManyTrees as exc:
        raise TooManyTrees(
            f"a tree of size {n} with nonzero value exists, but there are too"
            f" many trees of that size to search ({exc})"
        ) from exc
    raise AssertionError("squared series was nonzero but no witness tree found")


def check_zero_tree_series(a: Automaton, cap: int, progress=None):
    """Square the automaton pointwise; the squared generating function has
    nonnegative coefficients, so its zeroness mirrors tree-series zeroness."""
    squared = ts_hadamard(a, a)
    verdict = check_zero_genfun(squared, cap, progress=progress)
    if isinstance(verdict, NonzeroAt):
        tree, value = _witness_tree(a, verdict.n)
        return DifferAt(tree, (value,))
    return verdict


def check_equiv_tree_series(a1: Automaton, a2: Automaton, cap: int, progress=None):
    diff = ts_add(a1, ts_scale(a2, -1))
    verdict = check_zero_tree_series(diff, cap, progress=progress)
    if isinstance(verdict, DifferAt):
        t = verdict.tree
        _, v1 = evaluate(a1, t)
        _, v2 = evaluate(a2, t)
        return DifferAt(t, (v1, v2))
    return verdict


# ---------------------------------------------------------------------------
# the defining differential system


@record
class DifferentialSystem:
    """The system pinning the coefficient vectors of an automaton.

    With Q(x) = sum c_i x^i the shared size denominator and Q_{g,i} the
    per-child denominators (coefficients b_{g,i,j}), the vectors f (the
    generating series) and p_{g,i} (f with coefficients divided by
    Q_{g,i}(n)) satisfy, writing S for the operator f -> x f':

        sum_i c_i S^i[f] - c_0 a_0
            = x * sum_{g} sum_{(i_1..i_k)} (S^{i_1}[p_{g,1}] (x) ... ) M_{g,(i_1..i_k)}
        f = sum_j b_{g,i,j} S^j[p_{g,i}]          (one equation per g and i)

    which forces every coefficient from a_0 upward (forward_solve).  The
    zeroness reduction adjoins f_1 = 0 and V_i = f_i - (a_0)_i - x h_i with
    fresh variables h_1..h_d pinning the initial values.
    """

    dimension: int
    a0: tuple
    form: CommonDenominatorForm
    arities: dict  # symbol -> arity

    def equation_count(self) -> int:
        return self.dimension * (
            1 + sum(self.arities[g] for g in self.form.symbols)
        )

    def forward_solve(self, n_max: int) -> VectorSeriesPrefix:
        """Coefficient vectors a_0..a_n_max, each forced by the system from
        the ones before it: the coefficient engine run on self.form."""
        engine = ConvolutionEngine(self.a0, self.form)
        return VectorSeriesPrefix(tuple(engine.up_to(n_max)))

    def equations_text(self) -> str:
        lines = []
        q_text = format_unipoly(self.form.q0, "x")
        lines.append(f"Q(x) = {q_text}")
        for name, dec in sorted(self.form.symbols.items()):
            for i, den in enumerate(dec.child_denominators, start=1):
                lines.append(f"Q_{{{name},{i}}}(x) = {format_unipoly(den, 'x')}")
        lines.append("")
        lines.append(
            "sum_i c_i S^i[f] - c_0 a0 = x * ( "
            + " + ".join(
                f"(S^{{{_fmt_exps(exps)}}}[p_{{{name}}}]) . M_{{{name},{_fmt_exps(exps)}}}"
                for name, dec in sorted(self.form.symbols.items())
                for exps in sorted(dec.matrices)
            )
            + " )"
            if self.form.symbols
            else "f = a0"
        )
        for name, dec in sorted(self.form.symbols.items()):
            for i in range(1, dec.arity + 1):
                lines.append(f"f = sum_j b_{{{name},{i},j}} S^j[p_{{{name},{i}}}]")
        lines.append("")
        lines.append(f"a0 = ({', '.join(str(v) for v in self.a0)})")
        d = self.dimension
        lines.append(
            "zeroness reduction: adjoin f_1 = 0 and V_i = f_i - (a0)_i - x*h_i"
            f" with fresh h_1..h_{d}; {self.equation_count()} scalar equations"
        )
        return "\n".join(lines) + "\n"


def _fmt_exps(exps) -> str:
    return ",".join(str(e) for e in exps)


def emit_differential_system(a: Automaton) -> DifferentialSystem:
    return DifferentialSystem(
        a.dimension,
        initial_vector(a),
        common_form(a),
        {name: k for name, k in a.alphabet.symbols if k >= 1},
    )
