"""Zeroness and equivalence decisions.

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

The defining system itself (``DifferentialSystem``,
``emit_differential_system``) is a name of this module too, but lives in
``_system``, which runs on the first read of one of them (``__getattr__``
below): only ``emit-system`` writes or solves it.
"""

from __future__ import annotations

from fractions import Fraction

from . import _system, closure, core
from ._record import record
from .core import Automaton
from .errors import TooManyTrees
from .exactmath import CommonDenominatorForm
from .series import CoefficientStream, common_form

# names of this module that _system defines
_SYSTEM_NAMES = frozenset(("DifferentialSystem", "_fmt_exps", "emit_differential_system"))


def __getattr__(name):
    if name in _SYSTEM_NAMES:
        return getattr(_system, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    tree: core.Tree
    values: tuple

    def to_json_dict(self):
        return {
            "verdict": "differ_at",
            "tree": core.format_tree(self.tree),
            "values": [str(v) for v in self.values],
        }


# ---------------------------------------------------------------------------
# zeroness and equivalence of generating functions


def check_zero_genfun(a: Automaton, cap: int):
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
    if bound.cap_reaches(cap):
        return ProvenZero(bound)
    return ZeroUpTo(cap, bound)


def check_equiv_genfun(a1: Automaton, a2: Automaton, cap: int):
    diff = closure.gf_add(a1, closure.gf_scale(a2, -1))
    return check_zero_genfun(diff, cap)


# ---------------------------------------------------------------------------
# zeroness and equivalence of formal tree series


def _witness_tree(a: Automaton, n: int):
    try:
        for t in core.enumerate_trees(a.alphabet, n):
            _, value = core.evaluate(a, t)
            if value != 0:
                return t, value
    except TooManyTrees as exc:
        raise TooManyTrees(
            f"a tree of size {n} with nonzero value exists, but there are too"
            f" many trees of that size to search ({exc})"
        ) from exc
    raise AssertionError("squared series was nonzero but no witness tree found")


def check_zero_tree_series(a: Automaton, cap: int):
    """Square the automaton pointwise; the squared generating function has
    nonnegative coefficients, so its zeroness mirrors tree-series zeroness."""
    squared = closure.ts_hadamard(a, a)
    verdict = check_zero_genfun(squared, cap)
    if isinstance(verdict, NonzeroAt):
        tree, value = _witness_tree(a, verdict.n)
        return DifferAt(tree, (value,))
    return verdict


def check_equiv_tree_series(a1: Automaton, a2: Automaton, cap: int):
    diff = closure.ts_add(a1, closure.ts_scale(a2, -1))
    verdict = check_zero_tree_series(diff, cap)
    if isinstance(verdict, DifferAt):
        t = verdict.tree
        _, v1 = core.evaluate(a1, t)
        _, v2 = core.evaluate(a2, t)
        return DifferAt(t, (v1, v2))
    return verdict
