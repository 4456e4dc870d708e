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
below; the package's ``_FORWARDS``): only ``emit-system`` writes or solves
it.
"""

from __future__ import annotations

from fractions import Fraction

from . import _forward, _trees, cli, closure
from ._record import record
from .core import Automaton
from .errors import TooManyTrees
from .exactmath import CommonDenominatorForm
from .series import CoefficientStream, common_form


def __getattr__(name):
    return _forward(__name__, name)


# ---------------------------------------------------------------------------
# the zeroness bound


@record
class ZeroBound:
    dimension: int
    max_arity: int  # D
    s: int
    m: int  # M

    @property
    def exponent(self) -> int:
        """M * 2^M, exact: about M/3 digits, built only where it is printed."""
        return self.m * 2**self.m

    def __repr__(self):
        # M is enough to rebuild the exponent
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
        if cap <= 0 or self.m >= cap.bit_length():
            return False  # D^E >= 2^E >= 2^M > cap
        exponent = self.exponent  # 2^M <= cap here, so E = M 2^M <= M cap
        # D^E >= 2^E > cap once E reaches the bit length of cap
        return exponent < cap.bit_length() and self.max_arity**exponent <= cap

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
    return ZeroBound(a.dimension, d_arity, s, m)


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
    tree: _trees.Tree
    values: tuple

    def to_json_dict(self):
        return {
            "verdict": "differ_at",
            "tree": _trees.format_tree(self.tree),
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
    """The first tree of size n, in enumeration order, whose value is nonzero."""
    try:
        trees = _trees.enumerate_trees(a.alphabet, n)
    except TooManyTrees as exc:
        raise TooManyTrees(
            f"a tree of size {n} with nonzero value exists, but there are too"
            f" many trees of that size to search ({exc})"
        ) from exc
    for t, mu_tilde in zip(trees, _trees.mu_tildes(a, trees)):
        if mu_tilde[0] != 0:
            return t, mu_tilde[0]
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
        _, v1 = _trees.evaluate(a1, t)
        _, v2 = _trees.evaluate(a2, t)
        return DifferAt(t, (v1, v2))
    return verdict


# ---------------------------------------------------------------------------
# the `bound`, `zero` and `equiv` commands


def _cmd_bound(args) -> int:
    bound = compute_bound(cli._load_automaton(args.automaton))
    if args.format == "json":
        cli._print_json({"dimension": bound.dimension, "max_arity": bound.max_arity,
                         "s": bound.s, "M": bound.m, "B": bound.to_json_dict()})
    else:
        print(f"dimension {bound.dimension}, max arity {bound.max_arity}, s {bound.s}")
        print(f"M = {bound.m}")
        print(f"B = {bound.describe()}")
    return cli.EXIT_OK


def _verdict_exit(args, tree_series, genfun, *paths) -> int:
    """Decide on the automata read from ``paths``, print the verdict, and
    give the exit code: EXIT_UNDECIDED for ZeroUpTo under --require-decided."""
    check = tree_series if args.tree_series else genfun
    verdict = check(*map(cli._load_automaton, paths), args.cap)
    cli._print_json(verdict.to_json_dict())
    if args.require_decided and isinstance(verdict, ZeroUpTo):
        return cli.EXIT_UNDECIDED
    return cli.EXIT_OK


def _cmd_zero(args) -> int:
    return _verdict_exit(args, check_zero_tree_series, check_zero_genfun, args.automaton)


def _cmd_equiv(args) -> int:
    return _verdict_exit(args, check_equiv_tree_series, check_equiv_genfun, args.automaton, args.b)
