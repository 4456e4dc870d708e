"""Decide verdicts against the size-DP oracle of `test_random_automata`, at a
cap that brute force cannot reach (it stops at size 6 there).

A generating-function verdict is checked against `_size_dp` of each
automaton: the first size where their first entries differ, or none.  A
tree-series verdict is checked against `_size_dp` of the Hadamard square of
the difference, whose coefficients are sums of squares of tree values: its
first nonzero size must be the size of the witness tree.  The square shares
the closure operations with `decide`; it is independent of the coefficient
engine and of the common-denominator normal form.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from test_random_automata import ALPHABET, _equal_pairs, _size_dp, automata
from treeseries.closure import ts_add, ts_hadamard, ts_scale
from treeseries.core import Automaton, evaluate, tree_size
from treeseries.decide import (
    DifferAt,
    NonzeroAt,
    ZeroUpTo,
    check_equiv_genfun,
    check_equiv_tree_series,
)

CAP = 10


def _decide_against_size_dp(a1: Automaton, a2: Automaton):
    """Both equivalence verdicts at the cap, checked against the size DP;
    returns the sizes at which they report a difference (None for none)."""
    gf_verdict = check_equiv_genfun(a1, a2, CAP)
    s1, s2 = _size_dp(a1, CAP), _size_dp(a2, CAP)
    n = next((n for n in range(CAP + 1) if s1[n][0] != s2[n][0]), None)
    if n is None:
        assert gf_verdict == ZeroUpTo(CAP, gf_verdict.bound)
    else:
        assert gf_verdict == NonzeroAt(n, s1[n][0] - s2[n][0])

    diff = ts_add(a1, ts_scale(a2, -1))
    squares = _size_dp(ts_hadamard(diff, diff), CAP)
    m = next((n for n in range(CAP + 1) if squares[n][0]), None)
    ts_verdict = check_equiv_tree_series(a1, a2, CAP)
    if m is None:
        assert ts_verdict == ZeroUpTo(CAP, ts_verdict.bound)
    else:
        assert isinstance(ts_verdict, DifferAt) and tree_size(ts_verdict.tree) == m
        v1, v2 = ts_verdict.values
        assert v1 != v2
        assert (v1, v2) == (evaluate(a1, ts_verdict.tree)[1], evaluate(a2, ts_verdict.tree)[1])
    return n, m


# the tree series that is 1 on u(u(u(u(u(u(u(a))))))), of size 7 (a leaf has
# size 0), and 0 on every other tree: a reads state 7, and u moves state
# i + 1 to state i
_SIZE_7 = Automaton.build(8, ALPHABET, {
    "a": {(0, 7): 1}, "u": {(i + 1, i): 1 for i in range(7)}, "f": {}})


@settings(max_examples=5, deadline=None, derandomize=True)
@given(automata(), automata())
def test_decide_verdicts_agree_with_size_dp(a1, a2):
    _decide_against_size_dp(a1, a2)


# a pair of three-state automata squares to 64 states, on which the size DP
# takes about 11 s
@settings(max_examples=5, deadline=None, derandomize=True)
@given(_equal_pairs().filter(lambda pair: pair[0].dimension < 3))
def test_decide_verdicts_on_pairs_equal_by_construction_agree_with_size_dp(pair):
    assert _decide_against_size_dp(*pair) == (None, None)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(automata(), st.sampled_from([F(1), F(-1), F(1, 2)]))
def test_decide_verdicts_on_pairs_that_first_differ_at_size_7_agree_with_size_dp(a, c):
    assert _decide_against_size_dp(a, ts_add(a, ts_scale(_SIZE_7, c))) == (7, 7)
