"""Exact arithmetic on series prefixes, and the brute-force coefficient
oracle: names of ``series`` that no command runs, imported on first use."""

from __future__ import annotations

from fractions import Fraction

from . import _trees
from .core import Automaton
from .exactmath import _frac
from .series import SeriesPrefix


def series_add(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    n = min(len(s1), len(s2))
    return SeriesPrefix(tuple(s1[i] + s2[i] for i in range(n)))


def series_scale(s: SeriesPrefix, c) -> SeriesPrefix:
    c = _frac(c)
    return SeriesPrefix(tuple(a * c for a in s.coefficients))


def series_cauchy(s1: SeriesPrefix, s2: SeriesPrefix) -> SeriesPrefix:
    return SeriesPrefix(tuple(
        sum((s1[i] * s2[m - i] for i in range(m + 1)), Fraction(0))
        for m in range(min(len(s1), len(s2)))
    ))


def s_derive(s: SeriesPrefix) -> SeriesPrefix:
    """The operator f -> x f' on prefixes: coefficient n becomes n * a_n."""
    return SeriesPrefix(tuple(n * a for n, a in enumerate(s.coefficients)))


def brute_force_coefficient(a: Automaton, n: int):
    """Sum of mu~(t) over every tree of size n, by exhaustive enumeration."""
    acc = [Fraction(0)] * a.dimension
    for vec in _trees.mu_tildes(a, _trees.enumerate_trees(a.alphabet, n)):
        for j, v in enumerate(vec):
            acc[j] += v
    return tuple(acc)
