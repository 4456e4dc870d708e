"""Small gallery of concrete automata and systems used across the tests.

All three automata share the signature {sigma0/0, sigma1/1, sigma2/2}.
"""

from __future__ import annotations

from treeseries.core import Automaton, RankedAlphabet

SIGNATURE = RankedAlphabet.of(("sigma0", 0), ("sigma1", 1), ("sigma2", 2))


def bell_automaton() -> Automaton:
    """Dimension-2 automaton whose generating function is the Bell EGF
    (coefficients 1, 1, 1, 5/6, ...; n!-scaled: 1, 1, 2, 5, 15, 52, 203)."""
    return Automaton.build(
        2,
        SIGNATURE,
        {
            "sigma0": [1, 1],
            "sigma1": [["0", "0"], ["0", "1/(x0)"]],
            "sigma2": [
                ["0", "0"],
                ["0", "0"],
                ["1/(x0)", "0"],
                ["0", "0"],
            ],
        },
    )


def labelled_trees_automaton() -> Automaton:
    """Dimension-2 automaton for the EGF of labelled rooted trees
    (counts n^(n-1): 0, 1, 2, 9, 64, 625, ...)."""
    return Automaton.build(
        2,
        SIGNATURE,
        {
            "sigma0": [0, 1],
            "sigma1": [["0", "0"], ["1", "0"]],
            "sigma2": [
                ["0", "0"],
                ["0", "0"],
                ["0", "0"],
                ["0", "(x2+1)/(x0)"],
            ],
        },
    )


def cubic_automaton() -> Automaton:
    """Dimension-4 automaton for the solution of (y')^3 + y^3 = 1 with
    y(0) = 0, y'(0) = 1: the series x - 2/4! x^4 - 20/7! x^7 - ...

    Coordinates track (y_n, y_{n+1}, y'_{n+1}-chain, -(y^2)_{n+1}); the two
    sigma2 entries implement the convolution terms of the coefficient
    recurrences for y'' = -y^2/y' split into first-order form.
    """
    zero_row = ["0", "0", "0", "0"]
    sigma2 = [list(zero_row) for _ in range(16)]
    sigma2[5][3] = "-1"  # row (2,2): feeds -(y^2) from the y_{n+1} chain
    sigma2[10][2] = "-(x2+1)/(x0+1)"  # row (3,3): the y' self-convolution
    return Automaton.build(
        4,
        SIGNATURE,
        {
            "sigma0": [0, 1, 0, 0],
            "sigma1": [
                ["0", "0", "0", "0"],
                ["1", "0", "0", "0"],
                ["0", "1/(x0+1)", "0", "0"],
                ["0", "0", "1/(x0+1)", "0"],
            ],
            "sigma2": sigma2,
        },
    )


def zero_automaton() -> Automaton:
    """Dimension-1 nullary-only automaton with identically zero series."""
    return Automaton.build(1, RankedAlphabet.of(("a", 0)), {"a": [0]})


BELL_RDS_TEXT = "y1' = (y1*y2)/(1) ; y2' = (y2)/(1) ; y1(0)=1, y2(0)=1"
CUBIC_RDS_TEXT = "y1' = (y2)/(1) ; y2' = (-y1^2)/(y2) ; y1(0)=0, y2(0)=1"
CUBIC_DA_TEXT = "y'^3 + y^3 - 1 ; y(0)=0, y'(0)=1"
BELL_SPECIES_TEXT = "F = set(set(X, card>=1))"
LABELLED_TREES_SPECIES_TEXT = "A = X*set(A)"
