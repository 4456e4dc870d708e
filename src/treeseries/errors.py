"""Exception hierarchy shared by all treeseries modules.

Two broad families matter to callers (and to the CLI's exit codes):
``InputFormatError`` for anything wrong with source text or files, and
``InvariantError`` for mathematically invalid inputs or requests.
"""

import functools


class TreeSeriesError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(TreeSeriesError):
    """Malformed source text, file, or serialized value."""


class InvariantError(TreeSeriesError):
    """Input violates a documented mathematical invariant."""


def nesting_guard(error):
    """Decorate a function that recurses once per level of nesting in its
    input: running out of stack raises ``error("input nested too deeply")``
    in place of a bare RecursionError."""

    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                raise error("input nested too deeply") from None

        return guarded

    return decorate


class ParseError(InputFormatError):
    """Syntax error in one of the small text DSLs; carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownName(ParseError):
    """A referenced name has no definition."""


class BadCardinality(ParseError):
    """A cardinality constraint is not supported where it appears."""


class ZeroPolynomial(InvariantError):
    """The zero polynomial was passed where a nonzero one is required."""


class InvalidDenominator(InvariantError):
    """A denominator has a forbidden integer root for its variable slot."""


class DenominatorZero(InvariantError):
    """A denominator vanished at an evaluation point."""


class SymbolMismatch(InvariantError):
    """A tree uses a symbol absent from (or inconsistent with) the alphabet."""


class InvalidBeta(InvariantError):
    """A final vector entry is undefined at some nonnegative integer."""


class AlphabetMismatch(InvariantError):
    """An operation required two automata over one identical alphabet."""


class TooManyTrees(InvariantError):
    """Tree enumeration would exceed the memory guard."""


class ZeroConstantTerm(InvariantError):
    """Multiplicative inverse requested for a series with zero constant term."""


class LeadingRoot(InvariantError):
    """The leading recurrence polynomial vanishes at some admissible index."""


class NotPolynomial(InvariantError):
    """A dynamical system has a non-constant denominator where polynomials are required."""


class NotRDA(InvariantError):
    """Some right-hand side denominator vanishes at the initial point."""


class SeparantVanishes(InvariantError):
    """The separant of a differential polynomial vanishes at the given jet."""


class InvalidJet(InvariantError):
    """The supplied jet does not satisfy the differential equation."""


class NonlinearInDerivatives(InvariantError):
    """Derivatives do not occur linearly after differentiating algebraic equations."""


class SingularInitialValues(InvariantError):
    """The normalized system is undefined at the supplied initial values."""


class UnsupportedConstruct(InvariantError):
    """A species construct (or argument) outside the supported fragment."""


class NonIntegerCount(InvariantError):
    """A species count came out non-integral; signals a translation bug."""
