"""Shared tokenizer, statement splitter, expression AST, and rational-function
arithmetic for the small text DSLs (dynamical systems, recurrences,
differential equations, species right-hand sides) and the weight strings.

Each input is tokenized once; ``statements`` cuts the tokens of a line
format at newlines and semicolons, so a ``#`` comment, which yields no
token, never makes or splits a statement, and every error names the line
and column of the input.

Expressions are parsed into a tiny AST; ``to_ratfunc`` lowers an AST to an
exact P/Q pair of multivariate polynomials over a caller-chosen variable
order.  Derivative markers (``y'``) become ``DVar`` nodes, which stay
symbolic so callers can solve for them.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from ._poly import grlex, power
from .core import record
from .errors import ParseError
from .exactmath import MultiPolynomial


# ---------------------------------------------------------------------------
# tokens

_SYMBOLS = ("(", ")", "+", "-", "*", "/", "^", "=", ",", ";", ">=", "<=", ">", "<")


@record
class Token:
    kind: str  # "name" | "number" | "prime" | symbol itself | "end"
    text: str
    line: int
    column: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        # isdecimal, not isdigit: int() reads every decimal digit, but no '²'
        if ch.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(Token("number", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch == "'":
            tokens.append(Token("prime", "'", line, col))
            i += 1
            col += 1
            continue
        two = text[i : i + 2]
        if len(two) == 2 and two in _SYMBOLS:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def accept(self, kind: str):
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)


def statements(text: str):
    """The statements of a text, tokenized once: the runs of tokens between
    newlines and semicolons (a comment is no token, so it separates nothing),
    each closed by an end token where it stops, so that every error points
    into the text.  Empty statements are dropped."""
    out, current = [], []
    for tok in tokenize(text):
        if tok.kind in ("newline", ";", "end"):
            if current:
                out.append(current + [Token("end", "", tok.line, tok.column)])
                current = []
        else:
            current.append(tok)
    return out


# ---------------------------------------------------------------------------
# expression AST


@record
class Const:
    value: Fraction


@record
class Var:
    name: str


@record
class DVar:
    """First derivative of a named power-series variable."""

    name: str


@record
class Add:
    """Sum of two or more operands; a subtracted operand is wrapped in Neg."""

    args: tuple


@record
class Mul:
    """Product of two or more operands."""

    args: tuple


@record
class DivE:
    left: object
    right: object


@record
class Pow:
    base: object
    exponent: int


@record
class Neg:
    arg: object


def parse_expression(ts: TokenStream):
    """Parse + - * / ^ with the usual precedence; primes bind to names."""

    def atom():
        tok = ts.peek()
        if tok.kind == "number":
            ts.next()
            return Const(Fraction(int(tok.text)))
        if tok.kind == "name":
            ts.next()
            primes = 0
            while ts.accept("prime"):
                primes += 1
            return DVar(tok.text) if primes == 1 else Var(tok.text + "'" * primes)
        if tok.kind == "(":
            ts.next()
            inner = expr()
            ts.expect(")")
            primes = 0
            while ts.peek().kind == "prime":
                ts.next()
                primes += 1
            if primes:
                if isinstance(inner, Var) and primes == 1:
                    return DVar(inner.name)
                if isinstance(inner, Var):
                    return Var(inner.name + "'" * primes)
                raise ParseError("cannot differentiate this", tok.line, tok.column)
            return inner
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def power():
        base = atom()
        if ts.peek().kind == "^":
            tok = ts.next()
            sign = 1
            if ts.accept("-"):
                sign = -1
            exp_tok = ts.expect("number")
            e = sign * int(exp_tok.text)
            if e < 0:
                raise ParseError("negative exponents not supported", tok.line, tok.column)
            return Pow(base, e)
        return base

    def unary():
        if ts.accept("-"):
            return Neg(unary())
        if ts.accept("+"):
            return unary()
        return power()

    def term():
        factors = [unary()]
        while True:
            if ts.accept("*"):
                factors.append(unary())
            elif ts.accept("/"):
                factors = [DivE(nary(Mul, factors), unary())]
            else:
                return nary(Mul, factors)

    def expr():
        terms = [term()]
        while True:
            if ts.accept("+"):
                terms.append(term())
            elif ts.accept("-"):
                terms.append(Neg(term()))
            else:
                return nary(Add, terms)

    return expr()


def nary(kind, args):
    """``kind(args)`` for an n-ary node class, or the one operand itself."""
    return args[0] if len(args) == 1 else kind(tuple(args))


# ---------------------------------------------------------------------------
# rational functions over a fixed variable order


class RatFunc:
    """P/Q with multivariate numerator and denominator, no reduction beyond
    normalizing the denominator's leading coefficient to 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPolynomial, den: MultiPolynomial = None):
        if den is not None and den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if den is None or num.is_zero:
            den = MultiPolynomial.const(num.nvars, 1)
        else:
            lead = max(den.terms.items(), key=grlex)[1]
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
            if num.terms == den.terms:
                num = den = MultiPolynomial.const(num.nvars, 1)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return cls(MultiPolynomial.const(nvars, c))

    @classmethod
    def var(cls, nvars: int, i: int) -> "RatFunc":
        return cls(MultiPolynomial.var(nvars, i))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.constant_value() is not None

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ParseError("division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def pow(self, e: int) -> "RatFunc":
        return power(self, e, RatFunc.const(self.num.nvars, 1))

    def __eq__(self, other):
        return isinstance(other, RatFunc) and (
            (self.num * other.den) == (other.num * self.den)
        )


def to_ratfunc(expr, var_index: dict, nvars: int) -> RatFunc:
    """Lower an AST to P/Q over the given variable order.  DVar(y) is the
    variable named y' when var_index has one."""
    if isinstance(expr, Const):
        return RatFunc.const(nvars, expr.value)
    if isinstance(expr, Var):
        if expr.name not in var_index:
            raise ParseError(f"unknown variable {expr.name!r}")
        return RatFunc.var(nvars, var_index[expr.name])
    if isinstance(expr, DVar):
        name = expr.name + "'"
        if name not in var_index:
            raise ParseError(f"derivative {name} not allowed here")
        return RatFunc.var(nvars, var_index[name])
    if isinstance(expr, Add):
        # the polynomial operands are summed in one dict: adding them one at
        # a time would copy the growing sum once per operand
        poly, parts = {}, []
        for arg in expr.args:
            rf = to_ratfunc(arg, var_index, nvars)
            if rf.is_polynomial():  # so its denominator is 1
                for exps, c in rf.num.terms.items():
                    poly[exps] = poly.get(exps, 0) + c
            else:
                parts.append(rf)
        if poly or not parts:
            parts.insert(0, RatFunc(MultiPolynomial(nvars, poly)))
        return functools.reduce(operator.add, parts)
    if isinstance(expr, Mul):
        return functools.reduce(
            operator.mul, (to_ratfunc(arg, var_index, nvars) for arg in expr.args)
        )
    if isinstance(expr, DivE):
        return to_ratfunc(expr.left, var_index, nvars) / to_ratfunc(
            expr.right, var_index, nvars
        )
    if isinstance(expr, Pow):
        return to_ratfunc(expr.base, var_index, nvars).pow(expr.exponent)
    if isinstance(expr, Neg):
        return -to_ratfunc(expr.arg, var_index, nvars)
    raise TypeError(f"not an expression node: {expr!r}")


def expr_variables(expr, out=None, primed=False):
    """Names of the variables an AST mentions; with ``primed``, a derivative
    DVar(y) is named y' rather than y."""
    if out is None:
        out = set()
    if isinstance(expr, Var):
        out.add(expr.name)
    elif isinstance(expr, DVar):
        out.add(expr.name + "'" if primed else expr.name)
    elif isinstance(expr, (Add, Mul)):
        for arg in expr.args:
            expr_variables(arg, out, primed)
    elif isinstance(expr, DivE):
        expr_variables(expr.left, out, primed)
        expr_variables(expr.right, out, primed)
    elif isinstance(expr, Neg):
        expr_variables(expr.arg, out, primed)
    elif isinstance(expr, Pow):
        expr_variables(expr.base, out, primed)
    return out
