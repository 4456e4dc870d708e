"""The readers of a weight (``parse_size_rational``) and of an automaton
(``automaton_from_json``), names of ``exactmath`` and ``core`` read from
here on first use: a command that reads no automaton never compiles them.
"""

from __future__ import annotations

from fractions import Fraction

from . import _expr
from .core import Automaton, RankedAlphabet, row_index
from .errors import InputFormatError, nesting_guard
from .exactmath import _ONE, MultiPolynomial, SizeRational


@nesting_guard(InputFormatError)
def parse_size_rational(text: str, arity: int) -> SizeRational:
    """Parse a weight: a polynomial over x0..xk in the expression syntax of
    the other text formats, then an optional denominator chain

        <polynomial> [ "/" "(" <poly in x0> ")" { "*" "(" <poly in xi> ")" } ]

    whose factor i may only use xi.  The chain starts at the first '/'
    outside parentheses followed by '('; any other '/' divides inside the
    numerator."""
    nvars = arity + 1
    var_index = {f"x{i}": i for i in range(nvars)}

    def polynomial(ts, what: str) -> MultiPolynomial:
        value = _expr.to_ratfunc(_expr.parse_expression(ts), var_index, nvars)
        if not value.is_polynomial():
            raise InputFormatError(f"{what} of {text!r} is not a polynomial")
        return value.num

    tokens = _expr.tokenize(text)
    depth, cut = 0, len(tokens) - 1  # the chain's '/', else the end token
    for i, tok in enumerate(tokens):
        depth += (tok.kind == "(") - (tok.kind == ")")
        if tok.kind == "/" and depth == 0 and tokens[i + 1].kind == "(":
            cut = i
            break
    end = tokens[cut]
    ts = _expr.TokenStream(tokens[:cut] + [_expr.Token("end", "", end.line, end.column)])
    num = polynomial(ts, "the numerator")
    ts.expect_end()
    dens = [_ONE] * nvars
    if end.kind == "/":
        ts = _expr.TokenStream(tokens[cut + 1 :])
        slot = 0
        while True:
            ts.expect("(")
            factor = polynomial(ts, f"denominator factor #{slot}")
            ts.expect(")")
            if slot >= nvars:
                raise InputFormatError("more denominator factors than variables")
            try:
                dens[slot] = factor.to_uni(slot)
            except ValueError:
                raise InputFormatError(
                    f"denominator factor #{slot} must only use x{slot}"
                ) from None
            slot += 1
            if not ts.accept("*"):
                break
        ts.expect_end()
    return SizeRational(num, dens)


def automaton_from_json(text: str) -> Automaton:
    import json

    try:
        payload = json.loads(text, parse_float=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from exc

    def expect(value, kind, what):
        # type(), not isinstance(): a JSON true or false is no integer
        if type(value) is not kind:
            raise InputFormatError(f"bad automaton JSON: {what} must be a JSON {kind.__name__}")
        return value

    try:
        expect(payload, dict, "the automaton")
        d = expect(payload["dimension"], int, "the dimension")
        alphabet = RankedAlphabet.of(*[
            (expect(s["name"], str, "a symbol name"), expect(s["arity"], int, "an arity"))
            for s in payload["alphabet"]
        ])
        stored = expect(payload.get("weights", {}), dict, "weights")
        unknown = set(stored) - set(alphabet.names())
        if unknown:
            raise InputFormatError(f"bad automaton JSON: weight of {min(unknown)!r}, "
                                   "which is not in the alphabet")
        parsed = {}  # (text, arity) -> SizeRational: weight strings repeat, values are immutable
        weights = {}
        for name, arity in alphabet.symbols:
            spec = expect(stored.get(name, {}), dict, f"the weight of {name!r}")
            cells = {}
            for cell in expect(spec.get("entries", []), list, f"the entries of {name!r}"):
                expect(cell, dict, f"an entry of {name!r}")
                if arity == 0:
                    if cell.get("row", []) != []:
                        raise InputFormatError(f"bad row {cell['row']} for nullary symbol {name!r}; "
                                               "use []")
                    row, value = 0, Fraction(str(cell["value"]))
                else:
                    idx = tuple(expect(x, int, "a row index") - 1
                                for x in expect(cell["row"], list, f"a row of {name!r}"))
                    if len(idx) != arity or any(not 0 <= x < d for x in idx):
                        raise InputFormatError(
                            f"bad row index {cell['row']} for symbol {name!r}"
                        )
                    row = row_index(idx, d)
                    key = (str(cell["value"]), arity)
                    value = parsed.get(key)
                    if value is None:
                        value = parsed[key] = parse_size_rational(*key)
                col = expect(cell["col"], int, "a column")
                if not 1 <= col <= d:
                    raise InputFormatError(f"column {col} out of range 1..{d}")
                if (row, col - 1) in cells:
                    raise InputFormatError(
                        f"bad automaton JSON: two entries of {name!r} at row "
                        f"{cell.get('row', [])} and column {col}"
                    )
                cells[(row, col - 1)] = value
            weights[name] = cells
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from exc
    return Automaton.build(d, alphabet, weights)
