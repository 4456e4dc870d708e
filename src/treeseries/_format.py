"""Text forms: canonical weights and the JSON writer of automata.

``format_size_rational`` writes a weight in the grammar that
``exactmath.parse_size_rational`` reads, and ``automaton_to_json`` writes
the JSON that ``core.automaton_from_json`` reads.  Only commands that write
an automaton or a differential system run this module: ``exactmath`` and
``core`` offer these names as their own and read them from here on first
use.
"""

from __future__ import annotations

from . import core, exactmath


# ---------------------------------------------------------------------------
# weights


def _join_terms(terms) -> str:
    """Write (coefficient, monomial text) pairs as a signed sum; an empty
    monomial is the constant term, and a unit coefficient is left out."""
    parts = []
    for c, monomial in terms:
        mag = abs(c)
        if not monomial:
            body = str(mag)
        elif mag == 1:
            body = monomial
        else:
            body = f"{mag}*{monomial}"
        if c < 0:
            parts.append(f"-{body}")
        else:
            parts.append(f"+{body}" if parts else body)
    return "".join(parts) or "0"


def format_unipoly(p: exactmath.UniPolynomial, var: str = "x0") -> str:
    terms = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append((c, ""))
        else:
            terms.append((c, var if e == 1 else f"{var}^{e}"))
    return _join_terms(terms)


def format_multipoly(p: exactmath.MultiPolynomial) -> str:
    terms = []
    for exps, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        terms.append((c, "*".join(factors)))
    return _join_terms(terms)


def format_size_rational(f: exactmath.SizeRational) -> str:
    """Canonical text form; parses back to an equal SizeRational."""
    num = format_multipoly(f.num)
    if all(q.is_one for q in f.dens):
        return num
    if len(f.num.terms) > 1 or num.startswith("-"):
        num = f"({num})"
    last = max(i for i, q in enumerate(f.dens) if not q.is_one)
    chain = "*".join(
        f"({format_unipoly(f.dens[i], f'x{i}')})" for i in range(last + 1)
    )
    return f"{num}/{chain}"


# ---------------------------------------------------------------------------
# automata


def _quote(text: str) -> str:
    """``text`` as ``json.dumps`` writes it: only a name that is not
    printable ASCII needs the json module."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _row(states) -> str:
    if not states:
        return "[]"
    items = ",\n".join(f"            {s + 1}" for s in states)
    return f"[\n{items}\n          ]"


def automaton_to_json(a: core.Automaton) -> str:
    """The text ``json.dumps(payload, indent=2)`` writes, and a newline, for
    the payload of dimension, alphabet and nonzero weight entries; each
    distinct weight is formatted once."""
    symbols = ",\n".join(
        f'    {{\n      "name": {_quote(n)},\n      "arity": {k}\n    }}'
        for n, k in a.alphabet.symbols
    )
    texts = {}  # a nullary value, or the (num, dens) of a weight -> its quoted text
    weights = []
    for name, matrix in a.weights:
        nullary = matrix.arity == 0
        entries = []
        for states, row in matrix.rows.values():
            head = f'        {{\n          "row": {_row(states)},\n          "col": '
            for j, entry in row:
                key = entry if nullary else (entry.num, entry.dens)
                value = texts.get(key)
                if value is None:
                    value = texts[key] = _quote(
                        str(entry) if nullary else format_size_rational(entry))
                entries.append(f'{head}{j + 1},\n          "value": {value}\n        }}')
        body = "[\n" + ",\n".join(entries) + "\n      ]" if entries else "[]"
        weights.append(f'    {_quote(name)}: {{\n      "entries": {body}\n    }}')
    return (f'{{\n  "dimension": {a.dimension},\n  "alphabet": [\n{symbols}\n  ],\n'
            '  "weights": {\n' + ",\n".join(weights) + "\n  }\n}\n")
