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


def automaton_to_json(a: core.Automaton) -> str:
    import json

    payload = {
        "dimension": a.dimension,
        "alphabet": [{"name": n, "arity": k} for n, k in a.alphabet.symbols],
        "weights": {},
    }
    for name, matrix in a.weights:
        text = str if matrix.arity == 0 else format_size_rational
        entries = []
        for states, row in matrix.rows.values():
            row_ix = [s + 1 for s in states]
            for j, entry in row:
                entries.append({"row": row_ix, "col": j + 1, "value": text(entry)})
        payload["weights"][name] = {"entries": entries}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
