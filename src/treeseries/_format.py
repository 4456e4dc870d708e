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


def format_unipoly(p: exactmath.UniPolynomial, var: str = "x0") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def format_multipoly(p: exactmath.MultiPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        mag = abs(c)
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            body = str(mag)
        else:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


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
    unrank_row = core.unrank_row
    for name, arity in a.alphabet.symbols:
        entries = []
        for i, j, entry in a.nonzero_entries(name):
            if arity == 0:
                row_ix, value = [], str(entry)
            else:
                row_ix = [x + 1 for x in unrank_row(i, a.dimension, arity)]
                value = format_size_rational(entry)
            entries.append({"row": row_ix, "col": j + 1, "value": value})
        payload["weights"][name] = {"entries": entries}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
