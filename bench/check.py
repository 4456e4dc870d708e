"""Expected outputs by paths independent of the one being timed.

Reference series come from the term-by-term Taylor solver on hand-normalized
first-order systems (`taylor_oracle`, which never builds an automaton) or
from closed forms; the closure operations are checked against series algebra
on those prefixes, written out here rather than taken from the package.
`Checker.check(job, stdout)` returns None when the output is right and a
one-line reason otherwise.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

STORE_STEP = 20


def _bell_numbers(n: int) -> list:
    """B_0..B_n by the Bell triangle."""
    out, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def _cauchy(f, g):
    return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(min(len(f), len(g)))]


def _inverse(f):
    out = [1 / f[0]]
    for m in range(1, len(f)):
        out.append(-sum(f[i] * out[m - i] for i in range(1, m + 1)) / f[0])
    return out


class Checker:
    """Caches one reference prefix per series spec, grown on demand.

    With `store`, Taylor prefixes (the costly references) are also kept in that
    JSON file between runs; the caller names the file after the package source,
    so a changed solver never reads an old prefix.
    """

    def __init__(self, store: str = None):
        self._prefixes = {}
        self._store = store
        self._stored = {}
        if store and os.path.exists(store):
            with open(store, encoding="utf-8") as fh:
                self._stored = json.load(fh)

    # -- reference series ----------------------------------------------------

    def prefix(self, spec, n: int) -> list:
        """Coefficients 0..n of the series a spec names, as Fractions."""
        key = json.dumps(spec)
        have = self._prefixes.get(key)
        if have is None and key in self._stored:
            have = self._prefixes[key] = [Fraction(v) for v in self._stored[key]]
        if have is None or len(have) <= n:
            # Taylor prefixes grow to a multiple of STORE_STEP, so seeds whose
            # sizes differ by a little share one stored prefix
            have = self._compute(spec, -(-(n + 1) // STORE_STEP) * STORE_STEP
                                 if spec[0] == "taylor" else n)
            self._prefixes[key] = have
            if spec[0] == "taylor":
                self._stored[key] = [str(v) for v in have]
        return have[: n + 1]

    def save(self):
        if self._store:
            with open(self._store, "w", encoding="utf-8") as fh:
                json.dump(self._stored, fh)

    def _compute(self, spec, n: int) -> list:
        kind, args = spec[0], spec[1:]
        if kind == "taylor":
            from treeseries import parse_rds, taylor_oracle

            system = parse_rds(args[0])
            return list(taylor_oracle(system, n)[system.variables[0]].coefficients)
        if kind == "bell":
            return [Fraction(b, math.factorial(k)) for k, b in enumerate(_bell_numbers(n))]
        if kind == "rooted_trees":  # n^(n-1) labelled rooted trees
            return [Fraction(0)] + [Fraction(k ** (k - 1), math.factorial(k))
                                    for k in range(1, n + 1)]
        if kind == "exp":
            return [Fraction(1, math.factorial(k)) for k in range(n + 1)]
        if kind == "sum":
            return [sum(terms) for terms in zip(*(self.prefix(arg, n) for arg in args))]
        if kind == "cauchy":
            return _cauchy(self.prefix(args[0], n), self.prefix(args[1], n))
        if kind == "mul_shifted":  # x f g
            return [Fraction(0)] + _cauchy(self.prefix(args[0], n), self.prefix(args[1], n))[:n]
        if kind == "derive":
            f = self.prefix(args[0], n + 1)
            return [k * f[k] for k in range(1, n + 2)]
        if kind == "integrate":
            f = self.prefix(args[0], n)
            return [Fraction(0)] + [f[k] / (k + 1) for k in range(n)]
        if kind == "inverse":
            return _inverse(self.prefix(args[0], n))
        raise ValueError(f"unknown reference series {kind!r}")

    # -- output checks -------------------------------------------------------

    def check(self, job: dict, stdout: str):
        ref = job["ref"]
        try:
            return getattr(self, "_check_" + ref["kind"])(ref, stdout)
        except Exception as exc:  # output the reader cannot take is a wrong output
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_counts(self, ref, stdout):
        n = ref["n"]
        want = [c * math.factorial(k) for k, c in enumerate(self.prefix(ref["series"], n))]
        got = [int(tok) for tok in stdout.split()]
        return _first_mismatch("count", got, want)

    def _check_series(self, ref, stdout):
        n = ref["n"]
        want = [c * math.factorial(k) for k, c in enumerate(self.prefix(ref["series"], n))]
        lines = stdout.strip().splitlines()
        if ref["format"] == "json":
            got = [Fraction(v) for v in json.loads(stdout)["coefficients"]]
        else:
            if ref["format"] == "csv":
                if lines[0] != "n,coefficient":
                    return f"bad csv header {lines[0]!r}"
                rows = [line.split(",") for line in lines[1:]]
            else:
                rows = [line.split() for line in lines]
            if [int(row[0]) for row in rows] != list(range(len(rows))):
                return "rows are not numbered 0, 1, 2, ..."
            got = [Fraction(row[1]) for row in rows]
        return _first_mismatch("coefficient", got, want)

    def _check_verdict(self, ref, stdout):
        got = json.loads(stdout)
        want = ref["verdict"]
        if got.get("verdict") != want:
            return f"verdict {got.get('verdict')!r}, expected {want!r}"
        if want == "zero_up_to":
            return None if got["n"] == ref["n"] else f"scanned to {got['n']}, expected {ref['n']}"
        if want == "nonzero_at":
            cap = ref["cap"]
            a, b = self.prefix(ref["a"], cap), self.prefix(ref["b"], cap)
            first = next((k for k in range(cap + 1) if a[k] != b[k]), None)
            if first is None:
                return f"reference series agree up to {cap}; expected them to differ"
            if got["n"] != first or Fraction(got["witness"]) != a[first] - b[first]:
                return (f"nonzero_at {got['n']} witness {got['witness']}, expected"
                        f" {first} witness {a[first] - b[first]}")
            return None
        from treeseries import automaton_from_json, evaluate
        from treeseries.core import parse_tree, tree_size

        tree = parse_tree(got["tree"])
        if tree_size(tree) != ref["size"]:
            return f"first differing tree has size {tree_size(tree)}, expected {ref['size']}"
        values = [Fraction(v) for v in got["values"]]
        want = []
        for path in (ref["a"], ref["b"]):
            with open(path, encoding="utf-8") as fh:
                want.append(evaluate(automaton_from_json(fh.read()), tree)[1])
        if values != want:
            return f"differ_at values {got['values']}, the inputs give {[str(v) for v in want]}"
        if want[0] == want[1]:
            return f"the inputs agree on {got['tree']}"
        return None

    def _check_automaton(self, ref, stdout):
        from treeseries import automaton_from_json, generating_prefix

        n = ref["n"]
        got = list(generating_prefix(automaton_from_json(stdout), n).coefficients)
        return _first_mismatch("coefficient", got, self.prefix(ref["series"], n))

    def _check_hadamard(self, ref, stdout):
        from treeseries import automaton_from_json, enumerate_trees, evaluate
        from treeseries.core import format_tree

        out = automaton_from_json(stdout)
        with open(ref["input"], encoding="utf-8") as fh:
            source = automaton_from_json(fh.read())
        for size in range(ref["max_size"] + 1):
            for tree in enumerate_trees(source.alphabet, size):
                value = evaluate(source, tree)[1]
                if evaluate(out, tree)[1] != value * value:
                    return f"value on {format_tree(tree)} is not the square of {value}"
        return None

    def _check_system(self, ref, stdout):
        n = ref["n"]
        rows = [row.split() for row in stdout.strip().splitlines()[-(n + 1):]]
        if [int(row[0]) for row in rows] != list(range(n + 1)):
            return "solution rows are not numbered 0..n"
        got = [Fraction(row[1]) for row in rows]
        return _first_mismatch("solved coefficient", got, self.prefix(ref["series"], n))


def _first_mismatch(what: str, got: list, want: list):
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what} {k} is {g}, expected {w}"
    return None
