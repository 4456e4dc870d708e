"""Ranked alphabets, trees, automata, and evaluation.

An automaton is a pair (d, mu): nullary symbols get row vectors in Q^(1xd);
a symbol of arity k >= 1 gets a d^k x d matrix of SizeRational in x0..xk,
whose row index is the row-major rank of the children's state tuple.
Evaluating a tree t runs the leaf-to-root recursion

    mu~(g(t1,...,tk)) = (mu~(t1) (x) ... (x) mu~(tk)) . mu(g)(|t|, |t1|, ..., |tk|)

and the value of t is the first entry of mu~(t).  Weight matrices are
stored sparse (exactmath.WeightMatrix): automata built by closure are
almost entirely zero, so every construction, the JSON reader and writer,
and evaluation touch the nonzero cells only, and a matrix reads as dense
rows only when a caller indexes it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import exactmath
from ._record import record
from .errors import (
    InputFormatError,
    InvalidBeta,
    InvariantError,
    SymbolMismatch,
    TooManyTrees,
    nesting_guard,
)

ENUMERATION_GUARD = 10**6


# ---------------------------------------------------------------------------
# alphabets and trees


@record
class RankedAlphabet:
    symbols: tuple  # of (name, arity) pairs, order significant

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise InvariantError("alphabet names must be pairwise distinct")
        if not any(k == 0 for _, k in self.symbols):
            raise InvariantError("alphabet needs at least one nullary symbol")
        for _, k in self.symbols:
            if k < 0:
                raise InvariantError("arity must be nonnegative")

    @classmethod
    def of(cls, *pairs) -> "RankedAlphabet":
        return cls(tuple((str(n), int(k)) for n, k in pairs))

    def arity(self, name: str) -> int:
        for n, k in self.symbols:
            if n == name:
                return k
        raise SymbolMismatch(f"symbol {name!r} is not in the alphabet")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.symbols)

    def names(self):
        return [n for n, _ in self.symbols]

    def of_arity(self, k: int):
        return [n for n, a in self.symbols if a == k]

    @property
    def max_arity(self) -> int:
        return max(k for _, k in self.symbols)

    def arity_counts(self) -> dict:
        counts = {}
        for _, k in self.symbols:
            counts[k] = counts.get(k, 0) + 1
        return counts


@record
class Tree:
    root: str
    children: tuple = ()
    size: int = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "size",
            0 if not self.children else 1 + sum(c.size for c in self.children),
        )

    def __repr__(self):
        return f"Tree.parse({format_tree(self)!r})"

    @staticmethod
    def parse(text: str) -> "Tree":
        return parse_tree(text)


def tree_size(t: Tree) -> int:
    """Number of internal (non-nullary) nodes."""
    return t.size


@nesting_guard(InputFormatError)
def parse_tree(text: str) -> Tree:
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def node() -> Tree:
        nonlocal pos
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            skip_ws()
            name = symbol()
            children = []
            skip_ws()
            while pos < len(text) and text[pos] != ")":
                children.append(node())
                skip_ws()
            if pos >= len(text):
                raise InputFormatError("unbalanced parenthesis in tree")
            pos += 1
            return Tree(name, tuple(children))
        return Tree(symbol())

    def symbol() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-'"):
            pos += 1
        if start == pos:
            raise InputFormatError(f"expected a symbol at position {pos} in {text!r}")
        return text[start:pos]

    t = node()
    skip_ws()
    if pos != len(text):
        raise InputFormatError(f"trailing input after tree: {text[pos:]!r}")
    return t


def format_tree(t: Tree) -> str:
    if not t.children:
        return f"({t.root})"
    return "(" + t.root + " " + " ".join(format_tree(c) for c in t.children) + ")"


def check_tree(alphabet: RankedAlphabet, t: Tree):
    k = alphabet.arity(t.root)
    if k != len(t.children):
        raise SymbolMismatch(
            f"symbol {t.root!r} has arity {k}, got {len(t.children)} children"
        )
    for c in t.children:
        check_tree(alphabet, c)


# ---------------------------------------------------------------------------
# automata


def kron(u, v):
    """Kronecker product of two row vectors, row-major pairing."""
    return tuple(a * b for a in u for b in v)


def kron_all(vectors):
    """Iterated Kronecker product; the empty product is the vector (1)."""
    acc = (Fraction(1),)
    for v in vectors:
        acc = kron(acc, v)
    return acc


def row_index(indices, d: int) -> int:
    """Row-major position of a tuple of 0-based state indices."""
    acc = 0
    for i in indices:
        acc = acc * d + i
    return acc


def unrank_row(row: int, d: int, k: int):
    """Inverse of row_index for arity k."""
    out = []
    for _ in range(k):
        out.append(row % d)
        row //= d
    return tuple(reversed(out))


def shift_row(row: int, k: int, d_old: int, d_new: int, offset: int) -> int:
    """The row, in dimension d_new, of the state tuple of `row` (dimension
    d_old, arity k) with every state moved up by offset."""
    return row_index(tuple(s + offset for s in unrank_row(row, d_old, k)), d_new)


def _entry(value, arity: int):
    if arity == 0:
        return exactmath._frac(value)
    if isinstance(value, exactmath.SizeRational):
        return value.lift(arity)
    if isinstance(value, str):
        return exactmath.parse_size_rational(value, arity)
    return exactmath.SizeRational.const(arity, value)


def _dense_cells(name: str, rows, arity: int, d: int) -> dict:
    if arity == 0 and rows and not isinstance(rows[0], (list, tuple)):
        rows = [rows]
    if len(rows) != d**arity:
        raise InvariantError(f"weight of {name!r} must have {d ** arity} rows")
    cells = {}
    for i, row in enumerate(rows):
        if len(row) != d:
            raise InvariantError(f"weight of {name!r} must have {d} columns")
        for j, value in enumerate(row):
            cells[(i, j)] = value
    return cells


@record
class Automaton:
    dimension: int
    alphabet: RankedAlphabet
    weights: tuple  # of (name, WeightMatrix) in alphabet order

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise InvariantError("dimension must be positive")
        have = {name for name, _ in self.weights}
        need = set(self.alphabet.names())
        if have != need:
            raise InvariantError(
                f"weights must cover the alphabet exactly (missing {sorted(need - have)},"
                f" extra {sorted(have - need)})"
            )
        weight_matrix, size_rational = exactmath.WeightMatrix, exactmath.SizeRational
        for name, matrix in self.weights:
            k = self.alphabet.arity(name)
            if not isinstance(matrix, weight_matrix) or matrix.arity != k:
                raise InvariantError(f"weight of {name!r} must be a WeightMatrix of arity {k}")
            nrows = d**k
            if matrix.shape != (nrows, d):
                raise InvariantError(f"weight of {name!r} must have {nrows} rows and {d} columns")
            for (i, j), entry in matrix.cells.items():
                if not (0 <= i < nrows and 0 <= j < d):
                    raise InvariantError(f"weight cell {(i, j)} of {name!r} is out of range")
                if k == 0:
                    if not isinstance(entry, Fraction):
                        raise InvariantError("nullary weights must be rational numbers")
                elif not isinstance(entry, size_rational) or entry.arity != k:
                    raise InvariantError(
                        f"weight entries of {name!r} must be SizeRational of arity {k}"
                    )

    @classmethod
    def build(cls, dimension: int, alphabet: RankedAlphabet, weights: dict) -> "Automaton":
        """Construct from a name -> weight mapping.

        A weight is a {(row, col): entry} dict of cells (row is the
        row_index of the children's states) or dense rows of entries; a
        nullary weight may be given as a single row.  Entries may be
        numbers, strings in the SizeRational grammar, or SizeRational values;
        zero entries are not stored.
        """
        d = dimension
        packed = []
        for name, arity in alphabet.symbols:
            cells = weights[name]
            if not isinstance(cells, dict):
                cells = _dense_cells(name, cells, arity, d)
            cells = {key: _entry(value, arity) for key, value in cells.items()}
            packed.append((name, exactmath.WeightMatrix((d**arity, d), arity, cells)))
        return cls(d, alphabet, tuple(packed))

    def weight(self, name: str) -> exactmath.WeightMatrix:
        for n, matrix in self.weights:
            if n == name:
                return matrix
        raise SymbolMismatch(f"symbol {name!r} is not in the alphabet")

    def nonzero_entries(self, name: str):
        """(row, col, entry) triples of the nonzero weight cells of a symbol,
        in row-major order."""
        return [(i, j, entry) for (i, j), entry in self.weight(name).cells.items()]


@nesting_guard(InputFormatError)
def evaluate(a: Automaton, t: Tree):
    """Return (mu~(t), value of t); the value is the first entry."""
    check_tree(a.alphabet, t)
    d = a.dimension
    leaves, cells = {}, {}
    for name, k in a.alphabet.symbols:
        if k == 0:
            leaves[name] = a.weight(name)[0]
        else:
            cells[name] = [
                (unrank_row(i, d, k), j, entry) for i, j, entry in a.nonzero_entries(name)
            ]

    def rec(node: Tree):
        if not node.children:
            return leaves[node.root]
        child_vecs = [rec(c) for c in node.children]
        sizes = (node.size,) + tuple(c.size for c in node.children)
        out = [Fraction(0)] * d
        for states, col, entry in cells[node.root]:
            coeff = Fraction(1)
            for vec, state in zip(child_vecs, states):
                coeff *= vec[state]
                if coeff == 0:
                    break
            else:
                out[col] += coeff * entry(sizes)
        return tuple(out)

    mu_tilde = rec(t)
    return mu_tilde, mu_tilde[0]


# ---------------------------------------------------------------------------
# final vectors


@record
class FinalVector:
    """Column vector of univariate rational functions of the size, each
    defined at every nonnegative integer."""

    entries: tuple  # of (UniPolynomial numerator, UniPolynomial denominator)

    def __post_init__(self):
        for num, den in self.entries:
            if den.is_zero:
                raise InvalidBeta("final vector denominator is zero")
            if den.degree >= 1:
                bad = {r for r in exactmath.poly_integer_roots(den) if r >= 0}
                if bad:
                    raise InvalidBeta(
                        f"final vector denominator has nonnegative root(s) {sorted(bad)}"
                    )

    @classmethod
    def of(cls, *entries) -> "FinalVector":
        poly = exactmath.UniPolynomial
        packed = []
        for e in entries:
            if isinstance(e, tuple):
                packed.append(e)
            elif isinstance(e, poly):
                packed.append((e, poly.const(1)))
            else:
                packed.append((poly.const(exactmath._frac(e)), poly.const(1)))
        return cls(tuple(packed))

    @classmethod
    def unit(cls, d: int, scale=1) -> "FinalVector":
        entries = [scale] + [0] * (d - 1)
        return cls.of(*entries)

    def __len__(self):
        return len(self.entries)

    def value_at(self, n: int) -> tuple:
        return tuple(num(n) / den(n) for num, den in self.entries)


def absorb_final_vector(a: Automaton, beta: FinalVector) -> Automaton:
    """Automaton of dimension d+1 whose value on t is mu~_a(t) . beta(|t|).

    The new first coordinate carries the absorbed value; coordinates 2..d+1
    replay the original automaton unchanged.
    """
    if len(beta) != a.dimension:
        raise InvalidBeta(f"final vector must have {a.dimension} entries")
    d = a.dimension
    beta0 = beta.value_at(0)
    weights = {}
    for name, arity in a.alphabet.symbols:
        old = a.weight(name).cells
        cells = {}
        # column 0 holds M = mu(g) . beta(x0), one entry per old row
        m_col = {}
        for (row, col), entry in old.items():
            cells[(shift_row(row, arity, d, d + 1, 1), col + 1)] = entry
            if arity == 0:
                term = entry * beta0[col]
            else:
                num, den = beta.entries[col]
                term = entry.mul_univariate(num, den, 0)
            m_col[row] = m_col[row] + term if row in m_col else term
        for row, value in m_col.items():
            cells[(shift_row(row, arity, d, d + 1, 1), 0)] = value
        weights[name] = cells
    return Automaton.build(d + 1, a.alphabet, weights)


# ---------------------------------------------------------------------------
# alphabet normalizations


def make_arity_distinct(a: Automaton) -> Automaton:
    """Merge all symbols of equal arity into one (named h<k>), summing their
    weight matrices.  Preserves the generating function, not tree values."""
    arities = sorted({k for _, k in a.alphabet.symbols})
    alphabet = RankedAlphabet.of(*[(f"h{k}", k) for k in arities])
    weights = {}
    for k in arities:
        acc = {}
        for name in a.alphabet.of_arity(k):
            for key, entry in a.weight(name).cells.items():
                acc[key] = acc[key] + entry if key in acc else entry
        weights[f"h{k}"] = acc
    return Automaton.build(a.dimension, alphabet, weights)


def unify_alphabets(a1: Automaton, a2: Automaton):
    """Rename both automata onto one shared alphabet, giving missing arities
    an empty weight.  Series prefixes are preserved."""
    if a1.alphabet == a2.alphabet:
        return a1, a2
    b1 = make_arity_distinct(a1)
    b2 = make_arity_distinct(a2)
    arities = sorted(
        {k for _, k in b1.alphabet.symbols} | {k for _, k in b2.alphabet.symbols}
    )
    alphabet = RankedAlphabet.of(*[(f"h{k}", k) for k in arities])

    def pad(b: Automaton) -> Automaton:
        weights = {
            f"h{k}": b.weight(f"h{k}").cells if f"h{k}" in b.alphabet else {}
            for k in arities
        }
        return Automaton.build(b.dimension, alphabet, weights)

    return pad(b1), pad(b2)


# ---------------------------------------------------------------------------
# exhaustive tree enumeration (the brute-force oracle)


def count_trees(alphabet: RankedAlphabet, n: int) -> int:
    """Number of trees of size n.

    With C(x) = sum_m counts[m] x^m, counts[m] = sum_k |Sigma_k| [x^(m-1)] C(x)^k
    for m >= 1.  Each power P = C^k is kept as an exact truncated series and
    extended by one coefficient per size through J.C.P. Miller's recurrence
    i C_0 P_i = sum_{j=1..i} ((k+1) j - i) C_j P_{i-j}, which follows from
    C P' = k C' P; C_0 >= 1 because every alphabet has a nullary symbol.  The
    work is O(n^2) per arity, however many compositions of m - 1 there are.
    """
    arities = {k: c for k, c in alphabet.arity_counts().items() if k > 0}
    c0 = len(alphabet.of_arity(0))
    counts = [c0]
    powers = {k: [] for k in arities}  # coefficients 0..m-1 of C^k
    for m in range(1, n + 1):
        i = m - 1
        for k, p in powers.items():
            if i == 0:
                p.append(c0**k)
            else:
                total = sum(((k + 1) * j - i) * counts[j] * p[i - j] for j in range(1, i + 1))
                p.append(total // (i * c0))
        counts.append(sum(c * powers[k][i] for k, c in arities.items()))
    return counts[n]


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`,
    lexicographically."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _beyond_guard(alphabet: RankedAlphabet, n: int) -> bool:
    """Whether there are more than ENUMERATION_GUARD trees of size n.

    With c >= 2 nullary symbols and a symbol f of arity k, the chains of n
    f-nodes whose other children are leaves alone give c^(n(k-1)+1) trees of
    size n, more than the guard once the exponent reaches the guard's bit
    length; that settles a wide alphabet before count_trees works with c^k.
    """
    exponent = n * (alphabet.max_arity - 1) + 1
    if n >= 1 and len(alphabet.of_arity(0)) >= 2 and exponent >= ENUMERATION_GUARD.bit_length():
        return True
    return count_trees(alphabet, n) > ENUMERATION_GUARD


def enumerate_trees(alphabet: RankedAlphabet, n: int):
    """All trees of size exactly n, each once, in deterministic order."""
    if _beyond_guard(alphabet, n):
        raise TooManyTrees(
            f"more than {ENUMERATION_GUARD} trees of size {n}; refusing to enumerate"
        )
    memo = {}

    def of_size(m: int):
        if m in memo:
            return memo[m]
        if m == 0:
            out = [Tree(name) for name in alphabet.of_arity(0)]
        else:
            out = []
            for name, k in alphabet.symbols:
                if k == 0:
                    continue
                for comp in compositions(m - 1, k):
                    pools = [of_size(part) for part in comp]
                    out.extend(
                        Tree(name, kids)
                        for kids in _cartesian(pools)
                    )
        memo[m] = out
        return out

    return of_size(n)


def _cartesian(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _cartesian(pools[1:]):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# JSON serialization


def automaton_to_json(a: Automaton) -> str:
    payload = {
        "dimension": a.dimension,
        "alphabet": [{"name": n, "arity": k} for n, k in a.alphabet.symbols],
        "weights": {},
    }
    format_size_rational = exactmath.format_size_rational
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


def automaton_from_json(text: str) -> Automaton:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from exc

    def expect(value, kind, what):
        if not isinstance(value, kind):
            raise InputFormatError(f"bad automaton JSON: {what} must be a JSON {kind.__name__}")
        return value

    try:
        expect(payload, dict, "the automaton")
        d = int(payload["dimension"])
        alphabet = RankedAlphabet.of(
            *[(s["name"], s["arity"]) for s in payload["alphabet"]]
        )
        stored = expect(payload.get("weights", {}), dict, "weights")
        parse_size_rational = exactmath.parse_size_rational
        parsed = {}  # (text, arity) -> SizeRational: weight strings repeat, values are immutable
        weights = {}
        for name, arity in alphabet.symbols:
            spec = expect(stored.get(name, {}), dict, f"the weight of {name!r}")
            cells = {}
            for cell in expect(spec.get("entries", []), list, f"the entries of {name!r}"):
                expect(cell, dict, f"an entry of {name!r}")
                if arity == 0:
                    row, value = 0, Fraction(str(cell["value"]))
                else:
                    idx = tuple(int(x) - 1 for x in cell["row"])
                    if len(idx) != arity or any(not 0 <= x < d for x in idx):
                        raise InputFormatError(
                            f"bad row index {cell['row']} for symbol {name!r}"
                        )
                    row = row_index(idx, d)
                    key = (str(cell["value"]), arity)
                    value = parsed.get(key)
                    if value is None:
                        value = parsed[key] = parse_size_rational(*key)
                col = int(cell["col"])
                if not 1 <= col <= d:
                    raise InputFormatError(f"column {col} out of range 1..{d}")
                cells[(row, col - 1)] = value
            weights[name] = cells
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from exc
    return Automaton.build(d, alphabet, weights)
