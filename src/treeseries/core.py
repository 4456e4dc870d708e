"""Ranked alphabets, automata, final vectors, and the JSON format.

An automaton is a pair (d, mu): nullary symbols get row vectors in Q^(1xd);
a symbol of arity k >= 1 gets a d^k x d matrix of SizeRational in x0..xk,
whose row index is the row-major rank of the children's state tuple.
Weight matrices are stored sparse (exactmath.WeightMatrix): automata built
by closure are almost entirely zero, so every construction, the JSON reader
and writer, and evaluation touch the nonzero cells only, and a matrix reads
as dense rows only when a caller indexes it.

Trees, their evaluation and exhaustive tree enumeration are names of this
module too, but live in ``_trees``, which runs on the first read of one of
them (``__getattr__`` below): most commands never touch a tree.  So does
the JSON writer, in ``_format``.
"""

from __future__ import annotations

from fractions import Fraction

from . import _format, _trees, exactmath
from ._record import record
from .errors import InputFormatError, InvalidBeta, InvariantError, SymbolMismatch

# names of this module that other modules define
_ELSEWHERE = {
    **dict.fromkeys((
        "ENUMERATION_GUARD", "Tree", "check_tree", "compositions", "count_trees",
        "enumerate_trees", "evaluate", "format_tree", "kron", "mu_tildes",
        "parse_tree", "tree_size",
    ), _trees),
    "automaton_to_json": _format,
}


def __getattr__(name):
    module = _ELSEWHERE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


# ---------------------------------------------------------------------------
# alphabets


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


# ---------------------------------------------------------------------------
# automata


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
        return value
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
    # a constant entry c/1 scales a weight, a zero one drops its terms
    # (ts_add and ts_scale absorb unit vectors); only the others multiply
    constant = [
        value if num.degree <= 0 and den.degree == 0 else None
        for (num, den), value in zip(beta.entries, beta0)
    ]
    weights = {}
    for name, arity in a.alphabet.symbols:
        old = a.weight(name).cells
        cells = {}
        # column 0 holds M = mu(g) . beta(x0), one entry per old row
        m_col = {}
        for (row, col), entry in old.items():
            cells[(shift_row(row, arity, d, d + 1, 1), col + 1)] = entry
            c = beta0[col] if arity == 0 else constant[col]
            if c == 0:
                continue
            if c is not None:
                term = entry * c if arity == 0 else entry.scale(c)
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


def _merge_onto(a: Automaton, arities) -> Automaton:
    """Merge all symbols of a of equal arity k into one, named h<k>, summing
    their weight matrices, over the alphabet of the h<k> for k in arities;
    an arity a lacks gets an empty weight."""
    alphabet = RankedAlphabet.of(*[(f"h{k}", k) for k in arities])
    weights = {}
    for k in arities:
        acc = {}
        for name in a.alphabet.of_arity(k):
            for key, entry in a.weight(name).cells.items():
                acc[key] = acc[key] + entry if key in acc else entry
        weights[f"h{k}"] = acc
    return Automaton.build(a.dimension, alphabet, weights)


def make_arity_distinct(a: Automaton) -> Automaton:
    """Merge all symbols of equal arity into one (named h<k>), summing their
    weight matrices.  Preserves the generating function, not tree values."""
    return _merge_onto(a, sorted(a.alphabet.arity_counts()))


def unify_alphabets(a1: Automaton, a2: Automaton):
    """Rename both automata onto one shared alphabet, giving missing arities
    an empty weight.  Series prefixes are preserved."""
    if a1.alphabet == a2.alphabet:
        return a1, a2
    arities = sorted(a1.alphabet.arity_counts().keys() | a2.alphabet.arity_counts().keys())
    return _merge_onto(a1, arities), _merge_onto(a2, arities)


# ---------------------------------------------------------------------------
# JSON serialization


def automaton_from_json(text: str) -> Automaton:
    import json

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
