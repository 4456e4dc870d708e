"""Frozen value classes, ranked alphabets and automata.

``@record`` turns a class whose own annotations name its fields, in order,
into an immutable value class with the behaviour of
``@dataclass(frozen=True)``:

- ``__init__`` takes the fields positionally or by keyword, with class-level
  values as defaults, sets each one through ``object.__setattr__`` and then
  calls ``self.__post_init__()`` when the class defines one;
- ``__eq__`` compares field tuples between instances of the same class only,
  and ``__hash__`` hashes the field tuple;
- ``__repr__`` reads ``Name(field=value, ...)``;
- assigning or deleting an attribute raises ``FrozenInstanceError``.

A method the class defines itself wins over the shared one.  The methods
are closures over the field tuple, so decorating a class compiles no code;
``dataclasses`` (which loads ``inspect``) and per-class code generation cost
every command-line run more.  ``Tree``, built in bulk, has its own
``__init__``.  The other modules import ``record`` from here: every command
that runs one of them runs this module too.

An automaton is a pair (d, mu): nullary symbols get row vectors in Q^(1xd);
a symbol of arity k >= 1 gets a d^k x d matrix of SizeRational in x0..xk,
whose row index is the row-major rank of the children's state tuple.
Weight matrices are stored sparse (exactmath.WeightMatrix): automata built
by closure are almost entirely zero, so every construction, the JSON reader
and writer, and evaluation touch the nonzero cells only, and a matrix reads
as dense rows only when a caller indexes it.

``initial_vector`` (a_0, the sum of the nullary rows) and ``_embed_shifted``
(a weight's cells moved into a larger automaton) live here because both the
coefficient engine and the closure constructions use them, and so does the
``op`` command's handler, ``_cmd_op``: every ``op`` runs this module, and
only ``arity-distinct`` runs no other layer.

Trees, their evaluation and exhaustive tree enumeration are names of this
module too, but live in ``_trees``: most commands never touch a tree.  So do
the JSON reader, in ``_reader``, and the JSON writer, in ``_format``.  The
package's ``_FORWARDS`` lists these names; ``__getattr__`` below reads them
from there on first use.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from . import _forward, _reader, cli, exactmath
from .errors import InputFormatError, InvariantError, SymbolMismatch


def __getattr__(name):
    return _forward(__name__, name)


# ---------------------------------------------------------------------------
# frozen value classes


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    cls = type(self)
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls.__record_fields__)
    return f"{cls.__qualname__}({body})"


def _bind(fields, defaults, args, kwargs):
    """The field values of a call with keywords or a wrong number of
    positional arguments; TypeError where a dataclass raises it."""
    if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args):]):
        raise TypeError(f"__init__() got bad arguments {args} {kwargs}")
    values = {**dict(zip(fields[len(fields) - len(defaults):], defaults)),
              **dict(zip(fields, args)), **kwargs}
    missing = [name for name in fields if name not in values]
    if missing:
        raise TypeError(f"__init__() missing required arguments {missing}")
    return [values[name] for name in fields]


def record(cls):
    """Make ``cls`` a frozen value class (see the module docstring)."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    # a field without a default after one with a default is a SyntaxError
    defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    count, required = len(fields), len(fields) - len(defaults)
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= count:
            args = _bind(fields, defaults, args, kwargs)
        elif len(args) < count:
            args += defaults[len(args) - required:]
        for name, value in zip(fields, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    if count > 1:
        key = attrgetter(*fields)
    else:  # attrgetter of one name gives the value, of none is an error
        key = lambda self: tuple(getattr(self, name) for name in fields)  # noqa: E731

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for method in (__init__, __eq__, __hash__):
        methods[method.__name__] = method
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__record_fields__ = fields
    return cls


# ---------------------------------------------------------------------------
# alphabets


def symbol_char(c: str) -> bool:
    """Whether a symbol name in a tree may contain ``c``."""
    return c.isalnum() or c in "_-'"


@record
class RankedAlphabet:
    symbols: tuple  # of (name, arity) pairs, order significant

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise InvariantError("alphabet names must be pairwise distinct")
        if not any(k == 0 for _, k in self.symbols):
            raise InvariantError("alphabet needs at least one nullary symbol")
        for n, k in self.symbols:
            if k < 0:
                raise InvariantError("arity must be nonnegative")
            if not n or not all(map(symbol_char, n)):
                raise InvariantError(f"symbol {n!r} cannot be read in a tree")

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


def _embed_shifted(matrix, arity: int, offset: int, d_old: int, d_new: int) -> dict:
    """Re-index the cells of a weight matrix into a larger automaton, states
    shifted by offset; rows and columns of foreign states stay empty."""
    return {
        (shift_row(row, arity, d_old, d_new, offset), offset + col): entry
        for (row, col), entry in matrix.cells.items()
    }


def _entry(value, arity: int):
    if arity == 0:
        return exactmath._frac(value)
    if isinstance(value, exactmath.SizeRational):
        return value
    if isinstance(value, str):
        return _reader.parse_size_rational(value, arity)
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


def initial_vector(a: Automaton) -> tuple:
    """a_0: the sum of the nullary weight rows."""
    a0 = [Fraction(0)] * a.dimension
    for name in a.alphabet.of_arity(0):
        for (_, j), v in a.weight(name).cells.items():
            a0[j] += v
    return tuple(a0)


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
# the `op` command


def _cmd_op(args) -> int:
    a = cli._load_automaton(args.automaton)
    operand = cli._OPS[args.name][2]
    operands = ()
    if operand == "-c":
        if args.scalar is None:
            raise InputFormatError(f"{args.name} needs -c <rational>")
        try:
            operands = (Fraction(args.scalar),)
        except ZeroDivisionError:
            raise InputFormatError(f"division by zero in -c {args.scalar}") from None
    elif operand == "-b":
        if args.b is None:
            raise InputFormatError(f"{args.name} needs a second automaton (-b)")
        operands = (cli._load_automaton(args.b),)
    cli._write_automaton(cli._BINARY_OPS[args.name](a, *operands), args.output)
    return cli.EXIT_OK
