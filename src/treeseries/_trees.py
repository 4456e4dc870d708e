"""Trees, their evaluation in an automaton, and exhaustive tree enumeration.

A tree is an s-expression ``(f (a) (b))``; its size is the number of internal
(non-nullary) nodes.  Evaluating a tree t in an automaton runs the
leaf-to-root recursion

    mu~(g(t1,...,tk)) = (mu~(t1) (x) ... (x) mu~(tk)) . mu(g)(|t|, |t1|, ..., |tk|)

and the value of t is the first entry of mu~(t).  One generator,
``mu_tildes``, runs it for ``evaluate``, the tree-series witness search and
the brute-force oracle.  ``core`` offers every name here as its own and runs
this module on the first read of one of them, so a command that never
touches a tree never compiles it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._record import record
from .core import Automaton, RankedAlphabet
from .errors import InputFormatError, SymbolMismatch, TooManyTrees, nesting_guard

ENUMERATION_GUARD = 10**6
_set = object.__setattr__


# ---------------------------------------------------------------------------
# trees


@record
class Tree:
    root: str
    children: tuple = ()
    size: int = None  # computed: a given value is ignored

    def __init__(self, root, children=(), size=None):
        # enumeration builds hundreds of thousands of trees: no generic binder
        _set(self, "root", root)
        _set(self, "children", children)
        _set(self, "size", 1 + sum(c.size for c in children) if children else 0)

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
    parts, stack = [], [t]  # trees and the text between them: no recursion
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        else:
            parts.append("(" + node.root)
            stack.append(")")
            for c in reversed(node.children):
                stack.extend((c, " "))
    return "".join(parts)


def check_tree(alphabet: RankedAlphabet, t: Tree):
    k = alphabet.arity(t.root)
    if k != len(t.children):
        raise SymbolMismatch(
            f"symbol {t.root!r} has arity {k}, got {len(t.children)} children"
        )
    for c in t.children:
        check_tree(alphabet, c)



# ---------------------------------------------------------------------------
# evaluation


def kron(u, v):
    """Kronecker product of two row vectors, row-major pairing."""
    return tuple(a * b for a in u for b in v)


@nesting_guard(InputFormatError)
def evaluate(a: Automaton, t: Tree):
    """Return (mu~(t), value of t); the value is the first entry."""
    check_tree(a.alphabet, t)
    (mu_tilde,) = mu_tildes(a, (t,))
    return mu_tilde, mu_tilde[0]


def mu_tildes(a: Automaton, trees):
    """Yield mu~(t) for each tree t of ``trees``, unchecked against the alphabet.

    Each node forms one product of its children's entries per nonzero row of
    its symbol's weight (``WeightMatrix.rows``), and the vector of every
    subtree object is kept while the generator runs: enumeration shares
    subtree instances heavily, and mu~ of a subtree does not depend on its
    context.  The cache is keyed by id and holds the subtree too, so that no
    id is reused while it runs.
    """
    d = a.dimension
    leaves, rows = {}, {}
    for name, matrix in a.weights:
        if matrix.arity == 0:
            leaves[name] = matrix[0]
        else:
            rows[name] = matrix.rows.values()
    cache = {}  # id(subtree) -> (subtree, mu~(subtree))

    def rec(node: Tree):
        found = cache.get(id(node))
        if found is not None:
            return found[1]
        if not node.children:
            out = leaves[node.root]
        else:
            first, *others = [rec(c) for c in node.children]
            sizes = (node.size,) + tuple(c.size for c in node.children)
            acc = [Fraction(0)] * d
            for states, entries in rows[node.root]:
                coeff = first[states[0]]
                for vec, state in zip(others, states[1:]):
                    if not coeff:
                        break
                    coeff *= vec[state]
                if coeff:
                    for col, entry in entries:
                        acc[col] += coeff * entry(sizes)
            out = tuple(acc)
        cache[id(node)] = (node, out)
        return out

    for t in trees:
        yield rec(t)


# ---------------------------------------------------------------------------
# exhaustive tree enumeration (the brute-force oracle)


def _tree_counts(alphabet: RankedAlphabet):
    """Yield the numbers of trees of size 0, 1, 2, ...

    With C(x) = sum_m counts[m] x^m, counts[m] = sum_k |Sigma_k| [x^(m-1)] C(x)^k
    for m >= 1.  Each power P = C^k with k >= 2 is kept as an exact truncated
    series and extended by one coefficient per size through J.C.P. Miller's
    recurrence i C_0 P_i = sum_{j=1..i} ((k+1) j - i) C_j P_{i-j}, which
    follows from C P' = k C' P; C_0 >= 1 because every alphabet has a nullary
    symbol.  C^1 is C itself.  The work up to size n is O(n^2) per arity,
    however many compositions of n - 1 there are.
    """
    arities = {k: c for k, c in alphabet.arity_counts().items() if k > 0}
    c0 = len(alphabet.of_arity(0))
    counts = [c0]
    powers = {k: counts if k == 1 else [] for k in arities}  # coefficients 0..m-1 of C^k
    while True:
        yield counts[-1]
        i = len(counts) - 1
        for k, p in powers.items():
            if k == 1:
                continue
            if i == 0:
                p.append(c0**k)
            else:
                total = sum(((k + 1) * j - i) * counts[j] * p[i - j] for j in range(1, i + 1))
                p.append(total // (i * c0))
        counts.append(sum(c * powers[k][i] for k, c in arities.items()))


def count_trees(alphabet: RankedAlphabet, n: int) -> int:
    """Number of trees of size n."""
    return next(itertools.islice(_tree_counts(alphabet), n, None))


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
    length; that settles a wide alphabet before the count works with c^k.
    Otherwise the counts are taken size by size up to the first past the
    guard: with a symbol g of arity >= 1, t -> g(t, leaf, ..., leaf) maps the
    trees of size m one-to-one into those of size m + 1, so the counts never
    fall.  Without one, every tree has size 0.
    """
    if alphabet.max_arity == 0:
        return n == 0 and len(alphabet.symbols) > ENUMERATION_GUARD
    exponent = n * (alphabet.max_arity - 1) + 1
    if n >= 1 and len(alphabet.of_arity(0)) >= 2 and exponent >= ENUMERATION_GUARD.bit_length():
        return True
    counts = itertools.islice(_tree_counts(alphabet), n + 1)
    return any(count > ENUMERATION_GUARD for count in counts)


def enumerate_trees(alphabet: RankedAlphabet, n: int):
    """All trees of size exactly n, each once, in deterministic order."""
    if _beyond_guard(alphabet, n):
        raise TooManyTrees(
            f"more than {ENUMERATION_GUARD} trees of size {n}; refusing to enumerate"
        )
    by_size = [[Tree(name) for name in alphabet.of_arity(0)]]  # the trees of each size
    for m in range(1, n + 1):
        out = []
        for name, k in alphabet.symbols:
            if k == 0:
                continue
            for comp in compositions(m - 1, k):
                pools = [by_size[part] for part in comp]
                out.extend(Tree(name, kids) for kids in itertools.product(*pools))
        by_size.append(out)
    return by_size[n] if n >= 0 else []
