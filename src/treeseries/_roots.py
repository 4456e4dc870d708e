"""Integer roots of polynomials of degree two or more, by Sturm sequences
kept in integers.

``exactmath.poly_integer_roots`` solves degrees 0 and 1 in closed form and
imports this module only for the rest, which most commands never meet.
"""

import math


def _primitive(coeffs) -> list:
    """Integer coefficients divided by their (positive) content."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _sturm_remainder(a: list, b: list) -> list:
    """A positive multiple of rem(a, b), primitive (integer coefficients, low
    degree first): each step of the pseudo-division scales the remainder by
    |lead(b)| instead of dividing by lead(b)."""
    rem = list(a)
    lead = b[-1]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    db = len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c = sign * rem[k + db]
        rem = [scale * r for r in rem[: k + db]]
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return _primitive(rem) if rem else rem


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials where b divides a; b primitive, so the
    quotient has integer coefficients (Gauss's lemma)."""
    rem = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + db] // b[-1]
        for j, bj in enumerate(b):
            rem[k + j] -= c * bj
    return quo


def _horner(coeffs: list, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_roots(p) -> set:
    """The integer roots of a UniPolynomial p of degree two or more.

    The Sturm sequence p, p', -rem(p, p'), ... ends in g = gcd(p, p'); divided
    by g it is the Sturm sequence of the squarefree part of p, whose roots are
    those of p, each simple, and V(a) - V(b) of them lie in (a, b], V(x) being
    the sign changes of the sequence at x (zeros dropped).  Every member may
    be scaled by a positive constant, so the sequence is kept in integers:
    p with cleared denominators, and pseudo-remainders divided by their
    content.  Bisecting (-B, B] at integers, B = 2 + max |c_i / c_n| the
    Cauchy bound, and dropping each interval without a root ends in intervals
    (m - 1, m] that hold the root m or none: O(log B) evaluations per real root.
    """
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    ints = _primitive([c.numerator * (scale // c.denominator) for c in p.coeffs])
    chain = [ints, _primitive([i * c for i, c in enumerate(ints)][1:])]
    rem = _sturm_remainder(chain[0], chain[1])
    while rem:
        chain.append([-c for c in rem])
        rem = _sturm_remainder(chain[-2], chain[-1])
    if len(chain[-1]) > 1:
        chain = [_exact_quotient(f, chain[-1]) for f in chain]

    def changes(x):
        signs = [v > 0 for v in (_horner(f, x) for f in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 2 + max(abs(c) for c in ints) // abs(ints[-1])
    roots = set()
    todo = [(-bound, bound, changes(-bound), changes(bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _horner(chain[0], hi) == 0:
                roots.add(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots
