"""Closed forms of Temperley-Lieb recoupling theory for the colored
transfer replay.

Quantum factorials and the theta and Tet evaluations of projector
networks (Kauffman & Lins, Temperley-Lieb Recoupling Theory and
Invariants of 3-Manifolds, 1994; Masbaum & Vogel, Pacific J. Math. 164,
1994), with the quantum integer [k] = A^(2k-2) + A^(2k-6) + ... +
A^(2-2k) and Delta_k = (-1)^k [k+1], the loop value of the k-strand
projector.  A projector colors its edge by its strand count.  A
quotient of quantum factorials is kept as the exponent of each [k], so
that equal factors cancel before any polynomial is multiplied.

tl imports this module at its first projector loop value or colored
twist word of width 2 or more, so commands needing neither skip it.
"""

from __future__ import annotations

from .ring import LaurentPoly, RatFunc

__all__ = ["bubble_counts", "bubble_ratio", "quarter_turn_entry"]


def _qint(k: int) -> LaurentPoly:
    return LaurentPoly({2 * k - 2 - 4 * j: 1 for j in range(k)})


def _qrange(lo: int, hi: int) -> LaurentPoly:
    """[lo+1][lo+2]...[hi], that is [hi]! / [lo]!."""
    out = LaurentPoly.one()
    for k in range(lo + 1, hi + 1):
        out = out * _qint(k)
    return out


def _add_factorial(counts: dict, k: int, e: int):
    """Multiply the quotient whose [m]-exponents are counts by [k]!^e."""
    for m in range(2, k + 1):
        counts[m] = counts.get(m, 0) + e


def _expand(counts: dict):
    """Numerator and denominator of a quotient of quantum integers."""
    num, den = LaurentPoly.one(), LaurentPoly.one()
    for k, e in counts.items():
        if e > 0:
            num = num * _qint(k) ** e
        elif e < 0:
            den = den * _qint(k) ** -e
    return num, den


def _theta_counts(n: int, i: int) -> dict:
    """theta(n, n, 2i), the bubble of two n-edges and a 2i-edge, is
    (-1)^(n+i) [n+i+1]! [n-i]! [i]!^2 / ([n]!^2 [2i]!)."""
    counts = {}
    for k, e in ((n + i + 1, 1), (n - i, 1), (i, 2), (n, -2), (2 * i, -1)):
        _add_factorial(counts, k, e)
    return counts


def bubble_counts(n: int, i: int):
    """(sign, counts) with bubble_ratio(n, i) = sign times the product of
    [k]^counts[k]: the quantum-integer exponents of theta(n, n, 2i) with
    that of Delta_2i = [2i+1] taken off."""
    counts = _theta_counts(n, i)
    counts[2 * i + 1] = counts.get(2 * i + 1, 0) - 1
    return (-1) ** (n + i), counts


def bubble_ratio(n: int, i: int) -> RatFunc:
    """theta(n, n, 2i) / Delta_2i, Delta_2i = [2i+1].

    The basis element b_i of engine.bni_basis(n) closes around the annulus
    to this ratio times S_2i(z), and its inverse is coordinate i of two
    parallel n-cables (the fusion identity).  So b_i divided by it, the
    fusion basis of the colored replay, closes to S_2i(z).
    """
    sign, counts = bubble_counts(n, i)
    num, den = _expand(counts)
    return RatFunc.normalized(num * sign, den)


def quarter_turn_entry(n: int, i: int, j: int) -> RatFunc:
    """Coordinate i of the quarter turn of b'_j in the fusion basis
    b'_i = b_i / bubble_ratio(n, i): Tet Delta_2j / (theta(n,n,2i)
    theta(n,n,2j)).

    Tet is the tetrahedron with edges (n, n, n, n, 2i, 2j), faces
    a = (n+i, n+i, n+j, n+j) (half edge sums) and 4-cycles
    b = (2n, n+i+j, n+i+j):
    Tet = prod [b - a]! / prod [edge]! times the sum over
    lo = max a <= s <= hi = min b of
    (-1)^s [s+1]! / (prod [s - a]! prod [b - s]!).  The terms of the sum
    are put over prod [hi - a]! prod [b - lo]!, and [lo+1]! is taken out
    of every one.  The signs (-1)^(n+i) and (-1)^(n+j) of the two thetas
    leave (-1)^(i+j).
    """
    a = (n + i, n + i, n + j, n + j)
    b = (2 * n, n + i + j, n + i + j)
    lo, hi = max(a), min(b)
    total = LaurentPoly.zero()
    for s in range(lo, hi + 1):
        term = _qrange(lo + 1, s + 1)
        for x in a:
            term = term * _qrange(s - x, hi - x)
        for y in b:
            term = term * _qrange(y - s, y - lo)
        total = total + (-term if (s + i + j) % 2 else term)
    counts = {k: -e for k, e in _theta_counts(n, i).items()}
    for k, e in _theta_counts(n, j).items():
        counts[k] = counts.get(k, 0) - e
    counts[2 * j + 1] = counts.get(2 * j + 1, 0) + 1
    _add_factorial(counts, lo + 1, 1)
    for x in a:
        _add_factorial(counts, hi - x, -1)
        for y in b:
            _add_factorial(counts, y - x, 1)
    for y in b:
        _add_factorial(counts, y - lo, -1)
    for k, e in ((n, -4), (2 * i, -1), (2 * j, -1)):
        _add_factorial(counts, k, e)
    num, den = _expand(counts)
    return RatFunc.normalized(total * num, den)
