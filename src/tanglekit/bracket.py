"""Bracket state vectors of rational tangles via twist transfer maps.

Every 2-tangle expands over the two crossingless tangles as
<T> = alpha.<vertical pair> + beta.<horizontal pair>; for rational
tangles the pair (alpha, beta) is computed by replaying the twist word
through four fixed 2x2 matrices, one per elementary twist.  This is
the fast path; the brute-force smoothing enumerator recomputes the
same pair independently for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import ExtRational
from .ring import LaurentPoly, RatFunc
from .tangles import RationalTangle, TwistWord, to_twist_word

__all__ = [
    "BracketVec2",
    "bracket_vector",
    "mirror_transport",
    "ratio_invariant",
    "c_invariant",
]


@dataclass(frozen=True)
class BracketVec2:
    """Bracket coordinates (alpha, beta) of a 2-tangle: alpha multiplies
    the vertical-strands tangle, beta the horizontal-strands tangle."""

    alpha: LaurentPoly
    beta: LaurentPoly

    def __str__(self) -> str:
        return f"alpha = {self.alpha}; beta = {self.beta}"


_A = LaurentPoly.monomial(1)
_Ainv = LaurentPoly.monomial(-1)
_A3 = LaurentPoly.monomial(3)
_A3inv = LaurentPoly.monomial(-3)


def _step(alpha, beta, kind, s):
    if kind == "R":
        if s > 0:
            return -_A3 * alpha + _A * beta, _Ainv * beta
        return -_A3inv * alpha + _Ainv * beta, _A * beta
    if s > 0:
        return _A * alpha, _Ainv * alpha - _A3inv * beta
    return _Ainv * alpha, _A * alpha - _A3 * beta


def bracket_vector(t) -> BracketVec2:
    """Bracket coordinates of a rational tangle (or a raw twist word)."""
    word = t if isinstance(t, TwistWord) else to_twist_word(t)
    if word.start == "0":
        alpha, beta = LaurentPoly.zero(), LaurentPoly.one()
    else:
        alpha, beta = LaurentPoly.one(), LaurentPoly.zero()
    for kind, s in word.moves:
        alpha, beta = _step(alpha, beta, kind, s)
    return BracketVec2(alpha, beta)


def mirror_transport(v: BracketVec2, op: str) -> BracketVec2:
    """Push a tangle symmetry through the bracket coordinates.

    "negate" is the mirror image (A -> 1/A in both coordinates);
    "invert" is the diagonal flip, which additionally swaps the two
    crossingless tangles.
    """
    alpha = v.alpha.invert_variable()
    beta = v.beta.invert_variable()
    if op == "negate":
        return BracketVec2(alpha, beta)
    if op == "invert":
        return BracketVec2(beta, alpha)
    raise ValueError(f"unknown symmetry {op!r}")


def ratio_invariant(v: BracketVec2):
    """The bracket ratio alpha/beta as a reduced rational function.

    Returns None to signal the value infinity (beta = 0); raises if
    both coordinates vanish.
    """
    if v.beta.is_zero:
        if v.alpha.is_zero:
            raise ValueError("degenerate bracket: both coordinates vanish")
        return None
    return RatFunc.normalized(v.alpha, v.beta)


def _root_coords(p: LaurentPoly) -> tuple:
    """Coordinates of p(zeta) over 1, zeta, zeta^2, zeta^3, where zeta is
    a primitive eighth root of unity: A^e folds onto zeta^(e mod 4),
    negated when e mod 8 >= 4, since zeta^4 = -1."""
    coords = [0, 0, 0, 0]
    for e, c in p.coeffs.items():
        e %= 8
        if e < 4:
            coords[e] += c
        else:
            coords[e - 4] -= c
    return tuple(coords)


def c_invariant(v: BracketVec2) -> ExtRational:
    """Fraction of the tangle recovered from its bracket coordinates.

    The fraction is -zeta^2 alpha(zeta) / beta(zeta) at a primitive
    eighth root of unity zeta, a rational number or infinity.  With
    u = -zeta^2 alpha(zeta), a rotation of the coordinates of
    alpha(zeta), and v = beta(zeta), it is u_k / v_k at the first
    nonzero v_k, provided u is that multiple of v in every coordinate.
    """
    a0, a1, a2, a3 = _root_coords(v.alpha)
    u = (a2, a3, -a0, -a1)
    w = _root_coords(v.beta)
    k = next((i for i in range(4) if w[i]), None)
    if k is None:
        if any(u):
            return ExtRational.infinity()
        raise ValueError("indeterminate fraction: bracket vanishes at the root")
    r = Fraction(u[k], w[k])
    if any(uj != r * wj for uj, wj in zip(u, w)):
        raise ArithmeticError("bracket ratio is not rational at the root")
    return ExtRational(r.numerator, r.denominator)
