"""Bracket state vectors of rational tangles via twist transfer maps.

Every 2-tangle expands over the two crossingless tangles as
<T> = alpha.<vertical pair> + beta.<horizontal pair>; for rational
tangles the pair (alpha, beta) is computed from the twist word by one
closed-form 2x2 step per run of half twists.  This is the fast path;
the brute-force smoothing enumerator recomputes the same pair
independently for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import ExtRational
from .ring import LaurentPoly, RatFunc
from .tangles import RationalTangle, TwistWord, to_twist_word

__all__ = [
    "BracketVec2",
    "bracket_vector",
    "mirror_transport",
    "ratio_invariant",
    "coprime_ratio",
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


def _twist_run(alpha, beta, kind, a):
    """Add a run of |a| half twists of sign a on the right (kind "R") or
    at the bottom ("B").

    One right half twist of sign e maps (alpha, beta) by the triangular
    matrix [[x, A^e], [0, d]] with x = -A^(3e) and d = A^(-e); a bottom
    half twist of sign -e is the same map with the two coordinates
    swapped.  The k-th power of that matrix has diagonal x^k, d^k and
    off-diagonal g = A^e (x^(k-1) + x^(k-2) d + ... + d^(k-1)), so

        alpha <- (-1)^k A^(3ek) alpha + g beta,   beta <- A^(-ek) beta.

    g is the alternating sum of the k monomials A^(e(2-k) + 4ej), so with
    b the coefficients of beta, (g beta)(E + e(2-k)) is
    S(E) = sum over j < k of (-1)^j b(E - 4ej), and S satisfies
    S(E) = b(E) - (-1)^k b(E - 4ek) - S(E - 4e).  One pass per exponent
    class mod 4, in the direction of e, gives g beta with integer adds
    only, in time linear in |beta| + k; the diagonal terms are shifts.
    """
    k = abs(a)
    e = 1 if (a > 0) == (kind == "R") else -1
    if kind == "B":
        alpha, beta = beta, alpha
    sign = -1 if k % 2 else 1
    b = beta.coeffs
    step, lag, shift = 4 * e, 4 * e * k, e * (2 - k)
    out = {}
    if b:
        first, last = (min(b), max(b)) if e > 0 else (max(b), min(b))
    for r in {E % 4 for E in b}:
        s = 0
        for E in range(first + e * (e * (r - first) % 4), last + lag, step):
            s = b.get(E, 0) - sign * b.get(E - lag, 0) - s
            if s:
                out[E + shift] = s
    for E, c in alpha.coeffs.items():
        E += 3 * e * k
        s = out.get(E, 0) + sign * c
        if s:
            out[E] = s
        else:
            del out[E]
    # Zero sums were dropped above, so out is in stored form.
    alpha, beta = LaurentPoly._of(out), beta.shift(-e * k)
    if kind == "B":
        alpha, beta = beta, alpha
    return alpha, beta


def bracket_vector(t) -> BracketVec2:
    """Bracket coordinates of a rational tangle (or a raw twist word)."""
    word = t if isinstance(t, TwistWord) else to_twist_word(t)
    if word.start == "0":
        alpha, beta = LaurentPoly.zero(), LaurentPoly.one()
    else:
        alpha, beta = LaurentPoly.one(), LaurentPoly.zero()
    for kind, a in word.runs:
        alpha, beta = _twist_run(alpha, beta, kind, a)
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


def coprime_ratio(v: BracketVec2):
    """ratio_invariant of the bracket coordinates of a twist word, with
    no gcd.

    (alpha, beta) is a start vector (1, 0) or (0, 1) times run matrices
    of determinant +-A^m, so a common factor of alpha and beta in
    Z[A^+-1], an integer included, would divide the start vector: they
    are coprime.  The canonical form only moves the power of A onto the
    numerator and makes the constant term of beta positive, which holds
    for any coprime pair (tl._width_one_ratios passes the width-1 colored
    ratio).  ratio_invariant is the referee.
    """
    if v.alpha.is_zero or v.beta.is_zero:
        return ratio_invariant(v)
    shift = v.beta.min_exp()
    alpha, beta = v.alpha.shift(-shift), v.beta.shift(-shift)
    if beta.coeffs[0] < 0:
        alpha, beta = -alpha, -beta
    return RatFunc(alpha, beta)


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
    if any(uj * w[k] != u[k] * wj for uj, wj in zip(u, w)):
        raise ArithmeticError("bracket ratio is not rational at the root")
    return ExtRational(u[k], w[k])
