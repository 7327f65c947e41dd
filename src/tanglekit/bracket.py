"""Bracket state vectors of rational tangles via twist transfer maps.

Every 2-tangle expands over the two crossingless tangles as
<T> = alpha.<vertical pair> + beta.<horizontal pair>; for rational
tangles the pair (alpha, beta) is computed from the twist word by one
closed-form 2x2 step per run of half twists.  This is the fast path;
the brute-force smoothing enumerator recomputes the same pair
independently for verification.

The replay works on packed coordinates (Kronecker substitution).  The
exponents of alpha lie in one class mod 4 and those of beta in the class
two away, so each coordinate is A^lo P(A^4) for an ordinary integer
polynomial P, held as the one integer P(xi) at xi = 2^(8b).  A factor
A^4 is then a shift by one b-byte digit, and a run costs a few shifts,
adds and at most one exact division of big integers.  The digit width b
comes from a bound on the coefficients proven in one pass over the
runs, and each coordinate is read back once, at the end, with
ring._digits into the dense form (lo, digits) of _replay.

The width-1 payloads of the command line, colored --n 1 included
(through replay._colored_forms), read that form directly: ring._dense_str
writes from its digits and _dense_c_invariant evaluates them at the
root; bracket_vector writes it into LaurentPoly with ring._from_dense.
"""

from __future__ import annotations

from .rationals import ExtRational
from .records import Record
from .ring import LaurentPoly, RatFunc, _digit_width, _digits, _from_dense
from .tangles import TwistWord, to_twist_word

__all__ = [
    "BracketVec2",
    "bracket_vector",
    "mirror_transport",
    "ratio_invariant",
    "coprime_ratio",
    "c_invariant",
]


_set = object.__setattr__


class BracketVec2(Record):
    """Bracket coordinates (alpha, beta) of a 2-tangle: alpha multiplies
    the vertical-strands tangle, beta the horizontal-strands tangle."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: LaurentPoly, beta: LaurentPoly):
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.beta) == (other.alpha, other.beta)

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta))

    def __str__(self) -> str:
        return f"alpha = {self.alpha}; beta = {self.beta}"


def _digit_bytes(word: TwistWord) -> int:
    """Digit width b, in bytes, at which every coefficient of the bracket
    of word lies in [-xi/2, xi/2), xi = 2^(8b), rounded up to 1, 2, 4 or
    8 bytes where it fits.

    Norm bound.  A run of k half twists maps alpha to
    +-A^m alpha + g beta with g a sum of k monomials of coefficient +-1
    (see bracket_vector) and beta to a monomial times beta, so a
    coefficient of the new alpha is one of alpha plus a signed sum of at
    most k of beta: |alpha'| <= |alpha| + k |beta| in the max norm, and
    |beta'| = |beta|.  A bottom run swaps the roles.  Starting from the
    norms (0, 1) or (1, 0) of the start vector, M_alpha and M_beta below
    bound the two norms after every run, so max(M_alpha, M_beta) bounds
    every coefficient.
    """
    m_alpha, m_beta = (0, 1) if word.start == "0" else (1, 0)
    for kind, a in word.runs:
        if kind == "R":
            m_alpha += abs(a) * m_beta
        else:
            m_beta += abs(a) * m_alpha
    return _digit_width(max(m_alpha, m_beta))


def bracket_vector(t) -> BracketVec2:
    """Bracket coordinates of a rational tangle (or a raw twist word): the
    dense forms of _replay written into LaurentPoly."""
    (lo_a, da), (lo_b, db) = _replay(to_twist_word(t))
    return BracketVec2(_from_dense(lo_a, 1, da, 4), _from_dense(lo_b, 1, db, 4))


def _trimmed(lo: int, p: int, b: int) -> tuple:
    """The dense form (lo', digits) of A^lo P(A^4), P(xi) = p at
    xi = 2^(8b), with its zero low digits dropped: p's trailing zero bits
    hold whole zero digits, and each one taken off raises lo by 4."""
    if p:
        k = ((p & -p).bit_length() - 1) // (8 * b)
        p >>= 8 * b * k
        lo += 4 * k
    return lo, _digits(p, b)


def _replay(t) -> tuple:
    """((lo_alpha, digits_alpha), (lo_beta, digits_beta)): the bracket
    coordinates of a rational tangle (or a twist word) as A^lo P(A^4),
    digits the coefficients of P, lowest first, with no zero at either
    end (no digits for a zero coordinate).

    A twist word is taken as checked against its bound by the caller,
    which has it from to_twist_word or replay.colored_twist_word; a tangle
    goes through to_twist_word here.

    One run.  One right half twist of sign e maps (alpha, beta) by the
    triangular matrix [[x, A^e], [0, d]] with x = -A^(3e) and d = A^(-e);
    a bottom half twist of sign -e is the same map with the two
    coordinates swapped.  The k-th power of that matrix has diagonal
    x^k, d^k and off-diagonal g = A^e (x^(k-1) + x^(k-2) d + ... +
    d^(k-1)) = A^(e(2-k)) sum over j < k of (-1)^j A^(4ej), so

        alpha <- (-1)^k A^(3ek) alpha + g beta,   beta <- A^(-ek) beta.

    Classes mod 4.  After any sequence of half twists, raw words
    included, there is an r such that every exponent of alpha is r and
    every exponent of beta is r + 2, mod 4; take r = 2 at the start
    (0, 1) and r = 0 at (1, 0).  A right half twist of sign e sends the
    exponents of -A^(3e) alpha to r + 3e, those of A^e beta to
    r + 2 + e = r + 3e (2 - 2e is 0 mod 4), and those of A^(-e) beta to
    r + 2 - e = (r + 3e) + 2 (mod 4), so r + 3e serves after it.  A
    bottom half twist is the same with the roles swapped, and the claim
    is symmetric.

    Packed form.  Each coordinate is (lo, P(xi)) for A^lo P(A^4).  The lo
    follows the same steps as the exponents, through a zero coordinate
    too, so the class argument holds for the lo themselves; a lo may lie
    below the lowest exponent, which leaves zero low digits.  With u = A^4,
    sum over j < k of (-u)^j = (1 - (-u)^k) / (1 + u), so for a beta of
    (lo, P):

        e = +1:  g beta = A^(lo + 2 - k) Q(u),
        e = -1:  g beta = (-1)^(k-1) A^(lo + 2 - 3k) Q(u),

    with Q = P (1 - (-u)^k) / (1 + u) an integer polynomial, so
    Q(xi) = (P(xi) - (-1)^k P(xi) xi^k) // (1 + xi) exactly; at k = 1,
    Q = P.  The alpha term is (-1)^k P_alpha at lo_alpha + 3ek.  Both
    terms have their lo in the class of the new alpha, so their lo differ
    by a multiple of 4 and the sum is one add after a shift by whole
    digits.  Shifts, adds and exact divisions commute with evaluation at
    xi, so every P(xi) is exact whatever its digits; only the decoding at
    the end needs the bound of _digit_bytes.
    """
    word = t if isinstance(t, TwistWord) else to_twist_word(t)
    b = _digit_bytes(word)
    bits = 8 * b
    one_xi = (1 << bits) + 1
    lo_a, pa, lo_b, pb = (2, 0, 0, 1) if word.start == "0" else (0, 1, 2, 0)
    for kind, a in word.runs:
        k = abs(a)
        e = 1 if (a > 0) == (kind == "R") else -1
        if kind == "B":
            lo_a, pa, lo_b, pb = lo_b, pb, lo_a, pa
        if k & 1:
            q = pb if k == 1 else (pb + (pb << bits * k)) // one_xi
            pa = -pa
        else:
            q = (pb - (pb << bits * k)) // one_xi
        if e > 0:
            lo_q, lo_t = lo_b + 2 - k, lo_a + 3 * k
        else:
            lo_q, lo_t = lo_b + 2 - 3 * k, lo_a - 3 * k
            if not k & 1:
                q = -q
        # lo_t - lo_q is a multiple of 4: 2b bits per unit of exponent
        if lo_t >= lo_q:
            pa, lo_a = q + (pa << 2 * b * (lo_t - lo_q)), lo_q
        else:
            pa, lo_a = pa + (q << 2 * b * (lo_q - lo_t)), lo_t
        lo_b -= e * k
        if kind == "B":
            lo_a, pa, lo_b, pb = lo_b, pb, lo_a, pa
    return _trimmed(lo_a, pa, b), _trimmed(lo_b, pb, b)


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
    for any coprime pair (as the width-1 colored ratio of
    replay._width_one_forms).  ratio_invariant is the referee.
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


def _dense_root_coords(lo: int, digits) -> tuple:
    """_root_coords of A^lo P(A^4) from the digits of P: since
    zeta^4 = -1 it is zeta^lo P(-1), one alternating digit sum."""
    s = sum(digits[::2]) - sum(digits[1::2])
    lo %= 8
    coords = [0, 0, 0, 0]
    coords[lo % 4] = s if lo < 4 else -s
    return tuple(coords)


def _root_fraction(a: tuple, w: tuple) -> ExtRational:
    """The fraction -zeta^2 alpha(zeta) / beta(zeta) from the root
    coordinates a of alpha(zeta) and w of beta(zeta).

    With u = -zeta^2 alpha(zeta), a rotation of a, it is u_k / w_k at the
    first nonzero w_k, provided u is that multiple of w in every
    coordinate.
    """
    a0, a1, a2, a3 = a
    u = (a2, a3, -a0, -a1)
    k = next((i for i in range(4) if w[i]), None)
    if k is None:
        if any(u):
            return ExtRational.infinity()
        raise ValueError("indeterminate fraction: bracket vanishes at the root")
    if any(uj * w[k] != u[k] * wj for uj, wj in zip(u, w)):
        raise ArithmeticError("bracket ratio is not rational at the root")
    return ExtRational(u[k], w[k])


def c_invariant(v: BracketVec2) -> ExtRational:
    """Fraction of the tangle recovered from its bracket coordinates.

    The fraction is -zeta^2 alpha(zeta) / beta(zeta) at a primitive
    eighth root of unity zeta, a rational number or infinity
    (_root_fraction).
    """
    return _root_fraction(_root_coords(v.alpha), _root_coords(v.beta))


def _dense_c_invariant(forms) -> ExtRational:
    """c_invariant of the bracket coordinates in the dense forms of
    _replay, read with no LaurentPoly."""
    (lo_a, da), (lo_b, db) = forms
    return _root_fraction(_dense_root_coords(lo_a, da), _dense_root_coords(lo_b, db))
