"""Cyclotomic bookkeeping of the colored coordinates.

[m] = A^(2-2m) (A^(4m) - 1) / (A^4 - 1) = A^(2-2m) prod over d | m,
d > 1, of Phi_d(A^4), so each bubble ratio c_i = theta(n,n,2i) /
Delta_2i, a quotient of quantum integers, is a unit +-A^k times a
quotient of products of the Phi_d(A^4), all known when the tables are
built (bubble_factors, cached per width as tl._transfer_data is).  The
colored coordinates gamma_i = kappa_i / c_i and their ratios are then
reduced from the replay coordinates kappa_i with no general
normalization (reduced_gammas, reduced_ratios): a coordinate takes no
gcd, and a ratio one.  The polynomials here are in u = A^4, as
dense coefficient sequences, lowest first.

tl imports this module at the first colored coordinates of width 2 or
more, or of a diagram, so commands needing neither skip it.
"""

from __future__ import annotations

from functools import cache
from itertools import cycle, repeat
from operator import add, mul

from . import recoupling, tl
from .ring import RatFunc, _exact_quotient, _from_dense, _gcd_cofactors

__all__ = ["bubble_factors", "ratio_factors", "reduced_gammas", "reduced_ratios"]

#: A prime l = 1 mod lcm(1, ..., 17) = 12,252,240 with 19^((l-1)/p) != 1
#: mod l for every prime p <= 17.  So for every d <= 17 = 2
#: tl.MAX_TWIST_WIDTH + 1, the largest quantum integer of the tables,
#: w = 19^((l-1)/d) has order exactly d mod l: a root of Phi_d mod l,
#: which _cyclotomic checks.
_TEST_PRIME = 2305843009633603441

@cache
def _cyclotomic(d: int):
    """(Phi_d(u) as a dense tuple, powers): powers are w^0, ..., w^(d-1)
    mod _TEST_PRIME for w = 19^((l-1)/d), with Phi_d(w) = 0 mod
    _TEST_PRIME checked here.  Phi_d is u^d - 1 divided by Phi_e for
    every e < d dividing d.
    """
    phi = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _exact_quotient(phi, _cyclotomic(e)[0])
    ell = _TEST_PRIME
    w, value = pow(19, (ell - 1) // d, ell), 0
    for c in reversed(phi):
        value = (value * w + c) % ell
    if value or (ell - 1) % d:
        raise ValueError(f"no root of Phi_{d} modulo the test prime")
    return tuple(phi), tuple(pow(w, k, ell) for k in range(d))


def _dense_mul(a, b):
    """The product of two dense integer polynomials, b possibly (1,): one
    C-level pass over a per nonzero coefficient of b, which is short here
    (a product of cyclotomic polynomials)."""
    if len(b) == 1 and b[0] == 1:
        return a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            out[j:j + n] = map(add, out[j:j + n], map(mul, a, repeat(c)))
    return out


def _cyclotomic_product(factors: dict) -> tuple:
    """The product of Phi_d(u)^m over factors, a dict d -> m, dense."""
    return _product(*sorted(factors.items()))


@cache
def _product(*factors) -> tuple:
    """_cyclotomic_product of the pairs (d, m), sorted, cached."""
    out = (1,)
    for d, m in factors:
        for _ in range(m):
            out = _dense_mul(_cyclotomic(d)[0], out)
    return tuple(out)


class _Factored:
    """sign A^shift N(A^4) / D(A^4), N and D products of Phi_d(A^4) over
    d >= 2 with no d in both, from exponents, a dict d -> e: num and den
    map each d to its multiplicity in N and in D, num_u and den_u are N(u)
    and D(u), and num_poly is N(A^4).  (A plain class: a NamedTuple took
    a third of a millisecond to create at import.)"""

    __slots__ = ("sign", "shift", "num", "den", "num_u", "den_u", "num_poly")

    def __init__(self, sign: int, shift: int, exponents: dict):
        self.sign, self.shift = sign, shift
        self.num = {d: e for d, e in exponents.items() if e > 0}
        self.den = {d: -e for d, e in exponents.items() if e < 0}
        self.num_u = _cyclotomic_product(self.num)
        self.den_u = _cyclotomic_product(self.den)
        self.num_poly = _from_dense(0, 1, self.num_u, 4)


@cache
def bubble_factors(n: int) -> list:
    """The bubble ratios c_i of tl._transfer_data(n), each as a _Factored,
    cached per width.

    They come from recoupling.bubble_counts, the exponent of each quantum
    integer [m] in c_i, with [m] = A^(2-2m) prod over d | m, d > 1, of
    Phi_d(A^4).  Each is checked, else ValueError, to multiply back to
    the c_i of tl._transfer_data: with no d in both N and D, N / D is in
    canonical form, so it must equal c_i term for term.
    """
    factors = []
    for i, c in enumerate(tl._transfer_data(n)[3]):
        sign, counts = recoupling.bubble_counts(n, i)
        exponents, shift = {}, 0
        for m, e in counts.items():
            shift += e * (2 - 2 * m)
            for d in range(2, m + 1):
                if m % d == 0:
                    exponents[d] = exponents.get(d, 0) + e
        f = _Factored(sign, shift, exponents)
        if (f.num_poly.shift(f.shift) * f.sign != c.num
                or _from_dense(0, 1, f.den_u, 4) != c.den):
            raise ValueError(f"colored coordinates at cable width {n}: the cyclotomic "
                             f"factors of c_{i} do not multiply back to its bubble ratio")
        factors.append(f)
    return factors


@cache
def ratio_factors(n: int, i: int, k: int) -> _Factored:
    """c_k / c_i at width n as a _Factored, cached per (n, i, k)."""
    fi, fk = bubble_factors(n)[i], bubble_factors(n)[k]
    exponents = {}
    for f, s in ((fk, 1), (fi, -1)):
        for side, t in ((f.num, s), (f.den, -s)):
            for d, m in side.items():
                exponents[d] = exponents.get(d, 0) + t * m
    return _Factored(fi.sign * fk.sign, fk.shift - fi.shift, exponents)


def _strip(p, factors: dict):
    """(p / G, rest) for a nonzero dense polynomial p in u, with
    G = prod over factors (d -> m) of Phi_d(u)^min(m, v_d), v_d the
    multiplicity of Phi_d in p, and rest the factors left over, d -> m
    less the copies taken.

    A copy is taken only after an exact divisibility test.  Where Phi_d
    divides p, p(w) = 0 mod l at every root w of Phi_d mod l
    (_cyclotomic), so p(w) != 0 mod l rules Phi_d out at the cost of one
    C-level sum; most tests end there.  Otherwise the exact division
    ring._exact_quotient decides.
    """
    rest = {}
    for d, m in factors.items():
        phi, powers = _cyclotomic(d)
        while m:
            if sum(map(mul, p, cycle(powers))) % _TEST_PRIME:
                break
            q = _exact_quotient(p, phi)
            if q is None:
                break
            p, m = q, m - 1
        if m:
            rest[d] = m
    return p, rest


def reduced_gammas(quarters: dict, n: int) -> list:
    """gamma_i = kappa_i / c_i in canonical form, for the kappa_i of
    tl._closure_kappas, with no gcd.

    With c_i = s A^k N / D (bubble_factors), gamma_i = s A^-k kappa_i D / N.
    Each Phi_d(A^4) of N is taken out of kappa_i at most as often as it
    occurs in N, and only when it divides (_strip), leaving kappa' and
    N'.  Then s A^-k kappa' D / N' is canonical.  N' is a product of
    Phi_d(A^4), d >= 2, each with constant term 1, so it is ordinary with
    a positive constant term, and primitive.  D shares no factor with N'
    (no d is in both).  And kappa' shares none with N': kappa', like
    kappa_i, is a monomial times a polynomial P'(A^4), so an irreducible
    factor of Phi_d(A^4) divides it only if Phi_d(u) divides P'(u), that
    is, only if Phi_d(A^4) divides it; and every d left in N' is one
    whose Phi_d(A^4) no longer divides kappa'.  A canonical form is
    unique, so this is RatFunc.normalized(kappa_i c_i.den, c_i.num), the
    referee in the tests.
    """
    out = []
    for i, f in enumerate(bubble_factors(n)):
        if i not in quarters:
            out.append(RatFunc.zero())
            continue
        lo, sign, p = quarters[i]
        p, rest = _strip(p, f.num)
        den = f.num_poly if rest == f.num else _from_dense(0, 1, _cyclotomic_product(rest), 4)
        out.append(RatFunc(_from_dense(lo - f.shift, sign * f.sign, _dense_mul(p, f.den_u), 4), den))
    return out


def reduced_ratios(quarters: dict, n: int) -> list:
    """The ratios gamma_i / gamma_k of colored_ratios, k the last nonzero
    coordinate, for the kappa_i of tl._closure_kappas, with one gcd
    per ratio and no warning (k < n shows as fewer than n ratios).

    gamma_i / gamma_k = (kappa_i / kappa_k) (c_k / c_i).  One
    ring._gcd_cofactors gives kappa_i = g a and kappa_k = g b, up to
    units, with a and b coprime in Z[A], contents included.  With
    c_k / c_i = s A^j M / M' (ratio_factors), the Phi_d(A^4) of M' are
    stripped from a and those of M from b (_strip), leaving a', b', and
    M_1, M'_1 of M and M'; the ratio is s A^j a' M_1 / (b' M'_1), with
    the sign of b' moved so that the constant term is positive.  It is
    canonical as built: for x, y coprime and z, w coprime,
    gcd(x z, y w) = gcd(x, w) gcd(z, y) (compare multiplicities prime by
    prime).  a' and b' divide the coprime a and b; M_1 and M'_1 have no
    d in common; and gcd(a', M'_1) = gcd(M_1, b') = 1 as in
    reduced_gammas, since a and b are polynomials in A^4, as is a gcd of
    two of them.  b' keeps the nonzero constant term of b, and each
    Phi_d(A^4) has constant term 1, so the denominator is ordinary.  The
    contents of a' and b' are those of a and b, coprime, and the M are
    primitive.
    """
    if not quarters:
        raise ValueError("zero skein element")
    k = max(quarters)
    lo_k, sign_k, q = quarters[k]
    out = []
    for i in range(k):
        if i not in quarters:
            out.append(RatFunc.zero())
            continue
        lo_i, sign_i, p = quarters[i]
        f = ratio_factors(n, i, k)
        _, (a, b) = _gcd_cofactors([p, q])
        a, rest_den = _strip(a, f.den)
        b, rest_num = _strip(b, f.num)
        num = _dense_mul(a, f.num_u if rest_num == f.num else _cyclotomic_product(rest_num))
        den = _dense_mul(b, f.den_u if rest_den == f.den else _cyclotomic_product(rest_den))
        s = 1 if den[0] > 0 else -1
        out.append(RatFunc(_from_dense(lo_i - lo_k + f.shift, s * sign_i * sign_k * f.sign, num, 4),
                           _from_dense(0, s, den, 4)))
    return out
