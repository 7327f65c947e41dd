"""Reduction of the colored coordinates against the bubble ratios.

The colored coordinates gamma_i = kappa_i / c_i and their ratios are
reduced from the replay coordinates kappa_i with no general
normalization (reduced_gammas, reduced_ratios): a coordinate takes no
gcd of its own, and a ratio one.  What is left to cancel lies between a
cofactor and the bubble ratios c_i = theta(n,n,2i) / Delta_2i of
replay._transfer_data, read once per width into dense digits (_bubbles) and
once per pair of indices into c_k / c_i (_ratio), and is cancelled
against those short, primitive table polynomials (_cancel).  Every c_i
is a unit times a quotient of products of the cyclotomic polynomials
Phi_d(A^4), as every quantum integer is, whence the module's name; the
reduction needs no factor of them.  The polynomials here are in u = A^4,
as dense coefficient sequences, lowest first, and so are the results,
the quotient forms of replay._colored_forms.

Two facts carry the proofs.  Polynomials P(u) and Q(u) coprime in Z[u]
give P(A^4) and Q(A^4) coprime in Z[A]: substituting u = A^4 in a
Bezout identity over Q leaves one, and the contents are unchanged.  And
for x, y coprime and z, w coprime, gcd(x z, y w) = gcd(x, w) gcd(z, y)
(compare multiplicities prime by prime).

replay imports this module at the first colored coordinates of width 2 or
more, or of a diagram, so commands needing neither skip it.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import gcd
from operator import add, mul

from . import replay
from .ring import _gcd_cofactors, _pack, _to_dense

__all__ = ["reduced_gammas", "reduced_ratios"]


def _dense_mul(a, b):
    """The product of two dense integer polynomials, b possibly (1,): one
    C-level pass over a per nonzero coefficient of b, which is short here
    (a table polynomial)."""
    if len(b) == 1 and b[0] == 1:
        return a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            out[j:j + n] = map(add, out[j:j + n], map(mul, a, repeat(c)))
    return out


def _entry(n: int, what: str, p, lo: int = 0) -> tuple:
    """(p, b, p(xi)) for a table polynomial p, with xi = 2^(8b) the point
    ring._heuristic_gcd picks for p, the least with xi >= 2 |p| + 2.

    The premises of _cancel and of the proofs are checked here, else
    ValueError naming the width n and what p is: p is primitive, and lo,
    the exponent of A taken out of a denominator by ring._to_dense, is 0.
    The constant term of p is nonzero: ring._to_dense takes out the least
    exponent, and the M and M' of _ratio divide products of such.
    """
    if lo or gcd(*p) != 1:
        raise ValueError(f"colored coordinates at cable width {n}: the {what} is not "
                         "primitive with a nonzero constant term")
    b = ((2 * max(max(p), -min(p)) + 1).bit_length() + 7) // 8
    return p, b, _pack(p, b)


@cache
def _bubbles(n: int) -> list:
    """The bubble ratios c_i = A^lo N(A^4) / D(A^4) of replay._transfer_data(n)
    as (lo, N, D), N and D entries of _entry, cached per width."""
    out = []
    for i, c in enumerate(replay._transfer_data(n)[3]):
        lo, num = _to_dense(c.num, 4)
        lo_den, den = _to_dense(c.den, 4)
        out.append((lo, _entry(n, f"numerator of c_{i}", num),
                    _entry(n, f"denominator of c_{i}", den, lo_den)))
    return out


@cache
def _ratio(n: int, i: int, k: int) -> tuple:
    """c_k / c_i = A^lo M(A^4) / M'(A^4) at width n as (lo, M, M'), M and
    M' entries of _entry, cached per (n, i, k): the cofactors of one
    ring._gcd_cofactors of N_k D_i and D_k N_i, so coprime."""
    lo_i, (num_i, *_), (den_i, *_) = _bubbles(n)[i]
    lo_k, (num_k, *_), (den_k, *_) = _bubbles(n)[k]
    _, (m, m_den) = _gcd_cofactors([_dense_mul(num_k, den_i), _dense_mul(num_i, den_k)])
    return (lo_k - lo_i, _entry(n, f"numerator of c_{k} / c_{i}", m),
            _entry(n, f"denominator of c_{k} / c_{i}", m_den))


def _cancel(p, entry):
    """(p / g, f / g) for a nonzero dense polynomial p and a table entry
    (f, b, f(xi)) of _entry, with g = gcd(p, f); p and f themselves when
    they are coprime.

    They are when gcd(p(xi), f(xi)) < xi / 2: that is the early exit of
    the certificate of ring._heuristic_gcd with f as its first input,
    since xi >= 2 |f| + 2, and f is primitive, so no content is shared
    either.  Most pairs end there, at the cost of packing p; otherwise
    ring._gcd_cofactors decides.  A constant f is +-1, being primitive,
    so it returns at once, with nothing packed: the numerator of c_n is 1.
    """
    f, b, value = entry
    if len(f) == 1 or gcd(_pack(p, b), value).bit_length() < 8 * b:
        return p, f
    _, (p, f) = _gcd_cofactors([p, f])
    return p, f


def reduced_gammas(quarters: dict, n: int) -> list:
    """gamma_i = kappa_i / c_i in canonical form, as the forms of
    replay._colored_forms, for the kappa_i of replay._closure_kappas, with
    no gcd of their own.

    With c_i = A^lo N / D (_bubbles), gamma_i = A^-lo kappa_i D / N.  With
    g = gcd(kappa_i, N) (_cancel), it is A^-lo (kappa_i / g) D / (N / g),
    canonical as built up to the sign of N / g (the sign the forms leave
    to their reader and writer).  kappa_i / g is coprime to N / g, and so
    is D, coprime to N since c_i is canonical; so is their product.  N is
    primitive with a nonzero constant term (_entry), and so is its
    divisor N / g, whose content divides that of N, and whose constant
    term divides N's.  A canonical form is unique, so this is
    RatFunc.normalized(kappa_i c_i.den, c_i.num), the referee in the
    tests.
    """
    out = []
    for i, (lo_c, num, den) in enumerate(_bubbles(n)):
        if i not in quarters:
            out.append((0, 1, (), (1,)))
            continue
        lo, sign, p = quarters[i]
        p, rest = _cancel(p, num)
        out.append((lo - lo_c, sign, _dense_mul(p, den[0]), rest))
    return out


def reduced_ratios(quarters: dict, n: int) -> list:
    """The ratios gamma_i / gamma_k of colored_ratios, k the last nonzero
    coordinate, as the forms of replay._colored_forms, for the kappa_i of
    replay._closure_kappas, with one gcd per ratio and no warning (k < n
    shows as fewer than n ratios).

    gamma_i / gamma_k = (kappa_i / kappa_k) (c_k / c_i).  One
    ring._gcd_cofactors gives kappa_i = g a and kappa_k = g b, up to
    units, with a and b coprime in Z[A], contents included.  With
    c_k / c_i = A^j M / M' (_ratio), M and M' coprime, the ratio is
    A^j a M / (b M'), and gcd(a M, b M') = gcd(a, M') gcd(M, b).  So a is
    cancelled against M' and b against M (_cancel), leaving a', M'_1 and
    b', M_1, and A^j a' M_1 / (b' M'_1) is canonical as built up to the
    sign of b' M'_1.  Its denominator is ordinary: b keeps the nonzero
    constant term of kappa_k, M' has one (_entry), and so do their
    divisors b' and M'_1.  Its contents are those of a' and b', which are
    those of a and b, coprime: M and M' are primitive, and so are their
    gcds with a and b, and the quotients by them.
    """
    if not quarters:
        raise ValueError("zero skein element")
    k = max(quarters)
    lo_k, sign_k, q = quarters[k]
    out = []
    for i in range(k):
        if i not in quarters:
            out.append((0, 1, (), (1,)))
            continue
        lo_i, sign_i, p = quarters[i]
        lo, num, den = _ratio(n, i, k)
        _, (a, b) = _gcd_cofactors([p, q])
        a, rest_den = _cancel(a, den)
        b, rest_num = _cancel(b, num)
        out.append((lo_i - lo_k + lo, sign_i * sign_k, _dense_mul(a, rest_num),
                    _dense_mul(b, rest_den)))
    return out
