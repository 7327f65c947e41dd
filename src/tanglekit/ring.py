"""Exact scalar arithmetic for skein computations, over Z[A^+-1] and its
fraction field.

Two towers, each immutable and canonical so that ``==`` is true value
equality:

* ``LaurentPoly``: sparse Laurent polynomials in one variable ``A`` with
  integer coefficients, the ring Z[A^+-1] of the skein module.
* ``RatFunc``: its fraction field, with a normalized representative
  (denominator an ordinary polynomial with positive constant term that
  shares no factor of Z[A^+-1] but a unit with the numerator).

``RatCombination`` carries that form over to linear combinations with
``RatFunc`` coefficients, as numerators over one shared denominator; the
Temperley-Lieb and annulus skein elements are its two kinds.

Every coefficient is an ``int``.  A rational number enters only as a
``Fraction`` scalar of ``RatFunc``, which stores p/q as the constant
polynomials p over q.

The text of a Laurent polynomial is written in one place, the term writer
``_write_terms``: ``LaurentPoly.__str__`` feeds it the sorted items, and
``_dense_str`` the digits of a dense form, so that the packed bracket
replay's coordinates print with no dict built.

This module is the one writer and reader of the replays' digit forms.
``_pack`` and ``_digits`` pack and unpack a dense polynomial at
xi = 2^(8b) (Kronecker substitution).  A quotient form (lo, sign, num,
den), sign A^lo N(A^4) / D(A^4) canonical up to the sign of D, is written
by ``_quotient_str`` and read by ``_from_quotient``, each moving D's sign
onto the numerator.

Gcds and divisions run on ordinary polynomials held dense, as the
sequence of their coefficients (``_to_dense`` reads a Laurent
polynomial into that form, ``_from_dense`` writes it back).  A
polynomial gcd is the gcd in Z[A]: the gcd of the contents times the
gcd of the primitive parts (Gauss's lemma).  The primitive gcd is an
integer gcd at one evaluation point, certified by exact division
(``_heuristic_gcd``); the primitive remainder sequence (``_poly_gcd``)
takes the rare inputs the heuristic gives up on.  ``_exact_quotient`` is
the one long division; ``_prem`` is its pseudo-division for the
remainder sequence.  The packed replays divide by evaluating it:
bracket's division by 1 + xi and tl._divide's divmod by q_den^2(xi) are
that division read at xi = 2^(8b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import index, mul, neg, sub
from struct import pack, unpack
from types import MappingProxyType

__all__ = [
    "DELTA",
    "LaurentPoly",
    "RatCombination",
    "RatFunc",
    "as_ratfunc",
    "common_denominator",
    "delta_power",
    "normalize_over",
]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A sparse Laurent polynomial over Z: dict {exponent: nonzero int}.

    The constructor takes each coefficient through operator.index, so a
    Fraction or a float raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = index(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, coeffs: dict) -> "LaurentPoly":
        """Wrap a dict already in stored form (int exponents, nonzero int
        values), without a copy or a check."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_scalar(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        """The generator A."""
        return cls({1: 1})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly._of({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return poly_dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def invert_variable(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (the mirror-image substitution)."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return _write_terms(sorted(self.coeffs.items(), reverse=True))

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _write_terms(terms) -> str:
    """The text of the sum of c*A^e over the pairs (e, c) of terms, each
    c nonzero, taken from the top exponent down; no term gives "0".

    The one term writer: LaurentPoly.__str__ feeds it the sorted items
    and _dense_str the nonzero digits of a dense form.  Each term carries
    its sign in its separator, " + " or " - "; the first term's separator
    is cut to "" or "-" at the end.
    """
    out = []
    for e, c in terms:
        if c < 0:
            sep, c = " - ", -c
        else:
            sep = " + "
        if e == 0:
            out.append(f"{sep}{c}")
        elif e == 1:
            out.append(f"{sep}A" if c == 1 else f"{sep}{c}*A")
        else:
            out.append(f"{sep}A^{e}" if c == 1 else f"{sep}{c}*A^{e}")
    if not out:
        return "0"
    s = "".join(out)
    return s[3:] if s[1] == "+" else "-" + s[3:]


# ---------------------------------------------------------------------------
# Ordinary polynomials, dense
# ---------------------------------------------------------------------------
#
# An ordinary integer polynomial is the sequence of its coefficients,
# lowest first, with a nonzero top coefficient (empty for zero).  A
# Laurent polynomial A^lo P(A^s) enters that form through _to_dense at
# the exponent step s and leaves it through _from_dense.

def _to_dense(v: LaurentPoly, step: int):
    """(lo, digits) with v = A^lo P(A^step) for a nonzero v: lo its least
    exponent and digits the coefficients of P, lowest first.  Raises
    ValueError when an exponent of v lies off lo + step Z."""
    coeffs = v.coeffs
    lo = min(coeffs)
    digits = tuple(map(coeffs.get, range(lo, max(coeffs) + 1, step), repeat(0)))
    if len(digits) - digits.count(0) != len(coeffs):
        raise ValueError(f"exponents leave one class mod {step}")
    return lo, digits


def _from_dense(lo: int, sign: int, digits, step: int) -> LaurentPoly:
    """sign A^lo P(A^step) for the coefficients digits of P, lowest first,
    zeros allowed anywhere: the inverse of _to_dense."""
    exponents = range(lo, lo + step * len(digits), step)
    if sign < 0:
        digits = map(neg, digits)
    return LaurentPoly._of({e: c for e, c in zip(exponents, digits) if c})


def _dense_str(lo: int, sign: int, digits, step: int) -> str:
    """str(_from_dense(lo, sign, digits, step)), written from the digits
    with no dict: the top digit first, zeros skipped."""
    top = digits[::-1]
    exponents = range(lo + step * (len(top) - 1), lo - 1, -step)
    terms = zip(exponents, top if sign > 0 else map(neg, top))
    return _write_terms(compress(terms, top))


def _quotient_str(form) -> str:
    """str(_from_quotient(form)) for a quotient form (lo, sign, num, den),
    written from its digits: the sign of D's constant term goes to both
    _dense_str calls, and a denominator of +-1 is left out."""
    lo, sign, num, den = form
    s = 1 if den[0] > 0 else -1
    text = _dense_str(lo, s * sign, num, 4)
    return text if len(den) == 1 == s * den[0] else f"({text})/({_dense_str(0, s, den, 4)})"


def _common_forms(polys: list):
    """(s, [_to_dense(p, s) for p in polys]) for nonzero Laurent
    polynomials, s the largest step at which each p lies in one class
    (1 when all are monomials).

    The gcd and the exact quotients of polynomials in A^s are polynomials
    in A^s (a Bezout identity over Q shows it), so they are taken on the
    dense forms at step s and mapped back with _from_dense at the same
    step: a quarter of the length for the brackets of twist words.
    """
    step = 0
    for p in polys:
        lo = min(p.coeffs)
        step = gcd(step, *(e - lo for e in p.coeffs))
    step = step or 1
    return step, [_to_dense(p, step) for p in polys]


def _split(a):
    """(c, a / c) with c the content of a, the gcd of its coefficients:
    the primitive part has coprime coefficients, and is a itself when c
    is 1."""
    c = gcd(*a) or 1
    return c, a if c == 1 else [v // c for v in a]


def _primitive(a):
    """a divided by its content: coprime integer coefficients."""
    return _split(a)[1]


def _prem(a, b):
    """Pseudo-remainder of integer polynomials: the remainder of m * a
    divided by b, for some nonzero integer m, with integer coefficients
    throughout.  The degree steps down as in _exact_quotient."""
    a = list(a)
    top = len(b) - 1
    lead, low = b[top], b[:top]
    while len(a) > top:
        f = a.pop()
        if not f:
            continue
        g = gcd(f, lead)
        f, m = f // g, lead // g
        if m != 1:
            a = [m * c for c in a]
        k = len(a) - top
        a[k:] = map(sub, a[k:], map(mul, low, repeat(f)))
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(a, b):
    """Gcd of the primitive parts of two ordinary integer polynomials,
    with positive leading coefficient (empty when both are zero).

    Primitive polynomial remainder sequence (Collins 1967; Brown & Traub
    1971): pseudo-remainders stay in Z[A], and dividing each by its
    content keeps the coefficients from growing along the sequence.
    This is the fallback of _gcd_cofactors and the referee of
    _heuristic_gcd in the tests.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _exact_quotient(w, d):
    """w / d for integer polynomials when d divides w in Z[A], else None;
    w may carry zero top coefficients, and the quotient then does too.

    Long division from the top: with D = deg d, quotient coefficient
    h_j = (w_(j+D) - sum over k < D of d_k h_(j+D-k)) / d_D, one C-level
    sum(map(mul)) over the D coefficients found last; the remainder
    coefficients, w_t - sum over k <= t of d_k h_(t-k) for t < D, must
    all vanish.  A step that d_D does not divide ends it: the quotient's
    coefficients are the steps' integer ratios, so d does not divide w
    in Z[A].  For a primitive d that is also division over Q (Gauss's
    lemma).  A monic d takes no division per step.
    """
    top = len(d) - 1
    lead, low = d[top], d[:top]
    found = [0] * top
    for t in range(len(w) - 1, top - 1, -1):
        h = w[t] - sum(map(mul, low, found[len(found) - top:]))
        if lead != 1:
            h, r = divmod(h, lead)
            if r:
                return None
        found.append(h)
    if any(w[t] != sum(map(mul, low, found[len(found) - 1 - t:])) for t in range(min(top, len(w)))):
        return None
    return found[top:][::-1]


#: Length up to which _pack evaluates by Horner's rule, set against the
#: struct path: on balanced digits at b = 1, 2, 4 and 8 the two took the
#: same time at 16 digits, and the struct path won from 24 (2-vCPU x86
#: host, CPython 3.11).
_HORNER_DEGREE = 16


def _pack(p, b: int) -> int:
    """p(xi) at xi = 2^(8b) for an ordinary integer polynomial p, zeros
    allowed anywhere: the one packer, the inverse of _digits.

    Up to _HORNER_DEGREE coefficients by Horner's rule, which is
    quadratic.  Past it, when every coefficient is a balanced digit and
    b is 1, 2, 4 or 8, their two's complement bytes, written by one
    struct call and read as one integer y, give p(xi) = (y ^ H) - H, H as
    in _digits.  Otherwise pairwise: neighbouring values are joined as
    lo + hi xi^k, halving their count and doubling k each round, so that
    each round's big-integer work is linear in the packed size.  Timed on
    the same host on 16 to 3,000 coefficients of 9 to 300 bits at b = 1 to 16, it beat a
    byte join of digit rows at every size, by 2.5 to 7 times, and
    Horner's rule from about 64 to 150 coefficients on, losing by at
    most 3 us below that; on balanced digits past 8 bytes it took the
    time of one int.to_bytes per digit.
    """
    n = len(p)
    if n <= _HORNER_DEGREE:
        v, bits = 0, 8 * b
        for c in reversed(p):
            v = (v << bits) + c
        return v
    fmt = _DIGIT_FORMATS.get(b)
    if fmt and -(1 << (8 * b - 1)) <= min(p) and max(p) < 1 << (8 * b - 1):
        half = _half_digits(b, n)
        return (int.from_bytes(pack(f"<{n}{fmt}", *p), "little") ^ half) - half
    bits, vals = 8 * b, list(p)
    while len(vals) > 1:
        if len(vals) % 2:
            vals.append(0)
        pairs = iter(vals)
        vals = [lo + (hi << bits) for lo, hi in zip(pairs, pairs)]
        bits *= 2
    return vals[0]


def _digit_width(bound: int) -> int:
    """The least digit width b, in bytes, with bound < xi/2, xi = 2^(8b),
    rounded up to 1, 2, 4 or 8 bytes where it fits: the widths at which
    _digits reads, and _pack past _HORNER_DEGREE writes, balanced digits
    with one struct call."""
    b = (bound.bit_length() + 8) // 8
    return next((w for w in (1, 2, 4, 8) if b <= w), b)


_DIGIT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _half_digits(b: int, n: int) -> int:
    """H = (xi/2) (1 + xi + ... + xi^(n-1)), xi = 2^(8b)."""
    return int.from_bytes((b"\x00" * (b - 1) + b"\x80") * n, "little")


def _digits(v: int, b: int) -> tuple:
    """The balanced digits of v at xi = 2^(8b), lowest first: the
    coefficients of the polynomial h with h(xi) = v and every coefficient
    in [-xi/2, xi/2), the top one nonzero (none for v = 0).

    Adding H = xi/2 at every digit position makes every digit d + xi/2,
    in [0, xi); flipping its top bit (xor H) leaves the b-byte two's
    complement of d.  So the bytes of (v + H) ^ H are the digits as
    signed little-endian integers, read with one struct.unpack at
    b = 1, 2, 4 or 8 and one int.from_bytes per digit at other widths.
    """
    n = v.bit_length() // (8 * b) + 2
    half = _half_digits(b, n)
    raw = ((v + half) ^ half).to_bytes(b * n, "little")
    fmt = _DIGIT_FORMATS.get(b)
    if fmt:
        digits = unpack(f"<{n}{fmt}", raw)
    else:
        digits = tuple(int.from_bytes(raw[t:t + b], "little", signed=True)
                       for t in range(0, b * n, b))
    while n and not digits[n - 1]:
        n -= 1
    return digits[:n]


def _heuristic_gcd(polys: list):
    """Gcd of nonzero ordinary integer polynomials by evaluation at one
    integer point (GCDHEU: Char, Geddes & Gonnet, J. Symbolic Comput. 7,
    1989), certified by exact division.

    Returns (g, [p / g for p in polys]) with g primitive and its leading
    coefficient positive, or None when three points in a row give no
    certified candidate; when g is 1, the list is polys itself.  The
    point is xi = 2^(8b) with xi >= 2 m + 2, m the least max-norm |p| of
    an input p0; gamma is the integer gcd of the p(xi), starting with p0,
    and g the primitive part of the polynomial h read off gamma in
    balanced digits.

    Certificate.  Suppose g divides every input exactly, and let G be
    their primitive gcd.  g is primitive, so G = g c with c in Z[A]
    (Gauss).  By the Cauchy bound every root r of p0 has
    |r| < 1 + m <= xi / 2, so p0(xi) != 0 and gamma != 0.  G(xi) divides
    every p(xi), hence gamma = h(xi) = +-content(h) g(xi), so c(xi)
    divides content(h) and |c(xi)| <= |content(h)| <= xi / 2.  If c had
    degree d >= 1, its roots would be roots of p0, and
    |c(xi)| >= prod over them of (xi - |r|) > (xi / 2)^d >= xi / 2, a
    contradiction.  So c is a unit and g = +-G.  The argument needs only
    one input with xi >= 2 |p0| + 2, so it holds for any number of
    inputs, and for every prefix of them that starts with p0: when gamma
    drops below xi / 2, h is a constant, g = 1 divides everything, and
    no further input need be evaluated.
    """
    norms = [max(max(p), -min(p)) for p in polys]
    first = norms.index(min(norms))
    order = [polys[first]] + polys[:first] + polys[first + 1:]
    b = ((2 * norms[first] + 1).bit_length() + 7) // 8
    for _ in range(3):
        gamma = 0
        for p in order:
            gamma = gcd(gamma, _pack(p, b))
            if gamma.bit_length() < 8 * b:
                return [1], polys
        # gamma > 0, and the top balanced digit outweighs all the lower
        # ones, so g has a positive leading coefficient.
        g = _primitive(_digits(gamma, b))
        quotients = []
        for p in polys:
            q = _exact_quotient(p, g)
            if q is None:
                break
            quotients.append(q)
        else:
            return g, quotients
        b *= 2
    return None


def _gcd_cofactors(polys: list):
    """(g, [p / g for p in polys]) for nonzero ordinary integer
    polynomials, with g their gcd in Z[A]: the gcd c of their contents
    times their primitive gcd, whose leading coefficient is positive.

    The primitive gcd and the cofactors are taken on the primitive parts,
    through _heuristic_gcd or, when the heuristic gives up, the primitive
    PRS and _exact_quotient; each content over c goes back onto its
    cofactor, so the cofactors are integer polynomials.
    """
    contents, parts = map(list, zip(*map(_split, polys)))
    found = _heuristic_gcd(parts)
    if found is None:
        g = []
        for p in parts:
            g = _poly_gcd(g, p)
            if len(g) == 1:
                break
        found = g, [_exact_quotient(p, g) for p in parts]
    g, quotients = found
    c = gcd(*contents)
    if c != 1:
        g = [v * c for v in g]
    return g, [q if k == c else [v * (k // c) for v in q]
               for q, k in zip(quotients, contents)]


def poly_exact_div(a: LaurentPoly, b) -> LaurentPoly:
    """Quotient a / b when b divides a in Z[A^+-1]; raises ValueError
    otherwise, also when the quotient has non-integral coefficients.
    The divisor may be an int, as in LaurentPoly arithmetic."""
    if not isinstance(a, LaurentPoly) or not isinstance(b, (LaurentPoly, int)):
        raise TypeError(
            f"poly_exact_div divides a LaurentPoly by a LaurentPoly or an int, "
            f"got {type(a).__name__} and {type(b).__name__}"
        )
    if isinstance(b, int):
        b = LaurentPoly.from_scalar(b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return LaurentPoly.zero()
    step, ((sa, da), (sb, db)) = _common_forms([a, b])
    q = _exact_quotient(da, db)
    if q is None:
        raise ValueError("division is not exact")
    return _from_dense(sa - sb, 1, q, step)


def poly_dot(pairs) -> LaurentPoly:
    """The sum of a * b over pairs (a, b) of Laurent polynomials, built
    in one dict: no product or partial sum is made as a polynomial of
    its own.  An empty or cancelling sum gives the zero polynomial."""
    out = {}
    for a, b in pairs:
        terms = b.coeffs.items()
        for e1, c1 in a.coeffs.items():
            for e2, c2 in terms:
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return LaurentPoly._of(out)


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """A least common multiple of two Laurent polynomials (up to units)."""
    if a.is_zero or b.is_zero:
        raise ZeroDivisionError("lcm with zero polynomial")
    step, ((_, da), (_, db)) = _common_forms([a, b])
    _, (_, b_over_g) = _gcd_cofactors([da, db])
    return a * _from_dense(0, 1, b_over_g, step)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

_ONE_COEFFS = {0: 1}


def _is_poly_one(p: LaurentPoly) -> bool:
    return p.coeffs == _ONE_COEFFS


_ZERO_POLY = LaurentPoly.zero()
_ONE_POLY = LaurentPoly.one()


def normalize_over(nums: dict, den: LaurentPoly):
    """Reduce a dict of numerators over one shared denominator.

    Returns (nums, den) in canonical form, with every quotient
    nums[k] / den unchanged: zero numerators dropped, den an ordinary
    polynomial with positive constant term, and no factor of Z[A^+-1]
    but a unit common to den and all the numerators together, an integer
    included (den is 1 when no numerator is left).  With one numerator
    this is the canonical form of a RatFunc.  The gcd leaves the quotients
    integral, so only the sign of den is left to fix.
    """
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    nums = {k: v for k, v in nums.items() if v.coeffs}
    if not nums:
        return nums, _ONE_POLY
    if _is_poly_one(den):
        return nums, den
    keys = list(nums)
    step, forms = _common_forms([den] + [nums[k] for k in keys])
    _, (den, *quotients) = _gcd_cofactors([g for _, g in forms])
    # den / g is ordinary with a nonzero constant term, since den is.
    sign = 1 if den[0] > 0 else -1
    sd = forms[0][0]
    nums = {k: _from_dense(lo - sd, sign, q, step)
            for k, (lo, _), q in zip(keys, forms[1:], quotients)}
    return nums, _from_dense(0, sign, den, step)


def common_denominator(fracs: dict):
    """Write a dict of RatFuncs as numerators over one denominator.

    Returns (nums, den) with nums[k] / den equal to fracs[k] and den the
    least common multiple of the denominators; pass the pair to
    normalize_over for the canonical form.
    """
    den = _ONE_POLY
    for c in fracs.values():
        if c.den != den:
            den = poly_lcm(den, c.den)
    nums = {
        k: c.num if c.den == den else c.num * poly_exact_div(den, c.den)
        for k, c in fracs.items()
    }
    return nums, den


@dataclass(frozen=True)
class RatFunc:
    """A quotient of Laurent polynomials over Z in canonical form.

    Canonical representative: the denominator is an ordinary polynomial
    (minimum exponent 0) with positive constant term; numerator and
    denominator share no factor of Z[A^+-1] except a unit +-A^k, so no
    integer factor either.  Any leftover power of A sits on the
    numerator.  A rational scalar p/q is the constant p over q.
    """

    num: LaurentPoly
    den: LaurentPoly

    @staticmethod
    def normalized(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        nums, den = normalize_over({0: num}, den)
        return RatFunc(nums.get(0, _ZERO_POLY), den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(LaurentPoly.zero(), LaurentPoly.one())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(LaurentPoly.one(), LaurentPoly.one())

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RatFunc":
        return cls(p, LaurentPoly.one())

    @classmethod
    def from_scalar(cls, c) -> "RatFunc":
        """An int, or a Fraction p/q as p over q (canonical as it is)."""
        if isinstance(c, Fraction):
            return cls(LaurentPoly.from_scalar(c.numerator),
                       LaurentPoly.from_scalar(c.denominator))
        return cls(LaurentPoly.from_scalar(c), LaurentPoly.one())

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def as_laurent(self) -> LaurentPoly:
        """Return the numerator if the denominator is 1, else raise."""
        if _is_poly_one(self.den):
            return self.num
        raise ValueError(f"not a Laurent polynomial: {self}")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, LaurentPoly):
            return RatFunc.from_laurent(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.from_scalar(x)
        return NotImplemented

    def __add__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if _is_poly_one(self.den) and _is_poly_one(other.den):
            return RatFunc(self.num + other.num, self.den)
        return RatFunc.normalized(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        if type(other) is int:
            if not other:
                return RatFunc.zero()
            # Canonical as it stands when other is coprime to the content
            # of den: den is unchanged and shares no factor with other.
            if gcd(other, *self.den.coeffs.values()) == 1:
                return RatFunc(self.num * other, self.den)
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if _is_poly_one(self.den) and _is_poly_one(other.den):
            return RatFunc(self.num * other.num, self.den)
        return RatFunc.normalized(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.normalized(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFunc":
        return RatFunc.one() / self

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if _is_poly_one(self.den):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _from_quotient(form) -> RatFunc:
    """The RatFunc of a quotient form (lo, sign, num, den), num and den
    the digits of N and D lowest first, zeros allowed at either end of
    num; D's sign moves onto the numerator, and zero is (0, 1, (), (1,))."""
    lo, sign, num, den = form
    s = 1 if den[0] > 0 else -1
    return RatFunc(_from_dense(lo, s * sign, num, 4), _from_dense(0, s, den, 4))


def as_ratfunc(c) -> RatFunc:
    """Coerce an int, Fraction, LaurentPoly or RatFunc coefficient."""
    out = RatFunc._coerce(c)
    if out is NotImplemented:
        raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
    return out


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class RatCombination:
    """Linear combination of keys with RatFunc coefficients.

    The combination is stored in one canonical form: nums maps keys to
    nonzero LaurentPoly numerators over the one shared denominator den,
    in the canonical form of normalize_over.  Equal combinations
    therefore have equal fields.  coeffs is a read-only view of the
    reduced coefficient nums[k] / den of each key, built on first use.

    A kind of combination checks its keys in _check_key.  If it has
    fields besides the coefficients, they make up _space, which equal or
    added elements share, and _like copies them onto a new element.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs=None):
        weights = {}
        for k, c in (coeffs or {}).items():
            k = self._check_key(k)
            c = as_ratfunc(c)
            if not c.is_zero:
                weights[k] = c
        self.nums, self.den = normalize_over(*common_denominator(weights))
        self._coeffs = None

    def _check_key(self, k):
        """The key as stored; raises ValueError for a key of another space."""
        return k

    def _space(self) -> tuple:
        return ()

    @classmethod
    def _of(cls, nums: dict, den: LaurentPoly):
        """Combination from numerators and a denominator already in canonical form."""
        x = cls.__new__(cls)
        x.nums, x.den, x._coeffs = nums, den, None
        return x

    @classmethod
    def _reduced(cls, nums: dict, den: LaurentPoly):
        return cls._of(*normalize_over(nums, den))

    def _like(self, nums: dict, den: LaurentPoly):
        """A combination in self's space from a canonical (nums, den)."""
        return self._of(nums, den)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self):
        if self._coeffs is None:
            den = self.den
            if _is_poly_one(den):
                view = {k: RatFunc(v, den) for k, v in self.nums.items()}
            else:
                view = {k: RatFunc.normalized(v, den) for k, v in self.nums.items()}
            self._coeffs = MappingProxyType(view)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, k) -> RatFunc:
        return self.coeffs.get(k, RatFunc.zero())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._space() == other._space() and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self._space(), self.den, frozenset(self.nums.items())))

    # -- linear operations ------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._space() != other._space():
            raise ValueError(f"size mismatch: {self._space()} vs {other._space()}")
        den, xs, ys = self.den, self.nums, other.nums
        if other.den != den:
            den = poly_lcm(self.den, other.den)
            fx, fy = poly_exact_div(den, self.den), poly_exact_div(den, other.den)
            xs = {k: v * fx for k, v in xs.items()}
            ys = {k: v * fy for k, v in ys.items()}
        out = dict(xs)
        for k, v in ys.items():
            prev = out.get(k)
            out[k] = v if prev is None else prev + v
        return self._like(*normalize_over(out, den))

    def __neg__(self):
        return self._like({k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = as_ratfunc(c)
        nums = {k: v * c.num for k, v in self.nums.items()}
        return self._like(*normalize_over(nums, self.den * c.den))


# ---------------------------------------------------------------------------
# The loop value
# ---------------------------------------------------------------------------

#: Value of a contractible closed loop in the Kauffman bracket skein.
DELTA = LaurentPoly({2: -1, -2: -1})

_delta_powers = [LaurentPoly.one()]


def delta_power(k: int) -> LaurentPoly:
    """DELTA^k, cached: the value of k disjoint contractible loops; a
    negative k is refused."""
    if k < 0:
        raise ValueError(f"loop count must be nonnegative, got {k}")
    while len(_delta_powers) <= k:
        _delta_powers.append(_delta_powers[-1] * DELTA)
    return _delta_powers[k]
