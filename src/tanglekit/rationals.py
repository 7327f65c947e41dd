"""Extended rational numbers and twist vectors.

A rational two-string tangle is classified by an extended rational
number p/q (with infinity = 1/0 allowed).  This module provides the
exact arithmetic for those numbers, the continued-fraction evaluation
of twist vectors, the inverse problem (canonical twist vector of a
fraction), the parity classification of a reduced fraction, and the
Schubert test for unoriented rational-knot equivalence.

Twist vector convention: entries are listed innermost first, so the
vector (a1, ..., am) evaluates as am + 1/(a_{m-1} + ... + 1/a1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

__all__ = [
    "MAX_FRACTION_DIGITS",
    "ExtRational",
    "TwistVector",
    "continued_fraction",
    "canonical_form",
    "parity",
    "schubert_equivalent",
]

#: Most decimal digits a continued-fraction numerator may reach, CPython's
#: default limit for turning an int into a string; a longer one is refused.
MAX_FRACTION_DIGITS = 4300
_FRACTION_BOUND = 10 ** MAX_FRACTION_DIGITS


# ---------------------------------------------------------------------------
# Extended rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtRational:
    """A reduced fraction p/q with q >= 0; infinity is 1/0, zero is 0/1."""

    p: int
    q: int = 1

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            if p == 0:
                raise ZeroDivisionError("0/0 is not an extended rational")
            p = 1
        else:
            if q < 0:
                p, q = -p, -q
            g = gcd(abs(p), q)
            if g > 1:
                p, q = p // g, q // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    # -- constructors -------------------------------------------------------

    @classmethod
    def infinity(cls) -> "ExtRational":
        return cls(1, 0)

    @classmethod
    def zero(cls) -> "ExtRational":
        return cls(0, 1)

    # -- structure ----------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q != 0

    @property
    def sign(self) -> int:
        if self.is_infinite or self.p == 0:
            return 0
        return 1 if self.p > 0 else -1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, n: int) -> "ExtRational":
        """Add an integer (adding twists on the right of a tangle)."""
        if not isinstance(n, int):
            return NotImplemented
        if self.is_infinite:
            return self
        return ExtRational(self.p + n * self.q, self.q)

    __radd__ = __add__

    def __neg__(self) -> "ExtRational":
        if self.is_infinite:
            return self
        return ExtRational(-self.p, self.q)

    def reciprocal(self) -> "ExtRational":
        """1/x with 1/0 = infinity and 1/infinity = 0."""
        return ExtRational(self.q, self.p)

    def bottom_twist(self, s: int) -> "ExtRational":
        """The map x -> 1/(s + 1/x) (adding s twists at the bottom)."""
        return (self.reciprocal() + s).reciprocal()

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    @classmethod
    def parse(cls, text: str) -> "ExtRational":
        text = text.strip()
        if text in ("inf", "-inf", "1/0"):
            return cls.infinity()
        if "/" in text:
            a, b = text.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(text))


# ---------------------------------------------------------------------------
# Twist vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistVector:
    """Integer entries, innermost twist first; interior entries nonzero."""

    entries: tuple

    def __post_init__(self):
        try:
            entries = tuple(map(index, self.entries))
        except TypeError:
            for a in self.entries:
                try:
                    index(a)
                except TypeError:
                    raise TypeError(f"twist vector entry {a!r} is not an integer") from None
            raise
        if len(entries) < 1:
            raise ValueError("twist vector needs at least one entry")
        if 0 in entries[1:-1]:
            raise ValueError("interior zero entry in twist vector")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return "[" + " ".join(str(a) for a in self.entries) + "]"


def continued_fraction(tv: TwistVector) -> ExtRational:
    """Evaluate the nested fraction, innermost entry first.

    From infinity = 1/0, each entry a turns p/q into a + q/p = (ap + q)/p,
    a step of determinant -1: p and q stay coprime with no gcd.  A
    numerator that reaches 10^MAX_FRACTION_DIGITS raises ValueError; q,
    the previous numerator, never needs the check.
    """
    p, q = 1, 0
    for a in tv.entries:
        p, q = a * p + q, p
        if abs(p) >= _FRACTION_BOUND:
            raise ValueError(f"continued fraction too long: its numerator "
                             f"exceeds the bound of {MAX_FRACTION_DIGITS} digits")
    return ExtRational(p, q)


def _positive_expansion(p: int, q: int) -> list:
    """Regular continued-fraction terms of p/q > 0, outermost first,
    with the final (innermost) term at least 2 unless p/q is an integer."""
    terms = []
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def canonical_form(r: ExtRational) -> TwistVector:
    """Shortest odd-length twist vector with uniform-sign entries whose
    fraction is r.

    For 0 < |r| < 1 the outermost entry is necessarily 0 (an odd-length
    vector of nonzero uniform-sign entries always has absolute value
    at least 1); the sign condition then applies to the nonzero entries.
    """
    if r.is_infinite:
        raise ValueError("no canonical twist vector for the infinity tangle")
    if r.is_zero:
        return TwistVector((0,))
    s = r.sign
    terms = _positive_expansion(abs(r.p), r.q)
    entries = list(reversed(terms))  # innermost first
    if len(entries) % 2 == 0:
        if entries[0] == 1:
            entries = [entries[1] + 1] + entries[2:]
        else:
            entries = [1, entries[0] - 1] + entries[1:]
    if s < 0:
        entries = [-a for a in entries]
    result = TwistVector(tuple(entries))
    assert continued_fraction(result) == r, "canonical form must round-trip"
    return result


# ---------------------------------------------------------------------------
# Parity and the Schubert test
# ---------------------------------------------------------------------------

def parity(r: ExtRational) -> str:
    """Parity tag of a reduced fraction: 'e/o', 'o/e', or 'o/o'.

    The pair e/e cannot occur because p and q are coprime.
    """
    pe = abs(r.p) % 2 == 0
    qe = r.q % 2 == 0
    if pe and qe:
        raise ValueError("unreduced fraction")
    if pe:
        return "e/o"
    return "o/e" if qe else "o/o"


def schubert_equivalent(a: ExtRational, b: ExtRational) -> bool:
    """Unoriented equivalence test for rational knots p/q and p'/q':
    equal numerators and q = q' or q*q' = 1, both mod p."""
    for r in (a, b):
        if r.is_infinite or r.p < 1 or r.q < 1:
            raise ValueError("Schubert test requires positive numerator")
    if a.p != b.p:
        return False
    p = a.p
    return a.q % p == b.q % p or (a.q * b.q) % p == 1 % p
