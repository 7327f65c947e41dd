"""Skein of the annulus and solid-torus closures of rational tangles.

A 2-tangle closes into the solid torus by joining its two top corners
around the core and likewise its two bottom corners.  The resulting
skein element is a polynomial in z, the zero-framed core parallel; this
module provides that closure at three levels (bracket coordinates,
Temperley-Lieb elements, raw diagrams through the oracle), conversion
to the Chebyshev basis, fraction-based classification of the closures,
and the colored closure with its ratio invariants.

An element keeps its coefficients as numerators over one shared
denominator, the canonical form of ring.RatCombination that TL elements
share.  The closures build that form directly.  The Chebyshev
coordinates of a diagram's closure come from integer back-substitution
on the numerators, with one reduction per coordinate
(chebyshev_convert).  A twist word's closure and its coordinates
kappa_i come, at every cable width, from one producer of digit forms
(_closure_forms), which the objects and the command line both read;
chebyshev_convert is its referee.
"""

from __future__ import annotations

from enum import Enum
from operator import add, index, sub

from . import bracket, oracle, tl
from .bracket import BracketVec2, c_invariant
from .rationals import ExtRational, parity
from .records import Record
from .ring import DELTA, LaurentPoly, RatCombination, RatFunc, _from_dense
from .tangles import PlanarTangleDiagram, RationalTangle, to_twist_word

__all__ = [
    "AnnulusElement",
    "HomotopyType",
    "chebyshev_convert",
    "chebyshev_polynomial",
    "closure_bases",
    "closure_bracket",
    "colored_closure",
    "colored_closure_bases",
    "counterexample_check",
    "CounterexampleReport",
    "element_closure",
    "fraction_from_closure",
    "gamma_ratio_invariants",
    "homotopy_type",
    "link_fraction",
    "links_equivalent",
    "solid_torus_closure",
]

_DELTA_RF = RatFunc.from_laurent(DELTA)
_ONE = LaurentPoly.one()


# ---------------------------------------------------------------------------
# Elements of the annulus skein
# ---------------------------------------------------------------------------

class AnnulusElement(RatCombination):
    """Polynomial in the core curve z with RatFunc coefficients.

    z^k stands for k parallel essential circles.  The coefficients are
    kept in the canonical form of RatCombination: nums maps k to the
    numerator of the coefficient of z^k over the shared denominator den,
    and coeffs maps k to the reduced, nonzero coefficient.
    """

    __slots__ = ()

    def _check_key(self, k):
        k = index(k)
        if k < 0:
            raise ValueError("negative power of the core curve")
        return k

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "AnnulusElement":
        return cls()

    @classmethod
    def from_chebyshev(cls, coords) -> "AnnulusElement":
        """Assemble an element from Chebyshev coordinates (low to high)."""
        total = cls.zero()
        for i, c in enumerate(coords):
            total = total + chebyshev_polynomial(i).scale(c)
        return total

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return _z_text((k, str(self.coeffs[k])) for k in sorted(self.coeffs, reverse=True))

    def __repr__(self) -> str:
        return f"AnnulusElement({self})"


def _z_text(terms) -> str:
    """The text of the sum of c z^k over the pairs (k, str(c)) of terms,
    each c a nonzero RatFunc, from the top power down; no term gives "0".
    AnnulusElement.__str__ and the closure payloads of the command line
    both write with it."""
    parts = []
    for k, c in terms:
        if k == 0:
            parts.append(f"({c})")
        else:
            var = "z" if k == 1 else f"z^{k}"
            parts.append(var if c == "1" else f"({c})*{var}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Chebyshev basis
# ---------------------------------------------------------------------------

_chebyshev_cache = [{0: 1}, {1: 1}]


def _chebyshev_coeffs(k: int) -> dict:
    """Integer z-coefficients of S_k via S_{k+1} = z*S_k - S_{k-1}; a
    negative k is refused."""
    if k < 0:
        raise ValueError(f"Chebyshev index must be nonnegative, got {k}")
    while len(_chebyshev_cache) <= k:
        prev, last = _chebyshev_cache[-2], _chebyshev_cache[-1]
        nxt = {e + 1: c for e, c in last.items()}
        for e, c in prev.items():
            s = nxt.get(e, 0) - c
            if s:
                nxt[e] = s
            else:
                del nxt[e]
        _chebyshev_cache.append(nxt)
    return _chebyshev_cache[k]


def chebyshev_polynomial(k: int) -> AnnulusElement:
    """The basis element S_k as a polynomial in z."""
    return AnnulusElement({e: RatFunc.from_scalar(c) for e, c in _chebyshev_coeffs(k).items()})


def chebyshev_convert(e: AnnulusElement) -> list:
    """Coordinates of an element in the basis S_0, S_1, ..., S_deg.

    Back-substitution from the top degree down on the numerators over
    the element's one denominator; each S_k is monic of degree k with
    integer coefficients, so every step is an integer multiple and a sum
    of polynomials, the conversion is exact and round-trips, and each
    coordinate is reduced once at the end (not at all when the
    denominator is 1).  It serves diagram closures; on the closures of
    twist words, whose coordinates _closure_forms gives at every width,
    it is the referee, and on the colored closure of a twist word it
    returns the replay coordinates kappa_i of replay.transfer_vector.
    """
    if e.is_zero:
        return []
    work = dict(e.nums)
    top = max(work)
    for k in range(top, 0, -1):
        c = work.get(k)
        if c is None:
            continue
        for exp, s in _chebyshev_coeffs(k).items():
            if exp != k:
                v = work.get(exp)
                v = c * -s if v is None else v - c * s
                if v:
                    work[exp] = v
                else:
                    del work[exp]
    # the view reduces each coordinate over e.den once
    coords = RatCombination._of(work, e.den).coeffs
    zero = RatFunc.zero()
    return [coords.get(k, zero) for k in range(top + 1)]


# ---------------------------------------------------------------------------
# Solid-torus closure
# ---------------------------------------------------------------------------

def _closure_bonds(m: int):
    """Bond partner and traversal winding for closing a width-m element.

    Top point p joins top point m-1-p over the core (west to east is
    winding +1) and bottom point m+p joins bottom point 2m-1-p.
    """
    to = {}
    w = {}
    for p in range(m // 2):
        pairs = ((p, m - 1 - p), (m + p, 2 * m - 1 - p))
        for a, b in pairs:
            to[a], w[a] = b, 1
            to[b], w[b] = a, -1
    return to, w


def element_closure(x) -> AnnulusElement:
    """Close a 2-tangle element of TL_2n around the annulus core.

    Every matching strand becomes part of a circle alternating through
    closure bonds; a circle of total winding 0 is contractible (factor
    delta) and winding +-1 makes one essential circle (factor z).  The
    numerators are summed per power of z, over the element's
    denominator, and the sums are reduced together once.
    """
    if x.top != x.bottom or x.top % 2:
        raise ValueError("closure needs a 2-tangle element with even width")
    from .engine import _closure_sums  # x is a TLElement: the engine is loaded

    sums = _closure_sums(x, *_closure_bonds(x.top))
    return AnnulusElement._reduced(sums, x.den)


def closure_bracket(t) -> AnnulusElement:
    """Solid-torus closure in the z basis.

    For a rational tangle (or twist word) with bracket coordinates
    (alpha, beta) the closure is alpha*delta + beta*z^2: the vertical
    part closes into two nested contractible circles' worth delta, the
    horizontal part into two essential circles.  Diagram inputs go
    through the state-sum oracle instead.
    """
    if isinstance(t, PlanarTangleDiagram):
        closed = t if not t.boundary else oracle.annular_closure(t)
        return AnnulusElement(oracle.closure_coefficients(closed))
    return closure_bases(t)[0]


def _closure_forms(word, n: int) -> tuple:
    """The closure of a twist word at cable width n, checked by the
    caller (to_twist_word, or replay.colored_twist_word at width n),
    the sum of kappa_i S_2i(z), as (zs, kappas): the pairs (k, form) of
    the nonzero z^k coefficients in increasing k, and the forms of kappa_0
    to kappa_top (None for zero), each (lo, sign, digits) at step 4 with
    zeros allowed at either end.  S_2i is monic, so the top z coefficient
    is the form of kappa_top.  The closure is never zero.  A list and a
    dict in place of the tuples cost about 1 us per width-1 call.

    Width 1 is alpha delta + beta z^2 = (alpha delta + beta) S_0 + beta S_2
    off bracket._replay: with alpha = A^lo P(u), u = A^4, alpha delta =
    -A^(lo - 2) (1 + u) P(u), one add of P's digits to themselves shifted
    by one; lo_beta = lo_alpha - 2 (mod 4), zero coordinates included, so
    the sum is one subtraction of aligned digits.  Digits are lists: as
    tuples they raised the peak RSS of 400 batch-small rounds by 2 MB.
    From width 2 on the kappa_i of replay._replay lie in one class mod 4, so
    each z^k coefficient sums integer multiples of aligned digits.
    """
    if n == 1:
        (lo_a, pa), (lo_b, pb) = bracket._replay(word)
        q = [*pa, 0] if pa else []
        q[1:] = map(add, q[1:], pa)
        lo_q = lo_a - 2
        if not pb:
            alpha_delta = lo_q, -1, q
            return ((0, alpha_delta),), (alpha_delta,)
        lo = min(lo_q, lo_b)
        i, j = (lo_b - lo) // 4, (lo_q - lo) // 4
        s_0 = [0] * max(i + len(pb), j + len(q))
        s_0[i:i + len(pb)] = pb
        s_0[j:j + len(q)] = map(sub, s_0[j:j + len(q)], q)
        beta = lo_b, 1, pb
        zs = ((0, (lo_q, -1, q)), (2, beta)) if pa else ((2, beta),)
        return zs, ((lo, 1, s_0), beta)
    from . import replay  # loaded on first use, see its docstring

    forms = replay._replay(word, n)
    top = max(forms)
    lo = min(f[0] for f in forms.values())
    size = max((f[0] - lo) // 4 + len(f[2]) for f in forms.values())
    zs = []
    for k in range(0, 2 * top, 2):
        acc = [0] * size
        for i, (lo_i, sign, digits) in forms.items():
            if 2 * i >= k:
                j, s = (lo_i - lo) // 4, sign * _chebyshev_coeffs(2 * i)[k]
                acc[j:j + len(digits)] = [a + s * d for a, d in zip(acc[j:], digits)]
        if any(acc):
            zs.append((k, (lo, 1, acc)))
    zs.append((2 * top, forms[top]))
    return tuple(zs), tuple(map(forms.get, range(top + 1)))


def _closure_objects(forms) -> tuple:
    """(closure, Chebyshev coordinates) from the forms of _closure_forms,
    over the denominator 1 and canonical as built, with no reduction."""
    zs, kappas = forms
    e = AnnulusElement._of({k: _from_dense(*f, 4) for k, f in zs}, _ONE)
    coords = [RatFunc.zero()] * (2 * len(kappas) - 1)
    for i, f in enumerate(kappas):
        if f:
            coords[2 * i] = RatFunc.from_laurent(_from_dense(*f, 4))
    return e, coords


def closure_bases(t) -> tuple:
    """(closure_bracket(t), chebyshev_convert of it).

    For a rational tangle or twist word both are built from the forms
    of _closure_forms at width 1, in closed form.
    """
    if isinstance(t, PlanarTangleDiagram):
        e = closure_bracket(t)
        return e, chebyshev_convert(e)
    return _closure_objects(_closure_forms(to_twist_word(t), 1))


# ---------------------------------------------------------------------------
# Rational links in the solid torus
# ---------------------------------------------------------------------------

class HomotopyType(Enum):
    """The three homotopy classes of a rational-tangle closure."""

    TWO_COMPONENT = "TWO_COMPONENT"
    TRIVIAL_KNOT = "TRIVIAL_KNOT"
    WINDING_KNOT = "WINDING_KNOT"


_PARITY_TO_TYPE = {
    "o/e": HomotopyType.TWO_COMPONENT,
    "e/o": HomotopyType.TRIVIAL_KNOT,
    "o/o": HomotopyType.WINDING_KNOT,
}


def solid_torus_closure(t: RationalTangle) -> RationalTangle:
    """The closure of a rational tangle around the annulus core.  A
    closure is determined by its tangle, so the tangle stands for it."""
    return t


def link_fraction(link: RationalTangle) -> ExtRational:
    """The fraction of the closed link, a complete isotopy invariant."""
    return link.fraction


def fraction_from_closure(e: AnnulusElement) -> ExtRational:
    """Recover the fraction from closure coordinates alone.

    Divides the z^0 coefficient by delta to undo the closure of the
    vertical part, then evaluates the same ratio invariant used for
    open tangles at the special point.
    """
    alpha = (e.coefficient(0) / _DELTA_RF).as_laurent()
    beta = e.coefficient(2).as_laurent()
    return c_invariant(BracketVec2(alpha, beta))


def links_equivalent(a: RationalTangle, b: RationalTangle) -> bool:
    """Isotopy of closures is decided by fraction equality."""
    return link_fraction(a) == link_fraction(b)


def homotopy_type(link: RationalTangle) -> HomotopyType:
    """Homotopy class of the closure, read off the fraction's parity."""
    return _PARITY_TO_TYPE[parity(link_fraction(link))]


# ---------------------------------------------------------------------------
# Colored closures
# ---------------------------------------------------------------------------

def _integer_sum(terms) -> AnnulusElement:
    """The sum of s * p * z^k over terms (s, k, p), with s an integer and
    p an integral Laurent polynomial: canonical as built, over the
    denominator 1, with no polynomial product and no reduction."""
    sums = {}
    for s, k, p in terms:
        acc = sums.setdefault(k, {})
        for e, c in p.coeffs.items():
            acc[e] = acc.get(e, 0) + s * c
    nums = {k: LaurentPoly(v) for k, v in sums.items() if any(v.values())}
    return AnnulusElement._of(nums, _ONE)


def colored_closure(t, n: int) -> AnnulusElement:
    """Closure of the n-cabled, projector-dressed tangle.

    For a rational tangle or twist word the replay coordinates kappa_i of
    replay.transfer_vector are the Chebyshev coordinates of the closure: the
    fusion basis element b'_i closes to S_2i(z).  So the coefficient of
    z^k is the sum of kappa_i times the integer coefficient of z^k in
    S_2i, summed on the digits with no polynomial product and no
    reduction (_closure_forms).  At width 1, where the cable is the
    tangle itself, it is closure_bracket.  A diagram goes through
    threaded.threaded_closure, at the same widths.
    """
    if isinstance(t, PlanarTangleDiagram):
        from . import threaded  # loaded on first use, see its docstring

        return threaded.threaded_closure(t, tl.check_cable_width(n, tl.MAX_TWIST_WIDTH))
    return colored_closure_bases(t, n)[0]


def colored_closure_bases(t, n: int) -> tuple:
    """(colored_closure(t, n), chebyshev_convert of it).

    For a rational tangle or twist word both are built from the forms of
    _closure_forms: the Chebyshev coordinates are kappa_i at S_2i and
    zero at the odd indices, with no back-substitution.
    """
    if isinstance(t, PlanarTangleDiagram):
        e = colored_closure(t, n)
        return e, chebyshev_convert(e)
    from . import replay  # loaded on first use, see its docstring

    return _closure_objects(_closure_forms(replay.colored_twist_word(t, n), n))


def gamma_ratio_invariants(e: AnnulusElement) -> list:
    """Chebyshev coordinates divided by the top one.

    The quotients are invariant under the framing unit a kink
    multiplies the closure by.
    """
    from . import replay  # loaded on first use, see its docstring

    return replay.colored_ratios(chebyshev_convert(e))


# ---------------------------------------------------------------------------
# The non-rational counterexample
# ---------------------------------------------------------------------------

_set = object.__setattr__


class CounterexampleReport(Record):
    """Evidence that fraction-style closure invariants cannot classify
    general 2-tangles: two clasp tangles with different left linking
    numbers whose closures are equal in the annulus skein."""

    __slots__ = _fields = ("llk_single", "llk_double", "tangles_distinguished",
                           "closure_single", "closure_double", "closures_equal")

    def __init__(self, llk_single: int, llk_double: int, tangles_distinguished: bool,
                 closure_single: AnnulusElement, closure_double: AnnulusElement,
                 closures_equal: bool):
        _set(self, "llk_single", llk_single)
        _set(self, "llk_double", llk_double)
        _set(self, "tangles_distinguished", tangles_distinguished)
        _set(self, "closure_single", closure_single)
        _set(self, "closure_double", closure_double)
        _set(self, "closures_equal", closures_equal)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.llk_single, self.llk_double, self.tangles_distinguished,
                 self.closure_single, self.closure_double, self.closures_equal)
                == (other.llk_single, other.llk_double, other.tangles_distinguished,
                    other.closure_single, other.closure_double, other.closures_equal))

    def __hash__(self) -> int:
        return hash((self.llk_single, self.llk_double, self.tangles_distinguished,
                     self.closure_single, self.closure_double, self.closures_equal))


def counterexample_check() -> CounterexampleReport:
    # loaded on first use, see its docstring
    from .diagrams import clasp_double, clasp_single, left_linking_number

    single, double = clasp_single(), clasp_double()
    llk_s = left_linking_number(single)
    llk_d = left_linking_number(double)
    closure_s = closure_bracket(single)
    closure_d = closure_bracket(double)
    return CounterexampleReport(
        llk_single=llk_s,
        llk_double=llk_d,
        tangles_distinguished=llk_s != llk_d,
        closure_single=closure_s,
        closure_double=closure_d,
        closures_equal=closure_s == closure_d,
    )
