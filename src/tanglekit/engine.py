"""The Temperley-Lieb glue engine, over the field of rational functions
in A.

Elements are exact linear combinations of crossingless matchings of
boundary points (some on a top edge, some on a bottom edge), with
stacking as multiplication: gluing two diagrams concatenates their
strands and converts every closed loop into a factor of
delta = -A^2 - A^-2.  On top of that engine the module builds the
cabled state sums of crossing tiles and kinks, the Jones-Wenzl
projectors, their loop and bubble evaluations, the basis of the
four-cluster subspace used for cabled 2-tangles, and colored_element,
the cabled state sum between two projector frames.

No command line builds a projector: the colored invariants come from
the replay of tl.py, and this module is their referee
(colored_element and _read_coordinates, at widths up to 3) and the
ground of acceptance criteria 5, 6, 7 and 11.  It is loaded on first
use, through the module __getattr__ of tl (every name here keeps its
path tl.<name>) and of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from . import oracle
from .diagrams import cable_diagram, corner_clusters, curl_diagram, rational_to_diagram
from .ring import LaurentPoly, RatCombination, RatFunc, delta_power
from .tangles import PlanarTangleDiagram, RationalTangle
from .tl import MAX_PROJECTOR_STRANDS, _ENGINE_NAMES, _check_int, _delta_poly, check_cable_width

__all__ = sorted(_ENGINE_NAMES)  # the names tl answers for


# ---------------------------------------------------------------------------
# Crossingless matchings
# ---------------------------------------------------------------------------
#
# A matching on (top, bottom) points is stored as a partner tuple over
# the flat index space 0..top-1 (top edge, left to right) followed by
# top..top+bottom-1 (bottom edge, left to right).  Around the disk the
# points appear in the order: top row left to right, then bottom row
# right to left.

def catalan(n: int) -> int:
    """Number of crossingless matchings on n + n points."""
    return comb(2 * n, n) // (n + 1)


def _boundary_cycle(top: int, bottom: int):
    return list(range(top)) + list(range(top + bottom - 1, top - 1, -1))


def _is_planar_matching(partner, top: int, bottom: int) -> bool:
    stack = []
    for p in _boundary_cycle(top, bottom):
        if stack and stack[-1] == partner[p]:
            stack.pop()
        else:
            stack.append(p)
    return not stack


def enumerate_matchings(top: int, bottom: int = None) -> list:
    """All crossingless matchings on the given boundary, as partner tuples."""
    if bottom is None:
        bottom = top
    m = top + bottom
    if m % 2:
        return []
    seq = _boundary_cycle(top, bottom)

    def rec(points):
        if not points:
            yield ()
            return
        a = points[0]
        for idx in range(1, len(points), 2):
            b = points[idx]
            for inner in rec(points[1:idx]):
                for outer in rec(points[idx + 1:]):
                    yield ((a, b),) + inner + outer

    out = []
    for pairs in rec(seq):
        partner = [0] * m
        for a, b in pairs:
            partner[a], partner[b] = b, a
        out.append(tuple(partner))
    return out


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class TLElement(RatCombination):
    """Linear combination of crossingless matchings with RatFunc weights.

    top and bottom give the number of boundary points on each edge.  The
    weights are kept in the canonical form of RatCombination: nums maps
    partner tuples to numerators over the one shared denominator den,
    and terms is the read-only view of the reduced weight of each
    matching.
    """

    __slots__ = ("top", "bottom")

    def __init__(self, top: int, bottom: int, terms=None):
        self.top = int(top)
        self.bottom = int(bottom)
        super().__init__(terms)

    def _check_key(self, partner):
        m = self.top + self.bottom
        partner = tuple(partner)
        if len(partner) != m or any(
            partner[partner[i]] != i or partner[i] == i for i in range(m)
        ):
            raise ValueError(f"not a perfect matching of {m} points: {partner}")
        if not _is_planar_matching(partner, self.top, self.bottom):
            raise ValueError(f"matching is not crossingless: {partner}")
        return partner

    def _space(self) -> tuple:
        return self.top, self.bottom

    def _at(self, top: int, bottom: int) -> "TLElement":
        """Set the shape of an element fresh from _of or _reduced."""
        self.top, self.bottom = top, bottom
        return self

    def _like(self, nums: dict, den: LaurentPoly) -> "TLElement":
        return self._of(nums, den)._at(self.top, self.bottom)

    terms = RatCombination.coeffs

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for k in sorted(self.terms):
            parts.append(f"({self.terms[k]})*{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TLElement({self.top},{self.bottom}: {self})"


def _wire(top: int, bottom: int, pairs) -> TLElement:
    """Single crossingless diagram with coefficient one from point pairs."""
    partner = [0] * (top + bottom)
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return TLElement(top, bottom, {tuple(partner): RatFunc.one()})


def identity_element(n: int) -> TLElement:
    return _wire(n, n, [(j, n + j) for j in range(n)])


def e_generator(n: int, i: int) -> TLElement:
    """The hook generator joining neighbours i, i+1 (1-indexed) in TL_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"hook index {i} outside 1..{n - 1}")
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
    return _wire(n, n, pairs)


def unit_element(n: int, kind: str) -> TLElement:
    """The crossingless 2-tangle with n-fold cabled strands, in TL_2n.

    kind "inf" is the two vertical cables (the identity matching) and
    kind "0" the two horizontal ones (nested top caps and bottom cups).
    """
    m = 2 * n
    if kind == "inf":
        return identity_element(m)
    if kind == "0":
        pairs = [(k, m - 1 - k) for k in range(n)]
        pairs += [(m + k, 2 * m - 1 - k) for k in range(n)]
        return _wire(m, m, pairs)
    raise ValueError(f"unknown crossingless tangle {kind!r}")


# ---------------------------------------------------------------------------
# The glue engine
# ---------------------------------------------------------------------------
#
# Every operation works on the stored form directly: the double loop of
# a product runs in plain polynomial arithmetic on the numerators, the
# denominators multiply once, and normalize_over reduces the result
# once at the end, with one gcd chain over all the numerators that stops
# as soon as the gcd is a constant.  Exact gcd reduction of rational
# functions is by far the dominant cost, so keeping it out of the inner
# loop, and to one chain per product, is what makes projector-sized
# products feasible.

def _loop_counts(partner, bond_to, bond_w):
    """Count the closed loops made by joining a matching's points in pairs.

    Each loop alternates matching strands and fixed bonds: point j is
    bonded to bond_to[j], picking up winding bond_w[j] around the
    annulus core.  Returns (contractible, essential), the numbers of
    loops of total winding 0 and +-1.
    """
    visited = [False] * len(partner)
    contractible = 0
    essential = 0
    for start in range(len(partner)):
        if visited[start]:
            continue
        winding = 0
        cur = start
        while not visited[cur]:
            visited[cur] = True
            j = partner[cur]
            visited[j] = True
            winding += bond_w[j]
            cur = bond_to[j]
        if winding == 0:
            contractible += 1
        elif winding in (1, -1):
            essential += 1
        else:
            raise AssertionError(f"embedded circle with winding {winding} cannot occur")
    return contractible, essential


def _closure_sums(x: TLElement, bond_to, bond_w) -> dict:
    """Close every matching of x with the fixed bonds of _loop_counts.

    Returns a dict k -> the sum of num * delta^contractible over the
    matchings that close with k essential loops, over x.den.
    """
    sums = {}
    for partner, num in x.nums.items():
        contractible, essential = _loop_counts(partner, bond_to, bond_w)
        term = num * delta_power(contractible)
        prev = sums.get(essential)
        sums[essential] = term if prev is None else prev + term
    return sums


def _glue_matchings(a, b, p: int, q: int, r: int):
    """Stack matching a (p top, q bottom) over b (q top, r bottom).

    Returns the induced matching on (p, r) and the number of closed
    loops trapped in the middle layer.
    """
    total = p + r
    partner = [-1] * total
    seen = [False] * q
    for start in range(total):
        if partner[start] != -1:
            continue
        if start < p:
            in_a, pt = True, start
        else:
            in_a, pt = False, q + (start - p)
        while True:
            if in_a:
                nxt = a[pt]
                if nxt < p:
                    end = nxt
                    break
                seen[nxt - p] = True
                in_a, pt = False, nxt - p
            else:
                nxt = b[pt]
                if nxt >= q:
                    end = p + (nxt - q)
                    break
                seen[nxt] = True
                in_a, pt = True, p + nxt
        partner[start] = end
        partner[end] = start
    loops = 0
    for m0 in range(q):
        if seen[m0]:
            continue
        loops += 1
        m = m0
        while not seen[m]:
            seen[m] = True
            m1 = a[p + m] - p
            seen[m1] = True
            m = b[m1]
    return tuple(partner), loops


def compose(x: TLElement, y: TLElement) -> TLElement:
    """Stack x above y, joining x's bottom points to y's top points."""
    if x.bottom != y.top:
        raise ValueError(
            f"size mismatch: cannot join a {x.bottom}-point bottom "
            f"to a {y.top}-point top"
        )
    acc = {}
    for ma, ca in x.nums.items():
        for mb, cb in y.nums.items():
            m, loops = _glue_matchings(ma, mb, x.top, x.bottom, y.bottom)
            c = ca * cb
            if loops:
                c = c * delta_power(loops)
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
    return TLElement._reduced(acc, x.den * y.den)._at(x.top, y.bottom)


def tensor(x: TLElement, y: TLElement) -> TLElement:
    """Place x and y side by side (x on the left)."""
    top = x.top + y.top
    bottom = x.bottom + y.bottom

    def remap_x(i):
        return i if i < x.top else top + (i - x.top)

    def remap_y(i):
        return x.top + i if i < y.top else top + x.bottom + (i - y.top)

    acc = {}
    for ma, ca in x.nums.items():
        base = [0] * (top + bottom)
        for i, j in enumerate(ma):
            base[remap_x(i)] = remap_x(j)
        for mb, cb in y.nums.items():
            partner = list(base)
            for i, j in enumerate(mb):
                partner[remap_y(i)] = remap_y(j)
            acc[tuple(partner)] = ca * cb
    return TLElement._reduced(acc, x.den * y.den)._at(top, bottom)


def trace_close(x: TLElement) -> RatFunc:
    """Close top point k onto bottom point k inside the disk.

    Every resulting loop is contractible, so the value is a sum of
    coefficients times powers of the loop scalar.
    """
    if x.top != x.bottom:
        raise ValueError("trace closure needs equal top and bottom counts")
    m = x.top
    bond_to = [k + m for k in range(m)] + list(range(m))
    sums = _closure_sums(x, bond_to, [0] * (2 * m))
    return RatFunc.normalized(sums.get(0, LaurentPoly.zero()), x.den)


# ---------------------------------------------------------------------------
# Quarter-turn rotation of 2-tangle elements
# ---------------------------------------------------------------------------
#
# A cabled 2-tangle with n strands per corner lives in TL_2n with the
# top row reading NW cluster then NE cluster (left to right) and the
# bottom row SW then SE.  Rotating the disk a quarter turn clockwise
# permutes the four clusters (NW->NE->SE->SW->NW); it is a planar
# isotopy, so it permutes matchings without touching coefficients.

def _rotate_cw_map(n: int):
    m = 2 * n
    phi = [0] * (2 * m)
    for k in range(n):
        phi[k] = n + k                      # NW -> NE
        phi[n + k] = 2 * m - 1 - k          # NE -> SE, order reversed
        phi[m + k] = n - 1 - k              # SW -> NW, order reversed
        phi[m + n + k] = m + k              # SE -> SW
    return phi


def _apply_point_map(x: TLElement, phi) -> TLElement:
    acc = {}
    for partner, num in x.nums.items():
        out = [0] * len(partner)
        for i, j in enumerate(partner):
            out[phi[i]] = phi[j]
        acc[tuple(out)] = num
    return x._like(acc, x.den)


def _require_cabled_square(x: TLElement) -> int:
    if x.top != x.bottom or x.top % 2:
        raise ValueError("rotation needs a 2-tangle element with even width")
    return x.top // 2


def rotate_cw(x: TLElement) -> TLElement:
    """Quarter turn clockwise of a cabled 2-tangle element."""
    n = _require_cabled_square(x)
    return _apply_point_map(x, _rotate_cw_map(n))


def rotate_ccw(x: TLElement) -> TLElement:
    """Quarter turn counterclockwise (inverse of rotate_cw)."""
    n = _require_cabled_square(x)
    phi = _rotate_cw_map(n)
    inv = [0] * len(phi)
    for i, j in enumerate(phi):
        inv[j] = i
    return _apply_point_map(x, inv)


# ---------------------------------------------------------------------------
# State sums of planar diagrams
# ---------------------------------------------------------------------------

def state_sum(d: PlanarTangleDiagram) -> TLElement:
    """Expand a diagram with boundary over the crossingless matchings of
    its boundary points by smoothing enumeration.

    The boundary is read through diagrams.corner_clusters, so labels are
    corner names or the "<corner>:<k>" labels of cable_diagram: the NW
    then NE labels are the top row and the SW then SE labels the bottom
    row, left to right.  Closed diagrams are evaluated by
    annulus.closure_bracket.
    """
    if not d.boundary:
        raise ValueError("state_sum needs a diagram with boundary points")
    clusters = corner_clusters(d)
    top_labels = clusters["NW"] + clusters["NE"]
    bottom_labels = clusters["SW"] + clusters["SE"]
    raw = oracle.matchings_of_diagram(d, top_labels, bottom_labels)
    return TLElement(len(top_labels), len(bottom_labels), raw)


def _unit_sign(sign: int) -> int:
    """1 for a positive crossing sign, -1 for a negative one; 0 is refused."""
    if not _check_int(sign, "crossing sign"):
        raise ValueError("crossing sign must be nonzero, got 0")
    return 1 if sign > 0 else -1


def tile_element(n: int, sign: int) -> TLElement:
    """Two n-cables crossing once, as an element of TL_2n.

    The cabled state sum of the one-crossing tangle [sign], computed
    once per width and sign and cached (_tile).
    """
    return _tile(_check_int(n, "cable width"), _unit_sign(sign))


@cache
def _tile(n: int, sign: int) -> TLElement:
    one_crossing = rational_to_diagram(RationalTangle.from_entries(sign))
    return state_sum(cable_diagram(one_crossing, n))


def kink_element(n: int, sign: int) -> TLElement:
    """An n-cable making one kink, as an element of TL_n: the cabled
    state sum of curl_diagram(sign), its NW points on top, cached
    (_kink)."""
    return _kink(_check_int(n, "cable width"), _unit_sign(sign))


@cache
def _kink(n: int, sign: int) -> TLElement:
    return state_sum(cable_diagram(curl_diagram(sign), n))


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JonesWenzl:
    """The projector on n strands: idempotent and killed by every hook."""

    n: int
    element: TLElement


@cache
def _projector(n: int) -> TLElement:
    if not 0 <= n <= MAX_PROJECTOR_STRANDS:  # n = 0: a bubble's through-color 0
        raise ValueError(
            f"projector on {n} strands is outside the range 0 to {MAX_PROJECTOR_STRANDS}"
        )
    if n == 0:
        return TLElement(0, 0, {(): RatFunc.one()})
    if n == 1:
        return identity_element(1)
    wide = tensor(_projector(n - 1), identity_element(1))
    hook = e_generator(n, n - 1)
    ratio = RatFunc.normalized(_delta_poly(n - 2), _delta_poly(n - 1))
    return wide - compose(compose(wide, hook), wide).scale(ratio)


def jones_wenzl(n: int) -> JonesWenzl:
    """Projector on n strands, built by peeling one strand at a time."""
    if _check_int(n, "strand count") < 1:
        raise ValueError("projector needs at least one strand")
    return JonesWenzl(n, _projector(n))


def projector_frame(n: int) -> TLElement:
    """Two side-by-side n-strand projectors in TL_2n, cached (_frame)."""
    return _frame(_check_int(n, "strand count"))


@cache
def _frame(n: int) -> TLElement:
    return tensor(_projector(n), _projector(n))


# ---------------------------------------------------------------------------
# Loop, bubble, and kink coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumCoeffs:
    """Closed evaluations attached to a pair (n, i) with 0 <= i <= n.

    delta is the value of a closed n-strand projector loop, theta the
    value of the two-vertex bubble whose three edges carry n, n, and 2i
    strands, and mu the framing unit picked up by a projector-dressed
    kink, (-1)^n A^(-n^2-2n).
    """

    delta: RatFunc
    theta: RatFunc
    mu: LaurentPoly


def _pinch_wires(n: int, i: int):
    """Wiring diagrams narrowing two n-cables to a 2i-cable and back.

    narrow: top 2n points (two n-cables side by side), bottom 2i.  The
    n-i facing innermost strands of the two cables turn and join each
    other in nested arcs; the outer i strands of each cable continue
    down.  widen is the vertical mirror.
    """
    m, w = 2 * n, 2 * i
    narrow_pairs = [(n - 1 - p, n + p) for p in range(n - i)]
    narrow_pairs += [(j, m + j) for j in range(i)]
    narrow_pairs += [(m - i + j, m + i + j) for j in range(i)]
    widen_pairs = [(w + n - 1 - p, w + n + p) for p in range(n - i)]
    widen_pairs += [(j, w + j) for j in range(i)]
    widen_pairs += [(i + j, w + m - i + j) for j in range(i)]
    return _wire(m, w, narrow_pairs), _wire(w, m, widen_pairs)


def quantum_coeffs(n: int, i: int) -> QuantumCoeffs:
    """Loop, bubble, and kink coefficients for colors (n, 2i)."""
    _check_int(n, "strand count")
    if not 0 <= _check_int(i, "edge color index") <= n:
        raise ValueError(f"edge color index {i} outside 0..{n}")
    delta = trace_close(_projector(n))
    narrow, widen = _pinch_wires(n, i)
    bubble = compose(compose(widen, projector_frame(n)), narrow)
    theta = trace_close(compose(_projector(2 * i), bubble))
    mu = LaurentPoly.monomial(-n * n - 2 * n, 1 if n % 2 == 0 else -1)
    return QuantumCoeffs(delta=delta, theta=theta, mu=mu)


# ---------------------------------------------------------------------------
# The four-cluster basis
# ---------------------------------------------------------------------------

def bni_basis(n: int) -> list:
    """Basis of the cabled 2-tangle subspace of TL_2n, one element per
    through-color 2i.

    Element i routes each side cable through an n-strand projector and
    pinches them together across a horizontal 2i-strand bridge wearing
    its own projector; i runs from 0 (cables joined left and right,
    nothing across) to n (full bridge).  Built upright and then turned
    a quarter turn so the bridge runs horizontally (_bni).
    """
    return _bni(check_cable_width(n))[0]


@cache
def _bni(n: int) -> tuple:
    """(bni_basis(n), pinches), with pinches[i] the pinch matching p_i of
    b_i: its narrow and widen wires joined with no projector and turned
    the same way.  p_i has coefficient 1 in b_i and 0 in every b_j with
    j < i."""
    frame = projector_frame(n)
    basis, pinches = [], []
    for i in range(n + 1):
        narrow, widen = _pinch_wires(n, i)
        core = compose(compose(narrow, _projector(2 * i)), widen)
        basis.append(rotate_cw(compose(compose(frame, core), frame)))
        (pinch,) = rotate_cw(compose(narrow, widen)).nums
        pinches.append(pinch)
    return basis, pinches


# ---------------------------------------------------------------------------
# The referee of the colored expansion
# ---------------------------------------------------------------------------

def colored_element(t, n: int) -> TLElement:
    """The n-cabled, projector-dressed 2-tangle as an element of TL_2n.

    The cabled state sum of a diagram, or of rational_to_diagram(t) for a
    rational tangle or twist word, between two projector frames: each
    strand at a corner is dressed with an n-strand projector (the
    projector absorbs its own copies, so where along the strand it sits
    does not matter).  With _read_coordinates it is the referee of
    colored_expand and colored_closure at widths up to 3, on cables
    within the oracle's crossing cap.
    """
    check_cable_width(n)
    d = t if isinstance(t, PlanarTangleDiagram) else rational_to_diagram(t)
    frame = projector_frame(n)
    return compose(frame, compose(state_sum(cable_diagram(d, n)), frame))


def _read_coordinates(x: TLElement, n: int) -> list:
    """Coordinates of x over bni_basis(n), read off and checked exactly.

    The pinch matching p_i has coefficient 1 in b_i and 0 in every b_j
    with j < i, so gamma_n = x[p_n] and gamma_i = x[p_i] minus the sum
    of gamma_j b_j[p_i] over j > i.  Then the sum of gamma_j b_j, formed
    as a TLElement, must equal x.
    """
    basis, pinches = _bni(check_cable_width(n))
    zero = LaurentPoly.zero()
    gammas = [None] * (n + 1)
    for i in range(n, -1, -1):
        p = pinches[i]
        g = RatFunc.normalized(x.nums.get(p, zero), x.den)
        for j in range(i + 1, n + 1):
            g = g - gammas[j] * basis[j].coefficient(p)
        gammas[i] = g
    terms = [b.scale(g) for g, b in zip(gammas, basis)]
    if sum(terms[1:], terms[0]) != x:
        raise ValueError("basis failure: element outside the basis span")
    return gammas
