"""Temperley-Lieb algebras over the field of rational functions in A.

Elements are exact linear combinations of crossingless matchings of
boundary points (some on a top edge, some on a bottom edge), with
stacking as multiplication: gluing two diagrams concatenates their
strands and converts every closed loop into a factor of
delta = -A^2 - A^-2.  On top of that engine the module builds the
Jones-Wenzl projectors, their loop and bubble evaluations, the basis
of the four-cluster subspace used for cabled 2-tangles, and the
expansion of a cabled, projector-dressed rational tangle over that
basis together with the resulting ratio invariants.

The colored expansion never builds the tangle in TL_2n.  A twist word
is replayed on n+1 coordinates in the fusion basis, from the
coordinates of the dressed crossingless tangle, with each run of half
twists applied in closed form on packed big integers
(transfer_vector); the start coordinates and the quarter turn come from
the recoupling formulas for theta and Tet (recoupling.py), and at width
1 the coordinates are read off the bracket instead.  A diagram is read
off its threaded closure (annulus.colored_closure), integer sums of
annular brackets of its cables.  Neither builds a projector, so both
reach cable widths past the projectors' bound.  colored_element, the
cabled state sum between two projector frames, is kept as their
referee at widths up to 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import NamedTuple

from . import bracket, oracle
from .bracket import BracketVec2, coprime_ratio
from .ring import (
    LaurentPoly,
    RatCombination,
    RatFunc,
    _digit_width,
    _digits,
    _exact_quotient,
    _from_dense,
    _from_digits,
    _pack,
    _to_dense,
    as_ratfunc,
    common_denominator,
    delta_power,
    normalize_over,
)
from .tangles import (
    MAX_TWIST_TOTAL,
    PlanarTangleDiagram,
    RationalTangle,
    TwistWord,
    cable_diagram,
    corner_clusters,
    curl_diagram,
    rational_to_diagram,
    to_twist_word,
)

__all__ = [
    "MAX_COLORED_TWISTS",
    "MAX_PROJECTOR_STRANDS",
    "MAX_TWIST_WIDTH",
    "TLElement",
    "JonesWenzl",
    "QuantumCoeffs",
    "catalan",
    "enumerate_matchings",
    "identity_element",
    "e_generator",
    "unit_element",
    "compose",
    "tensor",
    "trace_close",
    "rotate_cw",
    "rotate_ccw",
    "state_sum",
    "tile_element",
    "kink_element",
    "projector_frame",
    "colored_element",
    "jones_wenzl",
    "quantum_coeffs",
    "bni_basis",
    "check_cable_width",
    "colored_twist_word",
    "transfer_vector",
    "colored_expand",
    "colored_invariants",
    "colored_ratios",
]

#: Largest strand count for which Jones-Wenzl projectors are built.
MAX_PROJECTOR_STRANDS = 6

#: Largest total twist, per cable width, of a twist word whose colored
#: coordinates or closure are computed.  Width 1 is the bracket, so its
#: bound is the bracket's, MAX_TWIST_TOTAL.  From width 2 on, each bound
#: is the largest round total at which the slowest shape found, all
#: entries 1, ran within a minute through `colored` and through
#: `colored-closure`, each in a fresh process, with the replay on dicts
#: of polynomials (2-vCPU x86 host, CPython 3.11).  Re-timed with the
#: packed replay, the slower time (`colored` from width 2 on; best of 2
#: or 3 runs on a shared host, which spread up to 1.6 times above it) and
#: the larger stdout of the two:
#:
#:     width      1       2       3       4       5       6       7       8
#:     bound   2000     800     400     200     110      70      45      30
#:     time    0.6 s   18 s    15 s    9.6 s   5.4 s   4.0 s   2.9 s   3.1 s
#:     output  2.6 MB  3.1 MB  3.6 MB  2.5 MB  1.8 MB  1.4 MB  1.1 MB  0.8 MB
#:
#: With the dict replay the same words took 34 to 52 s from width 2 on,
#: on an idle host (the bounds were set when they took 33 to 60 s on a
#: loaded one).  At widths 2 and 3 most of the time of `colored` is the
#: gcds of its ratios; `colored-closure` takes 7.9 and 6.8 s there.  The
#: widths stop at 8: at width 9 a word of 20 ones took 28 to 31 s in one
#: process with the dict replay.
MAX_COLORED_TWISTS = {1: MAX_TWIST_TOTAL, 2: 800, 3: 400, 4: 200, 5: 110, 6: 70, 7: 45, 8: 30}

#: Largest cable width of a twist word.  Its colored coordinates and
#: closure come from closed forms, with no projector, so the bound is
#: set by the time of the replay alone.
MAX_TWIST_WIDTH = max(MAX_COLORED_TWISTS)


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

    The boundary is read through tangles.corner_clusters, so labels are
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
    if not sign:
        raise ValueError("crossing sign must be nonzero, got 0")
    return 1 if sign > 0 else -1


def tile_element(n: int, sign: int) -> TLElement:
    """Two n-cables crossing once, as an element of TL_2n.

    The cabled state sum of the one-crossing tangle [sign], computed
    once per width and sign and cached (_tile).
    """
    return _tile(n, _unit_sign(sign))


@cache
def _tile(n: int, sign: int) -> TLElement:
    one_crossing = rational_to_diagram(RationalTangle.from_entries(sign))
    return state_sum(cable_diagram(one_crossing, n))


def kink_element(n: int, sign: int) -> TLElement:
    """An n-cable making one kink, as an element of TL_n: the cabled
    state sum of curl_diagram(sign), its NW points on top, cached
    (_kink)."""
    return _kink(n, _unit_sign(sign))


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


def _delta_poly(k: int) -> LaurentPoly:
    """Loop value of the closed k-strand projector, (-1)^k [k+1]."""
    from . import recoupling  # loaded on first use, see its docstring

    q = recoupling._qint(k + 1)
    return -q if k % 2 else q


@cache
def _projector(n: int) -> TLElement:
    if n > MAX_PROJECTOR_STRANDS:
        raise ValueError(
            f"projector on {n} strands exceeds the bound {MAX_PROJECTOR_STRANDS}"
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
    if n < 1:
        raise ValueError("projector needs at least one strand")
    return JonesWenzl(n, _projector(n))


@cache
def projector_frame(n: int) -> TLElement:
    """Two side-by-side n-strand projectors in TL_2n, cached."""
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
    if not 0 <= i <= n:
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

def check_cable_width(n: int, bound: int = MAX_PROJECTOR_STRANDS // 2) -> int:
    """Return n if it is a usable cable width, else raise ValueError.

    colored_element, a basis element or a crossing tile needs a
    projector on 2n strands, so by default n runs from 1 to
    MAX_PROJECTOR_STRANDS // 2; colored_expand and colored_closure,
    which build no projector, pass MAX_TWIST_WIDTH.  A width that is not
    an int (a bool included) is refused before any comparison.
    """
    if type(n) is not int:
        raise ValueError(f"cable width must be an int, got {n!r}")
    if not 1 <= n <= bound:
        raise ValueError(f"cable width must be between 1 and {bound}, got {n}")
    return n


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
# Colored expansion of 2-tangles
# ---------------------------------------------------------------------------
#
# The dressed tangle of a twist word lies in the (n+1)-dimensional span
# of bni_basis(n), and both twists act on that span.  The replay runs in
# the fusion basis b'_i = b_i / c_i, with c_i = theta(n,n,2i) / Delta_2i
# (recoupling.bubble_ratio), whose elements are the terms of the fusion
# identity: the dressed [0], two parallel n-cables, is the sum of all
# b'_i, the dressed [inf] is c_0 b'_0 with c_0 = Delta_n, and b'_i
# closes around the annulus to S_2i(z).  A right half twist of sign s
# scales b'_i by its twist eigenvalue (-1)^(n-i) A^(s(n^2 + 2n - 2i^2 -
# 2i)).  A bottom half twist is a right one seen after a quarter turn:
# with Q the matrix of rotate_cw on the span, which is its own inverse,
# a bottom run of a half twists is Q D(-a) Q, where D(a) is the diagonal
# right run.  Recoupling theory gives Q in closed form (Kauffman & Lins,
# Temperley-Lieb Recoupling Theory and Invariants of 3-Manifolds, 1994;
# Masbaum & Vogel, Pacific J. Math. 164, 1994):
# Q_ij = Tet Delta_2j / (theta(n,n,2i) theta(n,n,2j)), evaluated in
# recoupling.py.  Over bni_basis it is Tet Delta_2i / theta(n,n,2i)^2,
# with about three times the terms.  The replay coordinates kappa_i are
# then the Chebyshev coordinates of the colored closure, integral Laurent
# polynomials (transfer_vector), and gamma_i = kappa_i / c_i the
# coordinates over bni_basis(n).  A diagram's kappa_i are read off its
# threaded closure instead.
#
# The gamma_i and their ratios are reduced from kappa with no general
# normalization (cyclotomic.py).  Each c_i is a unit times a quotient of
# products of the cyclotomic polynomials Phi_d(A^4), as every quantum
# integer is, and its unit and factor multisets are tabled next to the
# replay data.  gamma_i strips from kappa_i only the numerator factors of
# c_i, each at most as often as it occurs and only after an exact
# divisibility test; a ratio gamma_i / gamma_k takes one gcd, of kappa_i
# and kappa_k, and strips the factors of c_k / c_i from the two coprime
# cofactors.  Both are canonical as built: kappa lies in A^lo Z[A^4],
# where a factor of Phi_d(A^4) divides only along with all of
# Phi_d(A^4).  RatFunc.normalized and colored_ratios referee them in the
# tests.
#
# colored_expand and colored_closure therefore reach every
# width up to MAX_TWIST_WIDTH without building a projector, a basis
# element or a crossing tile.  The threaded closure of
# rational_to_diagram(t) referees the replay at every width; at widths
# up to 3, colored_element and the same data read off bni_basis(n)
# referee both.

def colored_twist_word(t, n: int) -> TwistWord:
    """The twist word of a rational tangle (or of a twist word) to be
    cabled at width n; a bad width, or a word longer than
    MAX_COLORED_TWISTS[n], is refused before any work."""
    check_cable_width(n, MAX_TWIST_WIDTH)
    word = t if isinstance(t, TwistWord) else to_twist_word(t)
    bound = MAX_COLORED_TWISTS[n]
    total = sum(abs(a) for _, a in word.runs)
    if total > bound:
        raise ValueError(
            f"colored twist word too long: {total} half twists exceed "
            f"the bound {bound} at cable width {n}"
        )
    return word


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


@cache
def _transfer_data(n: int):
    """Start vectors, quarter-turn matrix and bubble ratios of the replay
    at width n, in the fusion basis b'_i = b_i / c_i.

    Returns (starts, q, q_den, bubbles), with bubbles[i] the RatFunc
    c_i = theta(n,n,2i) / Delta_2i.  starts maps "0" and "inf" to the
    replay coordinates of the dressed crossingless tangle: [0] is all
    ones (the fusion identity), and [inf] is c_0 = Delta_n at b'_0.
    q[i][j] / q_den is coordinate i of rotate_cw(b'_j), Tet Delta_2j /
    (theta(n,n,2i) theta(n,n,2j)), None where zero (Kauffman & Lins
    1994; Masbaum & Vogel 1994).  All of it comes from the closed forms
    of recoupling.py, cached per n; no projector, basis element or
    crossing tile is built.
    """
    from . import recoupling  # loaded on first use, see its docstring

    bubbles = [recoupling.bubble_ratio(n, i) for i in range(n + 1)]
    starts = {"0": dict.fromkeys(range(n + 1), LaurentPoly.one()),
              "inf": {0: bubbles[0].as_laurent()}}
    entries = {(i, j): recoupling.quarter_turn_entry(n, i, j)
               for i in range(n + 1) for j in range(n + 1)}
    q_nums, q_den = normalize_over(*common_denominator(entries))
    q = [[q_nums.get((i, j)) for j in range(n + 1)] for i in range(n + 1)]
    return starts, q, q_den, bubbles


#: Widest digit, in bytes, at which a quarter turn multiplies by an entry
#: of q as one product of packed integers; past it, by one shift and
#: small multiple per term of the entry, since packing pads the entry's
#: small coefficients to whole digits.  Timed on vectors of 300 digits
#: (2-vCPU x86 host, CPython 3.11), products were faster up to 8 bytes at
#: widths 2 to 8 (2 to 3.2 times at 4 bytes); at widths 2 to 6 they were
#: as fast or slower from 12 bytes on (3.7 times as slow at 32), and at
#: width 8 faster up to 16 bytes.  Products at every width took twice as
#: long on the bound words of widths 2 and 3.
_PRODUCT_BYTES = 8

#: Widest digit, in bytes, at which a bottom run divides by q_den^2 with
#: one divmod of packed integers; past it, digit by digit (see _divide).
#: Timed on quotients of 400 digits at widths 2, 5 and 8, the two took
#: the same time at 32 bytes; the divmod was 6 to 12 times as fast at
#: 8 bytes and 4.6 to 7.7 times as slow at 96.
_DIVMOD_BYTES = 32


class _ReplayTables(NamedTuple):
    """The data of the packed replay at one width n that do not depend on
    the digit width (see _replay_tables and transfer_vector)."""

    #: q_ij = A^lo_q q'_ij(A^4), lo_q the least exponent of all entries
    lo_q: int
    #: rows[i][j], the terms (k, c) of q'_ij; None where q_ij is zero
    rows: list
    #: the largest row l1-norm of q
    r: int
    #: eigen[i] = n^2 + 2n - 2i^2 - 2i, the exponent of D(1) at i
    eigen: list
    #: the coefficients of q_den^2 as a polynomial in A^4, lowest first
    d: tuple
    #: the l1-norm of q_den^2
    d_norm: int
    #: "0" and "inf" -> one (lo, digits) per coordinate, (0, None) if zero
    starts: dict


@cache
def _replay_tables(n: int) -> _ReplayTables:
    """The _ReplayTables of width n, built from _transfer_data(n) and
    cached per n.

    Checked here, through ring._to_dense at step 4, else ValueError: every
    exponent of every entry of q lies in one class mod 4, as does every
    exponent of each start vector, and q_den^2 is monic, with every
    exponent a multiple of 4 and a nonzero constant term.
    """
    starts, q, q_den, _ = _transfer_data(n)
    try:
        forms = [[None if v is None else _to_dense(v, 4) for v in row] for row in q]
        d_lo, d = _to_dense(q_den * q_den, 4)
        vectors = {kind: [_to_dense(s[i], 4) if i in s else (0, None) for i in range(n + 1)]
                   for kind, s in starts.items()}
        entries = [f for row in forms for f in row if f]
        groups = [entries] + [[f for f in vs if f[1]] for vs in vectors.values()]
        if any(len({lo % 4 for lo, _ in fs}) != 1 for fs in groups) or d_lo or d[-1] != 1:
            raise ValueError("the replay data do not lie in one class mod 4 each, "
                             "or q_den^2 is not monic")
    except ValueError as err:
        raise ValueError(f"colored replay at cable width {n}: {err}") from None
    lo_q = min(lo for lo, _ in entries)
    rows = [[None if f is None else tuple((((f[0] - lo_q) >> 2) + k, c)
                                          for k, c in enumerate(f[1]) if c)
             for f in row] for row in forms]
    r = max(sum(sum(map(abs, f[1])) for f in row if f) for row in forms)
    eigen = [n * n + 2 * n - 2 * i * i - 2 * i for i in range(n + 1)]
    return _ReplayTables(lo_q, rows, r, eigen, d, sum(map(abs, d)), vectors)


@cache
def _packed_tables(n: int, b: int):
    """(qp, d_xi, starts) at width n and digit width b, cached per (n, b),
    with xi = 2^(8b): qp[i][j] = q'_ij(xi) of _replay_tables (None where
    zero; qp itself is None past _PRODUCT_BYTES), d_xi = d(xi), and
    starts maps "0" and "inf" to the P_i(xi) of the start vectors (None
    where zero)."""
    tables = _replay_tables(n)
    qp = None
    if b <= _PRODUCT_BYTES:
        qp = [[None if terms is None else sum(c << 8 * b * k for k, c in terms)
               for terms in row] for row in tables.rows]
    vectors = {kind: [g and _pack(g, b) for _, g in s] for kind, s in tables.starts.items()}
    return qp, _pack(tables.d, b), vectors


def _turn(vec: dict, rows, qp, bits: int) -> dict:
    """q' times a packed vector vec, j -> v_j(xi) with one lo for all j,
    zero rows left out: one product per entry when qp is given, else a
    shift and a small multiple per term."""
    out = {}
    for i, row in enumerate(rows):
        total = 0
        for j, v in vec.items():
            if row[j] is None:
                continue
            if qp is not None:
                total += qp[i][j] * v
            else:
                for k, c in row[j]:
                    total += c * (v << bits * k)
        if total:
            out[i] = total
    return out


def _divide(nums: dict, n: int, b: int, m: int):
    """The quotients of packed numerators nums, i -> W_i(xi), by
    d = q_den^2, as i -> (h(xi) or None, digits of h, max-norm of h); None
    when the certificate of transfer_vector fails at digit width b, m being
    the max-norm of the run's input.  A remainder raises ValueError.

    Up to _DIVMOD_BYTES each W_i takes one divmod by d(xi), and the
    quotient is certified.  Past it, W_i is read in balanced digits, which
    are its coefficients since R^2 m < xi / 2, and ring._exact_quotient
    divides them by d: a divmod costs the length of W_i times that of
    d(xi), whose small coefficients are padded to whole digits.
    """
    tables = _replay_tables(n)
    half = 1 << (8 * b - 1)
    if tables.r ** 2 * m >= half:
        return None
    d_xi = _packed_tables(n, b)[1]
    out = {}
    for i, w in nums.items():
        if b <= _DIVMOD_BYTES:
            h, rem = divmod(w, d_xi)
            digits = None if rem else _digits(h, b)
        else:
            h, digits = None, _exact_quotient(_digits(w, b), tables.d)
        if not digits:
            raise ValueError(f"colored replay at cable width {n}: division is not exact")
        norm = max(max(digits), -min(digits))
        if h is not None and norm * tables.d_norm >= half:
            return None
        out[i] = h, digits, norm
    return out


def transfer_vector(t, n: int) -> dict:
    """Replay coordinates kappa_i of a rational tangle or twist word in
    the fusion basis b'_i = b_i / c_i of _transfer_data, as a dict
    i -> kappa_i with zero coordinates left out.

    kappa_i is the coordinate of S_2i in the colored closure and
    kappa_i / c_i that of b_i.  The replay applies each run of a half
    twists to the dressed crossingless tangle in closed form.  A right
    run multiplies coordinate i by its eigenvalue, the monomial
    (-1)^((n-i)|a|) A^(a(n^2 + 2n - 2i^2 - 2i)); call that diagonal D(a).
    A bottom run is Q D(-a) Q with Q = q / q_den: the numerators
    W = q D(-a) q kappa, divided by q_den^2.

    Integrality.  That division is exact, since every kappa_i lies in
    Z[A^+-1].  A rational tangle has no closed component, so each
    component of its colored closure passes through a projector.  The
    n-strand projector closes to S_n(z) in the annulus (Lickorish, An
    Introduction to Knot Theory, 1997, ch. 13), so the component equals
    its S_n-threading, a Z-combination of blackboard parallels, and the
    closure lies in Z[A^+-1][z]; each S_k is monic over Z, so each kappa_i
    is integral.  Every prefix of a word is a rational tangle, so a
    bottom run's numerators are q_den^2 times an integral kappa': a
    remainder means wrong data, a ValueError that names the replay.

    Classes mod 4.  _replay_tables checks that all exponents of the
    entries of q lie in one class c mod 4, that those of q_den^2 are
    multiples of 4, and that each start vector lies in one class.  The
    exponents of D(a) differ from a(n^2 + 2n) by 2i(i+1), a multiple of
    4.  So every vector of the replay lies in one class: D(a) adds
    a(n^2 + 2n) to it, a quarter turn c, and the division 0.

    Packed form.  Coordinate i is held as A^lo_i P_i(A^4), with P_i
    evaluated at xi = 2^(8b) (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009) and a sign kept apart.  A right run adds to each lo
    and flips signs, in O(1) per coordinate.  In a bottom run the lo_i
    differ by multiples of 4, so whole-digit shifts align the coordinates
    on their least lo; a quarter turn is then q'_ij(xi) v_j(xi) summed
    over j, as one product per entry up to _PRODUCT_BYTES and past it as
    shifts of v_j by each term of q'_ij.  D(-a) adds to each lo, the
    coordinates are aligned again, and _divide divides by q_den^2.

    Certificate.  Let m be the max-norm of the input coordinates, known
    exactly, and R the largest row l1-norm of q, so that every W_i has
    max-norm at most R^2 m.  The digit width b is the least with
    R^2 m ||d||_1 < xi / 2, d = q_den^2, rounded up to 1, 2, 4 or 8 bytes
    (ring._digit_width).  One divmod(W_i(xi), d(xi)) gives a quotient h
    read in balanced digits; a nonzero remainder means the polynomial
    division is not exact either, since evaluation at xi commutes with
    products.  If ||h||_inf ||d||_1 < xi / 2 and R^2 m < xi / 2, then h d
    and W_i both have every coefficient in (-xi/2, xi/2) and agree at xi,
    so they are equal and h = kappa'_i exactly.  If the test fails, b
    doubles and the run is redone from its input, whose digits are known.
    That stops: when the division is exact, h is kappa'_i once
    ||kappa'_i|| ||d||_1 < xi / 2, and passes; when it is not,
    W_i = h0 d + r0 with r0 != 0 of lower degree than d, integral since d
    is monic, and once xi outgrows r0, 0 < |r0(xi)| < d(xi) is a
    remainder.  Past _DIVMOD_BYTES the division is ring._exact_quotient on
    the digits of W_i, exact by construction.  Either way the quotient's
    digits give the next m and are written out once, at the end, with
    ring._from_dense and the signs and lo of any right runs after.

    At width 1 it referees the read-off in colored_expand.  Words longer
    than MAX_COLORED_TWISTS[n] are refused before any precompute.  The
    dict returned is the caller's own, also for a word with no runs.
    """
    return {i: _from_dense(lo, s, g, 4)
            for i, (lo, s, g) in _replay(colored_twist_word(t, n), n).items()}


def _replay(word: TwistWord, n: int) -> dict:
    """The replay of transfer_vector on a word that colored_twist_word
    has checked, with each nonzero kappa_i as (lo, sign, digits):
    kappa_i = sign A^lo P(A^4), digits the coefficients of P, lowest
    first, the lowest and the top nonzero."""
    lo_q, rows, r, eigen, _, d_norm, starts = _replay_tables(n)
    los, digits = map(list, zip(*starts[word.start]))
    signs = [1] * (n + 1)
    m = max(max(map(abs, g)) for g in digits if g)
    b, vals, fresh = 0, None, True  # vals: the P_i(xi) at b, None until packed
    for kind, a in word.runs:
        if kind == "R":
            for i in range(n + 1):
                los[i] += a * eigen[i]
                if (n - i) * a % 2:
                    signs[i] = -signs[i]
            continue
        need = _digit_width(r * r * m * d_norm)
        if need > b:
            b, vals = need, None
        while True:
            bits = 8 * b
            qp, _, packed_starts = _packed_tables(n, b)
            if vals is None:
                vals = (packed_starts[word.start] if fresh
                        else [g and _from_digits(g, b) for g in digits])
            live = [j for j in range(n + 1) if digits[j]]
            low = min(los[j] for j in live)
            vec = {}
            for j in live:
                v = vals[j] << bits * ((los[j] - low) >> 2)
                vec[j] = -v if signs[j] < 0 else v
            turned = _turn(vec, rows, qp, bits)
            shifts = {i: -a * eigen[i] for i in turned}
            low_d = min(shifts.values())
            vec = {i: (-v if (n - i) * a % 2 else v) << bits * ((shifts[i] - low_d) >> 2)
                   for i, v in turned.items()}
            quotients = _divide(_turn(vec, rows, qp, bits), n, b, m)
            if quotients is not None:
                break
            b, vals = 2 * b, None
        lo = 2 * lo_q + low + low_d
        los, signs, fresh = [lo] * (n + 1), [1] * (n + 1), False
        vals, digits, m = [None] * (n + 1), [None] * (n + 1), 0
        for i, (h, g, norm) in quotients.items():
            k = next(e for e, x in enumerate(g) if x)  # drop zero low digits
            if k:
                g, los[i] = g[k:], lo + 4 * k
                if h is not None:
                    h >>= bits * k
            vals[i], digits[i], m = h, g, max(m, norm)
        if b > _DIVMOD_BYTES:  # divided digit by digit: pack at the next run
            vals = None
    return {i: (lo, s, g) for i, (lo, s, g) in enumerate(zip(los, signs, digits)) if g}


# X = A^4 + 1, so delta = -A^2 - A^-2 = -X / A^2
_X = LaurentPoly({0: 1, 4: 1})


def _closure_kappas(t, n: int) -> dict:
    """The nonzero coordinates kappa_i of S_2i in the colored closure, in
    the form i -> (lo, sign, digits) of _replay: for a rational tangle or
    twist word those of the replay, for a diagram the Chebyshev
    coordinates of its threaded closure (annulus.colored_closure), which
    must lie in the span of S_0, S_2, ..., S_2n, each in one class mod 4
    (in a closure, changing one smoothing moves a state's exponent by a
    multiple of 4), else ValueError."""
    if not isinstance(t, PlanarTangleDiagram):
        return _replay(colored_twist_word(t, n), n)
    from . import annulus  # annulus imports this module

    coords = annulus.chebyshev_convert(annulus.colored_closure(t, n))
    if len(coords) > 2 * n + 1 or any(coords[1::2]):
        raise ValueError("basis failure: closure outside the span of S_0, S_2, ..., S_2n")
    quarters = {}
    for i, c in enumerate(coords[::2]):
        if c:
            lo, digits = _to_dense(c.as_laurent(), 4)
            quarters[i] = lo, 1, digits
    return quarters


def colored_expand(t, n: int) -> list:
    """Coordinates of the n-cabled, projector-dressed tangle over bni_basis.

    gamma_i = kappa_i / c_i, with kappa_i the coordinate of S_2i in the
    colored closure (_closure_kappas), reduced with no gcd by the known
    cyclotomic factors of c_i (cyclotomic.reduced_gammas).  A twist word
    at width 1 is read off the bracket instead, since the cable is the
    tangle itself: over (b_0, b_1), gamma = (alpha + beta / delta, beta)
    = ((alpha X - beta A^2) / X, beta).  Both are canonical as built, with
    no gcd: X = Phi_8 is irreducible with content 1, so it could cancel
    only by dividing beta, that is, only if beta(zeta_8) = 0.  That
    happens only at fraction infinity, where beta = 0 and
    gamma = (alpha, 0).
    """
    if n == 1 and not isinstance(t, PlanarTangleDiagram):
        forms = bracket._replay(colored_twist_word(t, n))  # n, not 1: a bool or float is refused
        alpha, beta = (_from_dense(lo, 1, g, 4) for lo, g in forms)
        if beta.is_zero:
            return [RatFunc.from_laurent(alpha), RatFunc.zero()]
        gamma_0 = RatFunc(alpha + alpha.shift(4) - beta.shift(2), _X)
        return [gamma_0, RatFunc.from_laurent(beta)]
    from . import cyclotomic  # loaded on first use, see its docstring

    return cyclotomic.reduced_gammas(_closure_kappas(t, n), n)


def colored_invariants(t, n: int) -> tuple:
    """(colored_expand(t, n), ratios), the ratios those of
    colored_ratios, gamma_i / gamma_k for k the last nonzero coordinate,
    without its warning: when the top coordinate vanishes there are
    fewer than n of them.

    Both come from one replay: each ratio takes one gcd, of kappa_i and
    kappa_k (cyclotomic.reduced_ratios), and a twist word at width 1 none
    (_width_one_ratios).
    """
    if n == 1 and not isinstance(t, PlanarTangleDiagram):
        gammas = colored_expand(t, n)
        return gammas, _width_one_ratios(gammas)
    from . import cyclotomic  # loaded on first use, see its docstring

    quarters = _closure_kappas(t, n)
    return cyclotomic.reduced_gammas(quarters, n), cyclotomic.reduced_ratios(quarters, n)


def colored_ratios(gammas: list) -> list:
    """Quotients of the colored coordinates by the top one.

    Dividing by the last coordinate kills the framing unit a kink
    multiplies the whole list by, leaving honest isotopy invariants.
    When the top coordinate vanishes the list is normalized by the last
    nonzero one instead (a projective reading, flagged by a warning).
    """
    gammas = [as_ratfunc(g) for g in gammas]
    k = next((j for j in range(len(gammas) - 1, -1, -1) if not gammas[j].is_zero), None)
    if k is None:
        raise ValueError("zero skein element")
    if k != len(gammas) - 1:
        import warnings

        warnings.warn(
            "top colored coordinate vanishes; normalizing by the last nonzero one",
            stacklevel=2,
        )
    top = gammas[k]
    return [g / top for g in gammas[:k]]


def _width_one_ratios(gammas: list) -> list:
    """colored_ratios(gammas) for gammas = colored_expand(t, 1) of a
    rational tangle or twist word t, with no gcd; colored_ratios is the
    referee.

    gamma_0 / gamma_1 = (alpha X - beta A^2) / (X beta), with
    X = A^4 + 1.  alpha and beta are coprime (bracket.coprime_ratio), and
    X is irreducible and does not divide beta (colored_expand), so the
    two sides are coprime, and the ratio is gamma_0.num over X beta, a
    sum of two shifts, up to the sign and the power of A that
    coprime_ratio moves.  A vanishing coordinate needs no gcd either:
    gamma_1 = 0 leaves no ratio (gamma_0 normalizes, as in
    colored_ratios, but with no warning) and gamma_0 = 0 the ratio 0.
    """
    g0, g1 = gammas
    if g1.is_zero:
        return []
    if g0.is_zero:
        return [RatFunc.zero()]
    beta = g1.num
    return [coprime_ratio(BracketVec2(g0.num, beta + beta.shift(4)))]
