"""Two-string tangles: rational tangles as twist words, and general
planar tangle diagrams for the brute-force evaluator.

Diagram model
-------------
A diagram is a 4-valent plane graph with optional boundary points.
We store it as half-edges ("ends", small integers):

* each crossing owns four ends, listed counterclockwise with the
  understrand occupying entries 0 and 2;
* each boundary point owns one end and carries a label: a corner name
  NW, NE, SW, SE, or "<corner>:<k>" for the k-th copy of a corner in
  an n-cable (cable_diagram writes these and corner_clusters reads
  them);
* arcs join ends in pairs; an arc may carry an integer winding weight,
  the signed number of times its traversal (first end to second end)
  crosses a fixed ray out of the annulus puncture.  Weights matter only
  for diagrams drawn in the annulus.

Crossing sign convention: a crossing is positive when its overstrand
has positive slope; with counterclockwise ends and the understrand at
entries 0 and 2, the sign is +1 exactly when the understrand exits one
counterclockwise step after the overstrand exits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rationals import ExtRational, TwistVector, continued_fraction

__all__ = [
    "MAX_TWIST_TOTAL",
    "RationalTangle",
    "TwistWord",
    "PlanarTangleDiagram",
    "build_rational",
    "tangle_add",
    "tangle_negate",
    "tangle_invert",
    "to_twist_word",
    "rational_to_diagram",
    "diagram_zero",
    "diagram_infinity",
    "connectivity",
    "components",
    "left_linking_number",
    "clasp_single",
    "clasp_double",
    "clasp_around_right",
    "curl_diagram",
    "cable_diagram",
    "corner_clusters",
    "random_twist_vector",
]

CORNERS = ("NW", "NE", "SW", "SE")

#: Largest total |entry| of a twist vector turned into a twist word, and
#: of a raw twist word given to bracket.bracket_vector.  The bracket
#: applies each run in closed form; the bound keeps output size in check.
#: It is also the colored bound at cable width 1; wider cables have
#: tighter bounds (tl.MAX_COLORED_TWISTS).
MAX_TWIST_TOTAL = 2000

TYPE_0 = "TYPE_0"
TYPE_INF = "TYPE_INF"
TYPE_1 = "TYPE_1"


# ---------------------------------------------------------------------------
# Rational tangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalTangle:
    """A rational tangle presented by a twist vector; tv None means the
    infinity tangle (two vertical strands)."""

    tv: TwistVector | None

    @classmethod
    def infinity(cls) -> "RationalTangle":
        return cls(None)

    @classmethod
    def from_entries(cls, *entries) -> "RationalTangle":
        return cls(TwistVector(tuple(entries)))

    @property
    def is_infinity(self) -> bool:
        return self.tv is None

    @cached_property
    def fraction(self) -> ExtRational:
        if self.tv is None:
            return ExtRational.infinity()
        return continued_fraction(self.tv)

    def __str__(self) -> str:
        return "[inf]" if self.tv is None else str(self.tv)


def build_rational(tv) -> RationalTangle:
    if not isinstance(tv, TwistVector):
        tv = TwistVector(tuple(tv))
    return RationalTangle(tv)


def tangle_add(t: RationalTangle, n: int) -> RationalTangle:
    """Add the integer tangle [n] on the right: fraction goes to F + n.

    Sums of two general rational tangles are usually not rational, so
    only integer summands are accepted.
    """
    if not isinstance(n, int):
        raise ValueError("sum of rational tangles need not be rational")
    if t.is_infinity:
        return t
    entries = list(t.tv.entries)
    entries[-1] += n
    return RationalTangle(TwistVector(tuple(entries)))


def tangle_negate(t: RationalTangle) -> RationalTangle:
    """Mirror image: fraction goes to -F."""
    if t.is_infinity:
        return t
    return RationalTangle(TwistVector(tuple(-a for a in t.tv.entries)))


def tangle_invert(t: RationalTangle) -> RationalTangle:
    """Diagonal flip: fraction goes to 1/F.

    On twist vectors this appends an outermost 0 (or removes one),
    since 0 + 1/F is exactly the reciprocal.
    """
    if t.is_infinity:
        return RationalTangle.from_entries(0)
    entries = list(t.tv.entries)
    if entries[-1] == 0:
        entries.pop()
        if not entries:
            return RationalTangle.infinity()
    else:
        entries.append(0)
    return RationalTangle(TwistVector(tuple(entries)))


# ---------------------------------------------------------------------------
# Twist words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistWord:
    """Runs of half twists applied to a start tangle.

    start is "0" or "inf"; each run is ("R", a) for a half twists added
    on the right or ("B", a) for a added at the bottom, a a nonzero
    integer whose sign is the sign of every half twist in the run.
    Anything else is refused with ValueError.
    """

    start: str
    runs: tuple

    def __post_init__(self):
        if self.start not in ("0", "inf"):
            raise ValueError(f"twist word start must be '0' or 'inf', got {self.start!r}")
        for run in self.runs:
            if not (type(run) is tuple and len(run) == 2 and run[0] in ("R", "B")
                    and type(run[1]) is int and run[1]):
                raise ValueError(f"twist word run must be ('R' or 'B', a nonzero int), got {run!r}")

    @property
    def moves(self) -> tuple:
        """The word one half twist at a time: ("R" or "B", +-1) each."""
        return tuple((kind, 1 if a > 0 else -1)
                     for kind, a in self.runs for _ in range(abs(a)))

    def fraction(self) -> ExtRational:
        value = ExtRational.zero() if self.start == "0" else ExtRational.infinity()
        for kind, a in self.runs:
            value = value + a if kind == "R" else value.bottom_twist(a)
        return value


def check_twist_total(total: int) -> None:
    """Refuse a twist word of more than MAX_TWIST_TOTAL half twists with
    ValueError."""
    if total > MAX_TWIST_TOTAL:
        raise ValueError(
            f"twist word too long: {total} half twists exceed the bound {MAX_TWIST_TOTAL}"
        )


def to_twist_word(t) -> TwistWord:
    """Twist word realizing the tangle, innermost entry applied first.

    Each nonzero entry becomes one run.  Entries sharing the parity of
    the last position become horizontal (right) twist regions, the
    others vertical (bottom) regions.  The start tangle is [0] for odd
    vector length and [inf] for even length, which keeps the replayed
    fraction equal to the continued fraction of the vector.  Vectors
    whose entries total more than MAX_TWIST_TOTAL half twists are
    refused with ValueError, and so is a twist word of more than
    MAX_TWIST_TOTAL half twists; a shorter one is returned as it is.
    Any other input is refused with TypeError.
    """
    if isinstance(t, TwistWord):
        check_twist_total(sum(abs(a) for _, a in t.runs))
        return t
    if not isinstance(t, RationalTangle):
        raise TypeError(f"expected a RationalTangle or a TwistWord, got {type(t).__name__}")
    if t.is_infinity:
        return TwistWord("inf", ())
    entries = t.tv.entries
    check_twist_total(sum(abs(a) for a in entries))
    m = len(entries)
    runs = tuple(("R" if (m - k) % 2 == 0 else "B", a)
                 for k, a in enumerate(entries, start=1) if a)
    return TwistWord("0" if m % 2 == 1 else "inf", runs)


# ---------------------------------------------------------------------------
# Planar diagrams
# ---------------------------------------------------------------------------

class PlanarTangleDiagram:
    """Immutable 4-valent diagram with labeled boundary points.

    free_loops lists crossingless closed strands by winding number;
    they arise when a closure joins up strands that meet no crossing.
    """

    __slots__ = ("crossings", "arcs", "boundary", "free_loops")

    def __init__(self, crossings, arcs, boundary, free_loops=()):
        self.crossings = tuple(tuple(c) for c in crossings)
        self.arcs = tuple(
            (arc[0], arc[1], arc[2] if len(arc) == 3 else 0) for arc in arcs
        )
        self.boundary = tuple(tuple(p) for p in boundary)
        self.free_loops = tuple(free_loops)
        ends = [e for c in self.crossings for e in c]
        ends += [e for _, e in self.boundary]
        if len(set(ends)) != len(ends):
            raise ValueError("an end may appear in only one crossing or boundary slot")
        arc_ends = [e for a, b, _ in self.arcs for e in (a, b)]
        if sorted(arc_ends) != sorted(ends):
            raise ValueError("arcs must pair up exactly the crossing and boundary ends")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def num_ends(self) -> int:
        """One past the largest end id (ids need not be contiguous)."""
        return 1 + max((max(a, b) for a, b, _ in self.arcs), default=-1)

    def boundary_end(self, label: str) -> int:
        for lab, e in self.boundary:
            if lab == label:
                return e
        raise KeyError(label)

    def arc_maps(self):
        """Return (partner map, signed winding weight leaving each end)."""
        nxt = {}
        wgt = {}
        for a, b, w in self.arcs:
            nxt[a], nxt[b] = b, a
            wgt[a], wgt[b] = w, -w
        return nxt, wgt

    # -- JSON interchange ---------------------------------------------------

    def to_json(self) -> dict:
        """Edge-list form: each arc becomes a named edge, each crossing
        lists its four incident edges counterclockwise plus a flag; "+"
        means the strand through the first and third entries is the
        understrand, "-" the one through the second and fourth.  Winding
        weights are per edge, oriented from the edge's first appearance
        in the scan (crossings in order, then boundary) to its second.
        """
        edge_of_end = {}
        for idx, (a, b, _) in enumerate(self.arcs):
            edge_of_end[a] = idx
            edge_of_end[b] = idx
        crossings = [
            [f"e{edge_of_end[e]}" for e in c] + ["+"] for c in self.crossings
        ]
        boundary = {lab: f"e{edge_of_end[e]}" for lab, e in self.boundary}
        first_seen = {}
        scan = [e for c in self.crossings for e in c] + [e for _, e in self.boundary]
        for e in scan:
            first_seen.setdefault(edge_of_end[e], e)
        winding = {}
        for idx, (a, b, w) in enumerate(self.arcs):
            if w:
                winding[f"e{idx}"] = w if first_seen[idx] == a else -w
        out = {"crossings": crossings, "boundary": boundary, "winding": winding}
        if self.free_loops:
            out["free_loops"] = list(self.free_loops)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PlanarTangleDiagram":
        counter = 0
        slots = []  # (edge name, end id) in scan order
        crossings = []
        for entry in data.get("crossings", []):
            *edges, flag = entry
            if len(edges) != 4 or flag not in ("+", "-"):
                raise ValueError(f"bad crossing entry: {entry!r}")
            ends = []
            for name in edges:
                slots.append((name, counter))
                ends.append(counter)
                counter += 1
            if flag == "-":
                ends = ends[1:] + ends[:1]
            crossings.append(tuple(ends))
        boundary = []
        for lab, name in data.get("boundary", {}).items():
            slots.append((name, counter))
            boundary.append((lab, counter))
            counter += 1
        by_edge = {}
        for name, end in slots:
            by_edge.setdefault(name, []).append(end)
        winding = data.get("winding", {})
        arcs = []
        for name, ends in by_edge.items():
            if len(ends) != 2:
                raise ValueError(f"edge {name} must appear exactly twice")
            arcs.append((ends[0], ends[1], int(winding.get(name, 0))))
        return cls(crossings, arcs, boundary, data.get("free_loops", ()))


# ---------------------------------------------------------------------------
# Building rational tangle diagrams
# ---------------------------------------------------------------------------

def diagram_zero() -> PlanarTangleDiagram:
    """The 0-tangle: two horizontal strands."""
    return PlanarTangleDiagram(
        [], [(0, 1), (2, 3)], [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    )


def diagram_infinity() -> PlanarTangleDiagram:
    """The infinity tangle: two vertical strands."""
    return PlanarTangleDiagram(
        [], [(0, 2), (1, 3)], [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    )


def _attach(live, arcs, corner, port):
    """Connect the dangling strand at a corner to the given end.

    live[corner] is either a real end (emit the arc now) or a marker
    ("pair", other) meaning the strand currently runs straight across
    to the other corner; then the port becomes the other corner's
    dangling end and the arc is emitted when that side attaches.
    """
    v = live[corner]
    if isinstance(v, int):
        arcs.append((v, port, 0))
    else:
        live[v[1]] = port


def rational_to_diagram(t: RationalTangle) -> PlanarTangleDiagram:
    """Crossing diagram realizing the twist word of the tangle.

    Boundary ends 0..3 are NW, NE, SW, SE; each half twist of a run
    appends one crossing on the east side (R) or the south side (B).
    """
    word = to_twist_word(t)
    crossings = []
    arcs = []
    counter = 4  # ends 0..3 are the boundary corners
    if word.start == "0":
        live = {"NW": ("pair", "NE"), "NE": ("pair", "NW"),
                "SW": ("pair", "SE"), "SE": ("pair", "SW")}
    else:
        live = {"NW": ("pair", "SW"), "SW": ("pair", "NW"),
                "NE": ("pair", "SE"), "SE": ("pair", "NE")}
    for kind, a in word.runs:
        for _ in range(abs(a)):
            x = (counter, counter + 1, counter + 2, counter + 3)
            counter += 4
            crossings.append(x)
            if kind == "R":
                # counterclockwise with the understrand at entries 0 and 2
                if a > 0:
                    w_top, w_bot, e_bot, e_top = x
                else:
                    w_bot, e_bot, e_top, w_top = x
                _attach(live, arcs, "NE", w_top)
                _attach(live, arcs, "SE", w_bot)
                live["NE"], live["SE"] = e_top, e_bot
            else:
                if a > 0:
                    n_left, s_left, s_right, n_right = x
                else:
                    s_left, s_right, n_right, n_left = x
                _attach(live, arcs, "SW", n_left)
                _attach(live, arcs, "SE", n_right)
                live["SW"], live["SE"] = s_left, s_right
    for corner, end in (("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)):
        _attach(live, arcs, corner, end)
    boundary = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    return PlanarTangleDiagram(crossings, arcs, boundary)


# ---------------------------------------------------------------------------
# Strand tracing: connectivity, components, linking numbers
# ---------------------------------------------------------------------------

def components(d: PlanarTangleDiagram):
    """Trace the strands of a diagram (ignoring over/under).

    Returns a list of dicts, one per strand, with keys:
      "boundary": tuple of boundary labels hit (empty for closed),
      "passes": tuple of (crossing index, entry slot, exit slot).
    Open strands are traced starting from boundary points in the order
    listed; closed strands afterwards, in crossing order.
    """
    nxt, _ = d.arc_maps()
    slot_of = {}
    for ci, c in enumerate(d.crossings):
        for s, e in enumerate(c):
            slot_of[e] = (ci, s)
    label_of = {e: lab for lab, e in d.boundary}
    seen = set()
    out = []

    def trace(start, closed):
        labels = [] if closed else [label_of[start]]
        passes = []
        cur = start
        while True:
            seen.add(cur)
            other = nxt[cur]
            seen.add(other)
            if other in label_of:
                labels.append(label_of[other])
                break
            ci, s_in = slot_of[other]
            s_out = (s_in + 2) % 4
            passes.append((ci, s_in, s_out))
            cur = d.crossings[ci][s_out]
            if closed and cur == start:
                break
        return {"boundary": tuple(labels), "passes": tuple(passes)}

    for lab, e in d.boundary:
        if e not in seen:
            out.append(trace(e, closed=False))
    for c in d.crossings:
        for e in c:
            if e not in seen:
                out.append(trace(e, closed=True))
    for _ in d.free_loops:
        out.append({"boundary": (), "passes": ()})
    return out


def connectivity(d: PlanarTangleDiagram) -> str:
    """How the four corners pair through the tangle: TYPE_0 for NW-NE,
    TYPE_INF for NW-SW, TYPE_1 for NW-SE."""
    for comp in components(d):
        labs = comp["boundary"]
        if "NW" in labs:
            other = labs[0] if labs[1] == "NW" else labs[1]
            return {"NE": TYPE_0, "SW": TYPE_INF, "SE": TYPE_1}[other]
    raise ValueError("diagram has no strand through the NW corner")


def _crossing_sign(pass_a, pass_b):
    """Sign of a crossing from its two directed passes, one per strand.

    Each pass is (entry slot, exit slot); the understrand uses slots
    0 and 2.  Positive when the understrand exits one counterclockwise
    step after the overstrand exits.
    """
    if pass_a[1] in (0, 2):
        under_out, over_out = pass_a[1], pass_b[1]
    else:
        under_out, over_out = pass_b[1], pass_a[1]
    return 1 if under_out == (over_out + 1) % 4 else -1


def left_linking_number(d: PlanarTangleDiagram) -> int:
    """Total linking of the closed components with the left strand.

    The diagram must have exactly two open strands, one through NW-SW
    and one through NE-SE, plus at least one closed component.  Each
    closed component contributes half the absolute sum of the signs of
    its crossings with the left (NW-SW) strand, which makes the result
    independent of orientation choices.
    """
    comps = components(d)
    open_comps = [c for c in comps if c["boundary"]]
    closed_comps = [c for c in comps if not c["boundary"]]
    pairings = sorted(frozenset(c["boundary"]) for c in open_comps)
    if (
        len(open_comps) != 2
        or not closed_comps
        or pairings != sorted([frozenset({"NW", "SW"}), frozenset({"NE", "SE"})])
    ):
        raise ValueError("left linking number undefined for this diagram")
    left = next(c for c in open_comps if "NW" in c["boundary"])
    left_passes = {ci: (s_in, s_out) for ci, s_in, s_out in left["passes"]}
    total = 0
    for comp in closed_comps:
        signed = 0
        for ci, s_in, s_out in comp["passes"]:
            if ci in left_passes:
                signed += _crossing_sign((s_in, s_out), left_passes[ci])
        if signed % 2 != 0:
            raise ValueError("odd crossing count between strands")
        total += abs(signed) // 2
    return total


# ---------------------------------------------------------------------------
# Clasp-shaped diagrams (two vertical strands plus a closed loop)
# ---------------------------------------------------------------------------

def _quad(base):
    """Ends base..base+3 of one crossing, named in (S, E, N, W) order;
    ends 0..3 are the corners."""
    return {"S": base, "E": base + 1, "N": base + 2, "W": base + 3}


def clasp_single() -> PlanarTangleDiagram:
    """Closed loop clasping the left strand once, circling the right twice.

    The loop hooks the left strand with one clasp (two same-sign
    crossings, turning back west of the strand) and then passes around
    the right strand twice, the second pass nested outside the first.
    Left linking number 1.  Its annular closure is isotopic to the
    closure of clasp_double(): sliding a clasp along the closed-up
    strand carries it around the annulus core and off the left strand,
    where it reappears as the extra turn around the right strand.  The
    two diagrams keep equal closure brackets while their left linking
    numbers differ.
    """
    l1, l2 = _quad(4), _quad(8)
    r1, r2, r3, r4 = _quad(12), _quad(16), _quad(20), _quad(24)
    crossings = [
        (l1["S"], l1["E"], l1["N"], l1["W"]),  # left strand under, loop east
        (l2["E"], l2["N"], l2["W"], l2["S"]),  # loop under, heading west
        (r1["S"], r1["E"], r1["N"], r1["W"]),  # right strand under
        (r2["E"], r2["N"], r2["W"], r2["S"]),  # loop under
        (r3["S"], r3["E"], r3["N"], r3["W"]),  # right strand under
        (r4["E"], r4["N"], r4["W"], r4["S"]),  # loop under
    ]
    arcs = [
        # left strand NW -> SW through the clasp
        (0, l1["N"]), (l1["S"], l2["N"]), (l2["S"], 2),
        # right strand NE -> SE through the double wrap
        (1, r1["N"]), (r1["S"], r2["N"]), (r2["S"], r3["N"]),
        (r3["S"], r4["N"]), (r4["S"], 3),
        # the loop
        (l1["W"], l2["W"]),  # clasp tip west of the left strand
        (l1["E"], r3["W"]),  # upper connector across the middle
        (l2["E"], r4["W"]),  # lower connector across the middle
        (r3["E"], r2["E"]),  # inner east turn of the first wrap
        (r2["W"], r1["W"]),  # west arc linking the two wraps
        (r1["E"], r4["E"]),  # outer east turn of the second wrap
    ]
    boundary = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    return PlanarTangleDiagram(crossings, arcs, boundary)


def clasp_double() -> PlanarTangleDiagram:
    """Closed loop clasping the left strand twice, circling the right once.

    The loop snakes down the left strand forming two stacked clasps
    (four same-sign crossings, turnbacks alternating west, east, west),
    then passes around the right strand once before closing up.  Left
    linking number 2.  See clasp_single() for the isotopy that makes
    the annular closures of the two diagrams match.
    """
    q1, q2, q3, q4 = _quad(4), _quad(8), _quad(12), _quad(16)
    s1, s2 = _quad(20), _quad(24)
    crossings = [
        (q1["S"], q1["E"], q1["N"], q1["W"]),  # left strand under, loop east
        (q2["E"], q2["N"], q2["W"], q2["S"]),  # loop under, heading west
        (q3["S"], q3["E"], q3["N"], q3["W"]),  # left strand under
        (q4["E"], q4["N"], q4["W"], q4["S"]),  # loop under
        (s1["S"], s1["E"], s1["N"], s1["W"]),  # right strand under
        (s2["E"], s2["N"], s2["W"], s2["S"]),  # loop under
    ]
    arcs = [
        # left strand NW -> SW through all four clasp crossings
        (0, q1["N"]), (q1["S"], q2["N"]), (q2["S"], q3["N"]),
        (q3["S"], q4["N"]), (q4["S"], 2),
        # right strand NE -> SE through the single wrap
        (1, s1["N"]), (s1["S"], s2["N"]), (s2["S"], 3),
        # the loop
        (q1["W"], q2["W"]),  # upper clasp tip
        (q2["E"], q3["E"]),  # serpentine middle arc east of the left strand
        (q3["W"], q4["W"]),  # lower clasp tip
        (q1["E"], s1["W"]),  # upper connector to the right strand
        (q4["E"], s2["W"]),  # lower connector
        (s1["E"], s2["E"]),  # east turn around the right strand
    ]
    boundary = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    return PlanarTangleDiagram(crossings, arcs, boundary)


def clasp_around_right() -> PlanarTangleDiagram:
    """Closed loop circling only the right strand; left linking zero."""
    s1, s2 = _quad(4), _quad(8)
    crossings = [
        (s1["S"], s1["E"], s1["N"], s1["W"]),  # loop over right strand
        (s2["E"], s2["N"], s2["W"], s2["S"]),  # loop under right strand
    ]
    arcs = [
        (0, 2),                                  # left strand untouched
        (1, s1["N"]), (s1["S"], s2["N"]), (s2["S"], 3),
        (s1["E"], s2["E"]), (s2["W"], s1["W"]),
    ]
    boundary = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]
    return PlanarTangleDiagram(crossings, arcs, boundary)


# ---------------------------------------------------------------------------
# Cabling
# ---------------------------------------------------------------------------

def curl_diagram(sign: int) -> PlanarTangleDiagram:
    """One strand from SW to NW making one kink.

    For sign +1 the kink evaluates to -1/A^3, the direction the cabling
    correction factor tracks; sign -1 gives its inverse.  Cabled by
    cable_diagram, it is the n-strand kink.
    """
    loop, exit_end = (1, 3) if sign > 0 else (3, 1)
    return PlanarTangleDiagram(
        [(0, 1, 2, 3)], [(4, 0), (2, loop), (exit_end, 5)], [("SW", 4), ("NW", 5)]
    )


def _grid(rows, cols, base):
    """rows x cols grid of crossings for two cables crossing once.

    One cable, cols strands wide, runs south to north through the
    columns, passing under the other, rows strands wide, which runs east
    to west through the rows.  Returns (crossings, arcs, ports, next free
    end) where ports maps side name S/E/N/W to the list of ends along
    that side (S and N indexed by column left to right, E and W by row
    top to bottom).  When one cable has no strands the other passes
    straight through: each of its strands is one link arc, whose two
    ends are the ports on opposite sides.
    """
    if not rows or not cols:
        near = range(base, base + 2 * (rows or cols), 2)
        ports = dict.fromkeys("SENW", [])
        ports.update(zip(("W", "E") if rows else ("S", "N"),
                         (list(near), [e + 1 for e in near])))
        return [], [(e, e + 1, 0) for e in near], ports, base + 2 * len(near)
    crossings = []
    arcs = []
    end = {}
    counter = base
    for i in range(rows):
        for j in range(cols):
            s, e, nn, w = counter, counter + 1, counter + 2, counter + 3
            counter += 4
            end[i, j] = {"S": s, "E": e, "N": nn, "W": w}
            crossings.append((s, e, nn, w))
    for i in range(rows):
        for j in range(cols):
            if i > 0:
                arcs.append((end[i, j]["N"], end[i - 1, j]["S"], 0))
            if j + 1 < cols:
                arcs.append((end[i, j]["E"], end[i, j + 1]["W"], 0))
    ports = {
        "S": [end[rows - 1, j]["S"] for j in range(cols)],
        "N": [end[0, j]["N"] for j in range(cols)],
        "E": [end[i, cols - 1]["E"] for i in range(rows)],
        "W": [end[i, 0]["W"] for i in range(rows)],
    }
    return crossings, arcs, ports, counter


def merge_chains(arcs, kept):
    """Join the chains of arcs (a, b, winding) that pass through ends
    outside kept into single arcs between kept ends, adding up their
    windings: the link arcs of _grid, or the closure bonds of
    oracle.annular_closure.  Returns the merged arcs and, in the order
    of the arcs they start from, the windings of the chains that close
    up without meeting a kept end.  Callers put these loops after the
    diagram's own free loops, kept first and in order:
    threaded.threaded_closure tells the two apart by that order."""
    incident = {}
    for idx, (a, b, _) in enumerate(arcs):
        incident.setdefault(a, []).append(idx)
        incident.setdefault(b, []).append(idx)
    used = [False] * len(arcs)

    def walk(cur, idx):
        total = 0
        while True:
            used[idx] = True
            a, b, w = arcs[idx]
            cur, w = (b, w) if cur == a else (a, -w)
            total += w
            nxt = [i for i in incident[cur] if not used[i]]
            if cur in kept or not nxt:
                return cur, total
            idx = nxt[0]

    merged = []
    for idx, (a, b, _) in enumerate(arcs):
        if not used[idx] and (a in kept or b in kept):
            start = a if a in kept else b
            merged.append((start, *walk(start, idx)))
    loops = [walk(arcs[idx][0], idx)[1] for idx in range(len(arcs)) if not used[idx]]
    return merged, loops


def cable_diagram(d: PlanarTangleDiagram, n) -> PlanarTangleDiagram:
    """Replace every strand by parallel copies (blackboard framing).

    n is the number of copies of every strand, or a sequence of widths,
    one per entry of components(d), in its order.  Crossings become
    grids, arcs and free loops become parallel copies carrying the same
    winding weight, and each boundary point becomes one point per copy,
    labeled "<label>:<k>" ordered left to right as seen from outside the
    diagram with north up (corner_clusters reads them).  A strand of
    width 0 is dropped; the copies of a strand that crosses it pass
    straight through.
    """
    comps = components(d)
    widths = [n] * len(comps) if isinstance(n, int) else [int(k) for k in n]
    if len(widths) != len(comps) or min(widths, default=0) < 0:
        raise ValueError(f"need {len(comps)} widths, one per component, none negative")
    width = {}
    for comp, k in zip(comps, widths):
        for ci, s_in, s_out in comp["passes"]:
            width[d.crossings[ci][s_in]] = width[d.crossings[ci][s_out]] = k
        for lab in comp["boundary"]:
            width[d.boundary_end(lab)] = k
    loop_widths = widths[len(widths) - len(d.free_loops):]
    crossings = []
    arcs = []
    counter = 0
    # counterclockwise port lists around each original crossing
    cross_ports = []
    for c in d.crossings:
        gc, ga, ports, counter = _grid(width[c[1]], width[c[0]], counter)
        crossings.extend(gc)
        arcs.extend(ga)
        cross_ports.append({
            0: ports["S"],
            1: list(reversed(ports["E"])),
            2: list(reversed(ports["N"])),
            3: ports["W"],
        })
    slot_of = {}
    for ci, c in enumerate(d.crossings):
        for s, e in enumerate(c):
            slot_of[e] = (ci, s)
    boundary = []
    bports = {}
    for lab, e in d.boundary:
        ends = list(range(counter, counter + width[e]))
        counter += width[e]
        # counterclockwise around the disk: reversed left-to-right on
        # the north side, straight on the south side
        if lab.startswith("N"):
            order = list(reversed(ends))
        else:
            order = list(ends)
        bports[e] = order
        for k, new_end in enumerate(ends):
            boundary.append((f"{lab}:{k}", new_end))

    def ccw_ports(e):
        if e in slot_of:
            ci, s = slot_of[e]
            return cross_ports[ci][s]
        return bports[e]

    for a, b, w in d.arcs:
        pa, pb = ccw_ports(a), ccw_ports(b)
        k = len(pa)
        for j in range(k):
            arcs.append((pa[j], pb[k - 1 - j], w))
    free_loops = [w for w, k in zip(d.free_loops, loop_widths) for _ in range(k)]
    if 2 * len(arcs) > 4 * len(crossings) + len(boundary):
        arcs, loops = merge_chains(arcs, {e for c in crossings for e in c}
                                   | {e for _, e in boundary})
        free_loops += loops
    return PlanarTangleDiagram(crossings, arcs, boundary, free_loops)


def corner_clusters(d: PlanarTangleDiagram) -> dict:
    """The boundary labels of a 2-tangle diagram, cabled or not, by corner.

    Maps each of NW, NE, SW, SE to its labels ordered left to right in
    the north-up view: a plain corner label is a cluster of one, and the
    labels "<corner>:<k>" written by cable_diagram count k left to right
    as seen from outside the disk, so they are listed by decreasing k.
    Any other label raises ValueError.
    """
    clusters = {c: [] for c in CORNERS}
    for lab, _ in d.boundary:
        corner, sep, idx = lab.partition(":")
        if corner not in clusters or (sep and not idx.isdecimal()):
            raise ValueError("cannot infer a top/bottom reading of the boundary")
        clusters[corner].append((int(idx) if sep else 0, lab))
    return {c: [lab for _, lab in sorted(v, reverse=True)] for c, v in clusters.items()}


# ---------------------------------------------------------------------------
# Random tangles for property tests
# ---------------------------------------------------------------------------

def random_twist_vector(rng, max_len=6, max_entry=4) -> TwistVector:
    """Random twist vector; only the first and last entries may be zero."""
    m = rng.randint(1, max_len)
    entries = []
    for k in range(m):
        allow_zero = k == 0 or k == m - 1
        choices = [a for a in range(-max_entry, max_entry + 1) if a != 0 or allow_zero]
        entries.append(rng.choice(choices))
    return TwistVector(tuple(entries))
