"""Two-string tangles: rational tangles as twist words, and general
planar tangle diagrams for the brute-force evaluator.

This module holds what every command line needs: rational tangles,
twist words and the diagram class.  The diagram builders (the crossing
diagram of a rational tangle, strand tracing, clasps, curls, cabling
and corner clusters) live in diagrams.py, which only oracle-check and
the referees need.  Their names keep their paths here,
tangles.rational_to_diagram and the rest: the module __getattr__ below
loads diagrams.py on the first access to one of them (PEP 562).

Diagram model
-------------
A diagram is a 4-valent plane graph with optional boundary points.
We store it as half-edges ("ends", small integers):

* each crossing owns four ends, listed counterclockwise with the
  understrand occupying entries 0 and 2;
* each boundary point owns one end and carries a label: a corner name
  NW, NE, SW, SE, or "<corner>:<k>" for the k-th copy of a corner in
  an n-cable (diagrams.cable_diagram writes these and
  diagrams.corner_clusters reads them);
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

#: The names of diagrams.py that tangles answers for, loading the
#: builders on the first access to one of them; any other missing name,
#: a dunder included, raises AttributeError at once.
_DIAGRAM_NAMES = frozenset((
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
    "merge_chains",
    "corner_clusters",
    "random_twist_vector",
    "TYPE_0",
    "TYPE_INF",
    "TYPE_1",
))

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
    *sorted(_DIAGRAM_NAMES),
]


def __getattr__(name: str):
    if name not in _DIAGRAM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import diagrams

    return getattr(diagrams, name)


def __dir__() -> list:
    return sorted({*globals(), *_DIAGRAM_NAMES})


CORNERS = ("NW", "NE", "SW", "SE")

#: Largest total |entry| of a twist vector turned into a twist word, and
#: of a raw twist word given to bracket.bracket_vector.  The bracket
#: applies each run in closed form; the bound keeps output size in check.
#: It is also the colored bound at cable width 1; wider cables have
#: tighter bounds (tl.MAX_COLORED_TWISTS).
MAX_TWIST_TOTAL = 2000


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
