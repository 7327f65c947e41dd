"""Diagram builders for planar tangle diagrams (tangles.PlanarTangleDiagram):
the crossing diagram of a rational tangle, strand tracing (connectivity,
components, linking numbers), the clasp diagrams of the counterexample,
the curl, cabling and the corner clusters of a cabled boundary.

They serve the state-sum referee (oracle.py), the TL engine and the
threaded closure; no command line but oracle-check builds a diagram.
The module is loaded on first use, through the module __getattr__ of
tangles (every name here keeps its path tangles.<name>) and of the
package.
"""

from __future__ import annotations

from . import tangles
from .rationals import TwistVector
from .tangles import CORNERS, PlanarTangleDiagram, RationalTangle, _DIAGRAM_NAMES

__all__ = sorted(_DIAGRAM_NAMES)  # the names tangles answers for

TYPE_0 = "TYPE_0"
TYPE_INF = "TYPE_INF"
TYPE_1 = "TYPE_1"


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
    # read off tangles at call time, so that a hook placed there (a
    # tracer's) sees this call too, whenever this module was loaded
    word = tangles.to_twist_word(t)
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
