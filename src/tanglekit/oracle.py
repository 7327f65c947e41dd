"""Brute-force evaluation of planar diagrams by smoothing enumeration.

Everything here recomputes, slowly and from first principles, values
that the algebraic fast paths produce elsewhere; the test suite leans
on this module as the independent referee.  Diagrams are capped at a
crossing count beyond which 2^c enumeration is unreasonable.
"""

from __future__ import annotations

from . import kernel
from .ring import DELTA, LaurentPoly, delta_power
from .tangles import CORNERS, PlanarTangleDiagram, corner_clusters

__all__ = [
    "MAX_ORACLE_COUNT",
    "MAX_ORACLE_CROSSINGS",
    "bracket_of_diagram",
    "matchings_of_diagram",
    "closure_coefficients",
    "annular_closure",
]

MAX_ORACLE_CROSSINGS = 16

#: Most diagrams one oracle-check run may sample, so that its time stays
#: bounded.
MAX_ORACLE_COUNT = 10000

def _check_size(d: PlanarTangleDiagram):
    if d.crossing_count > MAX_ORACLE_CROSSINGS:
        raise ValueError(
            f"oracle too large: {d.crossing_count} crossings exceeds "
            f"{MAX_ORACLE_CROSSINGS}"
        )


def _resolve(d: PlanarTangleDiagram, boundary_ends):
    _check_size(d)
    return kernel.resolve_states(d.num_ends, d.crossings, d.arcs, boundary_ends)


def _disk_loop_factor(d: PlanarTangleDiagram) -> LaurentPoly:
    """Value of the crossingless loops of a diagram drawn in the disk."""
    factor = LaurentPoly.one()
    for w in d.free_loops:
        if w != 0:
            raise ValueError("disk diagram contains an essential loop")
        factor = factor * DELTA
    return factor


def bracket_of_diagram(d: PlanarTangleDiagram):
    """Bracket coordinates (alpha, beta) of a 2-tangle diagram.

    alpha multiplies the vertical-strands tangle (NW-SW, NE-SE), beta
    the horizontal one (NW-NE, SW-SE).
    """
    ends = [d.boundary_end(c) for c in CORNERS]  # NW, NE, SW, SE
    loops = _disk_loop_factor(d)
    alpha = LaurentPoly.zero()
    beta = LaurentPoly.zero()
    for (pairing, exp, ncon, ness), count in _resolve(d, ends).items():
        if ness:
            raise ValueError("tangle diagram produced an essential loop")
        term = LaurentPoly.monomial(exp) * delta_power(ncon) * count
        if pairing == ((0, 1), (2, 3)):
            beta += term
        elif pairing == ((0, 2), (1, 3)):
            alpha += term
        else:
            raise ValueError(f"non-planar boundary pairing {pairing}")
    return loops * alpha, loops * beta


def matchings_of_diagram(d: PlanarTangleDiagram, top_labels, bottom_labels):
    """Expand a braid-shaped diagram over crossingless matchings.

    The boundary points named by top_labels (left to right) become
    points 0..m-1 and bottom_labels become m..2m-1.  Returns a dict
    mapping partner tuples to Laurent coefficients.
    """
    ends = [d.boundary_end(lab) for lab in top_labels]
    ends += [d.boundary_end(lab) for lab in bottom_labels]
    loops = _disk_loop_factor(d)
    n = len(ends)
    out = {}
    for (pairing, exp, ncon, ness), count in _resolve(d, ends).items():
        if ness:
            raise ValueError("disk diagram produced an essential loop")
        partner = [0] * n
        for i, j in pairing:
            partner[i], partner[j] = j, i
        key = tuple(partner)
        term = loops * LaurentPoly.monomial(exp) * delta_power(ncon) * count
        out[key] = out[key] + term if key in out else term
    return out


def closure_coefficients(d: PlanarTangleDiagram):
    """Evaluate a closed diagram in the annulus.

    Returns a dict k -> Laurent coefficient of z^k, where z is the
    core-parallel essential loop; contractible loops contribute the
    usual loop value.
    """
    if d.boundary:
        raise ValueError("closure evaluation needs a closed diagram")
    shift = 0
    factor = LaurentPoly.one()
    for w in d.free_loops:
        if w == 0:
            factor = factor * DELTA
        elif w in (1, -1):
            shift += 1
        else:
            raise ValueError(f"free loop winds {w} times around the annulus core")
    out = {}
    for (pairing, exp, ncon, ness), count in _resolve(d, []).items():
        term = factor * LaurentPoly.monomial(exp) * delta_power(ncon) * count
        key = ness + shift
        out[key] = out.get(key, LaurentPoly.zero()) + term
    return {k: v for k, v in out.items() if not v.is_zero}


def annular_closure(d: PlanarTangleDiagram) -> PlanarTangleDiagram:
    """Close a 2-tangle diagram (or a cabled one) around the annulus.

    The two top corners are joined over the annulus core and likewise
    the two bottom corners, each closure arc crossing the marked ray
    once.  Cabled diagrams (labels read by tangles.corner_clusters) are
    closed by nested arcs.  Closure arcs are merged with the strand arcs
    they extend; strands that meet no crossing become free loops.
    """
    end_of = dict(d.boundary)
    clusters = {c: [end_of[lab] for lab in labs]
                for c, labs in corner_clusters(d).items()}
    n = len(clusters["NW"])
    if any(len(v) != n for v in clusters.values()):
        raise ValueError("boundary is not a cabled 2-tangle boundary")
    bonds = []
    for k in range(n):
        bonds.append((clusters["NW"][k], clusters["NE"][n - 1 - k], 1))
        bonds.append((clusters["SW"][k], clusters["SE"][n - 1 - k], 1))
    # Merge chains of arcs and closure bonds.  In the merged graph every
    # former boundary end has degree two and every interior end degree
    # one, so components are either paths between interior ends (new
    # arcs) or cycles through boundary ends only (free loops).
    edges = [(a, b, w) for a, b, w in d.arcs] + bonds
    incident = {}
    for idx, (a, b, _) in enumerate(edges):
        incident.setdefault(a, []).append(idx)
        incident.setdefault(b, []).append(idx)
    new_arcs = []
    free = list(d.free_loops)
    used = [False] * len(edges)

    def step(end, edge_idx):
        a, b, w = edges[edge_idx]
        return (b, w) if end == a else (a, -w)

    for start, inc in incident.items():
        if len(inc) != 1:
            continue
        idx = inc[0]
        if used[idx]:
            continue
        total = 0
        cur = start
        while True:
            used[idx] = True
            cur, w = step(cur, idx)
            total += w
            nxt = [i for i in incident[cur] if not used[i]]
            if not nxt:
                break
            idx = nxt[0]
        new_arcs.append((start, cur, total))
    for idx0 in range(len(edges)):
        if used[idx0]:
            continue
        total = 0
        cur = edges[idx0][0]
        idx = idx0
        while True:
            used[idx] = True
            cur, w = step(cur, idx)
            total += w
            nxt = [i for i in incident[cur] if not used[i]]
            if not nxt:
                break
            idx = nxt[0]
        free.append(total)
    return PlanarTangleDiagram(d.crossings, new_arcs, [], free)
