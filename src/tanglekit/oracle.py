"""Brute-force evaluation of planar diagrams by smoothing enumeration.

Everything here recomputes, slowly and from first principles, values
that the algebraic fast paths produce elsewhere; the test suite leans
on this module as the independent referee.  Diagrams are capped at a
crossing count beyond which 2^c enumeration is unreasonable.

The kernel tallies the smoothings by boundary pairing, exponent and
loop counts; one fold turns that tally into Laurent coefficients, and
the three evaluators (the bracket of a 2-tangle, the matching expansion
of a disk diagram, the annular closure) read it with their own key.
"""

from __future__ import annotations

from . import kernel
from .ring import LaurentPoly, delta_power
from .tangles import CORNERS, PlanarTangleDiagram

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


def _disk_loops(d: PlanarTangleDiagram):
    """Refuse a disk diagram with a crossingless loop around the core."""
    if any(d.free_loops):
        raise ValueError("disk diagram contains an essential loop")


def free_loop_factor(d: PlanarTangleDiagram):
    """The loop value of the crossingless loops of d and how many wind
    once around the annulus core: (delta^contractible, essential).  A
    loop of any other winding is refused."""
    con = ess = 0
    for w in d.free_loops:
        if w == 0:
            con += 1
        elif w in (1, -1):
            ess += 1
        else:
            raise ValueError(f"free loop winds {w} times around the annulus core")
    return delta_power(con), ess


def _fold(d: PlanarTangleDiagram, ends, key):
    """Sum count * A^exp * delta^contractible over the smoothing tally.

    The terms of each tally entry go onto the coefficient named by
    key(pairing, essential), where pairing indexes ends and essential
    counts the loops around the annulus core; key raises for an entry
    its reader refuses.  The crossingless loops of d multiply every sum
    by their loop values.  Returns every key reached, zero sums included.
    """
    loops, free_ess = free_loop_factor(d)
    if d.crossing_count > MAX_ORACLE_CROSSINGS:
        raise ValueError(
            f"oracle too large: {d.crossing_count} crossings exceeds "
            f"{MAX_ORACLE_CROSSINGS}"
        )
    tally = kernel.resolve_states(d.num_ends, d.crossings, d.arcs, ends)
    sums = {}
    for (pairing, exp, ncon, ness), count in tally.items():
        acc = sums.setdefault(key(pairing, ness + free_ess), {})
        for e, c in delta_power(ncon).coeffs.items():
            e += exp
            acc[e] = acc.get(e, 0) + count * c
    return {k: loops * LaurentPoly(v) for k, v in sums.items()}


def bracket_of_diagram(d: PlanarTangleDiagram):
    """Bracket coordinates (alpha, beta) of a 2-tangle diagram.

    alpha multiplies the vertical-strands tangle (NW-SW, NE-SE), beta
    the horizontal one (NW-NE, SW-SE).
    """
    ends = [d.boundary_end(c) for c in CORNERS]  # NW, NE, SW, SE
    _disk_loops(d)
    planar = {((0, 2), (1, 3)): 0, ((0, 1), (2, 3)): 1}  # alpha, beta

    def key(pairing, ness):
        if ness:
            raise ValueError("tangle diagram produced an essential loop")
        if pairing not in planar:
            raise ValueError(f"non-planar boundary pairing {pairing}")
        return planar[pairing]

    sums = _fold(d, ends, key)
    return sums.get(0, LaurentPoly.zero()), sums.get(1, LaurentPoly.zero())


def matchings_of_diagram(d: PlanarTangleDiagram, top_labels, bottom_labels):
    """Expand a braid-shaped diagram over crossingless matchings.

    The boundary points named by top_labels (left to right) become
    points 0..m-1 and bottom_labels become m..2m-1.  Returns a dict
    mapping partner tuples to Laurent coefficients.
    """
    ends = [d.boundary_end(lab) for lab in top_labels]
    ends += [d.boundary_end(lab) for lab in bottom_labels]
    _disk_loops(d)

    def key(pairing, ness):
        if ness:
            raise ValueError("disk diagram produced an essential loop")
        partner = [0] * len(ends)
        for i, j in pairing:
            partner[i], partner[j] = j, i
        return tuple(partner)

    return _fold(d, ends, key)


def closure_coefficients(d: PlanarTangleDiagram):
    """Evaluate a closed diagram in the annulus.

    Returns a dict k -> Laurent coefficient of z^k, where z is the
    core-parallel essential loop; contractible loops contribute the
    usual loop value.
    """
    if d.boundary:
        raise ValueError("closure evaluation needs a closed diagram")
    sums = _fold(d, [], lambda pairing, ness: ness)
    return {k: v for k, v in sums.items() if not v.is_zero}


def annular_closure(d: PlanarTangleDiagram) -> PlanarTangleDiagram:
    """Close a 2-tangle diagram (or a cabled one) around the annulus.

    The two top corners are joined over the annulus core and likewise
    the two bottom corners, each closure arc crossing the marked ray
    once.  Cabled diagrams (labels read by diagrams.corner_clusters) are
    closed by nested arcs.  Closure arcs are merged with the strand arcs
    they extend by diagrams.merge_chains; strands that meet no crossing
    become free loops, after those of d.
    """
    from .diagrams import corner_clusters, merge_chains  # loaded on first use, see its docstring

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
    # each corner end now lies on one arc and one bond, so a chain ends
    # only at crossing ends or closes up into a free loop
    arcs, loops = merge_chains(list(d.arcs) + bonds, {e for c in d.crossings for e in c})
    return PlanarTangleDiagram(d.crossings, arcs, [], d.free_loops + tuple(loops))
