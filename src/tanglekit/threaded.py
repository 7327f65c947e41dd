"""The threaded closure of a colored 2-tangle diagram, and the frontier
contraction that evaluates the closed cables it sums.

Only diagrams take this path, so annulus.colored_closure loads the
module on first use: a process that never asks for a diagram's colored
invariants does not compile it.
"""

from __future__ import annotations

import heapq
from itertools import product
from math import prod
from operator import itemgetter

from . import annulus
from .diagrams import cable_diagram, components
from .oracle import annular_closure, free_loop_factor
from .ring import LaurentPoly, _digits, _from_dense
from .tangles import CORNERS, PlanarTangleDiagram

__all__ = ["MAX_FRONTIER_STATES", "closure_frontier", "threaded_closure"]

#: Most states closure_frontier holds after any one crossing; past it the
#: contraction is refused at once.  The bound is the round figure under
#: which the slowest closures found run well within a minute (2-vCPU x86
#: host, CPython 3.11): the width-7 cable of the closure of [2] (98
#: crossings, peak 12,851 states) contracts in 11 s, and the threaded
#: closures of [2] and [1 1] at width 7 take 16 s.  The width-8 cable of
#: [2] (128 crossings) needs 48,599 states, 67 s and 1.1 GB, and is
#: refused after about 1 s.  Time and memory per state also grow with
#: the square of the crossing count, through the packed width below.
MAX_FRONTIER_STATES = 20000


def threaded_closure(d: PlanarTangleDiagram, n: int) -> annulus.AnnulusElement:
    """The colored closure of a 2-tangle diagram at width n, with no
    projector and no TL product.

    The n-strand projector closes to S_n(z) in the annulus (Lickorish,
    An Introduction to Knot Theory, 1997, ch. 13).  So a component of the
    closure annular_closure(d) that runs through a corner of d,
    and so through a projector, equals its S_n-threading: the sum over k
    of s_{n,k} times k blackboard parallels of it, with s_{n,k} the
    integer coefficients of S_n.  A closed component of d meets no
    projector and stays an n-parallel.  The closure is therefore the sum,
    over one width per threaded component, of the product of the s_{n,k}
    times the annular bracket of the closure cabled at those widths,
    each evaluated by closure_frontier.
    """
    if sorted(lab for lab, _ in d.boundary) != sorted(CORNERS):
        raise ValueError("a colored closure needs a 2-tangle diagram with corners NW, NE, SW, SE")
    closed = annular_closure(d)
    inner = {d.crossings[ci][s] for comp in components(d) if not comp["boundary"]
             for ci, s, _ in comp["passes"]}
    comps = components(closed)
    first_loop = len(comps) - len(closed.free_loops)
    choices = []
    for j, comp in enumerate(comps):
        if comp["passes"]:
            ci, s, _ = comp["passes"][0]
            kept = closed.crossings[ci][s] in inner
        else:
            kept = j - first_loop < len(d.free_loops)
        choices.append({n: 1} if kept else annulus._chebyshev_coeffs(n))
    return annulus._integer_sum(
        (prod(s for _, s in pick), k, v)
        for pick in product(*(c.items() for c in choices))
        for k, v in closure_frontier(cable_diagram(closed, [w for w, _ in pick])).items()
    )


# The two smoothings of a crossing (e0, e1, e2, e3), as in the kernel:
# exponent +1 joins (e0, e1) and (e2, e3), exponent -1 joins (e1, e2)
# and (e3, e0); each maps an end's slot to the slot it is joined to.
_SMOOTHINGS = ((1, (1, 0, 3, 2)), (-1, (3, 2, 1, 0)))


def _contraction_order(crossings, arc_to):
    """Crossings in greedy order, each next one the crossing with the most
    ends joined to crossings already taken (the lowest index on a tie),
    and the number of times the order starts afresh: the connected parts
    of the diagram."""
    owner = {e: ci for ci, c in enumerate(crossings) for e in c}
    score = [0] * len(crossings)
    done = [False] * len(crossings)
    heap = [(0, ci) for ci in range(len(crossings))]
    order, parts = [], 0
    while heap:
        s, ci = heapq.heappop(heap)
        if done[ci] or -s != score[ci]:
            continue
        done[ci] = True
        order.append(ci)
        parts += not s
        for e in crossings[ci]:
            o = owner[arc_to[e]]
            if not done[o]:
                score[o] += 1
                heapq.heappush(heap, (-score[o], o))
    return order, parts


def _smooth(far, slot):
    """Both smoothings of one crossing whose four ends lead, by paths
    through crossings already smoothed, to far[k] = (end, winding).

    slot maps each end of the crossing to 0..3.  For each smoothing,
    returns (its exponent, contractible loops closed, essential loops
    closed, the new paths (end, end, winding) between ends outside the
    crossing).  Paths are traced from their outside ends first, so what
    is left over closes into loops.
    """
    out = []
    for exp, joined in _SMOOTHINGS:
        seen = [False] * 4
        paths, loops = [], []
        for start in sorted(range(4), key=lambda k: far[k][0] in slot):
            if seen[start]:
                continue
            outside = far[start][0] not in slot
            k, total = start, -far[start][1] if outside else 0
            while True:
                seen[k] = True
                k = joined[k]
                seen[k] = True
                end, w = far[k]
                total += w
                if end not in slot:
                    paths.append((far[start][0], end, total))
                    break
                k = slot[end]
                if k == start:
                    loops.append(total)
                    break
        for w in loops:
            if w not in (-1, 0, 1):
                raise ValueError(f"smoothed loop winds {w} times around the annulus core")
        ess = sum(w != 0 for w in loops)
        out.append((exp, len(loops) - ess, ess, paths))
    return out


def closure_frontier(d: PlanarTangleDiagram):
    """oracle.closure_coefficients(d), by contracting one crossing at a time.

    The crossings are smoothed in _contraction_order.  A state records,
    for each end of a crossing still to come whose arc leads into the
    smoothed part, the far end of its path and the path's winding; states
    with equal records merge.  A path that comes back to its start closes
    a loop, a factor delta at winding 0 and z at winding +-1, as in the
    kernel.  A state's value keeps one polynomial per power of z, packed
    as its evaluation at 2^bits with a lowest exponent; with c crossings
    in p connected parts a coefficient is at most 2^c 2^(c+p) in size (at
    most c + p loops close), so bits = 2c + p + 2 recover it exactly.
    The free loops of d go through oracle.free_loop_factor before any
    crossing is smoothed.  Raises ValueError once more than
    MAX_FRONTIER_STATES states are held.
    """
    if d.boundary:
        raise ValueError("closure evaluation needs a closed diagram")
    loops, free_ess = free_loop_factor(d)
    arc_to, arc_w = d.arc_maps()
    order, parts = _contraction_order(d.crossings, arc_to)
    width = (2 * len(d.crossings) + parts + 2) // 8 + 1
    bits = 8 * width
    states = {(): {0: (0, 1)}}
    slot_of, free, size = {}, [], 0
    for ci in order:
        x = d.crossings[ci]
        slot = {e: k for k, e in enumerate(x)}
        held = [slot_of.pop(e, None) for e in x]
        freed = [s for s in held if s is not None]
        free += freed
        for e, s in zip(x, held):
            if s is None and arc_to[e] not in slot:
                if free:
                    slot_of[arc_to[e]] = free.pop()
                else:
                    slot_of[arc_to[e]] = size
                    size += 1
        pad = (-1, 0) * (size - len(next(iter(states))) // 2)
        clear = [(i, v) for s in freed if s in free
                 for i, v in ((2 * s, -1), (2 * s + 1, 0))]
        # a state's moves depend only on the records of the crossing's ends
        picks = [i for s in freed for i in (2 * s, 2 * s + 1)]
        look = itemgetter(*picks) if picks else lambda key: ()
        moves = {}
        out = {}
        for key, value in states.items():
            seen = look(key)
            step = moves.get(seen)
            if step is None:
                records = iter(seen)
                far = [(arc_to[e], arc_w[e]) if s is None else (next(records), next(records))
                       for e, s in zip(x, held)]
                step = moves[seen] = [(exp - 2 * con, con, ess, clear + [
                    (i, v) for a, b, w in paths
                    for i, v in ((2 * slot_of[a], b), (2 * slot_of[a] + 1, w),
                                 (2 * slot_of[b], a), (2 * slot_of[b] + 1, -w))])
                    for exp, con, ess, paths in _smooth(far, slot)]
            for shift, con, ess, writes in step:
                new = list(key)
                new += pad
                for i, v in writes:
                    new[i] = v
                new = tuple(new)
                acc = out.get(new)
                if acc is None:
                    if len(out) == MAX_FRONTIER_STATES:
                        raise ValueError(
                            f"frontier contraction too large: more than "
                            f"{MAX_FRONTIER_STATES} states"
                        )
                    acc = out[new] = {}
                for z, (lo, p) in value.items():
                    for _ in range(con):
                        p = -(p + (p << 4 * bits))  # delta = -A^-2 (1 + A^4)
                    lo += shift
                    z += ess
                    prev = acc.get(z)
                    if prev is None:
                        acc[z] = (lo, p)
                    elif prev[0] <= lo:
                        acc[z] = (prev[0], prev[1] + (p << bits * (lo - prev[0])))
                    else:
                        acc[z] = (lo, p + (prev[1] << bits * (prev[0] - lo)))
        states = out
    sums = {}
    for value in states.values():
        for z, (lo, p) in value.items():
            z += free_ess
            sums[z] = sums.get(z, LaurentPoly.zero()) + _from_dense(lo, 1, _digits(p, width), 1)
    sums = {k: loops * v for k, v in sums.items()}
    return {k: v for k, v in sums.items() if not v.is_zero}
