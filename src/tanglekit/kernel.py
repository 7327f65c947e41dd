"""Smoothing enumerator for planar diagrams.

This is the hot loop of the brute-force evaluator: it walks all 2^c
smoothings of a c-crossing diagram and tallies, for each smoothing,
how the boundary points pair up, the net exponent from the smoothing
choices, and how many closed loops of each kind appear.  Everything
here is plain integer bookkeeping; callers attach ring coefficients.
"""

from __future__ import annotations

__all__ = ["resolve_states"]

# perfbench/run.py records this name on the environment line of every run.
BACKEND = "python"


def resolve_states(num_ends, crossings, arcs, boundary):
    """Tally all smoothings of a diagram.

    Parameters
    ----------
    num_ends : int
        Ends are integers 0..num_ends-1.
    crossings : sequence of (e0, e1, e2, e3)
        Counterclockwise ends of each crossing, understrand at entries
        0 and 2.  The first smoothing choice (bit 0) joins (e0, e1) and
        (e2, e3) and contributes exponent +1; the second joins (e1, e2)
        and (e3, e0) with exponent -1.
    arcs : sequence of (a, b, w)
        Edges joining ends, with signed winding weight w accumulated
        when traversing from a to b.
    boundary : sequence of int
        Degree-one ends, in the order pairings should be indexed.

    Returns
    -------
    dict mapping (pairing, exponent, contractible, essential) -> count,
    where pairing is a tuple of (i, j) index pairs into boundary with
    i < j, sorted; exponent is (#first choices - #second choices); the
    last two entries count closed loops with winding 0 and winding +-1.
    Any loop with |winding| > 1 raises ValueError, since such a curve
    cannot be embedded in the annulus.
    """
    crossings = [tuple(c) for c in crossings]
    c = len(crossings)
    arc_to = [-1] * num_ends
    arc_w = [0] * num_ends
    for a, b, w in arcs:
        arc_to[a] = b
        arc_w[a] = w
        arc_to[b] = a
        arc_w[b] = -w
    boundary = list(boundary)
    bindex = {e: i for i, e in enumerate(boundary)}
    is_boundary = [False] * num_ends
    for e in boundary:
        is_boundary[e] = True

    # smoothing partner per end, starting in the all-first-choice state
    sm = [-1] * num_ends
    for e0, e1, e2, e3 in crossings:
        sm[e0], sm[e1] = e1, e0
        sm[e2], sm[e3] = e3, e2

    stamp = [0] * num_ends
    tick = 0
    gray = 0
    bits = 0
    out = {}
    crossing_ends = [e for quad in crossings for e in quad]

    for s in range(1 << c):
        if s:
            j = (s & -s).bit_length() - 1
            gray ^= 1 << j
            e0, e1, e2, e3 = crossings[j]
            if gray >> j & 1:
                sm[e1], sm[e2] = e2, e1
                sm[e3], sm[e0] = e0, e3
                bits += 1
            else:
                sm[e0], sm[e1] = e1, e0
                sm[e2], sm[e3] = e3, e2
                bits -= 1
        tick += 1

        pairs = []
        for i, e in enumerate(boundary):
            if stamp[e] == tick:
                continue
            stamp[e] = tick
            p = e
            while True:
                q = arc_to[p]
                stamp[q] = tick
                if is_boundary[q]:
                    pairs.append((i, bindex[q]))
                    break
                r = sm[q]
                stamp[r] = tick
                p = r

        ncon = 0
        ness = 0
        for e in crossing_ends:
            if stamp[e] == tick:
                continue
            stamp[e] = tick
            w = 0
            p = e
            while True:
                w += arc_w[p]
                q = arc_to[p]
                stamp[q] = tick
                r = sm[q]
                if r == e:
                    break
                stamp[r] = tick
                p = r
            if w == 0:
                ncon += 1
            elif w == 1 or w == -1:
                ness += 1
            else:
                raise ValueError(
                    f"smoothed loop winds {w} times around the annulus core"
                )

        key = (tuple(pairs), c - 2 * bits, ncon, ness)
        out[key] = out.get(key, 0) + 1
    return out
