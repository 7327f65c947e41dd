"""Tangle algebra, twist words, diagram building, and strand tracing."""

import random

import pytest

from tanglekit import kernel
from tanglekit.oracle import (
    annular_closure,
    bracket_of_diagram,
    closure_coefficients,
    matchings_of_diagram,
)
from tanglekit.rationals import ExtRational, parity
from tanglekit.ring import LaurentPoly
from tanglekit.tangles import (
    TYPE_0,
    TYPE_1,
    TYPE_INF,
    PlanarTangleDiagram,
    RationalTangle,
    cable_diagram,
    clasp_around_right,
    clasp_double,
    clasp_single,
    connectivity,
    components,
    curl_diagram,
    diagram_infinity,
    diagram_zero,
    left_linking_number,
    random_twist_vector,
    rational_to_diagram,
    tangle_add,
    tangle_invert,
    tangle_negate,
    to_twist_word,
)

A = LaurentPoly.variable()
AINV = LaurentPoly.monomial(-1)
DELTA = LaurentPoly({2: -1, -2: -1})


# ---------------------------------------------------------------------------
# Vector-level tangle operations
# ---------------------------------------------------------------------------

def test_tangle_ops_pins():
    t = RationalTangle.from_entries(2)
    assert tangle_add(t, 3).fraction == ExtRational(5, 1)
    assert tangle_negate(t).fraction == ExtRational(-2, 1)
    assert tangle_invert(t).fraction == ExtRational(1, 2)
    # appending/removing the outermost 0 realizes the reciprocal
    assert tangle_invert(t).tv.entries == (2, 0)
    assert tangle_invert(tangle_invert(t)).tv.entries == (2,)
    inf = RationalTangle.infinity()
    assert tangle_invert(inf).fraction == ExtRational.zero()
    assert tangle_invert(RationalTangle.from_entries(0)).is_infinity
    assert tangle_add(inf, 5).is_infinity
    assert tangle_negate(inf).is_infinity


def test_tangle_ops_fractions_random():
    rng = random.Random(20260814)
    for _ in range(200):
        tv = random_twist_vector(rng)
        t = RationalTangle(tv)
        f = t.fraction
        n = rng.randint(-4, 4)
        assert tangle_add(t, n).fraction == f + n
        assert tangle_negate(t).fraction == -f
        assert tangle_invert(t).fraction == f.reciprocal()


def test_twist_word_replay_matches_fraction():
    rng = random.Random(8)
    for _ in range(200):
        t = RationalTangle(random_twist_vector(rng))
        assert to_twist_word(t).fraction() == t.fraction


def test_twist_word_shape():
    w = to_twist_word(RationalTangle.from_entries(1, 1))
    assert w.start == "inf"
    assert w.runs == (("B", 1), ("R", 1))
    assert w.moves == (("B", 1), ("R", 1))
    w = to_twist_word(RationalTangle.from_entries(-2, 3, 2))
    assert w.start == "0"
    assert w.runs == (("R", -2), ("B", 3), ("R", 2))
    assert w.moves == (
        ("R", -1), ("R", -1), ("B", 1), ("B", 1), ("B", 1), ("R", 1), ("R", 1)
    )
    w = to_twist_word(RationalTangle.from_entries(0, 2, -1, 0))
    assert w.start == "inf"
    assert w.runs == (("R", 2), ("B", -1))
    assert w.moves == (("R", 1), ("R", 1), ("B", -1))
    w = to_twist_word(RationalTangle.infinity())
    assert (w.start, w.runs, w.moves) == ("inf", (), ())


# ---------------------------------------------------------------------------
# Diagrams and strand tracing
# ---------------------------------------------------------------------------

def test_diagram_crossing_count():
    t = RationalTangle.from_entries(-2, 3, 2)
    assert rational_to_diagram(t).crossing_count == 7
    assert rational_to_diagram(RationalTangle.infinity()).crossing_count == 0


def test_connectivity_pins():
    assert connectivity(diagram_zero()) == TYPE_0
    assert connectivity(diagram_infinity()) == TYPE_INF
    assert connectivity(rational_to_diagram(RationalTangle.from_entries(1))) == TYPE_1
    assert connectivity(rational_to_diagram(RationalTangle.from_entries(-2, 3, 2))) == TYPE_0


def test_connectivity_matches_parity():
    themap = {"e/o": TYPE_0, "o/e": TYPE_INF, "o/o": TYPE_1}
    rng = random.Random(77)
    for _ in range(60):
        t = RationalTangle(random_twist_vector(rng, max_len=4, max_entry=3))
        assert connectivity(rational_to_diagram(t)) == themap[parity(t.fraction)]


def test_components_structure():
    comps = components(rational_to_diagram(RationalTangle.from_entries(1)))
    assert len(comps) == 2
    assert all(not c["boundary"] or len(c["passes"]) == 1 for c in comps)
    comps = components(clasp_single())
    opens = [c for c in comps if c["boundary"]]
    closed = [c for c in comps if not c["boundary"]]
    assert len(opens) == 2 and len(closed) == 1
    assert len(closed[0]["passes"]) == 6


# ---------------------------------------------------------------------------
# Left linking numbers of clasp diagrams
# ---------------------------------------------------------------------------

def test_left_linking_pins():
    assert left_linking_number(clasp_single()) == 1
    assert left_linking_number(clasp_double()) == 2
    assert left_linking_number(clasp_around_right()) == 0


def test_left_linking_requires_clasp_shape():
    with pytest.raises(ValueError):
        left_linking_number(diagram_zero())
    with pytest.raises(ValueError):
        left_linking_number(rational_to_diagram(RationalTangle.from_entries(2)))


def test_clasp_closures_share_bracket():
    one = closure_coefficients(annular_closure(clasp_single()))
    two = closure_coefficients(annular_closure(clasp_double()))
    assert one == two
    # value frozen from the state-sum oracle
    assert one == {
        0: LaurentPoly({10: 1, 6: 1, -2: 1, -14: 1}),
        2: LaurentPoly({6: -1, 2: 2, -2: -2, -6: 2, -10: -1}),
    }


# ---------------------------------------------------------------------------
# Left linking number under Reidemeister rewrites
# ---------------------------------------------------------------------------
#
# Hand-enumerated rewrites of the clasp diagrams.  Each variant differs
# from its base diagram by a single Reidemeister II or III move, so the
# oracle must report identical box brackets and closure brackets, and
# the left linking number must not move either.

def _quad(base):
    return {"S": base, "E": base + 1, "N": base + 2, "W": base + 3}


def _vx(q, vertical_under):
    if vertical_under:
        return (q["S"], q["E"], q["N"], q["W"])
    return (q["E"], q["N"], q["W"], q["S"])


_CORNERS = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]


def _clasp_single_wiggled(strand_under):
    """clasp_single with the clasp tip poked east across the left strand
    and straight back: a Reidemeister II pair inside the clasp.  The tip
    passes on one side of the strand at both new crossings."""
    l1, l2 = _quad(4), _quad(8)
    r1, r2, r3, r4 = _quad(12), _quad(16), _quad(20), _quad(24)
    d1, d2 = _quad(28), _quad(32)
    crossings = [
        _vx(l1, True), _vx(l2, False),
        _vx(r1, True), _vx(r2, False), _vx(r3, True), _vx(r4, False),
        _vx(d1, strand_under), _vx(d2, strand_under),
    ]
    arcs = [
        (0, l1["N"]), (l1["S"], d1["N"]), (d1["S"], d2["N"]),
        (d2["S"], l2["N"]), (l2["S"], 2),
        (1, r1["N"]), (r1["S"], r2["N"]), (r2["S"], r3["N"]),
        (r3["S"], r4["N"]), (r4["S"], 3),
        (l1["W"], d1["W"]), (d1["E"], d2["E"]), (d2["W"], l2["W"]),
        (l1["E"], r3["W"]), (l2["E"], r4["W"]),
        (r3["E"], r2["E"]), (r2["W"], r1["W"]), (r1["E"], r4["E"]),
    ]
    return PlanarTangleDiagram(crossings, arcs, _CORNERS)


def _clasp_double_wiggled(strand_under):
    """clasp_double with the left strand poked east across the upper
    connector and back: a Reidemeister II pair above the clasps."""
    q1, q2, q3, q4 = _quad(4), _quad(8), _quad(12), _quad(16)
    s1, s2 = _quad(20), _quad(24)
    w1, w2 = _quad(28), _quad(32)
    crossings = [
        _vx(q1, True), _vx(q2, False), _vx(q3, True), _vx(q4, False),
        _vx(s1, True), _vx(s2, False),
        _vx(w1, strand_under), _vx(w2, strand_under),
    ]
    arcs = [
        (0, w1["N"]), (w1["S"], w2["S"]), (w2["N"], q1["N"]),
        (q1["S"], q2["N"]), (q2["S"], q3["N"]), (q3["S"], q4["N"]), (q4["S"], 2),
        (1, s1["N"]), (s1["S"], s2["N"]), (s2["S"], 3),
        (q1["W"], q2["W"]), (q2["E"], q3["E"]), (q3["W"], q4["W"]),
        (q1["E"], w2["W"]), (w2["E"], w1["W"]), (w1["E"], s1["W"]),
        (q4["E"], s2["W"]), (s1["E"], s2["E"]),
    ]
    return PlanarTangleDiagram(crossings, arcs, _CORNERS)


def _clasp_single_corner_poked():
    """clasp_single after two Reidemeister II pushes: the clasp tip is
    poked east across the left strand (crossings d1, d2, tip over), and
    the upper connector is then pushed south across the poked finger's
    elbow (crossings f1, f2, connector over).  Contains a triangle of
    crossings l1, d1, f1 with the left strand under on all sides."""
    l1, l2 = _quad(4), _quad(8)
    r1, r2, r3, r4 = _quad(12), _quad(16), _quad(20), _quad(24)
    d1, d2 = _quad(28), _quad(32)
    f1, f2 = _quad(36), _quad(40)
    crossings = [
        _vx(l1, True), _vx(l2, False),
        _vx(r1, True), _vx(r2, False), _vx(r3, True), _vx(r4, False),
        _vx(d1, True), _vx(d2, True),   # strand under the poked tip
        _vx(f1, False),                 # connector over the finger top
        _vx(f2, True),                  # connector over the finger turn
    ]
    arcs = [
        # left strand
        (0, l1["N"]), (l1["S"], d1["N"]), (d1["S"], d2["N"]),
        (d2["S"], l2["N"]), (l2["S"], 2),
        # right strand
        (1, r1["N"]), (r1["S"], r2["N"]), (r2["S"], r3["N"]),
        (r3["S"], r4["N"]), (r4["S"], 3),
        # poked tip: west leg, top run, elbow, turn, return leg
        (l1["W"], d1["W"]), (d1["E"], f1["W"]), (f1["E"], f2["N"]),
        (f2["S"], d2["E"]), (d2["W"], l2["W"]),
        # upper connector dipping under the elbow slit
        (l1["E"], f1["N"]), (f1["S"], f2["W"]), (f2["E"], r3["W"]),
        # lower connector and the right-side arcs
        (l2["E"], r4["W"]),
        (r3["E"], r2["E"]), (r2["W"], r1["W"]), (r1["E"], r4["E"]),
    ]
    return PlanarTangleDiagram(crossings, arcs, _CORNERS)


def _clasp_single_corner_flipped():
    """The triangle of _clasp_single_corner_poked() flipped by one
    Reidemeister III move: the left strand, under on both triangle
    sides, slides east across the loop self-crossing f1.  Crossing
    count and every other crossing are unchanged; the strand now meets
    the finger's corner run (d1) and the connector inside the slit (l1)
    instead of meeting them above and west of f1."""
    d1, l1 = _quad(4), _quad(8)   # strand crossings, top to bottom
    l2 = _quad(12)
    r1, r2, r3, r4 = _quad(16), _quad(20), _quad(24), _quad(28)
    d2 = _quad(32)
    f1, f2 = _quad(36), _quad(40)
    crossings = [
        _vx(d1, True),    # strand under the finger's corner run
        _vx(l1, True),    # strand under the connector, inside the slit
        _vx(l2, False),
        _vx(r1, True), _vx(r2, False), _vx(r3, True), _vx(r4, False),
        _vx(d2, True),
        _vx(f1, False), _vx(f2, True),
    ]
    arcs = [
        # left strand, swinging east of f1 before rejoining below
        (0, d1["N"]), (d1["S"], l1["N"]), (l1["S"], d2["N"]),
        (d2["S"], l2["N"]), (l2["S"], 2),
        # right strand
        (1, r1["N"]), (r1["S"], r2["N"]), (r2["S"], r3["N"]),
        (r3["S"], r4["N"]), (r4["S"], 3),
        # loop: the finger's top run sweeps west and over the strand's
        # old position, coming back down as the connector's descent
        (f1["W"], f1["N"]),
        # connector through the slit, crossing the strand at l1
        (f1["S"], l1["W"]), (l1["E"], f2["W"]), (f2["E"], r3["W"]),
        # finger: corner run crossing the strand at d1, then the turn
        (f2["N"], d1["E"]), (d1["W"], f1["E"]), (f2["S"], d2["E"]),
        (d2["W"], l2["W"]),
        # lower connector and right-side arcs
        (l2["E"], r4["W"]),
        (r3["E"], r2["E"]), (r2["W"], r1["W"]), (r1["E"], r4["E"]),
    ]
    return PlanarTangleDiagram(crossings, arcs, _CORNERS)


def test_left_linking_invariant_under_reidemeister_rewrites():
    for base, variants, expected in (
        (
            clasp_single(),
            [_clasp_single_wiggled(True), _clasp_single_wiggled(False),
             _clasp_single_corner_poked(), _clasp_single_corner_flipped()],
            1,
        ),
        (
            clasp_double(),
            [_clasp_double_wiggled(True), _clasp_double_wiggled(False)],
            2,
        ),
    ):
        box = bracket_of_diagram(base)
        closed = closure_coefficients(annular_closure(base))
        assert left_linking_number(base) == expected
        for variant in variants:
            assert bracket_of_diagram(variant) == box
            assert closure_coefficients(annular_closure(variant)) == closed
            assert left_linking_number(variant) == expected


# ---------------------------------------------------------------------------
# Closure of small tangles in the annulus
# ---------------------------------------------------------------------------

def test_closure_pins():
    assert closure_coefficients(annular_closure(diagram_infinity())) == {0: DELTA}
    z2 = closure_coefficients(annular_closure(diagram_zero()))
    assert z2 == {2: LaurentPoly.one()}
    one = closure_coefficients(
        annular_closure(rational_to_diagram(RationalTangle.from_entries(1)))
    )
    assert one == {0: A * DELTA, 2: AINV}


def _with_free_loops(d, loops):
    return PlanarTangleDiagram(d.crossings, d.arcs, d.boundary, loops)


def test_closure_of_a_cable_is_the_cable_of_the_closure():
    # the cabled closure reads the corner clusters and nests its arcs;
    # every cable here has at most 16 crossings
    rng = random.Random(22)
    diagrams = {}
    while len(diagrams) < 12:
        d = rational_to_diagram(RationalTangle(random_twist_vector(rng, 4, 3)))
        if d.crossing_count <= 3:
            diagrams[d.crossings, d.arcs] = d
    diagrams = list(diagrams.values()) + [
        rational_to_diagram(RationalTangle.from_entries(2, 2)), clasp_around_right(),
        _with_free_loops(diagram_zero(), (0, 1)), _with_free_loops(clasp_around_right(), (-1,))]
    for d in diagrams:
        assert closure_coefficients(annular_closure(cable_diagram(d, 2))) == \
            closure_coefficients(cable_diagram(annular_closure(d), 2))


def test_closure_keeps_the_free_loops_of_the_diagram_first():
    # threaded_closure tells the diagram's own loops from the closure's
    # new ones by this order
    assert annular_closure(_with_free_loops(diagram_zero(), (0, 1))).free_loops == (0, 1, -1, -1)
    cabled = cable_diagram(_with_free_loops(diagram_zero(), (1, 0)), 2)
    assert cabled.free_loops == (1, 1, 0, 0)
    assert annular_closure(cabled).free_loops == (1, 1, 0, 0, -1, -1, -1, -1)


def test_enumerator_rejects_overwound_loops():
    # one crossing whose two arcs each wind once: every smoothing closes
    # a loop that circles the core twice
    with pytest.raises(ValueError, match="winds"):
        kernel.resolve_states(4, [(0, 1, 2, 3)], [(1, 2, 1), (3, 0, 1)], [])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_json_round_trip_bracket():
    d = rational_to_diagram(RationalTangle.from_entries(-2, 3, 2))
    d2 = PlanarTangleDiagram.from_json(d.to_json())
    assert bracket_of_diagram(d) == bracket_of_diagram(d2)


def test_json_round_trip_winding():
    d = annular_closure(clasp_single())
    d2 = PlanarTangleDiagram.from_json(d.to_json())
    assert closure_coefficients(d) == closure_coefficients(d2)


def test_json_under_flag():
    d = rational_to_diagram(RationalTangle.from_entries(1))
    data = d.to_json()
    e = data["crossings"][0]
    assert e[4] == "+"
    rotated = [e[1], e[2], e[3], e[0], "-"]
    data["crossings"][0] = rotated
    d2 = PlanarTangleDiagram.from_json(data)
    assert bracket_of_diagram(d) == bracket_of_diagram(d2)


def test_json_rejects_bad_edges():
    with pytest.raises(ValueError):
        PlanarTangleDiagram.from_json(
            {"crossings": [["e0", "e0", "e0", "e0", "+"]], "boundary": {}}
        )


# ---------------------------------------------------------------------------
# Cables and curls
# ---------------------------------------------------------------------------

def _tl_labels(n):
    top = [f"NW:{k}" for k in range(n)] + [f"NE:{k}" for k in range(n)]
    bot = [f"SW:{k}" for k in range(n)] + [f"SE:{k}" for k in range(n)]
    return top, bot


def test_cable_of_crossingless_tangles():
    top, bot = _tl_labels(2)
    ident = matchings_of_diagram(cable_diagram(diagram_infinity(), 2), top, bot)
    assert ident == {(4, 5, 6, 7, 0, 1, 2, 3): LaurentPoly.one()}
    nested = matchings_of_diagram(cable_diagram(diagram_zero(), 2), top, bot)
    assert nested == {(3, 2, 1, 0, 7, 6, 5, 4): LaurentPoly.one()}


def test_cable_widths_per_component():
    # one width per entry of components(); a list of equal widths is the
    # uniform cable, end for end
    rng = random.Random(31)
    diagrams = [rational_to_diagram(RationalTangle(random_twist_vector(rng, 4, 3)))
                for _ in range(10)]
    diagrams += [clasp_single(), clasp_around_right(), annular_closure(clasp_double())]
    for d in diagrams:
        for n in (1, 2, 3):
            a, b = cable_diagram(d, n), cable_diagram(d, [n] * len(components(d)))
            assert (a.crossings, a.arcs, a.boundary, a.free_loops) == (
                b.crossings, b.arcs, b.boundary, b.free_loops)
    loop = PlanarTangleDiagram(diagram_zero().crossings, diagram_zero().arcs,
                               diagram_zero().boundary, (0,))
    assert cable_diagram(loop, (1, 2, 3)).free_loops == (0, 0, 0)
    for widths in ((1, 1), (1, 1, 1, 1), (1, -1, 1)):
        with pytest.raises(ValueError, match="need 3 widths, one per component"):
            cable_diagram(loop, widths)


def test_width_zero_strands_are_dropped():
    # the loop of clasp_around_right and the strand it circles: dropping
    # either leaves the other crossingless, passing straight through
    closed = annular_closure(clasp_around_right())
    assert [len(c["passes"]) for c in components(closed)] == [2, 2]
    without_loop = cable_diagram(closed, (1, 0))
    assert without_loop.crossings == () and without_loop.free_loops == (0,)
    assert closure_coefficients(without_loop) == closure_coefficients(
        annular_closure(diagram_infinity()))
    assert cable_diagram(closed, (0, 2)).free_loops == (0, 0)
    assert cable_diagram(closed, (0, 0)).free_loops == ()
    # the two copies of the strand pass between the loop's copies
    assert cable_diagram(closed, (2, 3)).crossing_count == 2 * 2 * 3
    opened = cable_diagram(clasp_around_right(), (2, 2, 0))
    assert opened.crossings == ()
    assert matchings_of_diagram(opened, *_tl_labels(2)) == matchings_of_diagram(
        cable_diagram(diagram_infinity(), 2), *_tl_labels(2))


def test_curl_single_strand():
    plus = matchings_of_diagram(curl_diagram(+1), ["NW"], ["SW"])
    assert plus == {(1, 0): -LaurentPoly.monomial(-3)}
    minus = matchings_of_diagram(curl_diagram(-1), ["NW"], ["SW"])
    assert minus == {(1, 0): -LaurentPoly.monomial(3)}
