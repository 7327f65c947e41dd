"""The state-sum oracle: its outputs pinned bit for bit, its crossing cap
at every entry, and its error messages."""

import hashlib
import random
import re
import time

import pytest

from tanglekit import annulus, kernel, threaded, tl
from tanglekit.oracle import (
    MAX_ORACLE_CROSSINGS,
    annular_closure,
    bracket_of_diagram,
    closure_coefficients,
)
from tanglekit.ring import LaurentPoly
from tanglekit.tangles import (
    PlanarTangleDiagram,
    RationalTangle,
    build_rational,
    cable_diagram,
    clasp_around_right,
    clasp_double,
    clasp_single,
    curl_diagram,
    diagram_infinity,
    diagram_zero,
    random_twist_vector,
    rational_to_diagram,
)
from tanglekit.threaded import MAX_FRONTIER_STATES, closure_frontier

_CORNERS = [("NW", 0), ("NE", 1), ("SW", 2), ("SE", 3)]


def _corpus():
    """Ten seeded rational diagrams of at most three crossings, then the
    named diagrams; the closures of the 0 and infinity tangles have free
    loops, and the clasps cable past the crossing cap."""
    rng = random.Random(18)
    out = []
    while len(out) < 10:
        d = rational_to_diagram(build_rational(random_twist_vector(rng, 3, 3)))
        if d.crossing_count <= 3:
            out.append(d)
    return out + [clasp_single(), clasp_double(), clasp_around_right(),
                  curl_diagram(1), curl_diagram(-1), diagram_zero(), diagram_infinity()]


_EVALUATORS = {
    "bracket": bracket_of_diagram,
    "closure": lambda d: closure_coefficients(annular_closure(d)),
    "cabled state sum": lambda d: tl.state_sum(cable_diagram(d, 2)).nums,
}


def _canonical(v):
    """A text form of an oracle result that names every key, every
    exponent and the type of every coefficient, zero entries included."""
    if isinstance(v, LaurentPoly):
        return repr(sorted(v.coeffs.items()))
    if isinstance(v, tuple):
        return "(" + ", ".join(_canonical(x) for x in v) + ")"
    return "{" + ", ".join(f"{k!r}: {_canonical(x)}" for k, x in sorted(v.items())) + "}"


# SHA-256 of the canonical results on _corpus(), one line per diagram; a
# refused diagram's line is the type and message of the exception.
ORACLE_DIGESTS = {
    "bracket": "408349711c845f87873022b2013cf2c6f4efc03cf2a8b9b016e797205017623e",
    "closure": "24e80542002675cfa9f5b7b0de180329b57cfff953ada3ec106cca7bb23c87fc",
    "cabled state sum": "a56062c94119cd209d89629d34e1a441df006d4db51836ada70ddeb6fe74d886",
}


@pytest.mark.parametrize("name", list(ORACLE_DIGESTS))
def test_oracle_outputs_are_pinned(name):
    lines = []
    for d in _corpus():
        try:
            lines.append(_canonical(_EVALUATORS[name](d)))
        except (KeyError, ValueError) as e:
            lines.append(f"{type(e).__name__}: {e}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORACLE_DIGESTS[name]


@pytest.mark.parametrize("evaluate", [
    bracket_of_diagram,
    tl.state_sum,
    lambda d: closure_coefficients(annular_closure(d)),
    annulus.closure_bracket,
], ids=["bracket", "state sum", "closure", "closure bracket"])
def test_every_entry_refuses_a_diagram_over_the_cap(monkeypatch, evaluate):
    d = rational_to_diagram(RationalTangle.from_entries(MAX_ORACLE_CROSSINGS + 1))
    assert d.crossing_count == 17

    def enumerate_states(*args):
        raise AssertionError("the smoothings were enumerated")

    monkeypatch.setattr(kernel, "resolve_states", enumerate_states)
    with pytest.raises(ValueError, match="^oracle too large: 17 crossings exceeds 16$"):
        evaluate(d)


def _strand_pair(**kw):
    return PlanarTangleDiagram([], [(0, 2), (1, 3)], _CORNERS, **kw)


# A kink whose loop arc winds once around the annulus core: one of its
# two smoothings closes that loop into an essential circle.
_WINDING_KINK = PlanarTangleDiagram(
    [(0, 1, 2, 3)], [(4, 0), (2, 1, 1), (3, 5), (6, 7)],
    [("SW", 4), ("NW", 5), ("NE", 6), ("SE", 7)],
)


@pytest.mark.parametrize("evaluate, d, message", [
    (bracket_of_diagram, _strand_pair(free_loops=(1,)),
     "disk diagram contains an essential loop"),
    (tl.state_sum, _strand_pair(free_loops=(0, -1)),
     "disk diagram contains an essential loop"),
    (bracket_of_diagram, _WINDING_KINK, "tangle diagram produced an essential loop"),
    (tl.state_sum, _WINDING_KINK, "disk diagram produced an essential loop"),
    (bracket_of_diagram, PlanarTangleDiagram([], [(0, 3), (1, 2)], _CORNERS),
     r"non-planar boundary pairing \(\(0, 3\), \(1, 2\)\)"),
    (closure_coefficients, diagram_zero(), "closure evaluation needs a closed diagram"),
    (closure_coefficients, PlanarTangleDiagram([], [], [], (0, 2)),
     "free loop winds 2 times around the annulus core"),
])
def test_oracle_error_messages(evaluate, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(d)


def test_free_loops_multiply_every_coefficient():
    # a contractible loop is delta, a core-parallel one is z
    alpha, beta = bracket_of_diagram(_strand_pair(free_loops=(0,)))
    assert (alpha, beta) == (LaurentPoly({2: -1, -2: -1}), LaurentPoly.zero())
    closed = PlanarTangleDiagram([], [], [], (0, 1, -1))
    assert closure_coefficients(closed) == {2: LaurentPoly({2: -1, -2: -1})}


# ---------------------------------------------------------------------------
# The frontier contraction
# ---------------------------------------------------------------------------

def _closed_diagrams():
    """The closed diagrams the tests give the enumerator: the closures of
    _corpus() and of random rational diagrams, their cables that fit
    under the cap, cables of one strand of clasp_around_right's closure
    with its loop dropped or doubled, and the bare closed diagrams of the
    error and free-loop tests."""
    rng = random.Random(101)
    tangles = list(_corpus())
    while len(tangles) < 40:
        d = rational_to_diagram(build_rational(random_twist_vector(rng, 4, 3)))
        if d.crossing_count <= 10:
            tangles.append(d)
    out = []
    for d in tangles:
        try:
            closed = annular_closure(d)
        except ValueError:
            continue
        out.append(closed)
        for n in (2, 3):
            if closed.crossing_count * n * n <= MAX_ORACLE_CROSSINGS:
                out.append(cable_diagram(closed, n))
    around = annular_closure(clasp_around_right())
    out += [cable_diagram(around, widths) for widths in ((1, 0), (0, 2), (2, 0), (1, 2))]
    out += [PlanarTangleDiagram([], [], [], (0, 1, -1)), PlanarTangleDiagram([], [], [], (0, 2)),
            annular_closure(_WINDING_KINK), diagram_zero()]
    return out


def test_frontier_contraction_equals_the_enumerator():
    for d in _closed_diagrams():
        try:
            expected = closure_coefficients(d)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                closure_frontier(d)
        else:
            assert closure_frontier(d) == expected, d.crossings


def test_frontier_refuses_an_overwound_free_loop_before_smoothing(monkeypatch):
    # [8] cabled at width 4 has 128 crossings; the free loop is read first
    d = cable_diagram(annular_closure(rational_to_diagram(RationalTangle.from_entries(8))), 4)
    assert d.crossing_count == 128
    d = PlanarTangleDiagram(d.crossings, d.arcs, [], d.free_loops + (2,))

    def smooth(*args):
        raise AssertionError("a crossing was smoothed")

    monkeypatch.setattr(threaded, "_smooth", smooth)
    with pytest.raises(ValueError, match="^free loop winds 2 times around the annulus core$"):
        closure_frontier(d)


def test_frontier_refuses_past_its_state_bound_at_once():
    # [2] cabled at width 8, 128 crossings, holds 48,599 states at its
    # widest and takes about a minute; the bound stops it early
    d = cable_diagram(annular_closure(rational_to_diagram(RationalTangle.from_entries(2))), 8)
    start = time.perf_counter()
    message = f"^frontier contraction too large: more than {MAX_FRONTIER_STATES} states$"
    with pytest.raises(ValueError, match=message):
        closure_frontier(d)
    assert time.perf_counter() - start < 15
