"""Temperley-Lieb arithmetic, projectors, quantum coefficients, and the
colored expansion of cabled 2-tangles."""

import random
import time
import warnings
from math import gcd

import pytest

from tanglekit import cyclotomic, tl
from tanglekit.annulus import (
    chebyshev_convert,
    closure_bases,
    colored_closure,
    colored_closure_bases,
    element_closure,
    gamma_ratio_invariants,
)
from tanglekit.bracket import bracket_vector
from tanglekit.oracle import MAX_ORACLE_CROSSINGS
from tanglekit.rationals import TwistVector
from tanglekit.ring import (
    LaurentPoly,
    RatFunc,
    _poly_gcd,
    _to_dense,
    common_denominator,
    normalize_over,
    poly_dot,
    poly_exact_div,
)
from tanglekit.tangles import (
    PlanarTangleDiagram,
    RationalTangle,
    build_rational,
    cable_diagram,
    clasp_around_right,
    clasp_double,
    clasp_single,
    random_twist_vector,
    rational_to_diagram,
    tangle_negate,
)

ONE = RatFunc.one()
A = RatFunc.from_laurent(LaurentPoly.variable())
AINV = A.inverse()
DELTA = RatFunc.from_laurent(LaurentPoly({2: -1, -2: -1}))

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def random_element(rng, n, max_terms=3):
    """Small random element of TL_n."""
    pool = tl.enumerate_matchings(n, n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = pool[rng.randrange(len(pool))]
        c = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-3, 3))
        terms[m] = terms.get(m, RatFunc.zero()) + c
    return tl.TLElement(n, n, terms)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def test_catalan_counts():
    for n in range(9):
        assert tl.catalan(n) == CATALAN[n]
        assert len(tl.enumerate_matchings(n, n)) == CATALAN[n]


def test_enumerate_matchings_rectangular():
    # 3 top + 1 bottom points: two non-crossing pairings of the disk
    assert len(tl.enumerate_matchings(3, 1)) == 2
    # odd total: none
    assert tl.enumerate_matchings(2, 1) == []


def test_matching_validation():
    # crossing pairing 0-3, 1-2 with points 0,1 on top and 2,3 below
    with pytest.raises(ValueError):
        tl.TLElement(2, 2, {(3, 2, 1, 0): ONE})
    # not an involution
    with pytest.raises(ValueError):
        tl.TLElement(2, 2, {(1, 2, 3, 0): ONE})
    # every enumerated matching is accepted
    for m in tl.enumerate_matchings(4, 4):
        tl.TLElement(4, 4, {m: ONE})


# ---------------------------------------------------------------------------
# The stored form
# ---------------------------------------------------------------------------

def _assert_canonical(x):
    den = x.den.coeffs
    assert min(den) == 0 and den[0] > 0
    assert all(type(c) is int for c in den.values())
    assert gcd(*den.values(), *(c for v in x.nums.values() for c in v.coeffs.values())) == 1
    g = _to_dense(x.den, 1)[1]
    for v in x.nums.values():
        assert not v.is_zero
        g = _poly_gcd(g, _to_dense(v, 1)[1])
    assert len(g) == 1


def _rational_elements():
    rng = random.Random(61)
    out = [tl.jones_wenzl(n).element for n in (2, 3, 4)]
    out += [tl.projector_frame(2), tl.bni_basis(2)[1], random_element(rng, 3)]
    out.append(tl.colored_element(RationalTangle.from_entries(2, 1), 2))
    out.append(random_element(rng, 4).scale(RatFunc.normalized(A.num + 2, A.num ** 3 - 3)))
    return out


def test_elements_are_stored_in_canonical_form():
    for x in _rational_elements():
        _assert_canonical(x)
        _assert_canonical(x + x.scale(A))
        _assert_canonical(tl.tensor(x, tl.identity_element(1)))
    assert tl.TLElement(2, 2).den == LaurentPoly.one()


def test_same_element_built_two_ways_has_equal_fields():
    f2 = tl.jones_wenzl(2).element
    formula = tl.identity_element(2) - tl.e_generator(2, 1).scale(DELTA.inverse())
    f3 = tl.jones_wenzl(3).element
    square = tl.compose(f3, f3)
    for x, y in ((f2, formula), (f3, square), (f3, tl.TLElement(3, 3, f3.terms)),
                 (f2 - f2, tl.TLElement(2, 2))):
        assert (x.nums, x.den) == (y.nums, y.den)


def test_scaling_round_trip_restores_every_field():
    rng = random.Random(67)
    for x in _rational_elements():
        for _ in range(3):
            p = LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)})
            q = LaurentPoly({e: rng.randint(-3, 3) for e in range(0, 3)})
            if p.is_zero or q.is_zero:
                continue
            c = RatFunc.normalized(p, q)
            y = x.scale(c).scale(c.inverse())
            assert (y.top, y.bottom, y.nums, y.den) == (x.top, x.bottom, x.nums, x.den)


def test_terms_are_the_reduced_weights():
    for x in _rational_elements():
        assert set(x.terms) == set(x.nums)
        for k, v in x.nums.items():
            assert x.terms[k] == RatFunc.normalized(v, x.den)
        assert x.terms is x.terms
        with pytest.raises(TypeError):
            x.terms[k] = ONE


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def test_hook_square_makes_loop():
    e1 = tl.e_generator(2, 1)
    assert tl.compose(e1, e1) == e1.scale(DELTA)


def test_identity_is_unit():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        ident = tl.identity_element(n)
        for _ in range(5):
            x = random_element(rng, n)
            assert tl.compose(ident, x) == x
            assert tl.compose(x, ident) == x


def test_hook_sandwich():
    e1, e2 = tl.e_generator(3, 1), tl.e_generator(3, 2)
    assert tl.compose(tl.compose(e1, e2), e1) == e1
    assert tl.compose(tl.compose(e2, e1), e2) == e2


def test_distant_hooks_commute():
    e1, e3 = tl.e_generator(4, 1), tl.e_generator(4, 3)
    assert tl.compose(e1, e3) == tl.compose(e3, e1)


def test_multiplication_is_associative():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(4):
            x, y, z = (random_element(rng, n) for _ in range(3))
            left = tl.compose(tl.compose(x, y), z)
            right = tl.compose(x, tl.compose(y, z))
            assert left == right


def test_size_mismatch_rejected():
    e1 = tl.e_generator(2, 1)
    ident3 = tl.identity_element(3)
    with pytest.raises(ValueError, match="size mismatch"):
        tl.compose(e1, ident3)
    with pytest.raises(ValueError, match="size mismatch"):
        e1 + ident3


def test_tensor_builds_hooks():
    e1 = tl.e_generator(2, 1)
    assert tl.tensor(e1, tl.identity_element(1)) == tl.e_generator(3, 1)
    assert tl.tensor(tl.identity_element(1), e1) == tl.e_generator(3, 2)
    i2 = tl.identity_element(2)
    assert tl.tensor(i2, i2) == tl.identity_element(4)


def test_trace_of_identity():
    for n in range(1, 5):
        expected = RatFunc.one()
        for _ in range(n):
            expected = expected * DELTA
        assert tl.trace_close(tl.identity_element(n)) == expected


# ---------------------------------------------------------------------------
# State sums of small tangle diagrams
# ---------------------------------------------------------------------------

def test_state_sum_zero_tangle():
    d = rational_to_diagram(RationalTangle.from_entries(0))
    assert tl.state_sum(d) == tl.unit_element(1, "0")


def test_state_sum_single_crossing():
    d = rational_to_diagram(RationalTangle.from_entries(1))
    expected = tl.unit_element(1, "inf").scale(A) + tl.unit_element(1, "0").scale(AINV)
    assert tl.state_sum(d) == expected


def test_one_strand_cable_has_the_state_sum_of_the_diagram():
    rng = random.Random(38)
    diagrams = [rational_to_diagram(build_rational(random_twist_vector(rng, 4, 3)))
                for _ in range(20)]
    zero = rational_to_diagram(RationalTangle.from_entries(0))
    with_loop = PlanarTangleDiagram(zero.crossings, zero.arcs, zero.boundary, (0,))
    diagrams += [clasp_single(), clasp_double(), with_loop]
    for d in diagrams:
        assert tl.state_sum(cable_diagram(d, 1)) == tl.state_sum(d)
    assert tl.state_sum(with_loop) == tl.state_sum(zero).scale(DELTA)
    assert cable_diagram(with_loop, 2).free_loops == (0, 0)


def test_unknown_boundary_labels_are_refused():
    zero = rational_to_diagram(RationalTangle.from_entries(0))
    for labels in (("t0", "t1", "b0", "b1"), ("NW", "NE", "SW:x", "SE")):
        d = PlanarTangleDiagram(zero.crossings, zero.arcs,
                                [(lab, e) for lab, (_, e) in zip(labels, zero.boundary)])
        with pytest.raises(ValueError, match="top/bottom reading"):
            tl.state_sum(d)


def test_crossing_tile_is_skein_combination():
    ident, hook = tl.identity_element(2), tl.e_generator(2, 1)
    assert tl.tile_element(1, +1) == ident.scale(A) + hook.scale(AINV)
    assert tl.tile_element(1, -1) == ident.scale(AINV) + hook.scale(A)


def test_a_zero_crossing_sign_is_refused():
    # sign 0 was read as -1, and cached as the negative tile or kink
    for build in (tl.tile_element, tl.kink_element):
        build(1, -1)
        with pytest.raises(ValueError, match="crossing sign must be nonzero"):
            build(1, 0)


def test_opposite_tiles_cancel():
    # Reidemeister II at the cabled-tile level
    for n in (1, 2, 3):
        prod = tl.compose(tl.tile_element(n, +1), tl.tile_element(n, -1))
        assert prod == tl.identity_element(2 * n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1, -1])
def test_tile_is_the_skein_expanded_cable_braid(n, s):
    # the n-cable crossing as a braid on 2n strands, read top to bottom:
    # the product over k = 0..n-1 of sigma_{n+k} sigma_{n+k-1} ... sigma_{k+1}
    m = 2 * n
    ident = tl.identity_element(m)
    a, b = (A, AINV) if s > 0 else (AINV, A)
    braid = ident
    for k in range(n):
        for i in range(n + k, k, -1):
            braid = tl.compose(braid, ident.scale(a) + tl.e_generator(m, i).scale(b))
    assert tl.tile_element(n, s) == braid


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [1, -1])
def test_kink_is_the_tile_closed_on_its_right(n, s):
    # NE point k joins SE point k by nested arcs around the right side
    cup = tl._wire(n, 3 * n, [(i, n + i) for i in range(n)]
                   + [(2 * n + j, 4 * n - 1 - j) for j in range(n)])
    cap = tl._wire(3 * n, n, [(i, 3 * n + i) for i in range(n)]
                   + [(n + j, 3 * n - 1 - j) for j in range(n)])
    widened = tl.tensor(tl.tile_element(n, -s), tl.identity_element(n))
    assert tl.kink_element(n, s) == tl.compose(tl.compose(cup, widened), cap)


def test_word_replay_matches_state_sum():
    # at width 1 the replay of the word, mapped to (b_0, b_1), against
    # the state sum of its diagram read off the same basis
    rng = random.Random(37)
    for _ in range(10):
        t = build_rational(random_twist_vector(rng, 4, 3))
        referee = tl._read_coordinates(tl.state_sum(rational_to_diagram(t)), 1)
        assert _coords(1, tl.transfer_vector(t, 1), LaurentPoly.one()) == referee, t


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors
# ---------------------------------------------------------------------------

def test_projector_one_strand():
    assert tl.jones_wenzl(1).element == tl.identity_element(1)


def test_projector_two_strands_formula():
    f2 = tl.jones_wenzl(2).element
    expected = tl.identity_element(2) - tl.e_generator(2, 1).scale(DELTA.inverse())
    assert f2 == expected


def test_projector_defining_properties():
    for n in (2, 3, 4):
        f = tl.jones_wenzl(n).element
        assert tl.compose(f, f) == f
        for i in range(1, n):
            hook = tl.e_generator(n, i)
            assert tl.compose(hook, f).is_zero
            assert tl.compose(f, hook).is_zero


def test_projector_identity_coefficient_is_one():
    for n in (2, 3, 4):
        f = tl.jones_wenzl(n).element
        ident = next(iter(tl.identity_element(n).terms))
        assert f.coefficient(ident) == ONE


def test_projector_bound_enforced():
    with pytest.raises(ValueError):
        tl.jones_wenzl(tl.MAX_PROJECTOR_STRANDS + 1)


# ---------------------------------------------------------------------------
# Quantum coefficients
# ---------------------------------------------------------------------------

def test_loop_values_chebyshev():
    assert tl._delta_poly(0) == LaurentPoly.one()
    assert tl._delta_poly(1) == LaurentPoly({2: -1, -2: -1})
    assert tl._delta_poly(2) == LaurentPoly({4: 1, 0: 1, -4: 1})
    for k in range(2, 7):
        recur = tl._delta_poly(1) * tl._delta_poly(k - 1) - tl._delta_poly(k - 2)
        assert tl._delta_poly(k) == recur


def test_projector_closure_is_loop_value():
    for n in range(1, 6):
        q = tl.quantum_coeffs(n, 0)
        assert q.delta == RatFunc.from_laurent(tl._delta_poly(n))


def test_bubble_with_trivial_bridge_degenerates():
    for n in range(1, 6):
        q = tl.quantum_coeffs(n, 0)
        assert q.theta == q.delta


def test_bubble_full_bridge():
    # bridging with all 2n strands leaves a single 2n-projector loop
    for n in (1, 2, 3):
        q = tl.quantum_coeffs(n, n)
        assert q.theta == RatFunc.from_laurent(tl._delta_poly(2 * n))


def test_bubbles_and_loops_nonzero():
    for n in range(1, 4):
        for i in range(n + 1):
            q = tl.quantum_coeffs(n, i)
            assert not q.theta.is_zero
            assert not RatFunc.from_laurent(tl._delta_poly(2 * i)).is_zero


def test_framing_unit_values():
    assert tl.quantum_coeffs(2, 0).mu == LaurentPoly.monomial(-8, 1)
    assert tl.quantum_coeffs(1, 0).mu == LaurentPoly.monomial(-3, -1)
    assert tl.quantum_coeffs(3, 0).mu == LaurentPoly.monomial(-15, -1)


def test_kink_absorbed_by_projector():
    for n in (1, 2, 3):
        f = tl.jones_wenzl(n).element
        mu = RatFunc.from_laurent(tl.quantum_coeffs(n, 0).mu)
        for sign, unit in ((+1, mu), (-1, mu.inverse())):
            kinked = tl.compose(tl.compose(f, tl.kink_element(n, sign)), f)
            assert kinked == f.scale(unit)


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------

def test_rotation_swaps_crossingless_units():
    for n in (1, 2, 3):
        zero = tl.unit_element(n, "0")
        inf = tl.unit_element(n, "inf")
        assert tl.rotate_cw(zero) == inf
        assert tl.rotate_cw(inf) == zero


def test_rotation_order_four():
    rng = random.Random(51)
    for n in (1, 2):
        for _ in range(5):
            x = random_element(rng, 2 * n)
            assert tl.rotate_ccw(tl.rotate_cw(x)) == x
            y = x
            for _ in range(4):
                y = tl.rotate_cw(y)
            assert y == x


# ---------------------------------------------------------------------------
# The four-cluster basis
# ---------------------------------------------------------------------------

def test_basis_small_case_pins():
    b = tl.bni_basis(1)
    assert len(b) == 2
    assert b[0] == tl.unit_element(1, "inf")
    expected = tl.unit_element(1, "0") - tl.unit_element(1, "inf").scale(
        DELTA.inverse()
    )
    assert b[1] == expected


def test_basis_length():
    assert len(tl.bni_basis(2)) == 3
    assert len(tl.bni_basis(3)) == 4


def test_basis_is_linearly_independent():
    for n in (1, 2, 3):
        basis = tl.bni_basis(n)
        for i, b in enumerate(basis):
            coords = tl._read_coordinates(b, n)
            for j, c in enumerate(coords):
                assert c == (ONE if j == i else RatFunc.zero())


def test_pinch_matchings_are_unit_triangular():
    # p_i has coefficient 1 in b_i and 0 in every earlier b_j, which is
    # what lets colored_expand read coordinates off by back-substitution
    for n in (1, 2, 3):
        basis = tl.bni_basis(n)
        pinches = tl._bni(n)[1]
        assert len(set(pinches)) == n + 1
        for i, p in enumerate(pinches):
            narrow, widen = tl._pinch_wires(n, i)
            assert tl.rotate_cw(tl.compose(narrow, widen)) == tl.TLElement(
                2 * n, 2 * n, {p: ONE}
            )
            assert basis[i].coefficient(p) == ONE
            for j in range(i):
                assert basis[j].coefficient(p).is_zero


def test_element_outside_the_span_is_refused():
    # the undressed cables carry no projectors, so they leave the span
    for x in (tl.unit_element(2, "0"), tl.unit_element(2, "inf"),
              tl.tile_element(2, 1)):
        with pytest.raises(ValueError, match="element outside the basis span"):
            tl._read_coordinates(x, 2)


def test_basis_gram_matrix_diagonal():
    for n in (1, 2):
        basis = tl.bni_basis(n)
        for i in range(n + 1):
            for j in range(n + 1):
                pairing = tl.trace_close(tl.compose(basis[i], basis[j]))
                if i != j:
                    assert pairing.is_zero
                else:
                    q = tl.quantum_coeffs(n, i)
                    bridge = RatFunc.from_laurent(tl._delta_poly(2 * i))
                    assert pairing == q.theta * q.theta / bridge


# ---------------------------------------------------------------------------
# Colored expansion
# ---------------------------------------------------------------------------

def _solve_in_span(columns, target):
    """Referee: Gauss-Jordan elimination over every matching row."""
    keys = set(target.terms)
    for col in columns:
        keys.update(col.terms)
    rows = [
        [col.coefficient(k) for col in columns] + [target.coefficient(k)]
        for k in sorted(keys)
    ]
    width = len(columns)
    for j in range(width):
        piv = next(i for i in range(j, len(rows)) if not rows[i][j].is_zero)
        rows[j], rows[piv] = rows[piv], rows[j]
        inv = rows[j][j].inverse()
        rows[j] = [c * inv for c in rows[j]]
        for i in range(len(rows)):
            if i != j and not rows[i][j].is_zero:
                f = rows[i][j]
                rows[i] = [c - f * d for c, d in zip(rows[i], rows[j])]
    assert all(row[-1].is_zero for row in rows[width:])
    return [rows[j][-1] for j in range(width)]


def test_colored_expand_matches_gauss_jordan_referee():
    rng = random.Random(83)
    cases = [(build_rational(random_twist_vector(rng, 3, 3)), n)
             for n in (1, 2) for _ in range(6)]
    cases += [(RationalTangle.from_entries(*e), 3) for e in ((1,), (2, -1))]
    cases.append((rational_to_diagram(RationalTangle.from_entries(2, 1)), 2))
    for t, n in cases:
        d = t if isinstance(t, PlanarTangleDiagram) else rational_to_diagram(t)
        if d.crossing_count * n * n <= MAX_ORACLE_CROSSINGS:
            referee = _solve_in_span(tl.bni_basis(n), tl.colored_element(t, n))
        else:
            # past the oracle's cap: the threaded closure of the diagram
            referee = tl.colored_expand(d, n)
        assert tl.colored_expand(t, n) == referee, (t, n)

def test_colored_infinity_is_first_basis_vector():
    for n in (1, 2):
        gammas = tl.colored_expand(RationalTangle.infinity(), n)
        assert gammas[0] == ONE
        assert all(g.is_zero for g in gammas[1:])


def test_colored_zero_tangle_single_cable():
    gammas = tl.colored_expand(RationalTangle.from_entries(0), 1)
    assert gammas == [DELTA.inverse(), ONE]


def test_single_cable_reduces_to_bracket():
    # with one strand per cable the expansion is the bracket vector in
    # the rotated basis: gamma_1 = beta, gamma_0 = alpha + beta/delta
    rng = random.Random(77)
    seen = 0
    while seen < 10:
        t = build_rational(random_twist_vector(rng, 4, 2))
        if sum(abs(a) for a in t.tv.entries) > 8:
            continue
        seen += 1
        vec = bracket_vector(t)
        alpha = RatFunc.from_laurent(vec.alpha)
        beta = RatFunc.from_laurent(vec.beta)
        gammas = tl.colored_expand(t, 1)
        assert gammas[1] == beta
        assert gammas[0] == alpha + DELTA.inverse() * beta


def test_projector_frame_absorbed():
    frame = tl.projector_frame(2)
    x = tl.colored_element(RationalTangle.from_entries(2, 1), 2)
    assert tl.compose(frame, x) == x
    assert tl.compose(x, frame) == x


def test_colored_element_replay_matches_cabled_state_sum():
    # the replay's coordinates against the cabled state sum of the word's
    # diagram between projector frames, read off bni_basis(2)
    cases = [RationalTangle.from_entries(*e) for e in [(1,), (-2,), (2, 1), (1, 1)]]
    for t in cases:
        direct = tl.colored_element(rational_to_diagram(t), 2)
        assert tl.colored_element(t, 2) == direct
        assert tl.colored_expand(t, 2) == tl._read_coordinates(direct, 2)


# ---------------------------------------------------------------------------
# Transfer replay on the n+1 basis coordinates
# ---------------------------------------------------------------------------

def _coords(n, nums, den):
    """Coordinates over bni_basis(n) of fusion-basis numerators over den:
    the coordinate of b_i is kappa_i / c_i."""
    zero = LaurentPoly.zero()
    bubbles = tl._transfer_data(n)[3]
    return [RatFunc.normalized(nums.get(i, zero), den) / c for i, c in enumerate(bubbles)]


def _twist_diagonal(nums: dict, n: int, a: int) -> dict:
    """A right run of a half twists on the dict replay: coordinate i times
    its eigenvalue (-1)^((n-i)|a|) A^(a(n^2 + 2n - 2i^2 - 2i))."""
    out = {}
    for i, v in nums.items():
        shift = a * (n * n + 2 * n - 2 * i * i - 2 * i)
        sign = -1 if (n - i) * a % 2 else 1
        out[i] = LaurentPoly._of({e + shift: sign * c for e, c in v.coeffs.items()})
    return out


def _quarter_turn(q, nums: dict) -> dict:
    """q_den times Q times a vector, row by row with poly_dot."""
    out = {}
    for i, row in enumerate(q):
        total = poly_dot((row[j], v) for j, v in nums.items() if row[j] is not None)
        if total:
            out[i] = total
    return out


def _dict_replay(t, n: int) -> dict:
    """The referee of tl.transfer_vector: the same replay on dicts of
    Laurent polynomials, each bottom run Q D(-a) Q with every coordinate
    divided by q_den^2 with poly_exact_div."""
    word = tl.colored_twist_word(t, n)
    starts, q, q_den, _ = tl._transfer_data(n)
    q_den2 = q_den * q_den
    kappas = dict(starts[word.start])
    for kind, a in word.runs:
        if kind == "R":
            kappas = _twist_diagonal(kappas, n, a)
        else:
            turned = _quarter_turn(q, _twist_diagonal(_quarter_turn(q, kappas), n, -a))
            kappas = {i: poly_exact_div(v, q_den2) for i, v in turned.items()}
    return kappas


def test_transfer_replay_matches_the_threaded_closure():
    # the replay against the coordinates of the threaded closure of the
    # word's diagram, which builds no projector and takes no replay data
    rng = random.Random(89)
    cases = [(build_rational(random_twist_vector(rng, 4, 3)), 1) for _ in range(200)]
    cases += [(build_rational(random_twist_vector(rng, 3, 3)), 2) for _ in range(40)]
    fixed = [RationalTangle.from_entries(*e)
             for e in ((1,), (-1,), (2, -1), (1, 1), (0,), (0, 1), (2, 0), (1, -1))]
    fixed.append(RationalTangle.infinity())
    cases += [(t, n) for t in fixed for n in (1, 3)]
    for t, n in cases:
        referee = tl.colored_expand(rational_to_diagram(t), n)
        assert tl.colored_expand(t, n) == referee, (t, n)
        if n == 1:
            # the width-1 read-off against the replay on (b_0, b_1 / c_1),
            # mapped back to (b_0, b_1)
            assert _coords(1, tl.transfer_vector(t, 1), LaurentPoly.one()) == referee, t


def _engine_transfer_data(n):
    """The referee of _transfer_data: c_i read off the closure c_i S_2i
    of b_i, the start vectors read off the projector-dressed crossingless
    tangles, and Q read off the quarter turns of bni_basis(n), all in
    TL_2n, then conjugated by diag(c_i) into the fusion basis b_i / c_i."""
    basis = tl.bni_basis(n)
    bubbles = [element_closure(b).coefficient(2 * i) for i, b in enumerate(basis)]
    frame = tl.projector_frame(n)
    starts = {}
    for kind in ("0", "inf"):
        x = tl.compose(frame, tl.compose(tl.unit_element(n, kind), frame))
        kappas = {i: c * g for i, (c, g) in enumerate(zip(bubbles, tl._read_coordinates(x, n)))}
        starts[kind] = {i: k.as_laurent() for i, k in kappas.items() if not k.is_zero}
    entries = {}
    for j, b in enumerate(basis):
        for i, c in enumerate(tl._read_coordinates(tl.rotate_cw(b), n)):
            entries[i, j] = bubbles[i] * c / bubbles[j]
    q_nums, q_den = normalize_over(*common_denominator(entries))
    q = [[q_nums.get((i, j)) for j in range(n + 1)] for i in range(n + 1)]
    return starts, q, q_den, bubbles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_transfer_data_equals_the_engine(n):
    # Q, both start vectors, their shared denominators and the bubble
    # ratios, field by field
    assert tl._transfer_data(n) == _engine_transfer_data(n)


def _mirror(r):
    return RatFunc.normalized(r.num.invert_variable(), r.den.invert_variable())


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_closed_forms_past_the_engine(n):
    # beyond the projectors: fraction-equal words share their ratios, and
    # the mirror maps each ratio by A -> 1/A
    left, right, mirror = (RationalTangle.from_entries(*e)
                           for e in ((-2, 3, 2), (3, -2, 3), (2, -3, -2)))
    ratios = tl.colored_ratios(tl.colored_expand(left, n))
    assert len(ratios) == n
    assert tl.colored_ratios(tl.colored_expand(right, n)) == ratios
    assert tl.colored_ratios(tl.colored_expand(mirror, n)) == [_mirror(r) for r in ratios]
    closure_ratios = gamma_ratio_invariants(colored_closure(left, n))
    assert gamma_ratio_invariants(colored_closure(right, n)) == closure_ratios


def test_mirror_replay_is_the_bar_image():
    # the mirror maps the colored closure by A -> 1/A and fixes each S_2i,
    # so each replay coordinate of the mirror is the bar image of the
    # tangle's: a check that Q and the start vectors are bar-invariant at
    # every width, engine or not
    rng = random.Random(50)
    for n in range(1, 9):
        words = [RationalTangle.from_entries(0), RationalTangle.from_entries(2, 1, 2)]
        words += [build_rational(random_twist_vector(rng, 4 if n < 5 else 3, 3)) for _ in range(4)]
        for t in words:
            kappas = tl.transfer_vector(t, n)
            mirror = tl.transfer_vector(tangle_negate(t), n)
            assert mirror == {i: v.invert_variable() for i, v in kappas.items()}


def _cables_shape(rng, total=5):
    """A twist vector of 1 to 3 entries of random signs with
    sum(|a|) == total, the first at least 2."""
    m = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, total - 1), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total - 1])]
    parts[0] += 1
    return RationalTangle.from_entries(*(rng.choice((1, -1)) * p for p in parts))


def test_transfer_replay_takes_no_gcd(monkeypatch):
    # every bottom run divides exactly by q_den^2, so normalize_over never
    # runs once the data are cached
    rng = random.Random(61)
    cases = [(build_rational(random_twist_vector(rng, 4, 3)), n) for n in (2, 3, 4, 5) for _ in range(8)]
    cases += [(_cables_shape(rng), 2) for _ in range(60)]
    bottom_runs = sum(kind != "R" for t, n in cases for kind, _ in tl.colored_twist_word(t, n).runs)
    assert bottom_runs > 50
    for n in (2, 3, 4, 5):
        tl._transfer_data(n)  # the cached set-up reduces Q once
    calls = []
    normalize_over = tl.normalize_over
    monkeypatch.setattr(tl, "normalize_over", lambda *args: calls.append(args) or normalize_over(*args))
    for t, n in cases:
        tl.transfer_vector(t, n)
    assert len(calls) == 0


def _replay_cases(rng):
    """Seeded words at widths 1 to 8, and words of ones and twos whose
    digit widths cross 1, 2, 4 and 8 bytes and go past them."""
    cases = [(build_rational(random_twist_vector(rng, 5 if n < 5 else 3, 4)), n)
             for n in range(1, 9) for _ in range(6)]
    cases += [(RationalTangle.from_entries(0, *e), n) for e, n in (((2, -1, 3), 2), ((-4,), 5))]
    cases += [(RationalTangle.from_entries(*[1] * k), n) for k, n in ((120, 1), (60, 2), (40, 3))]
    cases += [(RationalTangle.from_entries(*[-2] * 15), 2), (RationalTangle.from_entries(1, 1, 1), 8)]
    return cases


@pytest.mark.parametrize("product_bytes, divmod_bytes", [(None, None), (0, 0), (10 ** 6, 10 ** 6)])
def test_packed_replay_equals_the_dict_replay(monkeypatch, fresh_caches, product_bytes,
                                              divmod_bytes):
    # the packed replay against the dict replay, at the default crossovers
    # and with every product as shifts and every division digit by digit,
    # or every product packed and every division one divmod
    if product_bytes is not None:
        monkeypatch.setattr(tl, "_PRODUCT_BYTES", product_bytes)
        monkeypatch.setattr(tl, "_DIVMOD_BYTES", divmod_bytes)
    widths = set()
    packed_tables = tl._packed_tables
    monkeypatch.setattr(tl, "_packed_tables", lambda n, b: widths.add(b) or packed_tables(n, b))
    for t, n in _replay_cases(random.Random(24)):
        assert tl.transfer_vector(t, n) == _dict_replay(t, n), (t, n)
    assert {1, 2, 4, 8} <= widths and max(widths) > 8


def test_a_short_digit_width_widens_and_stays_exact(monkeypatch):
    # with every width one byte short of the chosen one, the certificate
    # fails at several widths; each such run is redone at twice the width,
    # from its input
    digit_width, divide = tl._digit_width, tl._divide
    failures = []

    def spy(nums, n, b, m):
        found = divide(nums, n, b, m)
        if found is None:
            failures.append(b)
        return found

    monkeypatch.setattr(tl, "_digit_width", lambda bound: max(1, digit_width(bound) - 1))
    monkeypatch.setattr(tl, "_divide", spy)
    for t, n in _replay_cases(random.Random(25)):
        assert tl.transfer_vector(t, n) == _dict_replay(t, n), (t, n)
    assert len(set(failures)) >= 3, failures


def test_replay_data_outside_one_class_are_refused(fresh_caches):
    # a term A^1 added to one entry of Q breaks the classes mod 4 that the
    # packed form rests on: the tables refuse the data
    q = tl._transfer_data(2)[1]
    q[0][1] = q[0][1] + LaurentPoly.variable()
    with pytest.raises(ValueError, match="colored replay at cable width 2: .* one class mod 4"):
        tl.transfer_vector(RationalTangle.from_entries(2, 1, 2), 2)


def test_quarter_turn_is_an_involution():
    # Q is rotate_cw on the span; two quarter turns of a dressed
    # 2-tangle, a half turn, fix every fusion basis element
    for n in (1, 2, 3, 4, 5):
        _, q, q_den, _ = tl._transfer_data(n)
        for j in range(n + 1):
            twice = _quarter_turn(q, _quarter_turn(q, {j: LaurentPoly.one()}))
            assert twice == {j: q_den * q_den}


def _braid_sides(n: int, middle: int):
    """Both sides of D(1) Q D(middle) Q D(1) = Q D(1) Q D(1) Q D(1) Q on
    each fusion basis vector, as (nums, den) reduced by normalize_over
    after every quarter turn."""
    _, q, q_den, _ = tl._transfer_data(n)

    def d(a, v):
        return _twist_diagonal(v[0], n, a), v[1]

    def turn(v):
        return normalize_over(_quarter_turn(q, v[0]), v[1] * q_den)

    for j in range(n + 1):
        v = ({j: LaurentPoly.one()}, LaurentPoly.one())
        left = d(1, turn(d(middle, turn(d(1, v)))))
        right = turn(d(1, turn(d(1, turn(d(1, turn(v)))))))
        yield left, right


@pytest.mark.parametrize("n", range(1, tl.MAX_TWIST_WIDTH + 1))
def test_quarter_turn_satisfies_the_braid_relation(n):
    # On fractions R(x) = x + 1 and B(-1)(x) = x / (1 - x), and
    # R B(-1) R = B(-1) R B(-1) (both are x -> -1/x).  A bottom run of -1
    # is Q D(1) Q, so the relation checks Q's entries against the
    # closed-form eigenvalues, with no engine, at every twist-word width
    for left, right in _braid_sides(n, 1):
        assert left == right


def test_braid_relation_refuses_the_wrong_sign():
    assert any(left != right for left, right in _braid_sides(2, -1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_twists_act_on_basis_coordinates(n):
    # a right half twist scales the fusion basis element b_i / c_i by its
    # closed-form eigenvalue; a bottom one is Q D(-s) Q (checked below
    # width 3, where gluing the bottom tiles alone takes seconds).  A
    # right half twist is a bottom one after a quarter turn, whose tile
    # then carries the opposite sign.
    _, q, q_den, bubbles = tl._transfer_data(n)
    one = LaurentPoly.one()
    for i, b in enumerate(tl.bni_basis(n)):
        b = b.scale(bubbles[i].inverse())
        for s in (1, -1):
            right = _twist_diagonal({i: one}, n, s)
            twisted = tl.rotate_ccw(tl.compose(tl.rotate_cw(b), tl.tile_element(n, -s)))
            assert tl._read_coordinates(twisted, n) == _coords(n, right, one)
            if n < 3:
                turned = _twist_diagonal(_quarter_turn(q, {i: one}), n, -s)
                bottom = _quarter_turn(q, turned)
                assert tl._read_coordinates(tl.compose(b, tl.tile_element(n, s)), n) == _coords(
                    n, bottom, q_den * q_den
                )


def test_width_one_eigenvalues_are_the_bracket_step():
    # the diagonal of one right half twist in the bracket's transfer map
    one = LaurentPoly.one()
    assert _twist_diagonal({0: one, 1: one}, 1, 1) == {
        0: LaurentPoly.monomial(3, -1), 1: LaurentPoly.monomial(-1)
    }


#: The engine's builders of projectors, frames, basis, tiles and kinks,
#: and the replay tables with their cyclotomic factors, per width.
ENGINE_CACHES = (tl._projector, tl.projector_frame, tl._bni, tl._tile, tl._kink)
TRANSFER_CACHES = (tl._transfer_data, tl._replay_tables, tl._packed_tables,
                   cyclotomic.bubble_factors, cyclotomic.ratio_factors)


def _empty(caches) -> bool:
    return all(f.cache_info().currsize == 0 for f in caches)


def test_transfer_replay_builds_no_crossing_tile(fresh_caches):
    # a word over the bound is refused before any precompute
    too_long = RationalTangle.from_entries(tl.MAX_COLORED_TWISTS[3] + 1)
    with pytest.raises(ValueError, match="at cable width 3"):
        tl.colored_expand(too_long, 3)
    assert _empty((tl._bni,) + TRANSFER_CACHES)
    # the closed forms build no projector, frame, basis or crossing tile
    t = RationalTangle.from_entries(2, -1)
    for n in (3, tl.MAX_TWIST_WIDTH):
        tl.colored_expand(t, n)
        colored_closure(t, n)
        assert _empty(ENGINE_CACHES)


def test_diagrams_build_no_projector(fresh_caches):
    # a diagram's colored coordinates and closure come from its threaded
    # closure: no projector, frame, basis element or crossing tile, also
    # past the projectors' bound
    for d, n in ((clasp_around_right(), 3), (rational_to_diagram(RationalTangle.from_entries(1)), 5)):
        tl.colored_expand(d, n)
        colored_closure(d, n)
        assert _empty(ENGINE_CACHES)


def test_width_three_set_up_is_quick(fresh_caches):
    # through the projectors on 6 strands this took about 0.5 s
    t = RationalTangle.from_entries(3, 2, -3)
    start = time.perf_counter()
    tl.colored_expand(t, 3)
    colored_closure(t, 3)
    assert time.perf_counter() - start < 0.15


def test_colored_cable_width_bound():
    # the TL engine needs projectors on 2n strands; a diagram's threaded
    # closure needs none, so diagrams take the twist-word widths
    t = RationalTangle.from_entries(1)
    d = rational_to_diagram(t)
    for n in (4, 0, -1):
        for call in (tl.bni_basis, lambda n: tl.colored_element(t, n),
                     lambda n: tl.colored_element(d, n)):
            with pytest.raises(ValueError, match="between 1 and 3"):
                call(n)
    bound = tl.MAX_TWIST_WIDTH
    for n in (bound + 1, 0, -1):
        for call in (tl.colored_expand, colored_closure):
            with pytest.raises(ValueError, match=f"between 1 and {bound}, got {n}"):
                call(d, n)


def test_twist_word_cable_width_bound():
    t = RationalTangle.from_entries(1)
    bound = tl.MAX_TWIST_WIDTH
    assert bound >= 6 and set(tl.MAX_COLORED_TWISTS) == set(range(1, bound + 1))
    for n in (bound + 1, 0, -1):
        for call in (tl.colored_expand, colored_closure, tl.transfer_vector):
            with pytest.raises(ValueError, match=f"between 1 and {bound}"):
                call(t, n)


_WIDTH_CALLS = {
    "colored_expand": tl.colored_expand,
    "colored_invariants": tl.colored_invariants,
    "colored_closure": colored_closure,
    "colored_closure_bases": colored_closure_bases,
    "transfer_vector": tl.transfer_vector,
    "colored_element": tl.colored_element,
    "bni_basis": lambda t, n: tl.bni_basis(n),
}


@pytest.mark.parametrize("name", list(_WIDTH_CALLS))
@pytest.mark.parametrize("kind", ["word", "diagram"])
def test_a_width_that_is_not_an_int_is_refused(name, kind):
    # a width that only compares with ints (a float, a bool, a string) is
    # refused before any work, as a width out of range is; the reply to an
    # int out of range is unchanged
    t = RationalTangle.from_entries(2, 1)
    if kind == "diagram":
        t = rational_to_diagram(t)
    call = _WIDTH_CALLS[name]
    for n in (1.0, 1.5, 2.0, True, False, "2", None):
        with pytest.raises(ValueError, match=f"cable width must be an int, got {n!r}"):
            call(t, n)
    with pytest.raises(ValueError, match="cable width must be between 1 and"):
        call(t, 0)


def test_twist_word_entry_points_refuse_other_types():
    # a diagram or a bare twist vector is neither a tangle nor a word
    tv = TwistVector((2, 1))
    for bad in (rational_to_diagram(build_rational(tv)), tv):
        name = type(bad).__name__
        for call in (bracket_vector, lambda t: tl.colored_twist_word(t, 2),
                     lambda t: tl.transfer_vector(t, 2)):
            with pytest.raises(TypeError, match=f"RationalTangle or a TwistWord, got {name}"):
                call(bad)


def test_ratio_invariants_quotients():
    gammas = [DELTA.inverse(), ONE]
    assert tl.colored_ratios(gammas) == [DELTA.inverse()]
    # scaling the whole vector leaves the ratios unchanged
    scaled = [g * A for g in gammas]
    assert tl.colored_ratios(scaled) == [DELTA.inverse()]


def test_ratio_invariants_zero_top_flagged():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ratios = tl.colored_ratios([ONE, RatFunc.zero()])
    assert len(caught) == 1
    assert ratios == []
    with pytest.raises(ValueError, match="zero skein element"):
        tl.colored_ratios([RatFunc.zero(), RatFunc.zero()])


def test_ratio_invariants_agree_for_equal_fractions():
    # both vectors present the tangle with fraction 12/5
    left = tl.colored_ratios(tl.colored_expand(RationalTangle.from_entries(-2, 3, 2), 2))
    right = tl.colored_ratios(tl.colored_expand(RationalTangle.from_entries(3, -2, 3), 2))
    assert left == right
    assert len(left) == 2


def test_width_one_ratios_match_colored_ratios():
    # the gcd-free width-1 ratio of the CLI against the generic division
    rng = random.Random(45)
    words = [RationalTangle.from_entries(*[1] * 500)]
    words += [build_rational(random_twist_vector(rng, 6, 9)) for _ in range(200)]
    for t in words:
        gammas = tl.colored_expand(t, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tl._width_one_ratios(gammas) == tl.colored_ratios(gammas), t


def test_ratio_invariants_differ_for_different_fractions():
    left = tl.colored_ratios(tl.colored_expand(RationalTangle.from_entries(2), 1))
    right = tl.colored_ratios(tl.colored_expand(RationalTangle.from_entries(3), 1))
    assert left != right


# ---------------------------------------------------------------------------
# Colored coordinates read off kappa: cyclotomic bookkeeping
# ---------------------------------------------------------------------------

def _phi4(d):
    """Phi_d(A^4) as a Laurent polynomial: A^(4d) - 1 divided by every
    Phi_e(A^4) with e < d dividing d, apart from cyclotomic.py."""
    u_d = LaurentPoly({4 * d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            u_d = poly_exact_div(u_d, _phi4(e))
    return u_d


def _quarter_forms(kappas):
    """i -> (lo, 1, digits) of the ring's reader at step 4, the form of
    tl._replay, for a dict of nonzero Laurent polynomials."""
    out = {}
    for i, v in kappas.items():
        lo, digits = _to_dense(v, 4)
        out[i] = lo, 1, digits
    return out


def _referee(kappas, n):
    """gamma_i = kappa_i / c_i through RatFunc.normalized, and the ratios
    through colored_ratios."""
    bubbles = tl._transfer_data(n)[3]
    gammas = [RatFunc.normalized(kappas[i] * c.den, c.num) if i in kappas else RatFunc.zero()
              for i, c in enumerate(bubbles)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gammas, tl.colored_ratios(gammas)


def _colored_words(rng, n):
    """Seeded words at width n with their mirrors and fraction-equal
    partners (a = (a - s) + 1/s split off the first entry, s its sign),
    [0], [inf] and an [inf]-like word."""
    entries = [(0,), (0, 3), (1,), (3, 2), (1, 2, 2)]
    for _ in range(10 if n <= 4 else 4):
        e = random_twist_vector(rng, 4 if n <= 4 else 3, 4 if n <= 4 else 2).entries
        entries += [e, tuple(-a for a in e)]
        if abs(e[0]) >= 2:
            s = 1 if e[0] > 0 else -1
            entries.append((s, e[0] - s) + e[1:])
    bound = tl.MAX_COLORED_TWISTS[n]
    return [RationalTangle.from_entries(*e) for e in entries
            if sum(map(abs, e)) <= bound] + [RationalTangle.infinity()]


@pytest.mark.parametrize("n", range(2, tl.MAX_TWIST_WIDTH + 1))
def test_colored_invariants_equal_the_normalized_referee(n):
    # gamma_i against RatFunc.normalized(kappa_i c.den, c.num) and the
    # ratios against colored_ratios, on words with some kappa_i = 0
    # ([inf], [0 3]), mirror pairs and fraction-equal pairs
    rng = random.Random(250 + n)
    for t in _colored_words(rng, n):
        gammas, ratios = tl.colored_invariants(t, n)
        assert (gammas, ratios) == _referee(tl.transfer_vector(t, n), n), (t, n)
        assert tl.colored_expand(t, n) == gammas


@pytest.mark.parametrize("n", range(2, tl.MAX_TWIST_WIDTH + 1))
def test_reduction_takes_each_factor_at_most_as_often_as_it_occurs(n):
    # kappa_i times extra powers of the Phi_d(A^4) of the bubble ratios,
    # with some coordinates dropped (the top one too, so that k < n with
    # ratios left), against the referee: every factor is stripped up to
    # its multiplicity and no further, and a stripped factor stays out
    rng = random.Random(260 + n)
    factors = cyclotomic.bubble_factors(n)
    orders = sorted({d for f in factors for d in list(f.num) + list(f.den)})
    stripped = 0
    for t in _colored_words(rng, n)[:12]:
        kappas = tl.transfer_vector(t, n)
        for _ in range(3):
            scaled = {}
            for i, kappa in kappas.items():
                if rng.random() < 0.2 and len(kappas) > 1:
                    continue
                for d in rng.sample(orders, min(2, len(orders))):
                    kappa = kappa * _phi4(d) ** rng.randint(0, 3)
                scaled[i] = kappa
            if not scaled:
                continue
            quarters = _quarter_forms(scaled)
            gammas = cyclotomic.reduced_gammas(quarters, n)
            ratios = cyclotomic.reduced_ratios(quarters, n)
            assert (gammas, ratios) == _referee(scaled, n), (t, n, scaled)
            stripped += sum(g.den != factors[i].num_poly for i, g in enumerate(gammas) if g)
    assert stripped > 10


def test_width_three_multiplicities_are_exercised():
    # at width 3, c_1 = Phi_4 Phi_5 / Phi_3^2 (in A^4): a ratio divides by
    # c_1 and so strips up to two copies of Phi_3(A^4)
    f = cyclotomic.bubble_factors(3)[1]
    assert (f.num, f.den) == ({4: 1, 5: 1}, {3: 2})
    assert cyclotomic.ratio_factors(3, 1, 3).num == {3: 2}
    p = LaurentPoly({4: 1, 0: 2})
    for e in range(4):
        kappas = {1: p * _phi4(3) ** e, 3: LaurentPoly({8: 1, 0: -3})}
        quarters = _quarter_forms(kappas)
        assert cyclotomic.reduced_ratios(quarters, 3) == _referee(kappas, 3)[1], e


@pytest.mark.parametrize("n", (2, 3))
def test_diagram_coordinates_through_the_threaded_closure(n):
    # a diagram's kappa_i are read off its threaded closure and reduced by
    # the same tables; the referee divides the Chebyshev coordinates
    diagrams = [clasp_single(), clasp_double(), clasp_around_right()]
    diagrams += [rational_to_diagram(RationalTangle.from_entries(*e)) for e in ((0,), (2, -1), (1, 1, 1))]
    if n == 3:
        diagrams = diagrams[2:]
    for d in diagrams:
        coords = chebyshev_convert(colored_closure(d, n))
        kappas = {i: c.as_laurent() for i, c in enumerate(coords[::2]) if c}
        gammas, ratios = tl.colored_invariants(d, n)
        assert (gammas, ratios) == _referee(kappas, n), (d, n)
        assert tl.colored_expand(d, n) == gammas


def test_colored_invariants_take_no_normalization(monkeypatch):
    # past the cached tables, the coordinates and ratios of twist words,
    # and the closures in both bases, reduce nothing
    rng = random.Random(270)
    cases = [(t, n) for n in (1, 2, 3, 5) for t in _colored_words(rng, n)[:10]]
    for n in (1, 2, 3, 5):
        tl.colored_invariants(RationalTangle.from_entries(2), n)
        for i in range(n):
            cyclotomic.ratio_factors(n, i, n)

    def refuse(*args):
        raise AssertionError("normalization called")

    monkeypatch.setattr(RatFunc, "normalized", staticmethod(refuse))
    monkeypatch.setattr(tl, "normalize_over", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, n in cases:
            tl.colored_invariants(t, n)
            colored_closure_bases(t, n)
            closure_bases(t)


@pytest.mark.parametrize("n", range(1, tl.MAX_TWIST_WIDTH + 1))
def test_bubble_factors_multiply_back_to_the_bubble_ratios(n):
    # the unit and the multisets of Phi_d(A^4) of each c_i give back
    # recoupling.bubble_ratio(n, i), and c_n = 1
    from tanglekit import recoupling

    for i, f in enumerate(cyclotomic.bubble_factors(n)):
        num, den = LaurentPoly.monomial(f.shift, f.sign), LaurentPoly.one()
        for d, m in f.num.items():
            num = num * _phi4(d) ** m
        for d, m in f.den.items():
            den = den * _phi4(d) ** m
        assert not set(f.num) & set(f.den)
        assert RatFunc(num, den) == recoupling.bubble_ratio(n, i), (n, i)
    top = cyclotomic.bubble_factors(n)[n]
    assert (top.sign, top.shift, top.num, top.den) == (1, 0, {}, {})
    assert recoupling.bubble_ratio(n, n) == ONE


def test_corrupted_bubble_data_are_refused(monkeypatch, fresh_caches):
    # bubble ratios that the factor tables do not reproduce, here c_1 of
    # width 3 with one copy of Phi_3(A^4) fewer, are refused with the width
    from tanglekit import recoupling

    bubble_ratio = recoupling.bubble_ratio

    def corrupted(n, i):
        c = bubble_ratio(n, i)
        return c * RatFunc.from_laurent(_phi4(3)) if (n, i) == (3, 1) else c

    monkeypatch.setattr(recoupling, "bubble_ratio", corrupted)
    tl.colored_invariants(RationalTangle.from_entries(3, 2), 2)
    with pytest.raises(ValueError, match="colored coordinates at cable width 3: .* c_1"):
        tl.colored_invariants(RationalTangle.from_entries(3, 2), 3)


def test_reduction_tables_build_no_projector(fresh_caches):
    # the factor tables come from the recoupling counts alone, quickly
    for n in range(1, tl.MAX_TWIST_WIDTH + 1):
        tl._transfer_data(n)
        start = time.perf_counter()
        cyclotomic.bubble_factors(n)
        for i in range(n):
            cyclotomic.ratio_factors(n, i, n)
        assert time.perf_counter() - start < 0.05, n
    assert _empty(ENGINE_CACHES)


def test_a_coordinate_outside_one_class_is_refused():
    with pytest.raises(ValueError, match="one class mod 4"):
        _quarter_forms({0: LaurentPoly({0: 1, 2: 1})})
