"""Solid-torus closures, the Chebyshev basis, link classification, and
colored closure invariants."""

import random

import pytest

from tanglekit import annulus, engine, threaded, tl
from tanglekit.bracket import bracket_vector
from tanglekit.annulus import (
    AnnulusElement,
    HomotopyType,
    chebyshev_convert,
    chebyshev_polynomial,
    closure_bracket,
    colored_closure,
    counterexample_check,
    element_closure,
    fraction_from_closure,
    gamma_ratio_invariants,
    homotopy_type,
    link_fraction,
    links_equivalent,
    solid_torus_closure,
)
from tanglekit.rationals import ExtRational, canonical_form
from tanglekit.ring import LaurentPoly, RatFunc, _from_dense
from tanglekit.tangles import (
    PlanarTangleDiagram,
    RationalTangle,
    build_rational,
    clasp_around_right,
    clasp_double,
    clasp_single,
    random_twist_vector,
    rational_to_diagram,
)

ONE = RatFunc.one()
ZERO = RatFunc.zero()
A = RatFunc.from_laurent(LaurentPoly.variable())
DELTA = RatFunc.from_laurent(LaurentPoly({2: -1, -2: -1}))

INF = RationalTangle.infinity()
ZERO_T = RationalTangle.from_entries(0)
ONE_T = RationalTangle.from_entries(1)


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------

def test_element_drops_zero_coefficients():
    e = AnnulusElement({0: ONE, 2: ZERO})
    assert e.coeffs == {0: ONE}
    assert e.coefficient(2) == ZERO
    assert AnnulusElement.zero().is_zero


def test_element_keeps_numerators_over_one_denominator():
    u = RatFunc.normalized(LaurentPoly.one(), LaurentPoly({0: 1, 4: 1}))
    v = RatFunc.normalized(LaurentPoly.variable(), LaurentPoly({0: 1, 4: 1, 8: 1}))
    e = AnnulusElement({0: u, 3: v})
    assert e.den == LaurentPoly({0: 1, 4: 1}) * LaurentPoly({0: 1, 4: 1, 8: 1})
    assert sorted(e.coeffs) == [0, 3] and list(e.coeffs.values()) == [u, v]
    assert e.coeffs is e.coeffs
    with pytest.raises(TypeError):
        e.coeffs[1] = ONE
    assert e.scale(u.inverse()).coefficient(0) == ONE
    assert hash(e - e) == hash(AnnulusElement.zero())


def test_skein_elements_share_one_canonical_form():
    shared = {"__add__", "__neg__", "__sub__", "scale", "__eq__", "__hash__", "coefficient"}
    for cls in (tl.TLElement, AnnulusElement):
        assert not shared & set(vars(cls))
    # equal numerators in different spaces: a strand, a cap, a cup, a constant
    strand, cap, cup = (tl.TLElement(top, 2 - top, {(1, 0): ONE}) for top in (1, 2, 0))
    assert strand.nums == cap.nums == cup.nums
    assert strand != cap and cap != cup and cup != strand and strand != AnnulusElement({0: ONE})


def test_element_rejects_negative_powers():
    with pytest.raises(ValueError):
        AnnulusElement({-1: ONE})


def test_element_arithmetic():
    x = AnnulusElement({0: ONE, 2: A})
    y = AnnulusElement({2: -A, 3: ONE})
    assert x + y == AnnulusElement({0: ONE, 3: ONE})
    assert x - x == AnnulusElement.zero()
    assert x.scale(DELTA).coefficient(2) == A * DELTA


# ---------------------------------------------------------------------------
# Closure of rational tangles
# ---------------------------------------------------------------------------

def test_closure_of_crossingless_tangles():
    assert closure_bracket(INF) == AnnulusElement({0: DELTA})
    assert closure_bracket(ZERO_T) == AnnulusElement({2: ONE})


def test_closure_of_single_crossing():
    # alpha*delta + beta*z^2 with bracket coordinates (A, A^-1)
    expected = AnnulusElement({0: A * DELTA, 2: A.inverse()})
    assert closure_bracket(ONE_T) == expected


def test_closure_formula_matches_state_sum_oracle():
    rng = random.Random(101)
    seen = 0
    while seen < 8:
        t = build_rational(random_twist_vector(rng, 4, 3))
        if sum(abs(a) for a in t.tv.entries) > 10:
            continue
        seen += 1
        assert closure_bracket(rational_to_diagram(t)) == closure_bracket(t)


def test_closure_of_elements_matches_formula():
    for t in (INF, ZERO_T, ONE_T, RationalTangle.from_entries(2, 1)):
        assert element_closure(tl.state_sum(rational_to_diagram(t))) == closure_bracket(t)


# ---------------------------------------------------------------------------
# Chebyshev basis
# ---------------------------------------------------------------------------

def test_chebyshev_small_polynomials():
    assert chebyshev_polynomial(0) == AnnulusElement({0: ONE})
    assert chebyshev_polynomial(1) == AnnulusElement({1: ONE})
    assert chebyshev_polynomial(2) == AnnulusElement({2: ONE, 0: -ONE})
    assert chebyshev_polynomial(3) == AnnulusElement({3: ONE, 1: RatFunc.from_scalar(-2)})


def test_a_negative_chebyshev_index_is_refused():
    # the recurrence list is indexed by k: a negative k read back the last
    # entries built, z in a fresh process and S_5 after S_5
    chebyshev_polynomial(5)
    for k in (-1, -2):
        with pytest.raises(ValueError, match="Chebyshev index must be nonnegative, got"):
            chebyshev_polynomial(k)


def test_chebyshev_conversion_pins():
    z2 = AnnulusElement({2: ONE})
    assert chebyshev_convert(z2) == [ONE, ZERO, ONE]
    z3 = AnnulusElement({3: ONE})
    assert chebyshev_convert(z3) == [ZERO, RatFunc.from_scalar(2), ZERO, ONE]
    assert chebyshev_convert(AnnulusElement({0: ONE})) == [ONE]
    assert chebyshev_convert(AnnulusElement.zero()) == []


def test_chebyshev_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        coeffs = {}
        for k in range(rng.randint(1, 11)):
            c = LaurentPoly.monomial(rng.randint(-4, 4), rng.randint(-5, 5))
            if not c.is_zero:
                coeffs[k] = RatFunc.from_laurent(c)
        e = AnnulusElement(coeffs)
        assert AnnulusElement.from_chebyshev(chebyshev_convert(e)) == e


def _full_chebyshev_convert(e):
    """chebyshev_convert as it was before it skipped the top term of S_k."""
    if e.is_zero:
        return []
    work = dict(e.coeffs)
    coords = [ZERO] * (max(work) + 1)
    for k in range(len(coords) - 1, -1, -1):
        c = work.get(k)
        if c is None:
            continue
        coords[k] = c
        for exp, s in annulus._chebyshev_coeffs(k).items():
            v = work.get(exp, ZERO) - c * s
            if v.is_zero:
                work.pop(exp, None)
            else:
                work[exp] = v
    return coords


def test_chebyshev_convert_matches_the_full_subtraction():
    rng = random.Random(43)

    def poly():
        return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})

    elements = []
    while len(elements) < 30:
        coeffs = {}
        for k in rng.sample(range(9), rng.randint(1, 5)):
            num, den = poly(), poly() + LaurentPoly.monomial(rng.randint(0, 3), 7)
            if not den.is_zero:
                coeffs[k] = RatFunc.normalized(num, den)
        e = AnnulusElement(coeffs)
        if len({c.den for c in e.coeffs.values()}) > 1:
            elements.append(e)
    # closures of the projectors, whose z-coefficients have unequal
    # denominators, and colored closures
    for m in (2, 4, 6):
        e = element_closure(tl.jones_wenzl(m).element)
        assert len({c.den for c in e.coeffs.values()}) > 1
        elements.append(e)
    for n, words in ((2, [(2, -1), (1, 1, 1), (3,), (-2, 3, 2)]), (3, [(2, -1), (1,), (0,)]),
                     (4, [(2, -1), (1, 1), (-3,)])):
        elements += [colored_closure(RationalTangle.from_entries(*w), n) for w in words]
    for e in elements:
        assert chebyshev_convert(e) == _full_chebyshev_convert(e)


def test_colored_closure_is_canonical_as_built():
    # the S_2i sums over the denominator 1 share no factor with it, so
    # reducing them again changes no field, and the Chebyshev
    # coordinates are the replay's
    rng = random.Random(16)

    def check(t, n):
        e = colored_closure(t, n)
        reduced = AnnulusElement._reduced(dict(e.nums), e.den)
        assert (reduced.nums, reduced.den) == (e.nums, e.den), (t, n)
        kappas = tl.transfer_vector(t, n)
        coords = chebyshev_convert(e)
        assert coords[::2] == [RatFunc.from_laurent(kappas.get(i, LaurentPoly.zero()))
                               for i in range(len(coords[::2]))]
        assert not any(coords[1::2])

    for n in (2, 3, 4, 5):
        words = [INF, ZERO_T, RationalTangle.from_entries(2, 0)]
        words += [build_rational(random_twist_vector(rng, 4, 3)) for _ in range(8)]
        for t in words:
            check(t, n)


def test_closure_forms_alpha_delta_by_shifts():
    rng = random.Random(44)
    for _ in range(200):
        t = build_rational(random_twist_vector(rng, 6, 6))
        alpha = bracket_vector(t).alpha
        assert closure_bracket(t).coefficient(0) == RatFunc.from_laurent(alpha * DELTA.num)


# ---------------------------------------------------------------------------
# Link classification
# ---------------------------------------------------------------------------

def test_link_fraction_pins():
    assert link_fraction(solid_torus_closure(RationalTangle.from_entries(-2, 3, 2))) == ExtRational(12, 5)
    assert link_fraction(solid_torus_closure(RationalTangle.from_entries(3, 2, -3))) == ExtRational(-18, 7)
    assert link_fraction(solid_torus_closure(ZERO_T)) == ExtRational.zero()


def test_fraction_recoverable_from_closure():
    for t in (INF, ZERO_T, ONE_T,
              RationalTangle.from_entries(-2, 3, 2),
              RationalTangle.from_entries(3, 2, -3)):
        assert fraction_from_closure(closure_bracket(t)) == t.fraction


def test_equivalence_of_isotopic_pair():
    left = solid_torus_closure(RationalTangle.from_entries(-2, 3, 2))
    right = solid_torus_closure(RationalTangle.from_entries(3, -2, 3))
    assert links_equivalent(left, right)
    assert not links_equivalent(left, solid_torus_closure(ONE_T))
    assert not links_equivalent(solid_torus_closure(ONE_T), solid_torus_closure(ZERO_T))


def test_equivalence_with_canonical_form():
    rng = random.Random(19)
    for _ in range(15):
        t = build_rational(random_twist_vector(rng, 5, 3))
        f = t.fraction
        if f.q == 0:
            continue
        canon = build_rational(canonical_form(f))
        assert links_equivalent(solid_torus_closure(t), solid_torus_closure(canon))


def test_homotopy_type_anchors():
    assert homotopy_type(solid_torus_closure(INF)) == HomotopyType.TWO_COMPONENT
    assert homotopy_type(solid_torus_closure(ZERO_T)) == HomotopyType.TRIVIAL_KNOT
    assert homotopy_type(solid_torus_closure(ONE_T)) == HomotopyType.WINDING_KNOT
    twelve_fifths = solid_torus_closure(RationalTangle.from_entries(-2, 3, 2))
    assert homotopy_type(twelve_fifths) == HomotopyType.TRIVIAL_KNOT


def test_equivalent_links_share_homotopy_type():
    rng = random.Random(29)
    for _ in range(15):
        t = build_rational(random_twist_vector(rng, 5, 3))
        f = t.fraction
        if f.q == 0:
            continue
        canon = build_rational(canonical_form(f))
        a, b = solid_torus_closure(t), solid_torus_closure(canon)
        assert homotopy_type(a) == homotopy_type(b)


# ---------------------------------------------------------------------------
# Colored closures
# ---------------------------------------------------------------------------

def test_basis_closure_pins():
    basis = tl.bni_basis(1)
    assert element_closure(basis[0]) == AnnulusElement({0: DELTA})
    assert element_closure(basis[1]) == chebyshev_polynomial(2)


def test_basis_closure_is_bubble_ratio_times_chebyshev():
    for n in (1, 2):
        basis = tl.bni_basis(n)
        for i in range(n + 1):
            q = tl.quantum_coeffs(n, i)
            bridge = RatFunc.from_laurent(tl._delta_poly(2 * i))
            expected = chebyshev_polynomial(2 * i).scale(q.theta / bridge)
            assert element_closure(basis[i]) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_basis_closures_equal_the_engine(n):
    # the referee closes every basis element of TL_2n around the core:
    # b_i closes to c_i S_2i, so the fusion basis b_i / c_i of the replay
    # closes to S_2i
    bubbles = tl._transfer_data(n)[3]
    for i, b in enumerate(tl.bni_basis(n)):
        assert element_closure(b) == chebyshev_polynomial(2 * i).scale(bubbles[i])


@pytest.mark.parametrize("n", range(1, tl.MAX_TWIST_WIDTH + 1))
def test_replay_coordinates_are_the_chebyshev_coordinates_of_the_closure(n):
    # the [0] start is the fusion identity, all ones
    one = LaurentPoly.one()
    assert tl._transfer_data(n)[0]["0"] == {i: one for i in range(n + 1)}
    rng = random.Random(53 + n)
    words = [RationalTangle.from_entries(0), RationalTangle.infinity()]
    words += [build_rational(random_twist_vector(rng, *((4, 3) if n <= 4 else (3, 2))))
              for _ in range(8)]
    for t in words:
        kappas = tl.transfer_vector(t, n)
        # the replay coordinates are integral (transfer_vector)
        assert all(type(c) is int for k in kappas.values() for c in k.coeffs.values()), t
        coords = chebyshev_convert(colored_closure(t, n))
        coords += [ZERO] * (2 * n + 1 - len(coords))
        expected = [RatFunc.from_laurent(kappas.get(i, LaurentPoly.zero())) for i in range(n + 1)]
        assert coords[::2] == expected and not any(coords[1::2]), t


def test_colored_closure_of_infinity():
    assert colored_closure(INF, 1) == AnnulusElement({0: DELTA})
    # at width n the closure of [inf] is the n-projector loop value
    d2 = tl.quantum_coeffs(2, 0).delta
    assert colored_closure(INF, 2) == AnnulusElement({0: d2})


def test_colored_closure_single_cable_is_bracket_closure():
    rng = random.Random(41)
    seen = 0
    while seen < 8:
        t = build_rational(random_twist_vector(rng, 4, 2))
        if sum(abs(a) for a in t.tv.entries) > 8:
            continue
        seen += 1
        assert colored_closure(t, 1) == closure_bracket(t)


def _theta_referee(t, n):
    """The colored closure assembled from the colored expansion: basis
    element i closes into (theta(n,n,2i)/Delta_2i) * S_2i."""
    total = AnnulusElement.zero()
    for i, g in enumerate(tl.colored_expand(t, n)):
        q = tl.quantum_coeffs(n, i)
        bridge = RatFunc.from_laurent(tl._delta_poly(2 * i))
        total = total + chebyshev_polynomial(2 * i).scale(g * q.theta / bridge)
    return total


def test_colored_closure_matches_theta_referee():
    rng = random.Random(47)
    cases = [(INF, 1), (ZERO_T, 2)]
    while len(cases) < 14:
        t = build_rational(random_twist_vector(rng, 3, 3))
        if sum(abs(a) for a in t.tv.entries) <= 5:
            cases.append((t, 1 + len(cases) % 2))
    cases += [(RationalTangle.from_entries(2), 3), (RationalTangle.from_entries(1, -1), 3)]
    for t, n in cases:
        assert colored_closure(t, n) == _theta_referee(t, n), (t, n)


def test_colored_closure_matches_the_threaded_closure():
    # the replay's closure against the threaded closure of the word's
    # diagram, which builds no projector and takes no replay data
    rng = random.Random(97)
    cases = [(build_rational(random_twist_vector(rng, 4, 3)), 1) for _ in range(200)]
    cases += [(build_rational(random_twist_vector(rng, 3, 3)), 2) for _ in range(40)]
    fixed = [RationalTangle.from_entries(*e) for e in ((1,), (-1,), (2, -1), (1, 1), (0,))]
    fixed.append(INF)
    cases += [(t, 3) for t in fixed]
    for t, n in cases:
        referee = colored_closure(rational_to_diagram(t), n)
        assert colored_closure(t, n) == referee, (t, n)


# ---------------------------------------------------------------------------
# Threaded closures of diagrams
# ---------------------------------------------------------------------------

def _engine_cases():
    """Diagrams whose n-cables fit under the oracle's 16-crossing cap:
    22 random rational diagrams at widths 1 to 3, the [0] diagram with a
    crossingless closed loop, and the clasps where they fit."""
    rng = random.Random(23)
    cases = []
    for n, most in ((1, 8), (2, 3)):
        picked = 0
        while picked < 10:
            d = rational_to_diagram(build_rational(random_twist_vector(rng, 4, 3)))
            if d.crossing_count <= most:
                cases.append((d, n))
                picked += 1
    cases += [(rational_to_diagram(RationalTangle.from_entries(a)), 3) for a in (1, -1)]
    zero = rational_to_diagram(ZERO_T)
    cases.append((PlanarTangleDiagram(zero.crossings, zero.arcs, zero.boundary, (0,)), 2))
    cases += [(d, 1) for d in (clasp_single(), clasp_double(), clasp_around_right())]
    cases.append((clasp_around_right(), 2))
    return cases


def _check_threaded_against_the_engine():
    for d, n in _engine_cases():
        x = tl.colored_element(d, n)
        assert tl.colored_expand(d, n) == engine._read_coordinates(x, n), (d.crossings, n)
        assert colored_closure(d, n) == element_closure(x), (d.crossings, n)


def test_threaded_closure_matches_the_engine_referee():
    # the cabled state sum between projector frames, in TL_2n, against
    # the threaded closure, which builds neither
    _check_threaded_against_the_engine()


def _check_replay_against_the_threaded_closure(n):
    # [1 1] adds a bottom run where it stays quick
    words = [(1,), (-1,)] + [(1, 1)] * (n <= 5)
    for w in words:
        t = RationalTangle.from_entries(*w)
        assert colored_closure(t, n) == colored_closure(rational_to_diagram(t), n), (w, n)


@pytest.mark.parametrize("n", range(4, tl.MAX_TWIST_WIDTH + 1))
def test_replay_matches_the_threaded_closure_past_the_engine(n):
    # no projector exists at these widths: the replay's closed-form data
    # are checked against integer sums of annular brackets of cables
    _check_replay_against_the_threaded_closure(n)


def test_a_wrong_sign_in_the_threading_is_caught(monkeypatch):
    # S_5 = z^5 - 4 z^3 + 3 z; the replay's closure reads only the S_2i
    real = annulus._chebyshev_coeffs

    def flipped(k):
        return {e: -c if (k, e) == (5, 3) else c for e, c in real(k).items()}

    monkeypatch.setattr(annulus, "_chebyshev_coeffs", flipped)
    with pytest.raises(AssertionError):
        _check_replay_against_the_threaded_closure(5)


def test_a_threaded_closed_component_is_caught(monkeypatch):
    # hide the closed components of an open diagram, so that the loop of
    # clasp_around_right is threaded like a strand through a corner
    real = threaded.components
    monkeypatch.setattr(threaded, "components",
                        lambda d: [c for c in real(d) if c["boundary"] or not d.boundary])
    with pytest.raises(AssertionError):
        _check_threaded_against_the_engine()


def test_clasp_colored_closures_agree():
    # criterion 10's pair: equal closures, left linking numbers 1 and 2;
    # their cables at widths 2 and 3 (24 and 54 crossings) are past the
    # oracle's cap, and the colored closures agree there too
    for n in (2, 3):
        single = colored_closure(clasp_single(), n)
        assert not single.is_zero
        assert single == colored_closure(clasp_double(), n)


def test_gamma_ratios_pins():
    assert gamma_ratio_invariants(AnnulusElement({0: DELTA})) == []
    assert gamma_ratio_invariants(AnnulusElement({2: ONE})) == [ONE, ZERO]
    with pytest.raises(ValueError):
        gamma_ratio_invariants(AnnulusElement.zero())


def test_gamma_ratios_agree_for_isotopic_pair():
    left = gamma_ratio_invariants(colored_closure(RationalTangle.from_entries(-2, 3, 2), 2))
    right = gamma_ratio_invariants(colored_closure(RationalTangle.from_entries(3, -2, 3), 2))
    assert left == right


# ---------------------------------------------------------------------------
# The counterexample tangles
# ---------------------------------------------------------------------------

def test_counterexample_report():
    report = counterexample_check()
    assert report.llk_single == 1
    assert report.llk_double == 2
    assert report.tangles_distinguished
    assert report.closures_equal
    assert not report.closure_single.is_zero


@pytest.mark.parametrize("n", range(1, tl.MAX_TWIST_WIDTH + 1))
def test_closure_forms_are_the_replay_and_the_sum_of_its_chebyshev_terms(n):
    # _closure_forms writes every closure line and builds every closure
    # object of a twist word.  Its kappa forms must be the coordinates of
    # transfer_vector (at width 1 the general replay referees the bracket
    # digits: alpha delta + beta cancels at the low digit of [1] and at the
    # top digit of [-4], and leaves zero low digits where alpha = 0), and
    # its z forms the coefficients of the sum of kappa_i S_2i, formed apart
    # by AnnulusElement.from_chebyshev
    rng = random.Random(290 + n)
    words = [RationalTangle.from_entries(*e) for e in
             ((1,), (-4,), (1, -1), (-1, 1, 5, -1, 1), (2, 0), (0,), (1,) * 12)]
    words += [INF] + [build_rational(random_twist_vector(rng, *((4, 3) if n <= 4 else (3, 2))))
                      for _ in range(12)]
    seen = set()
    for t in words:
        word = tl.colored_twist_word(t, n)
        zs, kappas = annulus._closure_forms(word, n)
        replay = tl.transfer_vector(word, n)
        assert len(kappas) == max(replay) + 1, t
        for i, f in enumerate(kappas):
            assert (_from_dense(*f, 4) if f else None) == replay.get(i), (t, i)
        e = AnnulusElement.from_chebyshev(
            [RatFunc.from_laurent(replay[k // 2]) if k % 2 == 0 and k // 2 in replay else ZERO
             for k in range(2 * len(kappas) - 1)])
        assert [k for k, _ in zs] == sorted(e.coeffs), t
        for k, f in zs:
            assert RatFunc.from_laurent(_from_dense(*f, 4)) == e.coefficient(k), (t, k)
        assert zs[-1][1] is kappas[-1]
        for _, _, digits in filter(None, kappas):
            if digits[0] == 0:
                seen.add("zero low digit")
            if digits[-1] == 0:
                seen.add("zero top digit")
    if n == 1:
        assert seen == {"zero low digit", "zero top digit"}


@pytest.mark.parametrize("n", range(1, tl.MAX_TWIST_WIDTH + 1))
def test_closure_bases_are_the_closure_and_its_chebyshev_coordinates(n):
    # the Chebyshev coordinates of twist words come from the replay (or,
    # at width 1, from alpha and beta) with no back-substitution; the
    # back-substitution referees them, on diagrams too
    rng = random.Random(280 + n)
    words = [RationalTangle.from_entries(0), INF, RationalTangle.from_entries(0, 3),
             RationalTangle.from_entries(1), RationalTangle.from_entries(*[1] * 12)]
    words += [build_rational(random_twist_vector(rng, *((4, 3) if n <= 4 else (3, 2))))
              for _ in range(10)]
    words += [tl.colored_twist_word(RationalTangle.from_entries(2, -1), n)]
    if n <= 2:
        words += [clasp_single(), rational_to_diagram(RationalTangle.from_entries(2, -1))]
    for t in words:
        e = colored_closure(t, n)
        assert annulus.colored_closure_bases(t, n) == (e, chebyshev_convert(e)), (t, n)
        if n == 1:
            e = closure_bracket(t)
            assert annulus.closure_bases(t) == (e, chebyshev_convert(e)), t
