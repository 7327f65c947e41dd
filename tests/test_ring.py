"""Scalar tower: Laurent polynomials and rational functions."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from tanglekit import ring, tl
from tanglekit.bracket import bracket_vector
from tanglekit.ring import (
    LaurentPoly,
    RatFunc,
    _common_forms,
    _dense_str,
    _digits,
    _exact_quotient,
    _from_dense,
    _gcd_cofactors,
    _heuristic_gcd,
    _pack,
    _poly_gcd,
    _primitive,
    _to_dense,
    normalize_over,
    poly_dot,
    poly_exact_div,
    poly_lcm,
)
from tanglekit.tangles import RationalTangle, random_twist_vector
from test_tl import _twist_diagonal

A = LaurentPoly.variable()
DELTA = -(A ** 2) - LaurentPoly.monomial(-2)


def random_poly(rng, span=4, terms=4):
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        coeffs[rng.randint(-span, span)] = rng.randint(-12, 12)
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# LaurentPoly
# ---------------------------------------------------------------------------

def test_loop_value_square():
    assert str(DELTA * DELTA) == "A^4 + 2 + A^-4"


def test_delta_powers_and_a_negative_loop_count():
    # the powers are a list indexed by k: a negative k read back the last
    # power built, 1 in a fresh process and DELTA^4 after DELTA^4
    assert ring.delta_power(4) == DELTA ** 4 and ring.delta_power(0) == LaurentPoly.one()
    for k in (-1, -2):
        with pytest.raises(ValueError, match="loop count must be nonnegative, got"):
            ring.delta_power(k)


def test_str_formatting():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    p = -(A ** 3) + 2 + LaurentPoly.monomial(-2)
    assert str(p) == "-A^3 + 2 + A^-2"
    assert str(LaurentPoly.monomial(2, 3)) == "3*A^2"
    assert str(A) == "A"
    assert str(-A) == "-A"
    assert str(DELTA) == "-A^2 - A^-2"


def _two_pass_str(p):
    """LaurentPoly.__str__ as it was before the one-pass renderer."""
    if not p.coeffs:
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "A" if e == 1 else f"A^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def test_str_matches_the_two_pass_renderer():
    rng = random.Random(35)
    coefficient = (
        lambda: rng.choice([1, -1]),
        lambda: rng.randint(-10 ** 6, 10 ** 6),
    )
    polys = [LaurentPoly({e: c}) for e in (-1, 0, 1, 5) for c in (-1, -3)]
    for _ in range(400):
        polys.append(LaurentPoly({
            rng.randint(-3, 3): rng.choice(coefficient)() for _ in range(rng.randint(0, 6))
        }))
    for p in polys:
        assert str(p) == _two_pass_str(p)


def test_dense_str_is_the_string_of_the_written_polynomial():
    # inner and end zeros, both signs, exponents crossing 0 and 1, and
    # coefficients +-1 against the str of the LaurentPoly written out
    pins = {(-1, -1, (1, 0, -1), 1): "A - A^-1", (-3, -1, (0, -1, 5), 4): "-5*A^5 + A",
            (0, 1, (), 4): "0", (2, -1, (0, 0), 4): "0", (0, 1, (-1, 1), 1): "A - 1"}
    for args, text in pins.items():
        assert _dense_str(*args) == str(_from_dense(*args)) == text
    rng = random.Random(46)
    for _ in range(600):
        step = rng.choice((1, 2, 4))
        digits = tuple(rng.choice((0, 0, 1, -1, rng.randint(-10 ** 6, 10 ** 6)))
                       for _ in range(rng.randint(0, 8)))
        args = (rng.randint(-6, 2), rng.choice((1, -1)), digits, step)
        assert _dense_str(*args) == str(_from_dense(*args)), args


def test_pow_and_shift():
    assert A ** 0 == LaurentPoly.one()
    assert (A + 1) ** 2 == A ** 2 + 2 * A + 1
    assert A.shift(-3) == LaurentPoly.monomial(-2)
    with pytest.raises(ValueError):
        A ** -1


def test_invert_variable():
    p = 3 * A ** 2 - LaurentPoly.monomial(-1, 5)
    q = p.invert_variable()
    assert q == 3 * LaurentPoly.monomial(-2) - 5 * A
    assert q.invert_variable() == p


def test_ring_axioms_random():
    rng = random.Random(20260814)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_coefficients_are_integers():
    for c in (Fraction(1, 2), Fraction(6, 2), 0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})
    with pytest.raises(TypeError):
        LaurentPoly.from_scalar(Fraction(1, 2))
    assert LaurentPoly({0: True, 1: -3}).coeffs == {0: 1, 1: -3}


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

def test_normalize_monomial_cancellation():
    r = RatFunc.normalized(A ** 2, A)
    assert r == RatFunc.from_laurent(A)
    assert str(r) == "A"


def test_normalize_common_factor():
    r = RatFunc.normalized(DELTA * A ** 3, DELTA)
    assert r == RatFunc.from_laurent(A ** 3)


def test_normalize_zero_numerator():
    r = RatFunc.normalized(LaurentPoly.zero(), DELTA)
    assert r.is_zero
    assert r == RatFunc.zero()


def test_normalize_denominator_shape():
    # 1/delta: denominator becomes an ordinary polynomial with positive
    # constant term.
    r = RatFunc.one() / RatFunc.from_laurent(DELTA)
    assert r.den.min_exp() == 0
    assert r.den.coeffs[0] > 0
    assert str(r) == "(-A^2)/(A^4 + 1)"


def test_same_value_same_representative():
    rng = random.Random(99)
    for _ in range(40):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        if q.is_zero or r.is_zero:
            continue
        a = RatFunc.normalized(p * r, q * r)
        b = RatFunc.normalized(p, q)
        assert a == b


def test_field_operations():
    x = RatFunc.normalized(A + 1, A - 1)
    y = RatFunc.normalized(LaurentPoly.one(), A)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * x.inverse() == RatFunc.one()
    with pytest.raises(ZeroDivisionError):
        x / RatFunc.zero()


def test_rational_scalars_are_constant_quotients():
    half = RatFunc.from_scalar(Fraction(1, 2))
    assert (half.num.coeffs, half.den.coeffs) == ({0: 1}, {0: 2})
    assert str(half) == "(1)/(2)"
    assert half * 2 == RatFunc.one() and 2 * half == RatFunc.one()
    assert half + half == RatFunc.one()
    assert RatFunc.from_scalar(Fraction(-6, 4)) == RatFunc(LaurentPoly({0: -3}), LaurentPoly({0: 2}))
    assert RatFunc.from_scalar(Fraction(3)) == RatFunc.from_scalar(3) == RatFunc.from_laurent(LaurentPoly({0: 3}))
    assert RatFunc.from_scalar(Fraction(0)) == RatFunc.zero()
    assert RatFunc.from_laurent(A + 1) / 2 == RatFunc(A + 1, LaurentPoly({0: 2}))
    # an integer content is a common factor like any other
    r = RatFunc.normalized(6 * A + 6, 4 * A + 8)
    assert (r.num, r.den) == (3 * A + 3, 2 * A + 4)
    assert str(r) == "(3*A + 3)/(2*A + 4)"
    r = RatFunc.normalized(LaurentPoly({0: -4}), 6 * A ** 2)
    assert (r.num.coeffs, r.den.coeffs) == ({-2: -2}, {0: 3})


def test_as_laurent():
    assert RatFunc.from_laurent(A ** 2).as_laurent() == A ** 2
    with pytest.raises(ValueError):
        (RatFunc.one() / RatFunc.from_laurent(A + 1)).as_laurent()


# ---------------------------------------------------------------------------
# Referee: monic Euclid over Q with Fraction coefficients
# ---------------------------------------------------------------------------

def _ref_divmod(a, b):
    a = {e: Fraction(c) for e, c in a.items()}
    db = max(b)
    q = {}
    while a and max(a) >= db:
        da = max(a)
        f = a[da] / Fraction(b[db])
        q[da - db] = f
        for e, c in b.items():
            k = e + da - db
            s = a.get(k, 0) - f * c
            if s:
                a[k] = s
            else:
                a.pop(k, None)
    return q, a


def _ref_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm."""
    a, b = dict(a), dict(b)
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, r
    if not a:
        return {}
    lead = Fraction(a[max(a)])
    return {e: c / lead for e, c in a.items()}


def _ref_content(values):
    """The positive rational c with values / c coprime integers."""
    num, den = 0, 1
    for c in values:
        c = Fraction(c)
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def _ref_normalized(num, den):
    """Canonical (num, den) coefficient dicts, computed over Q: the
    quotients by the monic gcd, scaled to coprime integers with a
    positive constant term in the denominator."""
    sn, sd = num.min_exp(), den.min_exp()
    n = {e - sn: c for e, c in num.coeffs.items()}
    d = {e - sd: c for e, c in den.coeffs.items()}
    g = _ref_gcd(n, d)
    n, _ = _ref_divmod(n, g)
    d, _ = _ref_divmod(d, g)
    scale = _ref_content([*n.values(), *d.values()]) * (1 if d[min(d)] > 0 else -1)
    return (
        {e + sn - sd: c / scale for e, c in n.items()},
        {e: c / scale for e, c in d.items()},
    )


def _ordinary(rng, degree=4, content=1):
    """A random ordinary integer polynomial times content."""
    coeffs = {}
    for e in range(rng.randint(0, degree) + 1):
        c = rng.randint(-9, 9)
        if c:
            coeffs[e] = c * content
    return coeffs


def _some_content(rng, primitive):
    return 1 if primitive else rng.choice((2, 3, 6, -4, 10))


def _times(a, b):
    return (LaurentPoly(a) * LaurentPoly(b)).coeffs


def _dense(p: dict) -> list:
    """An ordinary polynomial {exponent: coefficient} in the dense form of
    the ring's helpers, lowest coefficient first."""
    return [p.get(e, 0) for e in range(max(p) + 1)] if p else []


def _sparse(g) -> dict:
    """A dense polynomial back as the dict of its nonzero coefficients."""
    return {e: c for e, c in enumerate(g) if c}


def _assert_stored_form(p):
    for e, c in p.coeffs.items():
        assert type(e) is int and type(c) is int and c


def _assert_canonical(num, den):
    """The canonical form of a RatFunc or of normalize_over: den ordinary
    with a positive constant term, and no common factor of Z[A^+-1] but a
    unit: coprime integer coefficients, and a monic gcd over Q of 1."""
    assert min(den.coeffs) == 0 and den.coeffs[0] > 0
    _assert_stored_form(den)
    coefficients = [c for v in num for c in v.coeffs.values()]
    assert gcd(*den.coeffs.values(), *coefficients) == 1
    g = dict(den.coeffs)
    for v in num:
        g = _ref_gcd(g, {e - v.min_exp(): c for e, c in v.coeffs.items()})
        _assert_stored_form(v)
    assert len(g) == 1


@pytest.mark.parametrize("primitive", [True, False])
def test_gcd_matches_monic_euclid_up_to_a_unit(primitive):
    # on primitive inputs, and on inputs with integer contents, whose gcd
    # in Z[A] (_gcd_cofactors) carries the gcd of the contents
    rng = random.Random(30 + primitive)
    for _ in range(150):
        f = _ordinary(rng, 3, _some_content(rng, primitive))
        a = _times(f, _ordinary(rng, 4, _some_content(rng, primitive)))
        b = _times(f, _ordinary(rng, 4, _some_content(rng, primitive)))
        if not a and not b:
            continue
        g = _sparse(_poly_gcd(_dense(a), _dense(b)))
        ref = _ref_gcd(a, b)
        assert g.keys() == ref.keys()
        lead = g[max(g)]
        assert lead > 0
        assert all(type(c) is int for c in g.values())
        assert gcd(*g.values()) == 1
        assert {e: Fraction(c, lead) for e, c in g.items()} == ref
        if a and b:
            g_z, quotients = _gcd_cofactors([_dense(a), _dense(b)])
            g_z, quotients = _sparse(g_z), [_sparse(q) for q in quotients]
            c = gcd(*a.values(), *b.values())
            assert g_z == {e: c * v for e, v in g.items()}
            assert [_times(g_z, q) for q in quotients] == [a, b]


def test_normalized_matches_fraction_reference():
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        primitive = rng.random() < 0.7
        f = LaurentPoly(_ordinary(rng, 2, _some_content(rng, primitive))).shift(rng.randint(-3, 3))
        num = f * LaurentPoly(_ordinary(rng, 4, _some_content(rng, primitive))).shift(rng.randint(-3, 3))
        den = f * LaurentPoly(_ordinary(rng, 4, _some_content(rng, primitive))).shift(rng.randint(-3, 3))
        if num.is_zero or den.is_zero:
            continue
        checked += 1
        r = RatFunc.normalized(num, den)
        ref_num, ref_den = _ref_normalized(num, den)
        assert (r.num.coeffs, r.den.coeffs) == (ref_num, ref_den)
        assert r.num * den == r.den * num
        _assert_canonical([r.num], r.den)


def test_coefficients_keep_the_stored_form():
    rng = random.Random(32)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        results = [p + q, p - q, p * q, -p, 2 * p, p * True]
        if not (p.is_zero or q.is_zero):
            results.append(poly_lcm(p, q))
        if not q.is_zero:
            results.append(poly_exact_div(p * q, q))
            x = RatFunc.normalized(p, q)
            results += [x.num, x.den, (x * x).num, (x + RatFunc.one()).num]
            nums, den = normalize_over({0: p, 1: q, 2: p * q}, q + 1 or A)
            results += [den, *nums.values()]
        # the callers of LaurentPoly._of, which wraps a dict unchecked
        results += [p.shift(3), p.invert_variable(), -q]
        results += _twist_diagonal({0: p, 1: q}, 2, rng.choice([-3, 1, 2])).values()
        word = random_twist_vector(rng, 5, 4)
        v = bracket_vector(RationalTangle(word))
        results += [v.alpha, v.beta]
        results += tl.transfer_vector(RationalTangle(word), 2).values()
        for r in results:
            _assert_stored_form(r)


def test_poly_dot_is_the_sum_of_the_products():
    # rows against sum(a * b), with rows that cancel to the zero
    # polynomial and empty rows
    rng = random.Random(17)

    def int_poly():
        return LaurentPoly({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))})

    for _ in range(200):
        pairs = [(int_poly(), int_poly()) for _ in range(rng.randint(0, 5))]
        if pairs and rng.random() < 0.3:
            # a row that cancels to zero, or one pair that cancels in it
            a, b = pairs[0]
            pairs = [(a, b), (-a, b)] if rng.random() < 0.5 else pairs + [(-a, b)]
        got = poly_dot(pairs)
        assert got == sum((a * b for a, b in pairs), LaurentPoly.zero())
        _assert_stored_form(got)
    assert poly_dot([]).coeffs == {}
    assert poly_dot([(A, A + 1), (-A, A + 1)]).coeffs == {}


def test_ratfunc_times_an_integer_is_already_canonical():
    # x * k is canonical as it stands unless k shares a factor with the
    # content of the denominator; then that factor cancels
    rng = random.Random(36)
    checked = 0
    while checked < 60:
        num, den = random_poly(rng), random_poly(rng)
        if rng.random() < 0.5:
            num, den = num * 6, den * 10
        if den.is_zero:
            continue
        checked += 1
        x = RatFunc.normalized(num, den)
        for k in (0, 1, -1, 7, -7, 5, -10, 15):
            expected = RatFunc.normalized(x.num * k, x.den)
            assert x * k == expected and k * x == expected
            if not expected.is_zero:
                _assert_canonical([(x * k).num], (x * k).den)


def test_long_products_divide_exactly():
    rng = random.Random(34)
    f = LaurentPoly({e: rng.randint(-9, 9) or 1 for e in range(3000)}).shift(-1500)
    binomial = A ** 4 + 1
    dense = LaurentPoly({e: rng.randint(-9, 9) for e in range(40)}) + 3 * A ** 40
    for b in (binomial, dense):
        assert poly_exact_div(f * b, b) == f
    # with a remainder (the monic referee finds one), the division is refused
    g = LaurentPoly({e: rng.randint(-9, 9) for e in range(300)})
    a = g * dense + LaurentPoly({e: rng.randint(-9, 9) for e in range(40)})
    assert _ref_divmod(a.coeffs, dense.coeffs)[1]
    with pytest.raises(ValueError, match="not exact"):
        poly_exact_div(a, dense)


def test_exact_division_splits_off_the_contents():
    # divisors and dividends whose contents are greater than 1, against
    # the Fraction referee: the division is exact only when the quotient
    # over Q has integer coefficients
    rng = random.Random(40)
    for _ in range(60):
        b = LaurentPoly(_ordinary(rng, content=rng.choice((1, 3)))) or 3 * A + 1
        q = LaurentPoly(_ordinary(rng)) or A
        cases = [(q * b, b), (q * b * 6, b * 3), (q * b * 6, b * 4)]
        b = LaurentPoly(_non_monic(rng, rng.randint(1, 8))) * rng.choice((2, 6, -15))
        q = LaurentPoly(_non_monic(rng, rng.randint(0, 8)))
        cases += [(q * b, b), (q * b * 5, b), (q * b * 5, b * 7)]
        for num, den in cases:
            sn, sd = num.min_exp(), den.min_exp()
            ref, r = _ref_divmod({e - sn: c for e, c in num.coeffs.items()},
                                 {e - sd: c for e, c in den.coeffs.items()})
            assert not r
            if any(Fraction(c).denominator != 1 for c in ref.values()):
                with pytest.raises(ValueError, match="not exact"):
                    poly_exact_div(num, den)
                continue
            got = poly_exact_div(num, den)
            assert got.coeffs == {e + sn - sd: c for e, c in ref.items()}
            _assert_stored_form(got)
    with pytest.raises(ValueError, match="not exact"):
        poly_exact_div(A + 1, LaurentPoly.from_scalar(2))
    assert poly_exact_div(2 * A + 2, LaurentPoly.from_scalar(-2)) == -A - 1


def test_exact_division_takes_an_integer_divisor():
    # as LaurentPoly arithmetic takes an int operand
    assert poly_exact_div(6 * A * A - 4, 2) == 3 * A * A - 2
    assert poly_exact_div(2 * A + 2, -2) == -A - 1
    assert poly_exact_div(LaurentPoly.zero(), 5) == LaurentPoly.zero()
    with pytest.raises(ValueError, match="not exact"):
        poly_exact_div(A + 1, 2)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(A, 0)
    for a, b, names in ((A, Fraction(1, 2), "LaurentPoly and Fraction"),
                        (A, 2.0, "LaurentPoly and float"), (4, 2, "int and int")):
        with pytest.raises(TypeError, match=f"a LaurentPoly or an int, got {names}$"):
            poly_exact_div(a, b)


def test_normalize_with_non_unit_leading_coefficients():
    # Neither leading coefficient is a unit, so a float quotient step
    # would keep the gcd loop from ever reaching a zero remainder.
    common = 2 * A + 1
    r = RatFunc.normalized(common * (3 * A + 2), common * (5 * A + 7))
    assert (r.num, r.den) == (3 * A + 2, 5 * A + 7)
    assert str(r) == "(3*A + 2)/(5*A + 7)"


def test_normalize_over_is_canonical_and_keeps_every_quotient():
    rng = random.Random(33)
    for _ in range(60):
        primitive = rng.random() < 0.7
        f = LaurentPoly(_ordinary(rng, 2, _some_content(rng, primitive)))
        den = f * LaurentPoly(_ordinary(rng, 4, _some_content(rng, primitive))).shift(rng.randint(-3, 3))
        if den.is_zero:
            continue
        # sometimes every numerator shares the factor f with den
        shared = f if rng.random() < 0.5 else LaurentPoly.one()
        nums = {k: shared * LaurentPoly(_ordinary(rng, 4, _some_content(rng, primitive)))
                .shift(rng.randint(-3, 3)) for k in range(rng.randint(1, 4))}
        nums[99] = LaurentPoly.zero()
        out, d = normalize_over(nums, den)
        assert set(out) == {k for k, v in nums.items() if not v.is_zero}
        for k, v in out.items():
            assert v * den == d * nums[k]
        if not out:
            assert d == LaurentPoly.one()
            continue
        _assert_canonical(out.values(), d)
        # the one-numerator case is RatFunc.normalized
        k = next(iter(out))
        single, sd = normalize_over({k: nums[k]}, den)
        r = RatFunc.normalized(nums[k], den)
        assert (single[k], sd) == (r.num, r.den)
    with pytest.raises(ZeroDivisionError):
        normalize_over({0: A}, LaurentPoly.zero())


# ---------------------------------------------------------------------------
# Heuristic gcd against monic Euclid and the primitive PRS
# ---------------------------------------------------------------------------

def _non_monic(rng, degree, size=9):
    """A random integer polynomial of the given degree whose leading
    coefficient is not a unit and whose constant term is nonzero."""
    p = {e: rng.randint(-size, size) for e in range(1, degree)}
    p[0] = rng.choice((-2, -1, 1, 3))
    p[degree] = rng.choice((-7, -5, -3, -2, 2, 3, 4, 6, 8))
    return {e: c for e, c in p.items() if c}


def _prs_gcd(polys):
    """The gcd of dense polynomials by the primitive PRS, as a dict."""
    g = []
    for p in polys:
        g = _poly_gcd(g, p)
    return _sparse(g)


def test_pack_evaluates_and_unpack_reads_balanced_digits():
    rng = random.Random(35)
    for b in (1, 2, 3):
        xi = 1 << (8 * b)
        for _ in range(40):
            # coefficients up to xi^3, so that some take several digits
            p = {e: rng.randint(-xi ** 3, xi ** 3) or 1 for e in range(rng.randint(0, 12))}
            p[0] = p.get(0) or 1
            assert _pack(_dense(p), b) == sum(c * xi ** e for e, c in p.items())
            small = {e: rng.randint(-xi // 2, xi // 2 - 1) for e in range(rng.randint(1, 12))}
            small = {e: c for e, c in small.items() if c}
            value = _pack(_dense(small), b)
            if value > 0:
                assert _sparse(_digits(value, b)) == small


def test_pack_on_both_sides_of_the_horner_cutoff():
    # Horner's rule below ring._HORNER_DEGREE, the pairwise path above it
    # (odd counts pad a zero, at every round), on gaps, negative and
    # multi-digit coefficients
    rng = random.Random(40)
    cut = ring._HORNER_DEGREE
    for b in (1, 2, 3, 8, 9):
        xi = 1 << (8 * b)
        for top in (0, 1, cut - 2, cut - 1, cut, cut + 1, 3 * cut, 4 * cut, 4 * cut + 1, 200):
            for size in (2, xi // 2, xi ** 3):
                p = {e: rng.randint(-size, size) for e in range(top) if rng.random() < 0.6}
                p = {e: c for e, c in p.items() if c}
                p[top] = rng.choice((-1, 1)) * rng.randint(1, size)
                assert _pack(_dense(p), b) == sum(c * xi ** e for e, c in p.items()), (b, top, size)


def test_digits_and_pack_invert_each_other():
    # balanced digits at struct widths and at others, with the edges of
    # the digit range (-xi/2 included, which _digits returns), zeros on
    # top, and lengths on both sides of ring._HORNER_DEGREE: Horner's
    # rule, and past it one struct call or the pairwise path; then across
    # the gate of the struct path, one coefficient just outside the digit
    # range sends the same digits down the pairwise path
    rng = random.Random(41)
    cut = ring._HORNER_DEGREE
    lengths = (1, 2, cut - 1, cut, cut + 1, cut + 2, 3 * cut, 4 * cut + 1, 200)
    for b in (*range(1, 10), 16):
        xi = 1 << (8 * b)
        edges = (-xi // 2, xi // 2 - 1, -1, 0, 1)
        for size in lengths:
            for _ in range(6):
                digits = tuple(rng.choice(edges) if rng.random() < 0.4 else rng.randrange(-xi // 2, xi // 2)
                               for _ in range(size)) + (0,) * rng.randint(0, 2)
                v = _pack(digits, b)
                assert v == sum(d * xi ** e for e, d in enumerate(digits)), (b, size)
                found = _digits(v, b)
                assert found[:len(digits)] == digits[:len(found)] and not any(found[len(digits):])
                for outside in (xi // 2, -xi // 2 - 1):
                    k = rng.randrange(len(digits))
                    wide = digits[:k] + (outside,) + digits[k + 1:]
                    assert _pack(wide, b) == v + (outside - digits[k]) * xi ** k, (b, size, outside)
        # every digit -xi/2, the least balanced digit
        for size in lengths:
            digits = (-xi // 2,) * size
            assert _pack(digits, b) == -(xi // 2) * sum(xi ** e for e in range(size))
            assert _digits(_pack(digits, b), b) == digits


def _dict_quotient(a: dict, b: dict):
    """a / b for integer polynomials as dicts when b divides a in Z[A],
    else None: the long division the ring ran on dicts, kept as the
    referee of ring._exact_quotient.  It stops at the first leading
    coefficient b does not divide, or at a nonzero remainder."""
    a = dict(a)
    db = max(b)
    lead = b[db]
    tail = [(e - db, c) for e, c in b.items() if e != db]
    q = {}
    for da in range(max(a), db - 1, -1):
        top = a.pop(da, 0)
        if not top:
            continue
        f, r = divmod(top, lead)
        if r:
            return None
        q[da - db] = f
        for e, c in tail:
            k = da + e
            s = a.get(k, 0) - f * c
            if s:
                a[k] = s
            else:
                a.pop(k, None)
    return None if a else q


def test_monic_quotient_matches_the_long_division():
    rng = random.Random(42)
    for _ in range(300):
        d = [rng.randint(-6, 6) for _ in range(rng.randint(0, 8))] + [1]
        h = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(rng.randint(1, 15))]
        w = [0] * (len(h) + len(d) - 1)
        for i, x in enumerate(h):
            for j, y in enumerate(d):
                w[i + j] += x * y
        wrong = [x + (rng.random() < 0.2) for x in w]
        for a in (w + [0] * rng.randint(0, 2), wrong):
            dense = {e: x for e, x in enumerate(a) if x}
            ref = _dict_quotient(dense, {e: x for e, x in enumerate(d) if x}) if dense else {}
            found = _exact_quotient(a, d)
            if ref is None:
                assert found is None
            else:
                assert {e: x for e, x in enumerate(found) if x} == ref


def test_exact_quotient_matches_the_dict_long_division():
    # non-monic and negative leads, a lead that does not divide a step, a
    # nonzero remainder below the divisor's degree, zero top digits,
    # divisors of degree 0 and dividends shorter than the divisor
    rng = random.Random(44)
    seen = set()
    for _ in range(400):
        lead = rng.choice((-1, 2, -3, 5, 12, -60))
        d = [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))] + [lead]
        h = [rng.randint(-10 ** 20, 10 ** 20) for _ in range(rng.randint(1, 12))] + [rng.randint(1, 9)]
        w = [0] * (len(h) + len(d) - 1)
        for i, x in enumerate(h):
            for j, y in enumerate(d):
                w[i + j] += x * y
        cases = {"exact": w, "top zeros": w + [0] * rng.randint(1, 3), "short": w[:len(d) - 1],
                 "lead": w[:-1] + [w[-1] + 1]}
        if len(d) > 1:
            low = w[:]
            low[rng.randrange(len(d) - 1)] += rng.choice((-1, 1))
            cases["remainder"] = low
        for kind, a in cases.items():
            dense = {e: x for e, x in enumerate(a) if x}
            ref = _dict_quotient(dense, {e: x for e, x in enumerate(d) if x}) if dense else {}
            found = _exact_quotient(a, d)
            if ref is None:
                assert found is None, (kind, a, d)
            else:
                assert found is not None and _sparse(found) == ref, (kind, a, d)
                assert len(found) == max(len(a) - len(d) + 1, 0)
            seen.add((kind, ref is None, len(d) == 1, abs(lead) == 1))
    for kind in ("exact", "top zeros"):
        assert (kind, False, True, False) in seen and (kind, False, False, False) in seen
    assert ("lead", True, False, False) in seen and ("remainder", True, False, False) in seen
    assert ("short", True, False, False) in seen and ("remainder", True, False, True) in seen


def _unpack_by_slices(v, b):
    """Balanced digits of v at xi = 2^(8b), one int.from_bytes per digit
    of v + xi/2 (1 + xi + xi^2 + ...): the referee of ring._digits."""
    n = v.bit_length() // (8 * b) + 2
    half = 1 << (8 * b - 1)
    raw = (v + int.from_bytes((b"\x00" * (b - 1) + b"\x80") * n, "little")).to_bytes(
        b * n, "little"
    )
    h = {}
    for e in range(n):
        d = int.from_bytes(raw[e * b:(e + 1) * b], "little") - half
        if d:
            h[e] = d
    return h


def test_unpack_matches_the_slice_by_slice_decoder():
    rng = random.Random(37)
    for b in range(1, 10):
        xi = 1 << (8 * b)
        edges = (-xi // 2, -xi // 2 + 1, -1, 0, 0, 1, xi // 2 - 2, xi // 2 - 1)
        for _ in range(60):
            digits = [rng.choice(edges) if rng.random() < 0.5 else rng.randrange(-xi // 2, xi // 2)
                      for _ in range(rng.randint(0, 14))]
            v = sum(d * xi ** e for e, d in enumerate(digits))
            expected = {e: d for e, d in enumerate(digits) if d}
            found = _digits(v, b)
            assert _sparse(found) == _unpack_by_slices(v, b) == expected, (b, digits)
            assert not found or found[-1]
            lo, step = rng.randint(-20, 20), rng.choice((1, 4))
            assert _from_dense(lo, 1, found, step).coeffs == {lo + step * e: d for e, d in expected.items()}
        assert _digits(0, b) == ()


def test_dense_forms_read_and_write_laurent_polynomials():
    # the reader at step s inverts the writer, refuses an exponent off
    # lo + s Z, and _common_forms takes the largest common step: normal
    # forms of polynomials in A^4, as brackets are, match the referee
    rng = random.Random(45)
    for _ in range(200):
        step = rng.choice((1, 2, 4, 6))
        digits = [rng.randint(-5, 5) for _ in range(rng.randint(0, 8))]
        digits = (rng.choice((-3, 1, 7)), *digits, rng.choice((-1, 2)))
        lo = rng.randint(-12, 12)
        v = _from_dense(lo, 1, digits, step)
        assert _to_dense(v, step) == (lo, digits)
        assert _from_dense(lo, -1, digits, step) == -v
        if step > 1:
            with pytest.raises(ValueError, match=f"one class mod {step}"):
                _to_dense(v + LaurentPoly.monomial(lo + 1), step)
    with pytest.raises(ValueError, match="one class mod 4"):
        _to_dense(LaurentPoly({0: 1, 2: 1}), 4)
    assert _common_forms([A ** 3, LaurentPoly.monomial(-2, 5)]) == (1, [(3, (1,)), (-2, (5,))])
    assert _common_forms([A ** 9 + A, A ** 6 - LaurentPoly.monomial(-2)])[0] == 8
    assert _common_forms([A ** 9 + A, A ** 3 - A])[0] == 2
    for t in ((2, 1, 3), (-4, 2), (1, 1, 1, 1)):
        v = bracket_vector(RationalTangle.from_entries(*t))
        den = v.beta * (A ** 4 + 1)
        assert _common_forms([den, v.alpha])[0] == 4
        r = RatFunc.normalized(v.alpha * (A ** 4 - A ** 8 + 1), den * (A ** 4 - A ** 8 + 1))
        assert (r.num.coeffs, r.den.coeffs) == _ref_normalized(v.alpha, den)


def test_heuristic_gcd_matches_euclid_and_the_prs():
    rng = random.Random(36)
    for _ in range(12):
        f = _non_monic(rng, rng.randint(20, 80))
        polys = [_times(f, _non_monic(rng, rng.randint(1, 30)))
                 for _ in range(rng.randint(2, 5))]
        found = _heuristic_gcd([_dense(p) for p in polys])
        assert found is not None
        g, quotients = _sparse(found[0]), [_sparse(q) for q in found[1]]
        assert g == _prs_gcd([_dense(p) for p in polys])
        ref = {}
        for p in polys:
            ref = _ref_gcd(ref, p)
        lead = g[max(g)]
        assert lead > 0 and gcd(*g.values()) == 1
        assert {e: Fraction(c, lead) for e, c in g.items()} == ref
        assert [_times(g, q) for q in quotients] == polys


def test_heuristic_gcd_picks_its_point_from_the_least_norm(monkeypatch):
    # every point evaluated must satisfy xi >= 2 min |p| + 2, the premise
    # of the certificate
    points = []
    real_pack = ring._pack

    def spy(p, b):
        points.append(b)
        return real_pack(p, b)

    monkeypatch.setattr(ring, "_pack", spy)
    rng = random.Random(37)
    cases = []
    for _ in range(30):
        f = _non_monic(rng, rng.randint(1, 6), size=rng.choice((1, 9, 300)))
        cases.append([_times(f, _non_monic(rng, rng.randint(0, 6), size=rng.choice((1, 9, 10 ** 6))))
                      for _ in range(rng.randint(2, 4))])
    # least norms on both sides of the byte boundaries
    for least in (127, 128, 200, 255, 256, 40000, 70000):
        cases.append([{0: 3, 1: 10 ** 9, 2: 7}, {0: 1, 1: least}, {0: least, 2: -1}])
    for polys in cases:
        points.clear()
        g, _ = _heuristic_gcd([_dense(p) for p in polys])
        assert _sparse(g) == _prs_gcd([_dense(p) for p in polys])
        least = min(max(abs(c) for c in p.values()) for p in polys)
        assert points and all((1 << (8 * b)) >= 2 * least + 2 for b in points)


def test_heuristic_gcd_returns_coprime_inputs_themselves():
    # gcd 1: the inputs come back as they are, also polynomials in A^4
    # (the reduction to A^4 is _common_forms', outside the gcd)
    polys = [_dense(p) for p in ({0: 1, 4: -2, 12: 3}, {0: 5, 8: 1}, {4: 1, 16: 7})]
    g, quotients = _heuristic_gcd(polys)
    assert _sparse(g) == {0: 1} and all(q is p for q, p in zip(quotients, polys))
    g, quotients = _heuristic_gcd([[1, 1], [2, 1]])
    assert _sparse(g) == {0: 1} and _sparse(quotients[0]) == {0: 1, 1: 1}


def _colored_ratio_inputs(rng):
    """The ordinary polynomial pairs that colored_expand and colored_ratios
    reduce, on seeded words at widths 2 and 3."""
    def ordinary(p):
        lo = p.min_exp()
        return {e - lo: c for e, c in p.coeffs.items()}

    pairs = []
    for n in (2,) * 6 + (3,) * 3:
        t = RationalTangle(random_twist_vector(rng, 4, 3))
        kappas = tl.transfer_vector(t, n)
        bubbles = tl._transfer_data(n)[3]
        gammas = []
        for i, c in enumerate(bubbles):
            if i in kappas:
                pairs.append([ordinary(kappas[i] * c.den), ordinary(c.num)])
                gammas.append(RatFunc.normalized(kappas[i] * c.den, c.num))
        top = gammas[-1]
        for g in gammas[:-1]:
            pairs.append([ordinary(g.num * top.den), ordinary(g.den * top.num)])
    return pairs


def test_heuristic_gcd_equals_the_prs_on_colored_ratio_inputs():
    pairs = _colored_ratio_inputs(random.Random(43))
    assert len(pairs) > 40 and any(_prs_gcd([_dense(x) for x in p]) != {0: 1} for p in pairs)
    for polys in pairs:
        polys = [_primitive(_dense(p)) for p in polys]
        g, quotients = _heuristic_gcd(polys)
        g = _sparse(g)
        assert g == _prs_gcd(polys)
        assert [_times(g, _sparse(q)) for q in quotients] == [_sparse(p) for p in polys]
        if g == {0: 1}:
            assert all(q is p for q, p in zip(quotients, polys))


def test_a_candidate_that_does_not_divide_is_refused(monkeypatch):
    # a candidate read off wrongly must fail the division certificate,
    # and after three refused points the PRS answers
    monkeypatch.setattr(ring, "_digits", lambda v, b: (1, 1))
    f = {0: 2, 1: -1, 2: 3}
    polys = [_dense(_times(f, {0: 1, 1: 0, 2: 1})), _dense(_times(f, {0: 5, 1: 2}))]
    assert _heuristic_gcd(polys) is None
    g, quotients = _gcd_cofactors(polys)
    assert _sparse(g) == f and [_sparse(q) for q in quotients] == [{0: 1, 2: 1}, {0: 5, 1: 2}]


def _normal_forms(rng, primitive):
    """normalize_over on seeded inputs: a shared factor of degree 20 to
    80, one to four numerators and a zero one, non-monic leading terms,
    and a shared integer content unless primitive."""
    out = []
    for _ in range(8):
        f = LaurentPoly(_non_monic(rng, rng.randint(20, 80)))
        if not primitive:
            f = f * rng.randint(2, 5)
        den = f * LaurentPoly(_non_monic(rng, rng.randint(0, 20))).shift(rng.randint(-3, 3))
        nums = {k: f * LaurentPoly(_non_monic(rng, rng.randint(0, 20))).shift(rng.randint(-3, 3))
                for k in range(rng.randint(1, 4))}
        nums[99] = LaurentPoly.zero()
        out.append(normalize_over(nums, den))
        r = RatFunc.normalized(nums[0], den)
        assert (r.num.coeffs, r.den.coeffs) == _ref_normalized(nums[0], den)
        out.append(r)
    return out


def test_normal_forms_do_not_depend_on_the_gcd_path(monkeypatch):
    heuristic = _normal_forms(random.Random(38), primitive=True)
    monkeypatch.setattr(ring, "_heuristic_gcd", lambda polys: None)
    assert _normal_forms(random.Random(38), primitive=True) == heuristic


def test_rational_normal_forms_do_not_depend_on_the_gcd_path(monkeypatch):
    # the integer contents cancel the same way on both gcd paths
    common = LaurentPoly({0: 1, 1: 6})
    example = common * (6 * A + 6), common * (4 * A + 8)
    reduced = (3 * A + 3, 2 * A + 4)
    r = RatFunc.normalized(*example)
    assert (r.num, r.den) == reduced
    heuristic = _normal_forms(random.Random(39), primitive=False)
    monkeypatch.setattr(ring, "_heuristic_gcd", lambda polys: None)
    assert _normal_forms(random.Random(39), primitive=False) == heuristic
    r = RatFunc.normalized(*example)
    assert (r.num, r.den) == reduced


def test_long_gcd_with_a_non_monic_factor_is_fast():
    # a shared factor with leading coefficient 3 made the pseudo-remainder
    # chain of the PRS grow its coefficients over every step (3.7 s on a
    # 2-vCPU x86 host); the heuristic gcd takes milliseconds
    rng = random.Random(27)
    f = LaurentPoly({2: 3, 1: -1, 0: 2})
    a = LaurentPoly({e: rng.randint(-9, 9) or 1 for e in range(400)}) * f
    b = LaurentPoly({e: rng.randint(-9, 9) or 1 for e in range(300)}) * f
    start = time.perf_counter()
    r = RatFunc.normalized(a, b)
    assert time.perf_counter() - start < 0.5
    assert r.num * b == r.den * a and len(r.den.coeffs) == 300
