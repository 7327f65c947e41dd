"""Scalar tower: Laurent polynomials and rational functions."""

import random
from fractions import Fraction

import pytest

from tanglekit.ring import (
    LaurentPoly,
    RatFunc,
    _div,
    _poly_divmod,
    _poly_gcd,
    normalize_over,
    poly_exact_div,
    poly_lcm,
)

A = LaurentPoly.variable()
DELTA = -(A ** 2) - LaurentPoly.monomial(-2)


def random_poly(rng, span=4, terms=4):
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        coeffs[rng.randint(-span, span)] = Fraction(
            rng.randint(-6, 6), rng.randint(1, 4)
        )
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# LaurentPoly
# ---------------------------------------------------------------------------

def test_loop_value_square():
    assert str(DELTA * DELTA) == "A^4 + 2 + A^-4"


def test_str_formatting():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    p = -(A ** 3) + 2 + LaurentPoly.monomial(-2)
    assert str(p) == "-A^3 + 2 + A^-2"
    assert str(LaurentPoly.monomial(2, Fraction(3, 2))) == "3/2*A^2"
    assert str(A) == "A"
    assert str(-A) == "-A"
    assert str(DELTA) == "-A^2 - A^-2"


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


def test_content():
    p = LaurentPoly({2: Fraction(6), -1: Fraction(4)})
    assert p.content() == 2
    p = LaurentPoly({0: Fraction(1, 2), 3: Fraction(3, 4)})
    assert p.content() == Fraction(1, 4)


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
    # 1/delta: denominator becomes an ordinary integer-primitive
    # polynomial with positive constant term.
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


def _ref_normalized(num, den):
    """Canonical (num, den) coefficient dicts, computed over Q."""
    sn, sd = num.min_exp(), den.min_exp()
    n = {e - sn: c for e, c in num.coeffs.items()}
    d = {e - sd: c for e, c in den.coeffs.items()}
    g = _ref_gcd(n, d)
    n, _ = _ref_divmod(n, g)
    d, _ = _ref_divmod(d, g)
    scale = LaurentPoly(d).content() * (1 if d[min(d)] > 0 else -1)
    return (
        {e + sn - sd: c / scale for e, c in n.items()},
        {e: c / scale for e, c in d.items()},
    )


def _ordinary(rng, integer, degree=4):
    coeffs = {}
    for e in range(rng.randint(0, degree) + 1):
        c = rng.randint(-9, 9)
        if not integer:
            c = Fraction(c, rng.randint(1, 6))
        if c:
            coeffs[e] = c
    return coeffs


def _times(a, b):
    return (LaurentPoly(a) * LaurentPoly(b)).coeffs


def _assert_stored_form(p):
    for c in p.coeffs.values():
        assert type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1


@pytest.mark.parametrize("integer", [True, False])
def test_gcd_matches_monic_euclid_up_to_a_unit(integer):
    rng = random.Random(30 + integer)
    for _ in range(150):
        f = _ordinary(rng, integer, 3)
        a = _times(f, _ordinary(rng, integer))
        b = _times(f, _ordinary(rng, integer))
        if not a and not b:
            continue
        g = _poly_gcd(a, b)
        ref = _ref_gcd(a, b)
        assert g.keys() == ref.keys()
        lead = g[max(g)]
        assert lead > 0
        assert all(type(c) is int for c in g.values())
        assert LaurentPoly(g).content() == 1
        assert {e: Fraction(c, lead) for e, c in g.items()} == ref


def test_normalized_matches_fraction_reference():
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        integer = rng.random() < 0.7
        f = LaurentPoly(_ordinary(rng, integer, 2)).shift(rng.randint(-3, 3))
        num = f * LaurentPoly(_ordinary(rng, integer)).shift(rng.randint(-3, 3))
        den = f * LaurentPoly(_ordinary(rng, integer)).shift(rng.randint(-3, 3))
        if num.is_zero or den.is_zero:
            continue
        checked += 1
        r = RatFunc.normalized(num, den)
        ref_num, ref_den = _ref_normalized(num, den)
        assert (r.num.coeffs, r.den.coeffs) == (ref_num, ref_den)
        _assert_stored_form(r.num)
        _assert_stored_form(r.den)


def test_coefficients_keep_the_stored_form():
    rng = random.Random(32)
    assert type(LaurentPoly({0: Fraction(6, 2)}).coeffs[0]) is int
    assert LaurentPoly({0: 0.5}).coeffs[0] == Fraction(1, 2)
    assert type(LaurentPoly({0: 0.5}).coeffs[0]) is Fraction
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        results = [p + q, p - q, p * q, -p, 2 * p, p * Fraction(1, 3)]
        if not (p.is_zero or q.is_zero):
            results.append(poly_lcm(p, q))
        if not q.is_zero:
            results.append(poly_exact_div(p * q, q))
            x = RatFunc.normalized(p, q)
            results += [x.num, x.den, (x * x).num, (x + RatFunc.one()).num]
        for r in results:
            _assert_stored_form(r)


def test_exact_division_rule():
    assert _div(7, 2) == Fraction(7, 2)
    assert type(_div(7, 2)) is Fraction
    assert _div(6, 2) == 3 and type(_div(6, 2)) is int
    assert type(_div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        _div(1, 0)


def test_long_products_divide_exactly():
    rng = random.Random(34)
    f = LaurentPoly({e: rng.randint(-9, 9) or 1 for e in range(3000)}).shift(-1500)
    binomial = A ** 4 + 1
    dense = LaurentPoly({e: rng.randint(-9, 9) for e in range(40)}) + 3 * A ** 40
    for b in (binomial, dense):
        assert poly_exact_div(f * b, b) == f
    # with a remainder, against the monic referee
    g = LaurentPoly({e: rng.randint(-9, 9) for e in range(300)})
    a = g * dense + LaurentPoly({e: rng.randint(-9, 9) for e in range(40)})
    q, r = _poly_divmod(a.coeffs, dense.coeffs)
    assert (q, r) == _ref_divmod(a.coeffs, dense.coeffs)


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
        integer = rng.random() < 0.7
        f = LaurentPoly(_ordinary(rng, integer, 2))
        den = f * LaurentPoly(_ordinary(rng, integer)).shift(rng.randint(-3, 3))
        if den.is_zero:
            continue
        # sometimes every numerator shares the factor f with den
        shared = f if rng.random() < 0.5 else LaurentPoly.one()
        nums = {k: shared * LaurentPoly(_ordinary(rng, integer)).shift(rng.randint(-3, 3))
                for k in range(rng.randint(1, 4))}
        nums[99] = LaurentPoly.zero()
        out, d = normalize_over(nums, den)
        assert set(out) == {k for k, v in nums.items() if not v.is_zero}
        for k, v in out.items():
            assert RatFunc.normalized(v, d) == RatFunc.normalized(nums[k], den)
            _assert_stored_form(v)
        if not out:
            assert d == LaurentPoly.one()
            continue
        assert min(d.coeffs) == 0 and d.coeffs[0] > 0
        assert all(type(c) is int for c in d.coeffs.values()) and d.content() == 1
        g = dict(d.coeffs)
        for v in out.values():
            g = _ref_gcd(g, {e - v.min_exp(): c for e, c in v.coeffs.items()})
        assert len(g) == 1
        # the one-numerator case is RatFunc.normalized
        k = next(iter(out))
        single, sd = normalize_over({k: nums[k]}, den)
        r = RatFunc.normalized(nums[k], den)
        assert (single[k], sd) == (r.num, r.den)
    with pytest.raises(ZeroDivisionError):
        normalize_over({0: A}, LaurentPoly.zero())
