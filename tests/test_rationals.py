"""Extended rationals, continued fractions, canonical forms, parity."""

import random
import re

import pytest

from tanglekit.rationals import (
    MAX_FRACTION_DIGITS,
    ExtRational,
    TwistVector,
    canonical_form,
    continued_fraction,
    parity,
    schubert_equivalent,
)
from tanglekit.tangles import RationalTangle


def tv(*entries):
    return TwistVector(tuple(entries))


# ---------------------------------------------------------------------------
# ExtRational basics
# ---------------------------------------------------------------------------

def test_reduction_and_sign():
    assert ExtRational(6, 4) == ExtRational(3, 2)
    assert ExtRational(3, -2) == ExtRational(-3, 2)
    assert ExtRational(5, 0) == ExtRational.infinity()
    with pytest.raises(ZeroDivisionError):
        ExtRational(0, 0)


def test_numerator_and_denominator_are_integers():
    # p and q go through operator.index: a bool is stored as its int, and
    # a float or a string is refused
    r = ExtRational(True, 2)
    assert (type(r.p), r.p, str(r)) == (int, 1, "1/2")
    assert type(ExtRational(4, True).q) is int
    for p, q in ((1.5, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(TypeError):
            ExtRational(p, q)


def test_extended_arithmetic():
    inf = ExtRational.infinity()
    assert inf + 7 == inf
    assert inf.reciprocal() == ExtRational.zero()
    assert ExtRational.zero().reciprocal() == inf
    assert -inf == inf
    assert ExtRational(3, 2) + 1 == ExtRational(5, 2)
    assert -ExtRational(3, 2) == ExtRational(-3, 2)


def test_bottom_twist_map():
    # x -> 1/(s + 1/x); from infinity one bottom twist gives 1/s.
    assert ExtRational.infinity().bottom_twist(1) == ExtRational(1)
    assert ExtRational.zero().bottom_twist(5) == ExtRational.zero()
    assert ExtRational(1).bottom_twist(1) == ExtRational(1, 2)


def test_parse_and_str():
    assert ExtRational.parse("12/5") == ExtRational(12, 5)
    assert ExtRational.parse("inf").is_infinite
    assert str(ExtRational(-18, 7)) == "-18/7"
    assert str(ExtRational.infinity()) == "inf"
    assert str(ExtRational(4)) == "4"


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------

def test_continued_fraction_known_values():
    assert continued_fraction(tv(-2, 3, 2)) == ExtRational(12, 5)
    assert continued_fraction(tv(3, -2, 3)) == ExtRational(12, 5)
    assert continued_fraction(tv(0)) == ExtRational.zero()
    assert continued_fraction(tv(3, 2, -3)) == ExtRational(-18, 7)


def test_continued_fraction_intermediate_infinity():
    # Innermost zero entry passes through infinity without error.
    assert continued_fraction(tv(0, 5)) == ExtRational.infinity()
    assert continued_fraction(tv(0, 5, 2)) == ExtRational(2)


def test_twist_vector_validation():
    with pytest.raises(ValueError):
        tv(3, 0, 2)
    with pytest.raises(ValueError):
        TwistVector(())
    # Zeros at either end are allowed.
    assert tv(0, 5).entries == (0, 5)
    assert tv(2, 1, 0).entries == (2, 1, 0)



def test_twist_vector_refuses_entries_that_are_not_integers():
    for bad in (2.5, "3", 1.9):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            tv(1, bad)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RationalTangle.from_entries(bad)
    entries = tv(3, True, False).entries
    assert entries == (3, 1, 0) and all(type(a) is int for a in entries)


def test_continued_fraction_matches_the_stepwise_evaluation():
    rng = random.Random(41)
    for _ in range(400):
        entries = [rng.randint(-6, 6) or 1 for _ in range(rng.randint(1, 9))]
        entries[0], entries[-1] = rng.randint(-3, 3), rng.randint(-3, 3)
        value = ExtRational(entries[0])
        for a in entries[1:]:
            value = value.reciprocal() + a
        assert continued_fraction(tv(*entries)) == value


def test_continued_fraction_refuses_numerators_past_the_digit_bound():
    bound = 10 ** MAX_FRACTION_DIGITS
    assert continued_fraction(tv(bound - 1)) == ExtRational(bound - 1)
    with pytest.raises(ValueError, match=f"bound of {MAX_FRACTION_DIGITS} digits"):
        continued_fraction(tv(-bound))
    # m ones give F(m + 1) / F(m): the longest word of ones allowed is
    # the one before the first Fibonacci number past the bound
    m, p, q = 0, 1, 0
    while p + q < bound:
        m, p, q = m + 1, p + q, p
    assert continued_fraction(tv(*[1] * m)) == ExtRational(p, q)
    with pytest.raises(ValueError, match="digits"):
        continued_fraction(tv(*[1] * (m + 1)))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_known_values():
    assert canonical_form(ExtRational(12, 5)).entries == (2, 2, 2)
    assert canonical_form(ExtRational(1)).entries == (1,)
    assert canonical_form(ExtRational(-18, 7)).entries == (-1, -2, -1, -1, -2)
    assert canonical_form(ExtRational.zero()).entries == (0,)


def test_canonical_form_infinity_rejected():
    with pytest.raises(ValueError):
        canonical_form(ExtRational.infinity())


def test_canonical_form_small_fractions():
    # |r| < 1 forces a zero outermost entry; the rest keep a uniform sign.
    v = canonical_form(ExtRational(1, 2))
    assert v.entries == (1, 1, 0)
    assert continued_fraction(v) == ExtRational(1, 2)
    v = canonical_form(ExtRational(-2, 3))
    assert continued_fraction(v) == ExtRational(-2, 3)


def test_canonical_form_properties_random():
    rng = random.Random(20260814)
    for _ in range(150):
        p = rng.randint(-40, 40)
        q = rng.randint(1, 40)
        r = ExtRational(p, q)
        v = canonical_form(r)
        assert len(v) % 2 == 1
        signs = {1 if a > 0 else -1 for a in v.entries if a != 0}
        assert len(signs) <= 1
        assert continued_fraction(v) == r


def test_round_trip_from_twist_vectors():
    rng = random.Random(4)
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4, 5])
        entries = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)]
        r = continued_fraction(tv(*entries))
        if r.is_infinite:
            continue
        assert continued_fraction(canonical_form(r)) == r


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

def test_parity_known_values():
    assert parity(ExtRational.zero()) == "e/o"
    assert parity(ExtRational.infinity()) == "o/e"
    assert parity(ExtRational(12, 5)) == "e/o"
    assert parity(ExtRational(1)) == "o/o"
    assert parity(ExtRational(-3, 2)) == "o/e"


def test_parity_never_even_even():
    rng = random.Random(11)
    for _ in range(200):
        r = ExtRational(rng.randint(-50, 50), rng.randint(0, 50) or 1)
        assert parity(r) in ("e/o", "o/e", "o/o")


# ---------------------------------------------------------------------------
# Schubert equivalence
# ---------------------------------------------------------------------------

def test_schubert_known_values():
    assert schubert_equivalent(ExtRational(5, 2), ExtRational(5, 3))
    assert schubert_equivalent(ExtRational(7, 3), ExtRational(7, 3))
    assert not schubert_equivalent(ExtRational(3, 1), ExtRational(5, 1))


def test_schubert_rejects_nonpositive():
    with pytest.raises(ValueError):
        schubert_equivalent(ExtRational(-5, 2), ExtRational(5, 2))
    with pytest.raises(ValueError):
        schubert_equivalent(ExtRational.infinity(), ExtRational(5, 2))


def test_schubert_equivalence_relation():
    # Symmetric and transitive within each fixed numerator class.
    for p in range(1, 31):
        qs = [q for q in range(1, p + 1) if q == p or __import__("math").gcd(p, q) == 1]
        pairs = {}
        for q1 in qs:
            for q2 in qs:
                a = schubert_equivalent(ExtRational(p, q1), ExtRational(p, q2))
                b = schubert_equivalent(ExtRational(p, q2), ExtRational(p, q1))
                assert a == b
                pairs[(q1, q2)] = a
        for q1 in qs:
            for q2 in qs:
                for q3 in qs:
                    if pairs[(q1, q2)] and pairs[(q2, q3)]:
                        assert pairs[(q1, q3)]
