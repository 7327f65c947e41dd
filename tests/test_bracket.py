"""Transfer-map bracket coordinates against pins and the brute-force
smoothing oracle."""

import random
import time

import pytest

from tanglekit import tl
from tanglekit.bracket import (
    BracketVec2,
    _dense_c_invariant,
    _dense_root_coords,
    _digit_bytes,
    _replay,
    _root_coords,
    bracket_vector,
    c_invariant,
    coprime_ratio,
    mirror_transport,
    ratio_invariant,
)
from tanglekit.oracle import bracket_of_diagram
from tanglekit.rationals import ExtRational
from tanglekit.ring import LaurentPoly, RatFunc, _from_dense, _to_dense
from tanglekit.tangles import (
    MAX_TWIST_TOTAL,
    RationalTangle,
    TwistWord,
    random_twist_vector,
    rational_to_diagram,
    tangle_invert,
    tangle_negate,
    to_twist_word,
)

A = LaurentPoly.variable()
Z = LaurentPoly.zero()
ONE = LaurentPoly.one()
DELTA = -(A ** 2) - LaurentPoly.monomial(-2)


def vec(t):
    return bracket_vector(t)


def test_bracket_pins():
    assert vec(RationalTangle.from_entries(0)) == BracketVec2(Z, ONE)
    assert vec(RationalTangle.infinity()) == BracketVec2(ONE, Z)
    assert vec(RationalTangle.from_entries(1)) == BracketVec2(A, LaurentPoly.monomial(-1))
    two = BracketVec2(LaurentPoly({4: -1, 0: 1}), LaurentPoly.monomial(-2))
    assert vec(RationalTangle.from_entries(2)) == two
    assert vec(RationalTangle.from_entries(1, 1)) == two
    assert vec(RationalTangle.from_entries(-1)) == BracketVec2(
        LaurentPoly.monomial(-1), A
    )


def test_bracket_matches_oracle_random():
    rng = random.Random(20260814)
    done = 0
    while done < 30:
        tv = random_twist_vector(rng, max_len=5, max_entry=3)
        if sum(abs(a) for a in tv.entries) > 8:
            continue
        done += 1
        t = RationalTangle(tv)
        v = vec(t)
        alpha, beta = bracket_of_diagram(rational_to_diagram(t))
        assert (v.alpha, v.beta) == (alpha, beta), f"mismatch for {tv}"


# ---------------------------------------------------------------------------
# Closed-form twist runs against the replay one half twist at a time
# ---------------------------------------------------------------------------

def per_move_bracket(word):
    """The bracket replayed one half twist at a time, each through one of
    four fixed 2x2 matrices: the referee for the closed-form runs."""
    a, a_inv = LaurentPoly.monomial(1), LaurentPoly.monomial(-1)
    a3, a3_inv = LaurentPoly.monomial(3), LaurentPoly.monomial(-3)
    alpha, beta = (Z, ONE) if word.start == "0" else (ONE, Z)
    for kind, s in word.moves:
        if kind == "R" and s > 0:
            alpha, beta = -a3 * alpha + a * beta, a_inv * beta
        elif kind == "R":
            alpha, beta = -a3_inv * alpha + a_inv * beta, a * beta
        elif s > 0:
            alpha, beta = a * alpha, a_inv * alpha - a3_inv * beta
        else:
            alpha, beta = a_inv * alpha, a * alpha - a3 * beta
    return BracketVec2(alpha, beta)


def _coefficient_bound(word):
    """The norm bound of the replay: M_alpha += k M_beta per right run of
    k half twists, M_beta += k M_alpha per bottom run."""
    m_alpha, m_beta = (0, 1) if word.start == "0" else (1, 0)
    for kind, a in word.runs:
        if kind == "R":
            m_alpha += abs(a) * m_beta
        else:
            m_beta += abs(a) * m_alpha
    return max(m_alpha, m_beta)


def _random_raw_word(rng, max_runs=8, max_run=12):
    """A raw twist word from either start whose runs may repeat a kind."""
    runs = tuple((rng.choice("RB"), rng.choice((1, -1)) * rng.randint(1, max_run))
                 for _ in range(rng.randint(1, max_runs)))
    return TwistWord(rng.choice(("0", "inf")), runs)


# Vectors whose coefficient bound has 7 and 8, 15 and 16, 31 and 32, and
# 63 and 64 bits, on both sides of the digit widths of 1, 2, 4 and 8
# bytes, then bounds past 8 bytes.
EDGE_ENTRIES = {7: (127,), 8: (128,), 15: (181, 181), 16: (128, 256),
                31: (1,) * 45, 32: (1,) * 46, 63: (1,) * 91, 64: (1,) * 92}


def _run_test_tangles():
    """300 seeded vectors of entries up to 12 in size, a quarter each with
    a zero first entry, a zero last entry or both, then long single and
    split runs, mixed-sign split totals, forty and three hundred runs of
    one, the digit-width edges and the infinity tangle; then raw twist
    words with consecutive runs of one kind, from both starts."""
    rng = random.Random(20261018)
    out = []
    for i in range(300):
        entries = list(random_twist_vector(rng, max_len=6, max_entry=12).entries)
        if i % 4 in (1, 3):
            entries[0] = 0
        if i % 4 in (2, 3):
            entries[-1] = 0
        out.append(RationalTangle.from_entries(*entries))
    for entries in ((150,), (75, -75), (40, 40, 40), (2000,), (300, -300, 300),
                    (1000, 1000), (1,) * 40, (1,) * 300, *EDGE_ENTRIES.values(),
                    (1,) * 120, (-3, 5, -7, 9, -11, 13, -15, 17)):
        out.append(RationalTangle.from_entries(*entries))
    out.append(RationalTangle.infinity())
    for start in ("0", "inf"):
        out += [TwistWord(start, (("R", 3), ("R", -2))), TwistWord(start, (("B", 2), ("B", 5))),
                TwistWord(start, (("R", 1), ("R", -1))), TwistWord(start, (("B", -1), ("B", 1))),
                TwistWord(start, (("R", 2), ("B", -3), ("B", 4), ("R", 1), ("R", 6))),
                TwistWord(start, ())]
    out += [_random_raw_word(rng) for _ in range(60)]
    return out


def test_twist_runs_match_the_per_move_replay():
    for t in _run_test_tangles():
        word = to_twist_word(t)
        assert vec(t) == per_move_bracket(word), f"mismatch for {t}"
        if isinstance(t, RationalTangle):
            assert word.fraction() == t.fraction, f"mismatch for {t}"


def test_replay_forms_are_the_dense_forms_of_the_bracket():
    # no zero digit at either end, none at all for a zero coordinate,
    # although a lo may lie below the lowest exponent during the replay
    for t in _run_test_tangles():
        v = vec(t)
        for (lo, digits), p in zip(_replay(t), (v.alpha, v.beta)):
            assert (lo, digits) == _to_dense(p, 4) if p else digits == (), t


def test_test_corpus_reaches_every_digit_width_edge():
    for bits, entries in EDGE_ENTRIES.items():
        word = to_twist_word(RationalTangle.from_entries(*entries))
        assert _coefficient_bound(word).bit_length() == bits
    widths = {_digit_bytes(to_twist_word(t)) for t in _run_test_tangles()}
    assert {1, 2, 4, 8} <= widths and max(widths) > 8


def test_coefficients_lie_within_the_bound_and_the_digit_width():
    rng = random.Random(20261019)
    words = [_random_raw_word(rng, max_runs=12, max_run=30) for _ in range(200)]
    words += [to_twist_word(RationalTangle(random_twist_vector(rng, max_len=10, max_entry=40)))
              for _ in range(200)]
    for word in words:
        v = vec(word)
        bound = _coefficient_bound(word)
        top = max((abs(c) for p in (v.alpha, v.beta) for c in p.coeffs.values()), default=0)
        assert 0 < top <= bound, f"bound fails for {word}"
        assert 2 * bound < 1 << 8 * _digit_bytes(word)


def test_raw_words_over_the_bound_are_refused_at_once():
    message = f"{MAX_TWIST_TOTAL + 1} half twists exceed the bound {MAX_TWIST_TOTAL}"
    for word in (TwistWord("0", (("R", MAX_TWIST_TOTAL + 1),)),
                 TwistWord("inf", (("R", MAX_TWIST_TOTAL), ("B", -1)))):
        with pytest.raises(ValueError, match=message):
            vec(word)
    assert vec(TwistWord("0", (("R", MAX_TWIST_TOTAL),))) == vec(
        RationalTangle.from_entries(MAX_TWIST_TOTAL))
    for word in (TwistWord("0", (("R", 10 ** 5), ("B", 10 ** 5))),
                 TwistWord("0", (("R", 1), ("B", 1)) * (10 ** 5 // 2))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="twist word too long"):
            vec(word)
        assert time.perf_counter() - start < 1


def test_malformed_twist_words_are_refused_by_both_consumers():
    # a bad start, a run of another kind, a run of 0, a bool or a float for
    # the count and a run that is not a pair: each is refused when the word
    # is made, so bracket_vector and transfer_vector never read it two ways
    bad = [("x", (("Q", 1),)), ("x", ()), ("0", (("Q", 1),)), ("inf", (("R", 0),)),
           ("0", (("B", 2), ("R", 0))), ("0", (("R", True),)), ("0", (("B", 1.0),)),
           ("0", (("R", 1, 2),)), ("0", (["R", 1],)), ("0", ("R1",)), (0, ())]
    for start, runs in bad:
        with pytest.raises(ValueError, match="twist word"):
            bracket_vector(TwistWord(start, runs))
        with pytest.raises(ValueError, match="twist word"):
            tl.transfer_vector(TwistWord(start, runs), 2)
    t = RationalTangle.from_entries(3, -2, 4)
    word = to_twist_word(t)
    assert bracket_vector(TwistWord(word.start, word.runs)) == bracket_vector(t)
    # validation is one pass over the runs: a word of 10^5 runs is made fast
    start = time.perf_counter()
    TwistWord("0", (("R", 1), ("B", 1)) * (10 ** 5 // 2))
    assert time.perf_counter() - start < 1


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def test_split_twist_runs_take_linear_time():
    # each run is one pass over its exponents: on a 2-vCPU x86 host this
    # took 0.36 s with the run's monomial sum multiplied term by term
    t = RationalTangle.from_entries(700, -600, 700)
    best = min(_timed(bracket_vector, t) for _ in range(3))
    assert best < 0.05


def test_many_short_runs_take_little_time():
    # each run is a few big-integer shifts and adds: on a 2-vCPU x86 host
    # 800 ones took 0.33 to 0.47 s with a dict pass over both coordinates
    # per run, and 0.020 to 0.031 s packed
    t = RationalTangle.from_entries(*([1] * 800))
    best = min(_timed(bracket_vector, t) for _ in range(3))
    assert best < 0.15


def test_mirror_transport_negate():
    rng = random.Random(5150)
    for _ in range(40):
        t = RationalTangle(random_twist_vector(rng))
        assert vec(tangle_negate(t)) == mirror_transport(vec(t), "negate")


def test_mirror_transport_invert():
    rng = random.Random(5151)
    for _ in range(40):
        t = RationalTangle(random_twist_vector(rng))
        assert vec(tangle_invert(t)) == mirror_transport(vec(t), "invert")


def test_mirror_transport_rejects_unknown():
    with pytest.raises(ValueError):
        mirror_transport(vec(RationalTangle.from_entries(1)), "rotate")


def test_ratio_invariant():
    assert ratio_invariant(vec(RationalTangle.from_entries(0))) == RatFunc.zero()
    assert ratio_invariant(vec(RationalTangle.infinity())) is None
    r = ratio_invariant(vec(RationalTangle.from_entries(1)))
    assert r == RatFunc.normalized(A, LaurentPoly.monomial(-1))
    with pytest.raises(ValueError):
        ratio_invariant(BracketVec2(Z, Z))


def test_coprime_ratio_is_the_reduced_ratio():
    rng = random.Random(2718)
    tangles = [RationalTangle(random_twist_vector(rng, 6, 8)) for _ in range(200)]
    tangles += [RationalTangle.from_entries(*e) for e in ((0,), (1,), (-3,), (2, 0))]
    tangles += [RationalTangle.infinity()]
    tangles += [RationalTangle.from_entries(*[1] * k) for k in (500, 1000)]
    for t in tangles:
        v = vec(t)
        assert coprime_ratio(v) == ratio_invariant(v), t


def test_c_invariant_pins():
    assert c_invariant(vec(RationalTangle.from_entries(0))) == ExtRational.zero()
    assert c_invariant(vec(RationalTangle.infinity())) == ExtRational.infinity()
    assert c_invariant(vec(RationalTangle.from_entries(1))) == ExtRational(1, 1)
    assert c_invariant(vec(RationalTangle.from_entries(2))) == ExtRational(2, 1)
    assert c_invariant(vec(RationalTangle.from_entries(-1))) == ExtRational(-1, 1)
    assert c_invariant(vec(RationalTangle.from_entries(-2, 3, 2))) == ExtRational(12, 5)


def test_c_invariant_equals_fraction_random():
    rng = random.Random(424242)
    for _ in range(150):
        t = RationalTangle(random_twist_vector(rng))
        assert c_invariant(vec(t)) == t.fraction, f"mismatch for {t}"


def test_c_invariant_rejects_degenerate():
    with pytest.raises(ValueError):
        c_invariant(BracketVec2(Z, Z))


def test_c_invariant_rejects_irrational_ratio():
    # -zeta^2 zeta / 1 = -zeta^3 is not rational
    with pytest.raises(ArithmeticError, match="not rational at the root"):
        c_invariant(BracketVec2(A, ONE))
    with pytest.raises(ArithmeticError, match="not rational at the root"):
        c_invariant(BracketVec2(ONE, ONE + A))


def test_c_invariant_vanishing_bracket_names_the_root():
    # DELTA vanishes at the root although it is not zero
    with pytest.raises(ValueError, match="bracket vanishes at the root"):
        c_invariant(BracketVec2(DELTA, DELTA * A))
    assert c_invariant(BracketVec2(A, DELTA)) == ExtRational.infinity()


# ---------------------------------------------------------------------------
# Coordinates at the primitive eighth root of unity
# ---------------------------------------------------------------------------

def _root_product(x, y):
    """Product of two coordinate tuples, using zeta^4 = -1."""
    out = [0, 0, 0, 0]
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < 4:
                out[i + j] += a * b
            else:
                out[i + j - 4] -= a * b
    return tuple(out)


def test_defining_relation():
    assert _root_coords(A ** 4) == (-1, 0, 0, 0)
    assert _root_coords(ONE) == (1, 0, 0, 0)


def test_loop_value_vanishes():
    # A^2 maps to i and A^-2 to -i, so delta maps to zero.
    assert _root_coords(DELTA) == (0, 0, 0, 0)


def test_negative_exponents():
    # A^-1 = -A^3 at the root.
    assert _root_coords(LaurentPoly.monomial(-1)) == (0, 0, 0, -1)


def test_homomorphism_random():
    rng = random.Random(7)
    for _ in range(60):
        p, q = (
            LaurentPoly({
                rng.randint(-4, 4): rng.randint(-6, 6)
                for _ in range(rng.randint(0, 4))
            })
            for _ in range(2)
        )
        sums = tuple(a + b for a, b in zip(_root_coords(p), _root_coords(q)))
        assert _root_coords(p + q) == sums
        assert _root_coords(p * q) == _root_product(_root_coords(p), _root_coords(q))


def test_dense_root_reading_matches_root_coords():
    rng = random.Random(2828)
    for _ in range(300):
        lo = rng.randint(-20, 20)
        digits = tuple(rng.choice((0, 1, -1, rng.randint(-10 ** 30, 10 ** 30)))
                       for _ in range(rng.randint(0, 9)))
        assert _dense_root_coords(lo, digits) == _root_coords(_from_dense(lo, 1, digits, 4))
    for t in _run_test_tangles():
        v, forms = vec(t), _replay(t)
        assert [_dense_root_coords(*f) for f in forms] == [_root_coords(v.alpha), _root_coords(v.beta)]
        assert _dense_c_invariant(forms) == c_invariant(v), t
