"""Colored invariants of rational tangles: the cable-width bounds, the
colored replay and the forms the command line writes.

The colored expansion never builds the tangle in TL_2n.  A twist word
is replayed on n+1 coordinates in the fusion basis, from the
coordinates of the dressed crossingless tangle, with each run of half
twists applied in closed form on packed big integers
(transfer_vector); the start coordinates and the quarter turn come from
the recoupling formulas for theta and Tet (recoupling.py), and at width
1 the coordinates are read off the bracket instead.  A diagram is read
off its threaded closure (annulus.colored_closure), integer sums of
annular brackets of its cables.  Neither builds a projector, so both
reach cable widths past the projectors' bound.

The Temperley-Lieb glue engine (matchings, TLElement, projectors,
bni_basis, colored_element, the referee of the replay at widths up to
3) lives in engine.py, which no command line needs.  Its names keep
their paths here, tl.jones_wenzl and the rest: the module __getattr__
below loads the engine on the first access to one of them (PEP 562).
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import NamedTuple

from .ring import (
    LaurentPoly,
    _digit_width,
    _digits,
    _exact_quotient,
    _from_dense,
    _from_quotient,
    _pack,
    _to_dense,
    as_ratfunc,
    common_denominator,
    normalize_over,
)
from .tangles import MAX_TWIST_TOTAL, PlanarTangleDiagram, TwistWord, to_twist_word

#: The names of engine.py that tl answers for, loading the engine on the
#: first access to one of them; any other missing name, a dunder
#: included, raises AttributeError at once.
_ENGINE_NAMES = frozenset((
    "TLElement",
    "JonesWenzl",
    "QuantumCoeffs",
    "catalan",
    "enumerate_matchings",
    "identity_element",
    "e_generator",
    "unit_element",
    "compose",
    "tensor",
    "trace_close",
    "rotate_cw",
    "rotate_ccw",
    "state_sum",
    "tile_element",
    "kink_element",
    "projector_frame",
    "colored_element",
    "jones_wenzl",
    "quantum_coeffs",
    "bni_basis",
))

__all__ = [
    "MAX_COLORED_TWISTS",
    "MAX_PROJECTOR_STRANDS",
    "MAX_TWIST_WIDTH",
    *sorted(_ENGINE_NAMES),
    "check_cable_width",
    "colored_twist_word",
    "transfer_vector",
    "colored_expand",
    "colored_invariants",
    "colored_ratios",
]


def __getattr__(name: str):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import engine

    return getattr(engine, name)


def __dir__() -> list:
    return sorted({*globals(), *_ENGINE_NAMES})


#: Largest strand count for which Jones-Wenzl projectors are built.
MAX_PROJECTOR_STRANDS = 6

#: Largest total twist, per cable width, of a twist word whose colored
#: coordinates or closure are computed.  Width 1 is the bracket, so its
#: bound is the bracket's, MAX_TWIST_TOTAL.  From width 2 on, each bound
#: is the largest round total at which the slowest shape found, all
#: entries 1, ran within a minute through `colored` and through
#: `colored-closure`, each in a fresh process, with the replay on dicts
#: of polynomials (2-vCPU x86 host, CPython 3.11).  Re-timed with the
#: packed replay, the slower time (`colored` from width 2 on; best of 2
#: or 3 runs on a shared host, which spread up to 1.6 times above it) and
#: the larger stdout of the two:
#:
#:     width      1       2       3       4       5       6       7       8
#:     bound   2000     800     400     200     110      70      45      30
#:     time    0.6 s   18 s    15 s    9.6 s   5.4 s   4.0 s   2.9 s   3.1 s
#:     output  2.6 MB  3.1 MB  3.6 MB  2.5 MB  1.8 MB  1.4 MB  1.1 MB  0.8 MB
#:
#: With the dict replay the same words took 34 to 52 s from width 2 on,
#: on an idle host (the bounds were set when they took 33 to 60 s on a
#: loaded one).  At widths 2 and 3 most of the time of `colored` is the
#: gcds of its ratios; `colored-closure` takes 7.9 and 6.8 s there.  The
#: widths stop at 8: at width 9 a word of 20 ones took 28 to 31 s in one
#: process with the dict replay.
MAX_COLORED_TWISTS = {1: MAX_TWIST_TOTAL, 2: 800, 3: 400, 4: 200, 5: 110, 6: 70, 7: 45, 8: 30}

#: Largest cable width of a twist word.  Its colored coordinates and
#: closure come from closed forms, with no projector, so the bound is
#: set by the time of the replay alone.
MAX_TWIST_WIDTH = max(MAX_COLORED_TWISTS)


def _check_int(x, what: str) -> int:
    """x if it is an int, else ValueError: refused before any comparison,
    and before a cached builder could take True for 1 or 2.0 for 2."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an int, got {x!r}")
    return x


def _delta_poly(k: int) -> LaurentPoly:
    """Loop value of the closed k-strand projector, (-1)^k [k+1]."""
    from . import recoupling  # loaded on first use, see its docstring

    q = recoupling._qint(k + 1)
    return -q if k % 2 else q


def check_cable_width(n: int, bound: int = MAX_PROJECTOR_STRANDS // 2) -> int:
    """Return n if it is a usable cable width, else raise ValueError.

    colored_element, a basis element or a crossing tile needs a
    projector on 2n strands, so by default n runs from 1 to
    MAX_PROJECTOR_STRANDS // 2; colored_expand and colored_closure,
    which build no projector, pass MAX_TWIST_WIDTH.  A width that is not
    an int (a bool included) is refused before any comparison.
    """
    if not 1 <= _check_int(n, "cable width") <= bound:
        raise ValueError(f"cable width must be between 1 and {bound}, got {n}")
    return n


# ---------------------------------------------------------------------------
# Colored expansion of 2-tangles
# ---------------------------------------------------------------------------
#
# The dressed tangle of a twist word lies in the (n+1)-dimensional span
# of bni_basis(n), and both twists act on that span.  The replay runs in
# the fusion basis b'_i = b_i / c_i, with c_i = theta(n,n,2i) / Delta_2i
# (recoupling.bubble_ratio), whose elements are the terms of the fusion
# identity: the dressed [0], two parallel n-cables, is the sum of all
# b'_i, the dressed [inf] is c_0 b'_0 with c_0 = Delta_n, and b'_i
# closes around the annulus to S_2i(z).  A right half twist of sign s
# scales b'_i by its twist eigenvalue (-1)^(n-i) A^(s(n^2 + 2n - 2i^2 -
# 2i)).  A bottom half twist is a right one seen after a quarter turn:
# with Q the matrix of rotate_cw on the span, which is its own inverse,
# a bottom run of a half twists is Q D(-a) Q, where D(a) is the diagonal
# right run.  Recoupling theory gives Q in closed form (Kauffman & Lins,
# Temperley-Lieb Recoupling Theory and Invariants of 3-Manifolds, 1994;
# Masbaum & Vogel, Pacific J. Math. 164, 1994):
# Q_ij = Tet Delta_2j / (theta(n,n,2i) theta(n,n,2j)), evaluated in
# recoupling.py.  Over bni_basis it is Tet Delta_2i / theta(n,n,2i)^2,
# with about three times the terms.  The replay coordinates kappa_i are
# then the Chebyshev coordinates of the colored closure, integral Laurent
# polynomials (transfer_vector), and gamma_i = kappa_i / c_i the
# coordinates over bni_basis(n).  A diagram's kappa_i are read off its
# threaded closure instead.
#
# The gamma_i and their ratios are reduced from kappa with no general
# normalization (cyclotomic.py).  Each c_i is a unit times a quotient of
# products of the cyclotomic polynomials Phi_d(A^4), as every quantum
# integer is, and its unit and factor multisets are tabled next to the
# replay data.  gamma_i strips from kappa_i only the numerator factors of
# c_i, each at most as often as it occurs and only after an exact
# divisibility test; a ratio gamma_i / gamma_k takes one gcd, of kappa_i
# and kappa_k, and strips the factors of c_k / c_i from the two coprime
# cofactors.  Both are canonical as built: kappa lies in A^lo Z[A^4],
# where a factor of Phi_d(A^4) divides only along with all of
# Phi_d(A^4).  RatFunc.normalized and colored_ratios referee them in the
# tests.
#
# colored_expand and colored_closure therefore reach every
# width up to MAX_TWIST_WIDTH without building a projector, a basis
# element or a crossing tile.  The threaded closure of
# rational_to_diagram(t) referees the replay at every width; at widths
# up to 3, colored_element and the same data read off bni_basis(n)
# referee both.

def colored_twist_word(t, n: int) -> TwistWord:
    """The twist word of a rational tangle (or of a twist word) to be
    cabled at width n; a bad width, or a word longer than
    MAX_COLORED_TWISTS[n], is refused before any work."""
    check_cable_width(n, MAX_TWIST_WIDTH)
    word = t if isinstance(t, TwistWord) else to_twist_word(t)
    bound = MAX_COLORED_TWISTS[n]
    total = sum(abs(a) for _, a in word.runs)
    if total > bound:
        raise ValueError(
            f"colored twist word too long: {total} half twists exceed "
            f"the bound {bound} at cable width {n}"
        )
    return word

@cache
def _transfer_data(n: int):
    """Start vectors, quarter-turn matrix and bubble ratios of the replay
    at width n, in the fusion basis b'_i = b_i / c_i.

    Returns (starts, q, q_den, bubbles), with bubbles[i] the RatFunc
    c_i = theta(n,n,2i) / Delta_2i.  starts maps "0" and "inf" to the
    replay coordinates of the dressed crossingless tangle: [0] is all
    ones (the fusion identity), and [inf] is c_0 = Delta_n at b'_0.
    q[i][j] / q_den is coordinate i of rotate_cw(b'_j), Tet Delta_2j /
    (theta(n,n,2i) theta(n,n,2j)), None where zero (Kauffman & Lins
    1994; Masbaum & Vogel 1994).  All of it comes from the closed forms
    of recoupling.py, cached per n; no projector, basis element or
    crossing tile is built.
    """
    from . import recoupling  # loaded on first use, see its docstring

    bubbles = [recoupling.bubble_ratio(n, i) for i in range(n + 1)]
    starts = {"0": dict.fromkeys(range(n + 1), LaurentPoly.one()),
              "inf": {0: bubbles[0].as_laurent()}}
    entries = {(i, j): recoupling.quarter_turn_entry(n, i, j)
               for i in range(n + 1) for j in range(n + 1)}
    q_nums, q_den = normalize_over(*common_denominator(entries))
    q = [[q_nums.get((i, j)) for j in range(n + 1)] for i in range(n + 1)]
    return starts, q, q_den, bubbles


#: Widest digit, in bytes, at which a quarter turn multiplies by an entry
#: of q as one product of packed integers; past it, by one shift and
#: small multiple per term of the entry, since packing pads the entry's
#: small coefficients to whole digits.  Timed on vectors of 300 digits
#: (2-vCPU x86 host, CPython 3.11), products were faster up to 8 bytes at
#: widths 2 to 8 (2 to 3.2 times at 4 bytes); at widths 2 to 6 they were
#: as fast or slower from 12 bytes on (3.7 times as slow at 32), and at
#: width 8 faster up to 16 bytes.  Products at every width took twice as
#: long on the bound words of widths 2 and 3.
_PRODUCT_BYTES = 8

#: Widest digit, in bytes, at which a bottom run divides by q_den^2 with
#: one divmod of packed integers; past it, digit by digit (see _divide).
#: Timed on quotients of 400 digits at widths 2, 5 and 8, the two took
#: the same time at 32 bytes; the divmod was 6 to 12 times as fast at
#: 8 bytes and 4.6 to 7.7 times as slow at 96.
_DIVMOD_BYTES = 32


class _ReplayTables(NamedTuple):
    """The data of the packed replay at one width n that do not depend on
    the digit width (see _replay_tables and transfer_vector)."""

    #: q_ij = A^lo_q q'_ij(A^4), lo_q the least exponent of all entries
    lo_q: int
    #: rows[i][j], the terms (k, c) of q'_ij; None where q_ij is zero
    rows: list
    #: the largest row l1-norm of q
    r: int
    #: eigen[i] = n^2 + 2n - 2i^2 - 2i, the exponent of D(1) at i
    eigen: list
    #: the coefficients of q_den^2 as a polynomial in A^4, lowest first
    d: tuple
    #: the l1-norm of q_den^2
    d_norm: int
    #: "0" and "inf" -> one (lo, digits) per coordinate, (0, None) if zero
    starts: dict


@cache
def _replay_tables(n: int) -> _ReplayTables:
    """The _ReplayTables of width n, built from _transfer_data(n) and
    cached per n.

    Checked here, through ring._to_dense at step 4, else ValueError: every
    exponent of every entry of q lies in one class mod 4, as does every
    exponent of each start vector, and q_den^2 is monic, with every
    exponent a multiple of 4 and a nonzero constant term.
    """
    starts, q, q_den, _ = _transfer_data(n)
    try:
        forms = [[None if v is None else _to_dense(v, 4) for v in row] for row in q]
        d_lo, d = _to_dense(q_den * q_den, 4)
        vectors = {kind: [_to_dense(s[i], 4) if i in s else (0, None) for i in range(n + 1)]
                   for kind, s in starts.items()}
        entries = [f for row in forms for f in row if f]
        groups = [entries] + [[f for f in vs if f[1]] for vs in vectors.values()]
        if any(len({lo % 4 for lo, _ in fs}) != 1 for fs in groups) or d_lo or d[-1] != 1:
            raise ValueError("the replay data do not lie in one class mod 4 each, "
                             "or q_den^2 is not monic")
    except ValueError as err:
        raise ValueError(f"colored replay at cable width {n}: {err}") from None
    lo_q = min(lo for lo, _ in entries)
    rows = [[None if f is None else tuple((((f[0] - lo_q) >> 2) + k, c)
                                          for k, c in enumerate(f[1]) if c)
             for f in row] for row in forms]
    r = max(sum(sum(map(abs, f[1])) for f in row if f) for row in forms)
    eigen = [n * n + 2 * n - 2 * i * i - 2 * i for i in range(n + 1)]
    return _ReplayTables(lo_q, rows, r, eigen, d, sum(map(abs, d)), vectors)


@cache
def _packed_tables(n: int, b: int):
    """(qp, d_xi, starts) at width n and digit width b, cached per (n, b),
    with xi = 2^(8b): qp[i][j] = q'_ij(xi) of _replay_tables (None where
    zero; qp itself is None past _PRODUCT_BYTES), d_xi = d(xi), and
    starts maps "0" and "inf" to the P_i(xi) of the start vectors (None
    where zero)."""
    tables = _replay_tables(n)
    qp = None
    if b <= _PRODUCT_BYTES:
        qp = [[None if terms is None else sum(c << 8 * b * k for k, c in terms)
               for terms in row] for row in tables.rows]
    vectors = {kind: [g and _pack(g, b) for _, g in s] for kind, s in tables.starts.items()}
    return qp, _pack(tables.d, b), vectors


def _turn(vec: dict, rows, qp, bits: int) -> dict:
    """q' times a packed vector vec, j -> v_j(xi) with one lo for all j,
    zero rows left out: one product per entry when qp is given, else a
    shift and a small multiple per term."""
    out = {}
    for i, row in enumerate(rows):
        total = 0
        for j, v in vec.items():
            if row[j] is None:
                continue
            if qp is not None:
                total += qp[i][j] * v
            else:
                for k, c in row[j]:
                    total += c * (v << bits * k)
        if total:
            out[i] = total
    return out


def _divide(nums: dict, n: int, b: int, m: int):
    """The quotients of packed numerators nums, i -> W_i(xi), by
    d = q_den^2, as i -> (h(xi) or None, digits of h, max-norm of h); None
    when the certificate of transfer_vector fails at digit width b, m being
    the max-norm of the run's input.  A remainder raises ValueError.

    Up to _DIVMOD_BYTES each W_i takes one divmod by d(xi), and the
    quotient is certified.  Past it, W_i is read in balanced digits, which
    are its coefficients since R^2 m < xi / 2, and ring._exact_quotient
    divides them by d: a divmod costs the length of W_i times that of
    d(xi), whose small coefficients are padded to whole digits.
    """
    tables = _replay_tables(n)
    half = 1 << (8 * b - 1)
    if tables.r ** 2 * m >= half:
        return None
    d_xi = _packed_tables(n, b)[1]
    out = {}
    for i, w in nums.items():
        if b <= _DIVMOD_BYTES:
            h, rem = divmod(w, d_xi)
            digits = None if rem else _digits(h, b)
        else:
            h, digits = None, _exact_quotient(_digits(w, b), tables.d)
        if not digits:
            raise ValueError(f"colored replay at cable width {n}: division is not exact")
        norm = max(max(digits), -min(digits))
        if h is not None and norm * tables.d_norm >= half:
            return None
        out[i] = h, digits, norm
    return out


def transfer_vector(t, n: int) -> dict:
    """Replay coordinates kappa_i of a rational tangle or twist word in
    the fusion basis b'_i = b_i / c_i of _transfer_data, as a dict
    i -> kappa_i with zero coordinates left out.

    kappa_i is the coordinate of S_2i in the colored closure and
    kappa_i / c_i that of b_i.  The replay applies each run of a half
    twists to the dressed crossingless tangle in closed form.  A right
    run multiplies coordinate i by its eigenvalue, the monomial
    (-1)^((n-i)|a|) A^(a(n^2 + 2n - 2i^2 - 2i)); call that diagonal D(a).
    A bottom run is Q D(-a) Q with Q = q / q_den: the numerators
    W = q D(-a) q kappa, divided by q_den^2.

    Integrality.  That division is exact, since every kappa_i lies in
    Z[A^+-1].  A rational tangle has no closed component, so each
    component of its colored closure passes through a projector.  The
    n-strand projector closes to S_n(z) in the annulus (Lickorish, An
    Introduction to Knot Theory, 1997, ch. 13), so the component equals
    its S_n-threading, a Z-combination of blackboard parallels, and the
    closure lies in Z[A^+-1][z]; each S_k is monic over Z, so each kappa_i
    is integral.  Every prefix of a word is a rational tangle, so a
    bottom run's numerators are q_den^2 times an integral kappa': a
    remainder means wrong data, a ValueError that names the replay.

    Classes mod 4.  _replay_tables checks that all exponents of the
    entries of q lie in one class c mod 4, that those of q_den^2 are
    multiples of 4, and that each start vector lies in one class.  The
    exponents of D(a) differ from a(n^2 + 2n) by 2i(i+1), a multiple of
    4.  So every vector of the replay lies in one class: D(a) adds
    a(n^2 + 2n) to it, a quarter turn c, and the division 0.

    Packed form.  Coordinate i is held as A^lo_i P_i(A^4), with P_i
    evaluated at xi = 2^(8b) (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009) and a sign kept apart.  A right run adds to each lo
    and flips signs, in O(1) per coordinate.  In a bottom run the lo_i
    differ by multiples of 4, so whole-digit shifts align the coordinates
    on their least lo; a quarter turn is then q'_ij(xi) v_j(xi) summed
    over j, as one product per entry up to _PRODUCT_BYTES and past it as
    shifts of v_j by each term of q'_ij.  D(-a) adds to each lo, the
    coordinates are aligned again, and _divide divides by q_den^2.

    Certificate.  Let m be the max-norm of the input coordinates, known
    exactly, and R the largest row l1-norm of q, so that every W_i has
    max-norm at most R^2 m.  The digit width b is the least with
    R^2 m ||d||_1 < xi / 2, d = q_den^2, rounded up to 1, 2, 4 or 8 bytes
    (ring._digit_width).  One divmod(W_i(xi), d(xi)) gives a quotient h
    read in balanced digits; a nonzero remainder means the polynomial
    division is not exact either, since evaluation at xi commutes with
    products.  If ||h||_inf ||d||_1 < xi / 2 and R^2 m < xi / 2, then h d
    and W_i both have every coefficient in (-xi/2, xi/2) and agree at xi,
    so they are equal and h = kappa'_i exactly.  If the test fails, b
    doubles and the run is redone from its input, whose digits are known.
    That stops: when the division is exact, h is kappa'_i once
    ||kappa'_i|| ||d||_1 < xi / 2, and passes; when it is not,
    W_i = h0 d + r0 with r0 != 0 of lower degree than d, integral since d
    is monic, and once xi outgrows r0, 0 < |r0(xi)| < d(xi) is a
    remainder.  Past _DIVMOD_BYTES the division is ring._exact_quotient on
    the digits of W_i, exact by construction.  Either way the quotient's
    digits give the next m and are written out once, at the end, with
    ring._from_dense and the signs and lo of any right runs after.

    At width 1 it referees the read-off in colored_expand.  Words longer
    than MAX_COLORED_TWISTS[n] are refused before any precompute.  The
    dict returned is the caller's own, also for a word with no runs.
    """
    return {i: _from_dense(lo, s, g, 4)
            for i, (lo, s, g) in _replay(colored_twist_word(t, n), n).items()}


def _replay(word: TwistWord, n: int) -> dict:
    """The replay of transfer_vector on a word that colored_twist_word
    has checked, with each nonzero kappa_i as (lo, sign, digits):
    kappa_i = sign A^lo P(A^4), digits the coefficients of P, lowest
    first, the lowest and the top nonzero."""
    lo_q, rows, r, eigen, _, d_norm, starts = _replay_tables(n)
    los, digits = map(list, zip(*starts[word.start]))
    signs = [1] * (n + 1)
    m = max(max(map(abs, g)) for g in digits if g)
    b, vals, fresh = 0, None, True  # vals: the P_i(xi) at b, None until packed
    for kind, a in word.runs:
        if kind == "R":
            for i in range(n + 1):
                los[i] += a * eigen[i]
                if (n - i) * a % 2:
                    signs[i] = -signs[i]
            continue
        need = _digit_width(r * r * m * d_norm)
        if need > b:
            b, vals = need, None
        while True:
            bits = 8 * b
            qp, _, packed_starts = _packed_tables(n, b)
            if vals is None:
                vals = (packed_starts[word.start] if fresh
                        else [g and _pack(g, b) for g in digits])
            live = [j for j in range(n + 1) if digits[j]]
            low = min(los[j] for j in live)
            vec = {}
            for j in live:
                v = vals[j] << bits * ((los[j] - low) >> 2)
                vec[j] = -v if signs[j] < 0 else v
            turned = _turn(vec, rows, qp, bits)
            shifts = {i: -a * eigen[i] for i in turned}
            low_d = min(shifts.values())
            vec = {i: (-v if (n - i) * a % 2 else v) << bits * ((shifts[i] - low_d) >> 2)
                   for i, v in turned.items()}
            quotients = _divide(_turn(vec, rows, qp, bits), n, b, m)
            if quotients is not None:
                break
            b, vals = 2 * b, None
        lo = 2 * lo_q + low + low_d
        los, signs, fresh = [lo] * (n + 1), [1] * (n + 1), False
        vals, digits, m = [None] * (n + 1), [None] * (n + 1), 0
        for i, (h, g, norm) in quotients.items():
            k = next(e for e, x in enumerate(g) if x)  # drop zero low digits
            if k:
                g, los[i] = g[k:], lo + 4 * k
                if h is not None:
                    h >>= bits * k
            vals[i], digits[i], m = h, g, max(m, norm)
        if b > _DIVMOD_BYTES:  # divided digit by digit: pack at the next run
            vals = None
    return {i: (lo, s, g) for i, (lo, s, g) in enumerate(zip(los, signs, digits)) if g}


def _closure_kappas(t, n: int) -> dict:
    """The nonzero coordinates kappa_i of S_2i in the colored closure, in
    the form i -> (lo, sign, digits) of _replay: for a rational tangle or
    twist word those of the replay, for a diagram the Chebyshev
    coordinates of its threaded closure (annulus.colored_closure), which
    must lie in the span of S_0, S_2, ..., S_2n, each in one class mod 4
    (in a closure, changing one smoothing moves a state's exponent by a
    multiple of 4), else ValueError."""
    if not isinstance(t, PlanarTangleDiagram):
        return _replay(colored_twist_word(t, n), n)
    from . import annulus  # annulus imports this module

    coords = annulus.chebyshev_convert(annulus.colored_closure(t, n))
    if len(coords) > 2 * n + 1 or any(coords[1::2]):
        raise ValueError("basis failure: closure outside the span of S_0, S_2, ..., S_2n")
    quarters = {}
    for i, c in enumerate(coords[::2]):
        if c:
            lo, digits = _to_dense(c.as_laurent(), 4)
            quarters[i] = lo, 1, digits
    return quarters


def _width_one_forms(word: TwistWord) -> tuple:
    """_colored_forms of a twist word at width 1, checked by the caller,
    off its closure forms: gamma_i = kappa_i / c_i, c_1 = 1 and c_0 =
    delta = -A^-2 X, X = A^4 + 1 = Phi_8 (irreducible, content 1).  So
    gamma_1 = beta and gamma_0 = -A^2 kappa_0 / X, canonical with no gcd:
    X could cancel only by dividing beta, only if beta(zeta_8) = 0, that
    is, at fraction infinity, where beta = 0 and gamma = (alpha, 0), with
    no ratio.  The ratio -A^2 kappa_0 / (X beta) takes no gcd either (alpha
    and beta are coprime, bracket.coprime_ratio): its form shifts by
    -lo_beta, and keeps the sign of beta's lowest digit in D."""
    from . import annulus  # annulus imports this module

    kappas = annulus._closure_forms(word, 1)[1]
    if len(kappas) == 1:
        lo, _, q = kappas[0]
        return [(lo + 2, 1, _exact_quotient(q, (1, 1)), (1,)), (0, 1, (), (1,))], []
    (lo, _, num), (lo_b, _, pb) = kappas
    den = list(map(add, (*pb, 0), (0, *pb)))
    return [(lo + 2, -1, num, (1, 1)), (lo_b, 1, pb, (1,))], [(lo + 2 - lo_b, -1, num, den)]


def _colored_forms(t, n: int, ratios: bool) -> tuple:
    """(gammas, ratios) of colored_invariants, ratios None unless asked
    for, as quotient forms (lo, sign, num, den), sign A^lo N(A^4) /
    D(A^4), canonical up to the sign of D: ring._quotient_str writes them
    and ring._from_quotient reads them.  The one producer: a twist word
    at width 1 goes through _width_one_forms, all else through
    cyclotomic.reduced_gammas and reduced_ratios."""
    if n == 1 and not isinstance(t, PlanarTangleDiagram):
        return _width_one_forms(colored_twist_word(t, n))  # n, not 1: a bool or float is refused
    from . import cyclotomic  # loaded on first use, see its docstring

    quarters = _closure_kappas(t, n)
    gammas = cyclotomic.reduced_gammas(quarters, n)
    return gammas, cyclotomic.reduced_ratios(quarters, n) if ratios else None


def colored_expand(t, n: int) -> list:
    """Coordinates of the n-cabled, projector-dressed tangle over
    bni_basis, gamma_i = kappa_i / c_i with kappa_i the coordinate of S_2i
    in the colored closure: the forms of _colored_forms as RatFunc."""
    return list(map(_from_quotient, _colored_forms(t, n, False)[0]))


def colored_invariants(t, n: int) -> tuple:
    """(colored_expand(t, n), ratios), the ratios those of
    colored_ratios, gamma_i / gamma_k for k the last nonzero coordinate,
    without its warning: when the top coordinate vanishes there are
    fewer than n of them.  Both come from one replay, written into
    RatFunc from the forms of _colored_forms: each ratio takes one gcd,
    of kappa_i and kappa_k, and a twist word at width 1 none.
    """
    gammas, ratios = _colored_forms(t, n, True)
    return list(map(_from_quotient, gammas)), list(map(_from_quotient, ratios))


def colored_ratios(gammas: list) -> list:
    """Quotients of the colored coordinates by the top one.

    Dividing by the last coordinate kills the framing unit a kink
    multiplies the whole list by, leaving honest isotopy invariants.
    When the top coordinate vanishes the list is normalized by the last
    nonzero one instead (a projective reading, flagged by a warning).
    """
    gammas = [as_ratfunc(g) for g in gammas]
    k = next((j for j in range(len(gammas) - 1, -1, -1) if not gammas[j].is_zero), None)
    if k is None:
        raise ValueError("zero skein element")
    if k != len(gammas) - 1:
        import warnings

        warnings.warn(
            "top colored coordinate vanishes; normalizing by the last nonzero one",
            stacklevel=2,
        )
    top = gammas[k]
    return [g / top for g in gammas[:k]]
