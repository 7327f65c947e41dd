"""Output checkers kept apart from the program under test.

Nothing here imports tanglekit.  Expected fractions, parities, canonical
forms and homotopy types come from this module's own continued-fraction
code.  Printed Laurent polynomials and rational functions are parsed and
evaluated at a seeded point modulo a large prime, and compared with this
module's own evaluation of the Kauffman bracket skein relation over the
twist vector.

Skein conventions, derived once from the skein relation:

* a crossing of sign s expands as ``A^s <inf> + A^-s <0>``;
* adding tangles side by side (a right twist): ``0+0 = 0``,
  ``0+inf = inf+0 = inf``, ``inf+inf = delta inf``;
* stacking tangles (a bottom twist): ``inf*inf = inf``,
  ``inf*0 = 0*inf = 0``, ``0*0 = delta 0``;
* with ``delta = -A^2 - A^-2``.  A twist vector ``[a1 ... am]`` (innermost
  first) starts from ``[0]`` for odd m and ``[inf]`` for even m; entry k
  is a run of |ak| right twists when m - k is even and bottom twists
  otherwise, each of sign sgn(ak).
* Closing a tangle around the annulus core (top corners joined over the
  core, bottom corners likewise) sends ``<inf>`` to one contractible
  circle (delta) and ``<0>`` to two core-parallel circles (z^2).
"""

from __future__ import annotations

import random
from math import gcd

PRIME = (1 << 61) - 1

# Homotopy class of the solid-torus closure of a tangle p/q, by parity.
HOMOTOPY_OF_PARITY = {
    "e/o": "TRIVIAL_KNOT",
    "o/e": "TWO_COMPONENT",
    "o/o": "WINDING_KNOT",
}


def inv(x: int) -> int:
    x %= PRIME
    if x == 0:
        raise ZeroDivisionError("value vanishes at the evaluation point")
    return pow(x, PRIME - 2, PRIME)


class Point:
    """A seeded evaluation point A (and its inverse) modulo PRIME."""

    def __init__(self, seed: int):
        rng = random.Random(f"perfbench-point-{seed}")
        self.a = rng.randrange(2, PRIME - 1)
        self.z = rng.randrange(2, PRIME - 1)
        self.a_inv = inv(self.a)
        self.delta = (-self.a * self.a - self.a_inv * self.a_inv) % PRIME

    def at_inverse(self) -> "Point":
        """The same point with A replaced by 1/A (the mirror image)."""
        other = object.__new__(Point)
        other.a, other.a_inv = self.a_inv, self.a
        other.z, other.delta = self.z, self.delta
        return other


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------

def fraction_of(entries) -> tuple:
    """Reduced (p, q) of am + 1/(a_{m-1} + ... + 1/a1), q >= 0; infinity
    is (1, 0)."""
    p, q = entries[0], 1
    for a in entries[1:]:
        p, q = a * p + q, p  # a + 1/(p/q) = (a p + q) / p
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return (1, 0)
    g = gcd(abs(p), q)
    return (p // g, q // g)


def parity_of(p: int, q: int) -> str:
    if p % 2 == 0:
        return "e/o"
    return "o/e" if q % 2 == 0 else "o/o"


def canonical_entries(p: int, q: int) -> list:
    """The shortest odd-length uniform-sign twist vector of p/q (q > 0)."""
    if p == 0:
        return [0]
    sign = 1 if p > 0 else -1
    p = abs(p)
    outer_first = []
    while q:
        a, r = divmod(p, q)
        outer_first.append(a)
        p, q = q, r
    # The innermost term of a regular expansion of a non-integer is >= 2;
    # an innermost 1 can only come from a term that should absorb it.
    if len(outer_first) > 1 and outer_first[-1] == 1:
        outer_first.pop()
        outer_first[-1] += 1
    inner_first = outer_first[::-1]
    if len(inner_first) % 2 == 0:
        # Odd length: split the innermost k into (1, k-1), or merge a
        # leading 1 into its neighbour.
        if inner_first[0] == 1:
            inner_first = [inner_first[1] + 1] + inner_first[2:]
        else:
            inner_first = [1, inner_first[0] - 1] + inner_first[1:]
    return [sign * a for a in inner_first]


def ext_str(p: int, q: int) -> str:
    if q == 0:
        return "inf"
    return str(p) if q == 1 else f"{p}/{q}"


# ---------------------------------------------------------------------------
# Skein reference modulo PRIME
# ---------------------------------------------------------------------------

def twist_runs(entries):
    """Start tangle and the runs (kind, sign, count) of a twist vector."""
    m = len(entries)
    runs = []
    for k, a in enumerate(entries, start=1):
        if a:
            runs.append(("R" if (m - k) % 2 == 0 else "B", 1 if a > 0 else -1, abs(a)))
    return ("0" if m % 2 else "inf"), runs


def bracket_mod(entries, pt: Point) -> tuple:
    """(alpha, beta) of the tangle at A = pt.a: <T> = alpha <inf> + beta <0>."""
    start, runs = twist_runs(entries)
    alpha, beta = (0, 1) if start == "0" else (1, 0)
    d = pt.delta
    for kind, s, count in runs:
        x, y = (pt.a, pt.a_inv) if s > 0 else (pt.a_inv, pt.a)  # A^s, A^-s
        if kind == "R":
            for _ in range(count):
                alpha, beta = ((x * d + y) * alpha + x * beta) % PRIME, (y * beta) % PRIME
        else:
            for _ in range(count):
                alpha, beta = (x * alpha) % PRIME, (y * alpha + (x + y * d) * beta) % PRIME
    return alpha, beta


def closure_mod(entries, pt: Point) -> dict:
    """z-coefficients of the annular closure: {0: delta alpha, 2: beta}."""
    alpha, beta = bracket_mod(entries, pt)
    return {0: pt.delta * alpha % PRIME, 2: beta}


def chebyshev_at(k: int, z: int) -> int:
    """S_k(z) with S_0 = 1, S_1 = z, S_{k+1} = z S_k - S_{k-1}."""
    prev, cur = 1, z % PRIME
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, (z * cur - prev) % PRIME
    return cur


# ---------------------------------------------------------------------------
# Parsing printed values
# ---------------------------------------------------------------------------

def _coeff(text: str) -> int:
    if "/" in text:
        a, b = text.split("/")
        return int(a) * inv(int(b)) % PRIME
    return int(text) % PRIME


def _term(body: str, pt: Point) -> int:
    if "A" not in body:
        return _coeff(body)
    if "*" in body:
        c, var = body.split("*")
        c = _coeff(c)
    else:
        c, var = 1, body
    if var == "A":
        e = 1
    elif var.startswith("A^"):
        e = int(var[2:])
    else:
        raise ValueError(f"bad monomial {body!r}")
    base = pt.a if e >= 0 else pt.a_inv
    return c * pow(base, abs(e), PRIME) % PRIME


def eval_poly(text: str, pt: Point) -> int:
    """Value of a printed Laurent polynomial such as ``-A^5 + 2/3*A^-3``."""
    tokens = text.split(" ")
    if not tokens or tokens == [""]:
        raise ValueError("empty polynomial")
    first = tokens[0]
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:]
    total = sign * _term(first, pt)
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError(f"bad polynomial {text!r}")
    for op, body in zip(rest[::2], rest[1::2]):
        if op not in "+-" or not body:
            raise ValueError(f"bad polynomial {text!r}")
        total += _term(body, pt) if op == "+" else -_term(body, pt)
    return total % PRIME


def eval_ratfunc(text: str, pt: Point) -> int:
    """Value of a printed rational function ``(num)/(den)`` or polynomial."""
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return eval_poly(num, pt) * inv(eval_poly(den, pt)) % PRIME
    return eval_poly(text, pt)


def eval_ext(text: str) -> tuple:
    """(p, q) of a printed extended rational such as ``-12/5`` or ``inf``."""
    if text == "inf":
        return (1, 0)
    if "/" in text:
        p, q = text.split("/")
        return (int(p), int(q))
    return (int(text), 1)


# ---------------------------------------------------------------------------
# Payload checkers: each returns a list of error strings
# ---------------------------------------------------------------------------

def _cmp(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_fraction(entries, out) -> list:
    errors = []
    p, q = fraction_of(entries)
    _cmp(errors, "fraction", (out.get("p"), out.get("q")), (p, q))
    _cmp(errors, "fraction parity", out.get("parity"), parity_of(p, q))
    return errors


def check_canonical(entries, out) -> list:
    errors = []
    p, q = fraction_of(entries)
    _cmp(errors, "canonical fraction", (out.get("p"), out.get("q")), (p, q))
    _cmp(errors, "canonical entries", out.get("entries"), canonical_entries(p, q))
    return errors


def check_parity(entries, out) -> list:
    p, q = fraction_of(entries)
    errors = []
    _cmp(errors, "parity", out.get("parity"), parity_of(p, q))
    return errors


def check_classify(entries, out) -> list:
    errors = []
    p, q = fraction_of(entries)
    tag = parity_of(p, q)
    _cmp(errors, "classify fraction", (out.get("p"), out.get("q")), (p, q))
    _cmp(errors, "classify parity", out.get("parity"), tag)
    _cmp(errors, "classify homotopy", out.get("homotopy"), HOMOTOPY_OF_PARITY[tag])
    return errors


def check_invariant(entries, out) -> list:
    errors = []
    p, q = fraction_of(entries)
    _cmp(errors, "invariant", (out.get("p"), out.get("q")), (p, q))
    _cmp(errors, "invariant C", out.get("C"), ext_str(p, q))
    return errors


def check_bracket(entries, out, pt: Point) -> list:
    errors = []
    alpha, beta = bracket_mod(entries, pt)
    got_alpha = eval_poly(out["alpha"], pt)
    got_beta = eval_poly(out["beta"], pt)
    _cmp(errors, "bracket alpha at A", got_alpha, alpha)
    _cmp(errors, "bracket beta at A", got_beta, beta)
    if out["R"] == "inf":
        _cmp(errors, "bracket R = inf needs beta = 0", beta, 0)
    else:
        _cmp(errors, "bracket R * beta at A", eval_ratfunc(out["R"], pt) * beta % PRIME, alpha)
    _cmp(errors, "bracket C", eval_ext(out["C"]), fraction_of(entries))
    return errors


def check_z_vs_chebyshev(z: dict, cheb: list, pt: Point, what: str) -> list:
    """Both bases must give the same element at a random value of z."""
    errors = []
    zv = pt.z
    lhs = sum(eval_ratfunc(c, pt) * pow(zv, int(k), PRIME) for k, c in z.items()) % PRIME
    rhs = sum(eval_ratfunc(c, pt) * chebyshev_at(k, zv) for k, c in enumerate(cheb)) % PRIME
    _cmp(errors, f"{what}: z basis vs Chebyshev basis at random z", rhs, lhs)
    return errors


def check_closure(entries, out, pt: Point) -> list:
    ref = closure_mod(entries, pt)
    z = out["z"]
    errors = []
    degrees = set(ref) | {int(k) for k in z}
    for k in sorted(degrees):
        got = eval_ratfunc(z[str(k)], pt) if str(k) in z else 0
        _cmp(errors, f"closure z^{k} coefficient at A", got, ref.get(k, 0))
    errors += check_z_vs_chebyshev(z, out["chebyshev"], pt, "closure")
    return errors


def check_colored(entries, out, pt: Point, n: int) -> list:
    """Shape, ratios consistent with the gammas, and at n = 1 the exact
    relation to the bracket: gamma_1 = beta, gamma_0 = alpha + beta/delta."""
    errors = []
    _cmp(errors, "colored n", out.get("n"), n)
    gammas = [eval_ratfunc(g, pt) for g in out["gamma"]]
    _cmp(errors, "colored gamma count", len(gammas), n + 1)
    _cmp(errors, "colored ratio count", len(out["ratios"]), n)
    if errors:
        return errors
    top = gammas[-1]
    if top == 0:
        errors.append("colored top coordinate vanishes at the evaluation point")
        return errors
    for i, r in enumerate(out["ratios"]):
        _cmp(errors, f"colored ratio {i} * gamma_{n}", eval_ratfunc(r, pt) * top % PRIME, gammas[i])
    if n == 1:
        alpha, beta = bracket_mod(entries, pt)
        _cmp(errors, "colored n=1 gamma_1 = beta", gammas[1], beta)
        _cmp(errors, "colored n=1 gamma_0 = alpha + beta/delta", gammas[0],
             (alpha + beta * inv(pt.delta)) % PRIME)
    return errors


def check_colored_closure(entries, out, pt: Point, n: int) -> list:
    """Both bases agree; at n = 1 the colored closure is the closure."""
    errors = []
    _cmp(errors, "colored-closure n", out.get("n"), n)
    if n == 1:
        return errors + check_closure(entries, out, pt)
    return errors + check_z_vs_chebyshev(out["z"], out["chebyshev"], pt, "colored-closure")


def _coordinates(out) -> list:
    """(label, printed value) of every coordinate of a colored or a
    colored-closure payload."""
    if "gamma" in out:
        return [(f"gamma_{i}", g) for i, g in enumerate(out["gamma"])]
    return ([(f"z^{k}", c) for k, c in sorted(out["z"].items())]
            + [(f"S_{i}", c) for i, c in enumerate(out["chebyshev"])])


def check_mirror_pair(out, mirror_out, pt: Point, what: str) -> list:
    """Every coordinate of the mirror at A equals the original's at 1/A."""
    mine, theirs = _coordinates(out), _coordinates(mirror_out)
    if [label for label, _ in mine] != [label for label, _ in theirs]:
        return [f"{what}: the mirror image has other coordinates"]
    inv_pt = pt.at_inverse()
    errors = []
    for (label, a), (_, b) in zip(mine, theirs):
        _cmp(errors, f"{what} mirror {label}", eval_ratfunc(b, pt), eval_ratfunc(a, inv_pt))
    return errors


def check_fraction_pair(out, other_out, pt: Point, what: str) -> list:
    """Tangles with equal fractions are isotopic, so their framing-free
    ratios agree: printed colored ratios are identical, and colored
    closures agree after dividing by the top Chebyshev coordinate."""
    errors = []
    if "ratios" in out:
        _cmp(errors, f"{what} ratios of fraction-equal tangles", other_out["ratios"], out["ratios"])
        return errors
    a = [eval_ratfunc(c, pt) for c in out["chebyshev"]]
    b = [eval_ratfunc(c, pt) for c in other_out["chebyshev"]]
    if len(a) != len(b) or not a or a[-1] == 0 or b[-1] == 0:
        return [f"{what}: Chebyshev coordinates of fraction-equal tangles differ in shape"]
    ta, tb = inv(a[-1]), inv(b[-1])
    for i, (x, y) in enumerate(zip(a, b)):
        _cmp(errors, f"{what} Chebyshev ratio {i} of fraction-equal tangles", y * tb % PRIME, x * ta % PRIME)
    return errors
