"""Colored invariants of rational tangles: the cable-width bounds, and
the paths of the colored replay and of the Temperley-Lieb glue engine.

This module holds what every command line needs of the colored layer:
the bounds on cable width and twist total, and check_cable_width.  The
work lives in two modules that load on first use, and whose names keep
their paths here (tl.colored_expand, tl.jones_wenzl and the rest): the
module __getattr__ below loads one of them on the first access to one
of its names (PEP 562).

* replay.py, the colored replay: the coordinates of a twist word in the
  fusion basis from the closed forms of recoupling.py, on packed big
  integers, and the forms and objects of the colored coordinates and
  their ratios.  The colored and colored-closure command lines load it;
  the width-1 lines of bracket, closure and classify never do.
* engine.py, the Temperley-Lieb glue engine (matchings, TLElement,
  projectors, bni_basis, colored_element, the referee of the replay at
  widths up to 3), which no command line needs.
"""

from __future__ import annotations

from .ring import LaurentPoly
from .tangles import MAX_TWIST_TOTAL

#: The names of engine.py that tl answers for, loading the engine on the
#: first access to one of them.
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

#: The names of replay.py that tl answers for, loading the replay on the
#: first access to one of them; any other missing name, a dunder
#: included, raises AttributeError at once.
_REPLAY_NAMES = frozenset((
    "colored_twist_word",
    "transfer_vector",
    "colored_expand",
    "colored_invariants",
    "colored_ratios",
    "_transfer_data",
    "_PRODUCT_BYTES",
    "_DIVMOD_BYTES",
    "_ReplayTables",
    "_replay_tables",
    "_packed_tables",
    "_turn",
    "_divide",
    "_replay",
    "_closure_kappas",
    "_width_one_forms",
    "_colored_forms",
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
    if name in _REPLAY_NAMES:
        from . import replay

        return getattr(replay, name)
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_ENGINE_NAMES, *_REPLAY_NAMES})


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
