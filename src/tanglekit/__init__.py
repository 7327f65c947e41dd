"""Exact skein-theoretic invariants of rational two-string tangles and
their solid-torus closures.

The package computes, in exact Laurent-polynomial arithmetic, the
continued fraction of a rational tangle, its Kauffman bracket
coordinates, cabled colored invariants through Jones-Wenzl projectors,
and the induced elements of the annular skein module; every fast
algebraic path is checked against a brute-force smoothing enumerator.

Every public name below and every submodule is loaded on first access
(PEP 562): ``import tanglekit`` runs this file alone, and a command line
compiles only the modules its command uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Every public name by the submodule that defines it, and every
#: submodule by its own name.  __getattr__ answers these names only, and
#: __all__ is read off the table.
_HOMES = {
    **dict.fromkeys((
        "AnnulusElement",
        "CounterexampleReport",
        "HomotopyType",
        "chebyshev_convert",
        "chebyshev_polynomial",
        "closure_bases",
        "closure_bracket",
        "colored_closure",
        "colored_closure_bases",
        "counterexample_check",
        "element_closure",
        "fraction_from_closure",
        "gamma_ratio_invariants",
        "homotopy_type",
        "link_fraction",
        "links_equivalent",
        "solid_torus_closure",
    ), "annulus"),
    **dict.fromkeys((
        "BracketVec2",
        "bracket_vector",
        "c_invariant",
        "coprime_ratio",
        "mirror_transport",
        "ratio_invariant",
    ), "bracket"),
    **dict.fromkeys((
        "cable_diagram",
        "connectivity",
        "left_linking_number",
        "rational_to_diagram",
    ), "diagrams"),
    **dict.fromkeys((
        "JonesWenzl",
        "QuantumCoeffs",
        "TLElement",
        "bni_basis",
        "catalan",
        "colored_element",
        "compose",
        "e_generator",
        "enumerate_matchings",
        "identity_element",
        "jones_wenzl",
        "quantum_coeffs",
        "rotate_ccw",
        "rotate_cw",
        "state_sum",
        "tensor",
        "trace_close",
    ), "engine"),
    **dict.fromkeys((
        "MAX_ORACLE_COUNT",
        "MAX_ORACLE_CROSSINGS",
        "annular_closure",
        "bracket_of_diagram",
        "closure_coefficients",
        "matchings_of_diagram",
    ), "oracle"),
    **dict.fromkeys((
        "MAX_FRACTION_DIGITS",
        "ExtRational",
        "TwistVector",
        "canonical_form",
        "continued_fraction",
        "parity",
        "schubert_equivalent",
    ), "rationals"),
    **dict.fromkeys(("LaurentPoly", "RatFunc"), "ring"),
    **dict.fromkeys((
        "MAX_TWIST_TOTAL",
        "PlanarTangleDiagram",
        "RationalTangle",
        "TwistWord",
        "build_rational",
        "tangle_add",
        "tangle_invert",
        "tangle_negate",
        "to_twist_word",
    ), "tangles"),
    **dict.fromkeys((
        "colored_expand",
        "colored_invariants",
        "colored_ratios",
    ), "replay"),
    **dict.fromkeys(("MAX_PROJECTOR_STRANDS",), "tl"),
    **{name: name for name in (
        "annulus", "bracket", "cli", "cyclotomic", "diagrams", "engine", "kernel",
        "oracle", "rationals", "records", "recoupling", "replay", "ring", "tangles",
        "threaded", "tl",
    )},
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list:
    return sorted({*globals(), *_HOMES})


__all__ = [name for name, home in _HOMES.items() if name != home] + ["__version__"]
