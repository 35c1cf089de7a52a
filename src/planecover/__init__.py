"""Exact-arithmetic toolkit for abelian covers of the projective plane
branched over line arrangements: incidence, smoothness, numeric invariants,
symmetry and real-structure classification, and topological bound checks.

The names below are exported lazily (PEP 562): `import planecover` loads no
submodule, and `planecover.klein_model` imports `planecover.symmetry` on
first use.  Each access reads the defining module's current attribute.
"""

from importlib import import_module

_EXPORTS = {
    "arrangement": (
        "Arrangement",
        "IncidencePoint",
        "Line",
        "build_arrangement",
        "combinatorial_automorphisms",
        "complete_quadrilateral",
        "dual_hesse",
        "fixed_points_of",
        "realize_symmetry",
    ),
    "bounds": (
        "HodgeData",
        "fake_plane_involution_check",
        "hodge_from_surface",
        "is_maximal",
        "lefschetz_trace",
        "my_identity",
        "prop_h20_lower_bound",
        "smith_total",
    ),
    "catalog": (
        "PHI1",
        "PHI2",
        "PHI3",
        "builtin_arrangement",
        "builtin_cover",
        "resolve_cover",
    ),
    "characters": ("enumerate_characters", "r_profile"),
    "cover": (
        "generator_words",
        "invariants",
        "nonnegative_solutions",
        "three_canonical_decomposition",
    ),
    "cyclotomic": ("ZETA", "CycNumber", "parse_cyc"),
    "homology": ("CoverModel", "Epimorphism", "galois_kernel", "smoothness_check"),
    "symmetry": ("KleinModel", "classify_real_structures", "deck_action_of", "klein_model"),
}

# exported name -> defining submodule
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
