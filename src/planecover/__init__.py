"""Exact-arithmetic toolkit for abelian covers of the projective plane
branched over line arrangements: incidence, smoothness, numeric invariants,
symmetry and real-structure classification, and topological bound checks."""

from .arrangement import (
    Arrangement,
    IncidencePoint,
    Line,
    build_arrangement,
    combinatorial_automorphisms,
    complete_quadrilateral,
    dual_hesse,
    fixed_points_of,
    realize_symmetry,
)
from .bounds import (
    HodgeData,
    fake_plane_involution_check,
    hodge_from_surface,
    is_maximal,
    lefschetz_trace,
    my_identity,
    prop_h20_lower_bound,
    smith_total,
)
from .catalog import (
    PHI1,
    PHI2,
    PHI3,
    builtin_arrangement,
    builtin_cover,
    resolve_cover,
)
from .characters import (
    enumerate_characters,
    r_profile,
    unique_profile_elements,
)
from .cover import (
    CoverModel,
    generator_words,
    invariants,
    nonnegative_solutions,
    three_canonical_decomposition,
)
from .cyclotomic import ZETA, CycNumber, parse_cyc
from .homology import (
    DeckGroup,
    Epimorphism,
    galois_kernel,
    independence,
    smoothness_check,
)
from .symmetry import (
    KleinModel,
    classify_real_structures,
    deck_action_of,
    klein_model,
)

__version__ = "0.1.0"
