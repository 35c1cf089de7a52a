"""Topological bound arithmetic for real surfaces.

Hodge-theoretic inputs are plain integers: (h10, h20, h11), the 2-torsion
rank nu of H_1, and optionally the splitting (p_plus, p_minus) of the
primitive part of H^{1,1} under a real structure, with
p_plus + p_minus = h11 - 1.  Real components enter as Z/2-Betti triples.

`bounds_report` reads the hodge document of `bounds check` into a
`HodgeData` and runs the arithmetic on it; with `jsonio`, this module is
all of planecover that `bounds check` loads besides `cli`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .jsonio import _is_int, require_object

Betti = tuple[int, int, int]


class _HodgeFields(NamedTuple):
    h10: int
    h20: int
    h11: int
    nu: int = 0
    p_plus: int | None = None
    p_minus: int | None = None
    components: tuple[Betti, ...] = ()


class HodgeData(_HodgeFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> HodgeData:
        h = super().__new__(cls, *args, **kwargs)
        for name in ("h10", "h20", "h11", "nu"):
            if getattr(h, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if (h.p_plus is None) != (h.p_minus is None):
            raise ValueError("p_plus and p_minus must be given together")
        if h.p_plus is not None:
            if h.p_plus < 0 or h.p_minus < 0:
                raise ValueError("p_plus and p_minus must be non-negative")
            if h.p_plus + h.p_minus != h.h11 - 1:
                raise ValueError("p_plus + p_minus must equal h11 - 1")
        return h._replace(components=tuple(tuple(c) for c in h.components))

    def require_split(self) -> tuple[int, int]:
        if self.p_plus is None or self.p_minus is None:
            raise ValueError("this computation needs the (p_plus, p_minus) split")
        return self.p_plus, self.p_minus


def hodge_from_surface(k2: int, euler: int, q: int = 0, nu: int = 0, **kw) -> HodgeData:
    """Assemble Hodge numbers from K^2, e, and the irregularity input flag.

    chi = (K^2 + e)/12 must be an integer (Noether); then p_g = chi - 1 + q
    and h11 = e - 2 + 4q - 2 p_g.
    """
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    if (k2 + euler) % 12:
        raise ValueError(f"K^2 + e = {k2 + euler} is not divisible by 12")
    chi = (k2 + euler) // 12
    pg = chi - 1 + q
    h11 = euler - 2 + 4 * q - 2 * pg
    if pg < 0 or h11 < 0:
        raise ValueError("inconsistent surface data")
    return HodgeData(h10=q, h20=pg, h11=h11, nu=nu, **kw)


# -- the hodge document `bounds check` reads ------------------------------------


_REQUIRED = object()


def _hodge_int(data: dict, name: str, default: object = _REQUIRED) -> int | None:
    """An integer field of hodge JSON; a missing optional one (or null where
    the default is None) gives the default."""
    value = data.get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"hodge JSON needs an integer {name!r}")
    if value is not default and not _is_int(value):
        raise ValueError(f"hodge JSON field {name!r} must be an integer, got {value!r}")
    return value


def _hodge_components(data: dict) -> tuple[Betti, ...]:
    comps = data.get("components", [])
    if not isinstance(comps, list):
        raise ValueError(f"hodge JSON field 'components' must be a list, got {comps!r}")
    for idx, c in enumerate(comps):
        if not (
            isinstance(c, list)
            and len(c) == 3
            and all(_is_int(b) and b >= 0 for b in c)
        ):
            raise ValueError(
                f"hodge JSON field components[{idx}] must be 3 non-negative integer "
                f"Betti numbers, got {c!r}"
            )
    return tuple(tuple(c) for c in comps)


HODGE_KEYS = frozenset(
    {"k2", "euler", "q", "h10", "h20", "h11", "nu", "p_plus", "p_minus", "components", "k3"}
)


def bounds_report(data: dict, k3: int | None = None) -> dict:
    """Bound arithmetic on hodge JSON: an object with integer k2 and euler
    (and optional q), or integer h10, h20 and h11, never fields of both (any
    of k2, euler or q selects the first form); optional integer nu, p_plus,
    p_minus and k3 (the `--k3` argument overrides it), and components as
    Betti triples.  Any other key is refused."""
    require_object(data, "hodge", HODGE_KEYS)
    surface = [key for key in ("k2", "euler", "q") if key in data]
    hodge = [key for key in ("h10", "h20", "h11") if key in data]
    if surface and hodge:
        raise ValueError(
            "hodge JSON must use one form, k2/euler/q or h10/h20/h11, "
            f"got {', '.join(surface + hodge)}"
        )
    optional = {
        "nu": _hodge_int(data, "nu", 0),
        "p_plus": _hodge_int(data, "p_plus", None),
        "p_minus": _hodge_int(data, "p_minus", None),
        "components": _hodge_components(data),
    }
    document_k3 = _hodge_int(data, "k3", None)
    if k3 is None:
        k3 = document_k3
    for value in (k3, document_k3):
        if value is not None and value < 0:
            raise ValueError(f"k3 must be non-negative, got {value}")
    if surface:
        h = hodge_from_surface(
            _hodge_int(data, "k2"),
            _hodge_int(data, "euler"),
            q=_hodge_int(data, "q", 0),
            **optional,
        )
    else:
        h = HodgeData(
            h10=_hodge_int(data, "h10"),
            h20=_hodge_int(data, "h20"),
            h11=_hodge_int(data, "h11"),
            **optional,
        )
    out: dict = {
        "hodge": {"h10": h.h10, "h20": h.h20, "h11": h.h11, "nu": h.nu},
        "smith_total": smith_total(h),
        "my_identity": my_identity(h),
    }
    if h.components:
        out["real_betti_total"] = real_betti_total(h.components)
        out["maximal"] = is_maximal(h)
        out["lefschetz_trace"] = lefschetz_trace(h)
        out["component_exclusions"] = [
            small_component_exclusion(c) for c in h.components
        ]
    if h.p_plus is not None and my_identity(h):
        out["h20_lower_bound"] = prop_h20_lower_bound(h)
    if k3 is not None and h.p_plus is not None:
        verdict = component_count_bound(h, k3)
        out["component_count"] = {
            "k3": k3,
            "feasible": verdict.feasible,
            "note": verdict.note,
        }
    return out


def smith_total(h: HodgeData) -> int:
    """2 + 4(h10 + nu) + 2 h20 + h11: the Z/2 homology total upstairs."""
    return 2 + 4 * (h.h10 + h.nu) + 2 * h.h20 + h.h11


def real_betti_total(components: tuple[Betti, ...]) -> int:
    return sum(sum(c) for c in components)


def is_maximal(h: HodgeData) -> bool:
    """Smith bound attained: total real Betti equals the complex total."""
    real = real_betti_total(h.components)
    total = smith_total(h)
    if real > total:
        raise ValueError(f"Smith bound violated: {real} > {total}")
    return real == total


def lefschetz_trace(h: HodgeData) -> int:
    """Solve b0 - b1 + b2 = 1 + tr on the primitive (1,1)-part for tr."""
    trace = sum(c[0] - c[1] + c[2] for c in h.components) - 1
    if abs(trace) > h.h11 - 1:
        raise ValueError(
            f"trace {trace} exceeds the primitive (1,1) dimension {h.h11 - 1}"
        )
    return trace


def my_identity(h: HodgeData) -> bool:
    """h11 = h20 + h10 + 1, the Hodge shape forced by K^2 = 3e."""
    return h.h11 == h.h20 + h.h10 + 1


def prop_h20_lower_bound(h: HodgeData) -> int:
    """Lower bound 2 nu + 5 p_plus + 4 for h20 of a maximal MY surface."""
    if not my_identity(h):
        raise ValueError("not Miyaoka-Yau shaped: h11 != h20 + h10 + 1")
    p_plus, _ = h.require_split()
    return 2 * h.nu + 5 * p_plus + 4


class ComponentBoundVerdict(NamedTuple):
    lhs: int
    rhs: int
    satisfied: bool
    feasible: bool
    note: str


def component_count_bound(h: HodgeData, k3: int) -> ComponentBoundVerdict:
    """Feasibility of a maximal MY real part with k3 components of type N_3.

    Components other than the k3 spheres-with-3-blown-points force
    beta1 >= 4k - k3, which against the maximal-surface count demands
    h11 + h10 + 2nu + p- >= 2h11 + 2h10 + 4nu + 2p+ + 2 - k3;
    since p- <= h11 - 1 this is impossible for k3 < 3.
    """
    p_plus, p_minus = h.require_split()
    lhs = h.h11 + h.h10 + 2 * h.nu + p_minus
    rhs = 2 * h.h11 + 2 * h.h10 + 4 * h.nu + 2 * p_plus + 2 - k3
    satisfied = lhs >= rhs
    if k3 < 3:
        note = (
            f"k3 = {k3} < 3: needs p_minus >= h11 + {h.h10 + 2 * h.nu + 2 * p_plus + 2 - k3}, "
            "impossible since p_minus <= h11 - 1"
        )
        feasible = False
    else:
        feasible = satisfied or k3 > 3 + h.h10 + 2 * h.nu + 2 * p_plus
        note = "constraint reduces to h11 <= p_minus + 1 (boundary case)" if (
            k3 == 3 and h.h10 == 0 and h.nu == 0 and p_plus == 0
        ) else f"requires p_minus >= {rhs - lhs + p_minus}"
    return ComponentBoundVerdict(lhs, rhs, satisfied, feasible, note)


# -- the fixed fake-plane scenario ----------------------------------------------


class FakePlaneReport(NamedTuple):
    curve_case_equation: str
    curve_case_contradiction: bool
    lefschetz_fixed_points: int
    jacobian_det: int
    holomorphic_sum: Fraction
    holomorphic_contradiction: bool


def fake_plane_involution_check() -> FakePlaneReport:
    """Arithmetic obstruction to an order-2 automorphism of a surface with
    b0 = b2 = b4 = 1, b1 = b3 = 0 and K^2 = 9.

    (a) a fixed curve C = rK (r > 0) would satisfy both e(C) = 2 C^2 > 0 and
        e(C) = -(C^2 + C.K) < 0: the equation 2(9 r^2) = -(9 r^2 + 9 r) has
        no positive root;
    (b) the topological trace forces exactly 1 - 0 + 1 - 0 + 1 = 3 fixed
        points;
    (c) each fixed point contributes 1/det(Id - (-Id)) = 1/4, so the
        holomorphic trace sums to 3/4, never 1.
    """
    # (a) 27 r^2 + 9 r = 0 has roots r = 0 and r = -1/3 only
    roots = (Fraction(0), Fraction(-1, 3))
    curve_contradiction = all(r <= 0 for r in roots)
    # (b)
    fixed_points = 1 - 0 + 1 - 0 + 1
    # (c) det(Id - diag(-1, -1)) = 2 * 2
    det = 2 * 2
    holo_sum = Fraction(fixed_points, det)
    return FakePlaneReport(
        curve_case_equation="27*r^2 + 9*r = 0",
        curve_case_contradiction=curve_contradiction,
        lefschetz_fixed_points=fixed_points,
        jacobian_det=det,
        holomorphic_sum=holo_sum,
        holomorphic_contradiction=holo_sum != 1,
    )


def small_component_exclusion(component: Betti) -> str:
    """Reject sphere, RP^2, torus, Klein bottle components (beta1 <= 2) of the
    real part of a negatively curved surface; accept beta1 >= 3."""
    return "accepted" if component[1] >= 3 else "rejected"
