"""Exact intersection theory on the plane blown up at a chosen point set.

A divisor class is h·H + sum of e_p·E_p over the blown points p, with
integer coefficients, H.H = 1, E_p.E_p = -1 and all mixed products 0.  A
class is sparse: a blown point it does not list has coefficient 0.  The
cover's numbers need only integral classes: strict transforms of lines,
exceptional curves, and m times the adjoint class (`cover.adjoint_class`).
Both read the blown points from the blown plane (`homology.BlownPlane`),
which lists them, and the blown points on each line, once per plane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .homology import BlownPlane

Blown = frozenset[int]  # the blown point ids


class _DivisorClassFields(NamedTuple):
    h: int
    e: dict[int, int]  # blown point id -> coefficient of E_p
    blown: Blown


class DivisorClass(_DivisorClassFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DivisorClass:
        d = super().__new__(cls, *args, **kwargs)
        if not d.e.keys() <= d.blown:
            raise ValueError(
                f"exceptional coefficients outside the blow-up set: "
                f"{sorted(d.e.keys() - d.blown)}"
            )
        return d


def pairing(d1: DivisorClass, d2: DivisorClass) -> int:
    """The intersection form, summed over the sparser class's E_p."""
    if d1.blown is not d2.blown and d1.blown != d2.blown:
        raise ValueError("divisor classes from different blow-up sets")
    small, large = (d1.e, d2.e) if len(d1.e) <= len(d2.e) else (d2.e, d1.e)
    return d1.h * d2.h - sum(c * large.get(p, 0) for p, c in small.items())


def exceptional(point_id: int, blown: Blown) -> DivisorClass:
    return DivisorClass(0, {point_id: 1}, blown)


def strict_transforms(plane: BlownPlane) -> tuple[DivisorClass, ...]:
    """L_i' = H minus the E_p of the blown points on line i, for every line
    of the plane, from the blown points it lists on each line."""
    ids, blown = plane.blown_ids, frozenset(plane.blown_ids)
    return tuple(DivisorClass(1, {ids[b]: -1 for b in bs}, blown) for bs in plane.on_line)
