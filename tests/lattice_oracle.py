"""Reference cover invariants through the rational divisor lattice.

This is the route the library took before it wrote m times the adjoint class
as one integral class: divisor classes with Fraction coefficients on the
plane blown up at a chosen point set, the branch class B summed from strict
transforms and exceptional curves, and the adjoint class
K_tilde + ((m-1)/m) B.  `lattice_invariants` pairs every curve with that
class and scales by powers of m; `lattice_canonical_route` tests the class
identity 3K_tilde = -(sum of strict transforms).  The tests require the
library's report, error text included, from both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from planecover.arrangement import Arrangement
from planecover.cover import (
    CurveInvariants,
    InvariantReport,
    _as_int,
)
from planecover.homology import CoverModel

Context = tuple[int, ...]  # sorted blown point ids


@dataclass(frozen=True)
class DivisorClass:
    h: Fraction
    e: tuple[tuple[int, Fraction], ...]  # sorted (point_id, coefficient), zeros dropped
    context: Context

    @classmethod
    def make(cls, h: Fraction | int, e: dict[int, Fraction], context: Context) -> DivisorClass:
        unknown = set(e) - set(context)
        if unknown:
            raise ValueError(f"exceptional coefficients outside context: {sorted(unknown)}")
        cleaned = tuple(sorted((p, Fraction(c)) for p, c in e.items() if c))
        return cls(Fraction(h), cleaned, tuple(context))

    def __add__(self, other: DivisorClass) -> DivisorClass:
        self._check(other)
        e = {p: c for p, c in self.e}
        for p, c in other.e:
            e[p] = e.get(p, Fraction(0)) + c
        return DivisorClass.make(self.h + other.h, e, self.context)

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return self + other.scaled(Fraction(-1))

    def scaled(self, s: Fraction | int) -> DivisorClass:
        s = Fraction(s)
        return DivisorClass.make(self.h * s, {p: c * s for p, c in self.e}, self.context)

    def _check(self, other: DivisorClass) -> None:
        if self.context != other.context:
            raise ValueError("divisor classes from different blow-up contexts")


def exceptional(point_id: int, context: Context) -> DivisorClass:
    return DivisorClass.make(Fraction(0), {point_id: Fraction(1)}, context)


def pairing(d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """The intersection form: H.H = 1, E_p.E_p = -1, everything else 0."""
    d1._check(d2)
    total = d1.h * d2.h
    coeffs2 = dict(d2.e)
    for p, c in d1.e:
        total -= c * coeffs2.get(p, Fraction(0))
    return total


def strict_transform(arr: Arrangement, line_index: int, context: Context) -> DivisorClass:
    """H minus the exceptional classes of the blown points on the line."""
    e = {
        pid: Fraction(-1)
        for pid in context
        if line_index in arr.points[pid].incident
    }
    return DivisorClass.make(Fraction(1), e, context)


def canonical_class(context: Context) -> DivisorClass:
    """-3H + sum of E_p over the blown points."""
    return DivisorClass.make(
        Fraction(-3), {p: Fraction(1) for p in context}, context
    )


def branch_class(arr: Arrangement, blown_ids: Context) -> DivisorClass:
    """B = sum of strict transforms + sum of exceptional curves."""
    total = canonical_class(blown_ids).scaled(0)
    for i in range(arr.n):
        total = total + strict_transform(arr, i, blown_ids)
    for pid in blown_ids:
        total = total + exceptional(pid, blown_ids)
    return total


def adjoint_branch_class(arr: Arrangement, blown_ids: Context, m: int) -> DivisorClass:
    """K_tilde + ((m-1)/m) B; its pullback is the cover's canonical class."""
    ktilde = canonical_class(blown_ids)
    if m == 1:
        return ktilde
    return ktilde + branch_class(arr, blown_ids).scaled(Fraction(m - 1, m))


def scanned_euler(arr: Arrangement, blown_ids: Context, m: int, k: int) -> int:
    """e(cover) by additivity over the free part, branch curves, and
    crossings, with each line's branch points found by scanning every point.

    Requires every unblown point to be 2-fold so that at most two branch
    components pass through any point, all transversally.
    """
    blown = set(blown_ids)
    for pid, p in enumerate(arr.points):
        if pid not in blown and p.r != 2:
            raise ValueError(
                f"unblown {p.r}-fold point {p.incident_1based()}: "
                "more than two branch components would cross"
            )
    n = arr.n
    n_blown = len(blown_ids)
    crossings = sum(arr.points[pid].r for pid in blown_ids) + sum(
        1 for pid, p in enumerate(arr.points) if pid not in blown and p.r == 2
    )
    e_complement = (3 + n_blown) - 2 * n - 2 * n_blown + crossings
    line_parts = 0
    for i in range(n):
        on_line = [pid for pid, p in enumerate(arr.points) if i in p.incident]
        branch_pts = sum(
            1 for pid in on_line if pid in blown or arr.points[pid].r == 2
        )
        line_parts += 2 - branch_pts
    exc_parts = sum(2 - arr.points[pid].r for pid in blown_ids)

    total = (
        Fraction(m) ** k * e_complement
        + Fraction(m) ** (k - 1) * (line_parts + exc_parts)
        + Fraction(m) ** (k - 2) * crossings
    )
    if total.denominator != 1:
        raise ValueError("stratified Euler characteristic is not integral")
    return int(total)


def _curve_invariants(
    label: str, cls: DivisorClass, kadj: DivisorClass, m: int, k: int
) -> CurveInvariants:
    self_int = _as_int(Fraction(m) ** (k - 2) * pairing(cls, cls), f"{label}^2")
    k_degree = _as_int(Fraction(m) ** (k - 1) * pairing(cls, kadj), f"({label},K)")
    two_g = self_int + k_degree + 2
    if two_g % 2 or two_g < 0:
        raise ValueError(f"adjunction gives no valid genus for {label}")
    return CurveInvariants(label, self_int, k_degree, two_g // 2)


def lattice_invariants(cover: CoverModel) -> InvariantReport:
    """`cover.invariants` with every number paired in the rational lattice."""
    cover.require_smooth()
    arr, blown, m, k = cover.arrangement, cover.blown_ids, cover.m, cover.k
    kadj = adjoint_branch_class(arr, blown, m)
    k2 = _as_int(Fraction(m) ** k * pairing(kadj, kadj), "K^2")
    euler = scanned_euler(arr, blown, m, k)
    chi = (k2 + euler) // 12
    if (k2 + euler) % 12:
        raise ValueError(f"K^2 + e = {k2 + euler} violates the Noether quotient")
    lines = tuple(
        _curve_invariants(f"C{i + 1}", strict_transform(arr, i, blown), kadj, m, k)
        for i in range(arr.n)
    )
    points = tuple(
        _curve_invariants(
            "D" + ",".join(str(x) for x in arr.points[pid].incident_1based()),
            exceptional(pid, blown),
            kadj,
            m,
            k,
        )
        for pid in blown
    )
    return InvariantReport(
        m=m,
        k=k,
        k2=k2,
        euler=euler,
        chi=chi,
        my_defect=k2 - 3 * euler,
        line_curves=lines,
        point_curves=points,
    )


def lattice_canonical_route(arr: Arrangement, blown_ids: Context) -> bool:
    """The class identity 3K_tilde = -(sum of strict transforms)."""
    minus_lines = canonical_class(blown_ids).scaled(0)
    for i in range(arr.n):
        minus_lines = minus_lines - strict_transform(arr, i, blown_ids)
    return canonical_class(blown_ids).scaled(3) == minus_lines
