"""Reference cover invariants through the rational divisor lattice.

This is the route the library took before it wrote m times the adjoint class
as one integral class: divisor classes with Fraction coefficients on the
plane blown up at a chosen point set, the branch class B summed from strict
transforms and exceptional curves, and the adjoint class
K_tilde + ((m-1)/m) B.  `lattice_invariants` pairs every curve with that
class and scales by powers of m; `lattice_canonical_route` tests the class
identity 3K_tilde = -(sum of strict transforms).  A preimage of negative
arithmetic genus is accepted when it splits into `component_count` disjoint
curves of genus >= 0; the count is the index of the subgroup of (Z/m)^k
generated by phi of the curve and of the branch curves the pairing says it
meets, listed element by element.  The tests require the library's report,
error text included, from both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from planecover.arrangement import Arrangement
from planecover.cover import CurveInvariants, InvariantReport
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


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"{what} = {x} is not an integer")
    return int(x)


def subgroup_order(gens: list[tuple[int, ...]], m: int) -> int:
    """|<gens>| in (Z/m)^k, by closing {0} under adding each generator."""
    seen = {(0,) * len(gens[0])}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen)


def branch_curves(cover: CoverModel) -> list[tuple[str, DivisorClass, tuple[int, ...]]]:
    """(label, class, phi-image) of every branch curve of the blown plane:
    the strict transforms, then the exceptional curves, whose image is the
    sum of phi over the lines whose strict transforms meet them."""
    arr, blown, phi = cover.arrangement, cover.blown_ids, cover.phi
    curves = [(f"C{i + 1}", strict_transform(arr, i, blown), phi.rows[i]) for i in range(arr.n)]
    for pid in blown:
        e = exceptional(pid, blown)
        meeting = [row for _, cls, row in curves[: arr.n] if pairing(cls, e) > 0]
        image = tuple(sum(col) % phi.m for col in zip(*meeting))
        label = "D" + ",".join(str(x) for x in arr.points[pid].incident_1based())
        curves.append((label, e, image))
    return curves


def component_count(cover: CoverModel, label: str) -> int:
    """The number of components of the preimage of the curve `label`:
    m^k over the order of the subgroup that phi of the curve and of every
    other branch curve with positive pairing against it generate."""
    curves = branch_curves(cover)
    index = next(j for j, (name, _, _) in enumerate(curves) if name == label)
    _, cls, image = curves[index]
    gens = [image] + [
        row for j, (_, other, row) in enumerate(curves) if j != index and pairing(cls, other) > 0
    ]
    return cover.m ** cover.k // subgroup_order(gens, cover.m)


def _curve_invariants(
    label: str, cls: DivisorClass, kadj: DivisorClass, cover: CoverModel
) -> CurveInvariants:
    m, k = cover.m, cover.k
    self_int = _as_int(Fraction(m) ** (k - 2) * pairing(cls, cls), f"{label}^2")
    k_degree = _as_int(Fraction(m) ** (k - 1) * pairing(cls, kadj), f"({label},K)")
    p_a = Fraction(self_int + k_degree + 2, 2)
    # d disjoint curves of genus g have arithmetic genus d (g - 1) + 1
    g = p_a if p_a >= 0 else (p_a - 1) / component_count(cover, label) + 1
    if p_a.denominator != 1 or g.denominator != 1 or g < 0:
        raise ValueError(f"adjunction gives no valid genus for {label}")
    return CurveInvariants(label, self_int, k_degree, int(p_a))


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
        _curve_invariants(f"C{i + 1}", strict_transform(arr, i, blown), kadj, cover)
        for i in range(arr.n)
    )
    points = tuple(
        _curve_invariants(
            "D" + ",".join(str(x) for x in arr.points[pid].incident_1based()),
            exceptional(pid, blown),
            kadj,
            cover,
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
