"""Numeric invariants of the smooth abelian cover of the blown-up plane.

The cover (`homology.CoverModel`) is an arrangement, a blow-up set, and an
epimorphism phi onto (Z/mZ)^k.  All invariants are computed on the blown
plane and scaled by the covering degree: the canonical class of the cover is
the pullback of K_tilde + ((m-1)/m) B where B is the branch divisor class,
the Euler characteristic comes from the stratification into the free part,
the m^(k-1)-fold branch curves, and the m^(k-2)-fold crossing points.  The
crossings come from `homology.branch_curves`; `invariants` reads each
curve's meeting images from the cover's table, built once by
`CoverModel.build`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .arrangement import Arrangement
from .homology import CoverModel, Epimorphism, Vector, branch_curves, rank_mod_p
from .intersection import Blown, DivisorClass, exceptional, pairing, strict_transforms

# -- canonical class -----------------------------------------------------------


def adjoint_class(arr: Arrangement, blown: Blown, m: int) -> DivisorClass:
    """m K_adj, where K_adj = K_tilde + ((m-1)/m) B pulls back to the cover's
    canonical class.  With K_tilde = -3H + sum E_p and the branch class
    B = nH + sum (1 - r_p) E_p it is the integral class
    ((m-1)n - 3m) H + sum e_p E_p, e_p = m - (m-1)(r_p - 1)."""
    return DivisorClass(
        (m - 1) * arr.n - 3 * m,
        {pid: m - (m - 1) * (arr.points[pid].r - 1) for pid in blown},
        blown,
    )


# -- Euler characteristic --------------------------------------------------------


def stratified_euler(
    arr: Arrangement, blown_ids: tuple[int, ...], m: int, k: int
) -> int:
    """e(cover) by additivity over the free part, branch curves, and crossings.

    Requires every unblown point to be 2-fold so that at most two branch
    components pass through any point, all transversally.  On the plane
    blown up at b points the n + b branch curves are rational and cross at
    the c points that `homology.branch_curves` lists: r_p over each blown
    point p and one over each unblown double point.  The free part has
    e = 3 + b - 2(n + b) + c and the curves less their crossings
    2(n + b) - 2c; the cover has m^k, m^(k-1) and m^(k-2) points over a
    point of each stratum (Hirzebruch, "Arrangements of lines and algebraic
    surfaces", 1983).
    """
    crossings = branch_curves(arr, blown_ids).crossings
    for p, pairs in zip(arr.points, crossings):
        if not pairs:
            raise ValueError(
                f"unblown {p.r}-fold point {p.incident_1based()}: "
                "more than two branch components would cross"
            )
    n, b, c = arr.n, len(blown_ids), sum(map(len, crossings))
    total = m * m * (3 - 2 * n - b + c) + 2 * m * (n + b - c) + c  # m^(2-k) e
    if k >= 2:
        return total * m ** (k - 2)
    euler, rest = divmod(total, m ** (2 - k))
    if rest:
        raise ValueError("stratified Euler characteristic is not integral")
    return euler


# -- invariant report -------------------------------------------------------------


class CurveInvariants(NamedTuple):
    label: str
    self_int: int
    k_degree: int
    genus: int


class InvariantReport(NamedTuple):
    m: int
    k: int
    k2: int
    euler: int
    chi: int
    my_defect: int
    line_curves: tuple[CurveInvariants, ...]
    point_curves: tuple[CurveInvariants, ...]


def invariants(cover: CoverModel) -> InvariantReport:
    """K^2, e, chi and the per-curve data of a smooth cover.

    K^2 and the per-curve numbers take O(n + sum of r_p) integer steps: a
    branch curve C over a curve D of the blown plane has m C = pi^* D, so
    C^2 = m^(k-2) D^2 and (C, K) = m^(k-1) (D, K_adj) = m^(k-2) (D, m K_adj);
    K^2 = m^k K_adj^2 = m^(k-2) (m K_adj)^2.  A smooth cover has k >= 2
    (`homology._independent`), so m^(k-2) is an integer.  Each curve's
    meeting images are read from the cover's `branch_curves` table.
    """
    cover.require_smooth()
    arr, m, k = cover.arrangement, cover.m, cover.k
    blown = frozenset(cover.blown_ids)
    mkadj = adjoint_class(arr, blown, m)
    scale = m ** (k - 2)
    k2 = scale * pairing(mkadj, mkadj)
    euler = stratified_euler(arr, cover.blown_ids, m, k)
    chi = (k2 + euler) // 12
    if (k2 + euler) % 12:
        raise ValueError(f"K^2 + e = {k2 + euler} violates the Noether quotient")
    labels = (
        *(f"C{i + 1}" for i in range(arr.n)),
        *("D" + ",".join(map(str, arr.points[pid].incident_1based())) for pid in cover.blown_ids),
    )
    classes = (*strict_transforms(arr, blown), *(exceptional(pid, blown) for pid in cover.blown_ids))
    found, meeting = [], None
    for c, (label, cls) in enumerate(zip(labels, classes)):
        self_int, k_degree = scale * pairing(cls, cls), scale * pairing(cls, mkadj)
        # p_a of a preimage of d disjoint curves of genus g is d (g - 1) + 1:
        # a negative p_a needs d | p_a - 1 and g >= 0, where d = m^(k - r)
        # and r is the rank of phi of the curve and of the curves crossing it
        p_a, odd = divmod(self_int + k_degree + 2, 2)
        valid = not odd
        if valid and p_a < 0:
            meeting = meeting or cover.curves.meeting()
            d = m ** (k - rank_mod_p(meeting[c], m))
            valid = (p_a - 1) % d == 0 and p_a >= 1 - d
        if not valid:
            raise ValueError(f"adjunction gives no valid genus for {label}")
        found.append(CurveInvariants(label, self_int, k_degree, p_a))
    return InvariantReport(
        m=m,
        k=k,
        k2=k2,
        euler=euler,
        chi=chi,
        my_defect=k2 - 3 * euler,
        line_curves=tuple(found[: arr.n]),
        point_curves=tuple(found[arr.n :]),
    )


# -- tri-canonical decomposition ---------------------------------------------------


class ThreeCanonicalDecomposition(NamedTuple):
    line_coeffs: tuple
    point_coeffs: tuple
    integral: bool
    all_positive: bool
    canonical_route: bool
    note: str


def _point_coeffs(arr: Arrangement, blown, mkadj: DivisorClass, line_coeffs) -> list:
    """The blown points' coefficients in 3K, given the line coefficients: 3 e_p
    (m K_adj = hH + sum e_p E_p) plus the coefficients of the lines through p."""
    return [
        3 * mkadj.e[pid] + sum(line_coeffs[i] for i in arr.points[pid].incident) for pid in blown
    ]


def _extra_lines(
    start: int,
    slots: int,
    needs: list[int],
    incident: list[tuple[int, ...]],
    on_line: list[list[int]],
) -> tuple[int, ...] | None:
    """The lexicographically first `slots` lines from `start` on that include
    at least needs[b] of the lines incident[b] through each blown point b, or
    None.  Depth-first in the order of `itertools.combinations`, dropping a
    prefix as soon as some point needs more lines than the slots left or
    than its lines from `start` on, or the points together need more than
    the `slots` lines from `start` on that pass through the most needy
    points can give (a line lowers each need through it by one);
    `needs` is restored on return."""
    for need, lines in zip(needs, incident):
        if need > min(slots, len(lines) - bisect_left(lines, start)):
            return None
    if total := sum(need for need in needs if need > 0):
        reach = sorted(
            (sum(needs[b] > 0 for b in on_line[i]) for i in range(start, len(on_line))),
            reverse=True,
        )
        if total > sum(reach[:slots]):
            return None
    if slots == 0:
        return ()
    for i in range(start, len(on_line) - slots + 1):
        for b in on_line[i]:
            needs[b] -= 1
        rest = _extra_lines(i + 1, slots - 1, needs, incident, on_line)
        for b in on_line[i]:
            needs[b] += 1
        if rest is not None:
            return (i, *rest)
    return None


def three_canonical_decomposition(cover: CoverModel) -> ThreeCanonicalDecomposition:
    """Express 3K of the cover as a combination of branch-curve classes.

    The line coefficients are spread as evenly as an integral distribution
    allows, trying the lines that get one more in lexicographic order, and
    the first distribution with every coefficient positive is reported;
    otherwise the rational symmetric solution, which `integral` marks when
    every coefficient is an integer (3K = -3(C1 + C2 + C3) on the cover of
    three lines by P^2, say), and which is the zero combination when K is
    numerically trivial (m K_adj = 0).  The search (`_extra_lines`) drops
    every prefix that leaves some blown point nonpositive, so it never
    lists the C(n, rem) subsets one by one.  When 3*K_tilde equals minus
    the sum of strict transforms, that is when n = 9 and every blown point
    is 3-fold (`canonical_route`), the distribution is the uniform
    (2m-3, 3(m-1)).
    """
    cover.require_smooth()
    arr, blown, m = cover.arrangement, cover.blown_ids, cover.m
    n = arr.n
    mkadj = adjoint_class(arr, frozenset(blown), m)
    blown_points = [arr.points[pid] for pid in blown]
    # 3K_tilde = -9H + 3 sum E_p and -(sum of strict transforms) = -nH + sum r_p E_p
    canonical_route = n == 9 and all(p.r == 3 for p in blown_points)

    total = 3 * mkadj.h  # sum of line coefficients
    base, rem = divmod(total, n)
    if base > 0:
        # rem < n lines get one more; blown point b needs needs[b] of its lines among them
        floor = [base] * n
        needs = [1 - d for d in _point_coeffs(arr, blown, mkadj, floor)]
        on_line: list[list[int]] = [[] for _ in range(n)]
        for b, p in enumerate(blown_points):
            for i in p.incident:
                on_line[i].append(b)
        extra = _extra_lines(0, rem, needs, [p.incident for p in blown_points], on_line)
        if extra is not None:
            c = [base + (1 if i in extra else 0) for i in range(n)]
            return ThreeCanonicalDecomposition(
                tuple(c),
                tuple(_point_coeffs(arr, blown, mkadj, c)),
                integral=True,
                all_positive=True,
                canonical_route=canonical_route,
                note="3K_tilde = -(sum of strict transforms); uniform coefficients"
                if canonical_route
                else "near-balanced integral distribution (not unique)",
            )

    c_rat = [Fraction(total, n)] * n
    d_rat = _point_coeffs(arr, blown, mkadj, c_rat)
    return ThreeCanonicalDecomposition(
        tuple(c_rat),
        tuple(d_rat),
        integral=all(x.denominator == 1 for x in c_rat + d_rat),
        all_positive=all(x > 0 for x in c_rat + d_rat),
        canonical_route=False,
        # m K_adj = 0: K is numerically trivial, and the zero combination is exact
        note="K is numerically trivial, so 3K = 0" if not any(c_rat + d_rat)
        else "no positive integral distribution found; symmetric rational solution",
    )


# -- Diophantine filter --------------------------------------------------------------


def nonnegative_solutions(coeffs: tuple[int, ...], target: int) -> list[tuple[int, ...]]:
    """All non-negative integer solutions of sum(coeffs[i] * x_i) = target.

    An empty list is the obstruction used to pin curves to the branch set.
    """
    if any(c <= 0 for c in coeffs):
        raise ValueError("coefficients must be positive")
    solutions: list[tuple[int, ...]] = []

    def recurse(idx: int, remaining: int, partial: tuple[int, ...]) -> None:
        if idx == len(coeffs) - 1:
            q, r = divmod(remaining, coeffs[idx])
            if r == 0:
                solutions.append(partial + (q,))
            return
        for x in range(remaining // coeffs[idx] + 1):
            recurse(idx + 1, remaining - x * coeffs[idx], partial + (x,))

    if target >= 0 and coeffs:
        recurse(0, target, ())
    return solutions


# -- generator words ------------------------------------------------------------------


def generator_words(phi: Epimorphism) -> tuple[Vector, ...]:
    """Exponent vectors of w_j^m as monomials in the line equations.

    The j-th word is phi's j-th column read as exponents in 0..m-1; the last
    line's exponent is forced by the zero-sum relation.
    """
    return tuple(phi.column(j) for j in range(phi.k))


def word_str(exponents: Vector, j: int, m: int) -> str:
    factors = [
        f"l{i + 1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exponents)
        if e
    ]
    rhs = "*".join(factors) if factors else "1"
    return f"w{j + 1}^{m} = {rhs}"
