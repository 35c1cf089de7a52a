"""Projective line arrangements over Q(zeta) with exact incidence.

Lines and points are canonical projective triples (first nonzero entry 1),
so deduplication and fixed-point tests are exact dictionary lookups.  The
module also enumerates incidence-preserving line permutations and decides
whether a permutation is realized by a projectivity or anti-projectivity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .cyclotomic import ONE, ZERO, ZETA, CycNumber, parse_cyc
from .linalg import (
    Mat3,
    Vec3,
    adjugate,
    canonical,
    columns_to_matrix,
    conj_vec,
    cross,
    det3,
    matmul,
    matvec,
    normalize_matrix,
    proportional,
    scale,
    transpose,
)

Perm = tuple[int, ...]


@dataclass(frozen=True)
class Line:
    """A projective line c0*x1 + c1*x2 + c2*x3 = 0 in canonical form."""

    coeffs: Vec3

    @classmethod
    def make(cls, c0: CycNumber, c1: CycNumber, c2: CycNumber) -> Line:
        return cls(canonical((c0, c1, c2)))

    @classmethod
    def parse(cls, strings: list[str] | tuple[str, str, str]) -> Line:
        c0, c1, c2 = (parse_cyc(s) for s in strings)
        return cls.make(c0, c1, c2)

    def contains(self, point: Vec3) -> bool:
        return not (
            self.coeffs[0] * point[0]
            + self.coeffs[1] * point[1]
            + self.coeffs[2] * point[2]
        )

    def as_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


@dataclass(frozen=True)
class IncidencePoint:
    """Intersection point with the sorted indices of the lines through it."""

    coords: Vec3
    incident: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.incident)

    def incident_1based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.incident)


@dataclass(frozen=True)
class Arrangement:
    lines: tuple[Line, ...]
    points: tuple[IncidencePoint, ...]
    t: dict[int, int] = field(compare=False)
    notes: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.lines)

    def point_ids_on_line(self, i: int) -> tuple[int, ...]:
        return tuple(pid for pid, p in enumerate(self.points) if i in p.incident)

    def line_profile(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(self.points[pid].r for pid in self.point_ids_on_line(i)))

    def triples_1based(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            p.incident_1based() for p in self.points if p.r == 3
        )

    @cached_property
    def _frame(self) -> tuple[tuple[int, ...], tuple[Mat3, Mat3]]:
        """A general-position quadruple and adj of the scaled frame of its
        lines, then of its conjugated lines (realize_symmetry)."""
        quad = _general_position_quadruple(self)
        vs = [self.lines[i].coeffs for i in quad]
        return quad, tuple(adjugate(_scaled_frame(w)) for w in (vs, [conj_vec(v) for v in vs]))


def build_arrangement(lines: list[Line] | tuple[Line, ...], notes: tuple[str, ...] = ()) -> Arrangement:
    """Intersect all line pairs exactly and merge into incidence points."""
    lines = tuple(lines)
    if len(lines) < 2:
        raise ValueError("an arrangement needs at least 2 lines")
    seen: dict[Vec3, int] = {}
    for idx, line in enumerate(lines):
        if line.coeffs in seen:
            raise ValueError(f"duplicate line at positions {seen[line.coeffs]} and {idx}")
        seen[line.coeffs] = idx

    by_coords: dict[Vec3, set[int]] = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        p = canonical(cross(lines[i].coeffs, lines[j].coeffs))
        by_coords.setdefault(p, set()).update((i, j))

    points = tuple(
        IncidencePoint(coords=coords, incident=tuple(sorted(inc)))
        for coords, inc in sorted(
            by_coords.items(), key=lambda kv: tuple(sorted(kv[1]))
        )
    )
    t = dict(sorted(Counter(p.r for p in points).items()))

    n = len(lines)
    pair_total = sum(cnt * r * (r - 1) // 2 for r, cnt in t.items())
    if pair_total != n * (n - 1) // 2:
        raise AssertionError("incidence bookkeeping lost a line pair")
    return Arrangement(lines=lines, points=points, t=t, notes=notes)


# -- builtin arrangements ----------------------------------------------------


def dual_hesse() -> Arrangement:
    """The nine lines dual to the inflection points of the Fermat cubic.

    Twelve triple points, no other singularities; mu below is the primitive
    6th root of unity zeta.
    """
    mu = ZETA
    mu2 = mu * mu
    one, zero = ONE, ZERO
    rows = [
        (one, zero, -one),        # x1 - x3
        (one, zero, -mu2),        # x1 - mu^2 x3
        (one, zero, mu),          # x1 + mu x3
        (zero, one, -mu2),        # x2 - mu^2 x3
        (zero, one, -one),        # x2 - x3
        (zero, one, mu),          # x2 + mu x3
        (one, mu, zero),          # x1 + mu x2
        (one, -mu2, zero),        # x1 - mu^2 x2
        (one, -one, zero),        # x1 - x2
    ]
    return build_arrangement([Line.make(*r) for r in rows])


def complete_quadrilateral() -> Arrangement:
    """Six lines through the pairs of four real points in general position.

    Base points [1:0:0], [0:1:0], [0:0:1], [1:1:1]; lines numbered so the
    three 2-fold points are L1^L4, L2^L5, L3^L6.  Triple-point labels are
    derived from these coordinates: (1,2,3), (1,5,6), (2,4,6), (3,4,5).
    """
    one, zero = ONE, ZERO
    rows = [
        (zero, zero, one),    # L1 through [1:0:0],[0:1:0]
        (zero, one, zero),    # L2 through [1:0:0],[0:0:1]
        (zero, one, -one),    # L3 through [1:0:0],[1:1:1]
        (one, -one, zero),    # L4 through [0:0:1],[1:1:1]
        (one, zero, -one),    # L5 through [0:1:0],[1:1:1]
        (one, zero, zero),    # L6 through [0:1:0],[0:0:1]
    ]
    note = (
        "triple-point labels derived from the constructed coordinates: "
        "(1,2,3), (1,5,6), (2,4,6), (3,4,5); 2-fold points: (1,4), (2,5), (3,6)"
    )
    return build_arrangement([Line.make(*r) for r in rows], notes=(note,))


# -- combinatorial symmetry --------------------------------------------------


def combinatorial_automorphisms(arr: Arrangement) -> list[Perm]:
    """All line permutations preserving the incidence relation, sorted.

    Backtracking with two prunings: a line may map only to a line with the
    same multiset of point multiplicities, and partially assigned lines must
    already induce a consistent injective map on incidence points.
    """
    n = arr.n
    pair_point: dict[tuple[int, int], int] = {}
    for pid, p in enumerate(arr.points):
        for i, j in itertools.combinations(p.incident, 2):
            pair_point[(i, j)] = pid
    mult = [p.r for p in arr.points]
    profiles = [arr.line_profile(i) for i in range(n)]

    perm = [-1] * n
    used = [False] * n
    pmap: dict[int, int] = {}
    pmap_inv: dict[int, int] = {}
    results: list[Perm] = []

    def key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    def extend(i: int) -> None:
        if i == n:
            results.append(tuple(perm))
            return
        for img in range(n):
            if used[img] or profiles[img] != profiles[i]:
                continue
            added: list[int] = []
            ok = True
            for j in range(i):
                p = pair_point[key(i, j)]
                q = pair_point[key(img, perm[j])]
                if mult[p] != mult[q]:
                    ok = False
                    break
                if p in pmap:
                    if pmap[p] != q:
                        ok = False
                        break
                elif q in pmap_inv:
                    ok = False
                    break
                else:
                    pmap[p] = q
                    pmap_inv[q] = p
                    added.append(p)
            if ok:
                perm[i] = img
                used[img] = True
                extend(i + 1)
                used[img] = False
                perm[i] = -1
            for p in added:
                del pmap_inv[pmap[p]]
                del pmap[p]

    extend(0)
    return sorted(results)


def perm_cycles_str(perm: Perm) -> str:
    """1-based cycle notation, fixed points omitted; identity prints as 'id'."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(cycles) if cycles else "id"


def compose_perms(p1: Perm, p2: Perm) -> Perm:
    """(p1 o p2)(i) = p1(p2(i))."""
    return tuple(p1[p2[i]] for i in range(len(p1)))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


# -- projective / anti-projective realizability ------------------------------


@dataclass(frozen=True)
class LineSymmetry:
    """A line permutation with an anti-holomorphic flag and, when it exists,
    a 3x3 matrix M with M . sigma(line_i) ~ line_perm(i) (sigma = coefficient
    conjugation iff anti)."""

    perm: Perm
    anti: bool
    matrix: Mat3 | None = None

    def cycles(self) -> str:
        return perm_cycles_str(self.perm)

    def fixed_lines_1based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(len(self.perm)) if self.perm[i] == i)


def _general_position_quadruple(arr: Arrangement) -> tuple[int, int, int, int]:
    for quad in itertools.combinations(range(arr.n), 4):
        vs = [arr.lines[i].coeffs for i in quad]
        if all(det3((vs[a], vs[b], vs[c])) for a, b, c in itertools.combinations(range(4), 3)):
            return quad
    raise ValueError(
        "the symmetry model needs a finite projective stabilizer: "
        "the arrangement has no 4 lines in general position"
    )


def _scaled_frame(vs: list[Vec3]) -> Mat3:
    """Columns c_i v_i (i < 3), c the Cramer numerators of v_3 in the basis
    v_0, v_1, v_2: the matrix maps (1, 1, 1) to det(v_0, v_1, v_2) v_3."""
    v0, v1, v2, v3 = vs
    c = (det3((v3, v1, v2)), det3((v0, v3, v2)), det3((v0, v1, v3)))
    return columns_to_matrix(*(scale(vs[i], c[i]) for i in range(3)))


def realize_symmetry(arr: Arrangement, perm: Perm, anti: bool) -> Mat3 | None:
    """Return a matrix realizing (perm, anti) on line coefficients, or None.

    M = W adj(V), for the scaled frames V and W of a quadruple of lines in
    general position and of its images, is verified exactly on every line (a
    degenerate image quadruple fails it); absence of a matrix is a definite
    answer, not a failure.
    """
    if sorted(perm) != list(range(arr.n)):
        raise ValueError("perm is not a permutation of the lines")
    quad, source_adjugates = arr._frame
    m = matmul(_scaled_frame([arr.lines[perm[i]].coeffs for i in quad]), source_adjugates[anti])
    sigma = conj_vec if anti else (lambda v: v)
    for i in range(arr.n):
        image = matvec(m, sigma(arr.lines[i].coeffs))
        if not proportional(image, arr.lines[perm[i]].coeffs):
            return None
    return normalize_matrix(m)


def make_symmetry(arr: Arrangement, perm: Perm, anti: bool) -> LineSymmetry:
    return LineSymmetry(perm=perm, anti=anti, matrix=realize_symmetry(arr, perm, anti))


def fixed_points_of(arr: Arrangement, sym: LineSymmetry) -> list[IncidencePoint]:
    """Incidence points fixed by the realized (anti-)projectivity, which maps
    a point x to (M^T)^(-1) sigma(x), a multiple of adj(M)^T sigma(x)."""
    if sym.matrix is None:
        raise ValueError("symmetry has no realizing matrix")
    n = transpose(adjugate(sym.matrix))
    sigma = conj_vec if sym.anti else (lambda v: v)
    return [p for p in arr.points if canonical(matvec(n, sigma(p.coords))) == p.coords]


def arrangement_from_json(data: dict) -> Arrangement:
    rows = data.get("lines") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ValueError("arrangement JSON needs a 'lines' array")
    for idx, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise ValueError(f"lines[{idx}] must be 3 coefficient strings, got {row!r}")
    return build_arrangement([Line.parse(row) for row in rows])
