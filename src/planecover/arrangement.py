"""Projective line arrangements over Q(zeta) with exact incidence.

Lines and points are canonical projective triples (first nonzero entry 1),
so deduplication is an exact dictionary lookup, and a point is fixed by a
realized line permutation exactly when the permutation keeps its lines.

The incidence-preserving permutation search and the realization of a
permutation by a projectivity or anti-projectivity live in `search`, and
so does what they keep per arrangement (`search.SearchState`).  This
module reaches them through `Arrangement._search`, which builds that
state on first use, and `combinatorial_automorphisms`; those are the only
two places that import `search`, so a command that reads only incidence,
such as `cover smoothness`, never compiles it.  An arrangement keeps its
blown planes too (`Arrangement._planes`), which `homology` makes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .cyclotomic import ONE, ZERO, ZETA, CycNumber, parse_cyc
from .linalg import Mat3, Vec3, canonical, cross

Perm = tuple[int, ...]


class Line(NamedTuple):
    """A projective line c0*x1 + c1*x2 + c2*x3 = 0 in canonical form."""

    coeffs: Vec3

    @classmethod
    def make(cls, c0: CycNumber, c1: CycNumber, c2: CycNumber) -> Line:
        return cls(canonical((c0, c1, c2)))

    @classmethod
    def parse(cls, strings: list[str] | tuple[str, str, str]) -> Line:
        c0, c1, c2 = (parse_cyc(s) for s in strings)
        return cls.make(c0, c1, c2)

    def as_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class IncidencePoint(NamedTuple):
    """Intersection point with the sorted indices of the lines through it."""

    coords: Vec3
    incident: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.incident)

    def incident_1based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.incident)


class _ArrangementFields(NamedTuple):
    lines: tuple[Line, ...]
    points: tuple[IncidencePoint, ...]
    notes: tuple[str, ...] = ()


class Arrangement(_ArrangementFields):
    """Lines and their incidence points, equal and hashed by both and the
    notes.  The subclass has no `__slots__`, so an instance keeps a
    `__dict__` for the tables derived from it on first use."""

    @property
    def n(self) -> int:
        return len(self.lines)

    @cached_property
    def t(self) -> dict[int, int]:
        """t_r, the number of r-fold points, by increasing r."""
        return dict(sorted(Counter(p.r for p in self.points).items()))

    def triples_1based(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            p.incident_1based() for p in self.points if p.r == 3
        )

    @cached_property
    def _search(self):
        """What the search and the realizations keep for this arrangement
        (`search.SearchState`), built the first time one of them runs."""
        from .search import SearchState

        return SearchState(self)

    @cached_property
    def _planes(self) -> dict:
        """The blown planes kept for this arrangement (`homology.BlownPlane`)
        by (blown_ids, m, k), each made when a cover of that shape is first
        built (`homology.blown_plane`): what its covers share reads no phi."""
        return {}

    @property
    def automorphism_order(self) -> int:
        """|Aut_comb|, as the search state counts and keeps it: `symmetry
        search`, `arrangement info --autos` and `paper verify` print it, and
        nothing in the Klein model needs it."""
        return self._search.automorphism_order


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
    n = len(lines)
    pair_total = sum(p.r * (p.r - 1) // 2 for p in points)
    if pair_total != n * (n - 1) // 2:
        raise AssertionError("incidence bookkeeping lost a line pair")
    return Arrangement(lines=lines, points=points, notes=notes)


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
    """All line permutations preserving the incidence relation (Aut_comb),
    sorted: `incidence_automorphisms` without a linear constraint.  No
    command lists the group; `count_automorphisms` counts it."""
    from .search import incidence_automorphisms

    return incidence_automorphisms(arr)


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


def realize_symmetry(arr: Arrangement, perm: Perm, anti: bool) -> Mat3 | None:
    """Return a matrix realizing (perm, anti) on line coefficients, or None.

    The answer depends on the arrangement and (perm, anti) only, so it is
    solved once (`SearchState.realize`) and kept in the arrangement's search
    state; only permutations enter the memo, so a non-permutation raises
    ValueError every time.
    """
    perm = tuple(perm)
    memo = arr._search.realizations
    if (perm, anti) not in memo:
        if sorted(perm) != list(range(arr.n)):
            raise ValueError("perm is not a permutation of the lines")
        memo[perm, anti] = arr._search.realize(perm, anti)
    return memo[perm, anti]


def fixed_points_of(arr: Arrangement, perm: Perm) -> tuple[IncidencePoint, ...]:
    """Incidence points fixed by a map realizing `perm`, in `arr.points` order.

    A realized map sends the point on lines I to the point on lines perm(I),
    so a point is fixed exactly when perm maps its lines onto themselves:
    O(sum of r_p) up to the sort of each point's lines, no Q(zeta)
    arithmetic, and nothing kept on `arr`.
    """
    return tuple(p for p in arr.points if tuple(sorted(perm[i] for i in p.incident)) == p.incident)
