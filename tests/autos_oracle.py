"""Reference incidence-automorphism searches.

`combinatorial_automorphisms` is the backtracking the library used before it
ordered lines by constraint and propagated images through multiple points:
lines are assigned in index order, every line is tried as the image of every
line, and each candidate is checked against all earlier lines.
`brute_force_automorphisms` tries all n! permutations.  The tests require
the library's sorted list from both routes.

`annihilator_filter` is the character filter the library applied to the
full list before its search took the epimorphism's linear constraint: it
keeps the automorphisms that map every column of phi into the column span.
`blow_up_filter` is the filter `klein_model` applied to the search's list
before the search took the blown points.
"""

from __future__ import annotations

import itertools

from planecover.arrangement import Arrangement, Perm
from planecover.homology import Epimorphism, nullspace_mod_p


def points_on_line(arr: Arrangement, i: int) -> tuple[int, ...]:
    return tuple(pid for pid, p in enumerate(arr.points) if i in p.incident)


def line_profile(arr: Arrangement, i: int) -> tuple[int, ...]:
    """The sorted multiplicities of the points on line i."""
    return tuple(sorted(arr.points[pid].r for pid in points_on_line(arr, i)))


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
    profiles = [line_profile(arr, i) for i in range(n)]

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


def brute_force_automorphisms(arr: Arrangement) -> list[Perm]:
    """Every permutation that maps the line set of each incidence point onto
    the line set of an incidence point, in lexicographic order."""
    point_sets = {frozenset(p.incident) for p in arr.points}
    return [
        perm
        for perm in itertools.permutations(range(arr.n))
        if all(frozenset(perm[i] for i in s) in point_sets for s in point_sets)
    ]


def annihilator_filter(autos: list[Perm], phi: Epimorphism) -> list[Perm]:
    """The permutations in `autos` whose coordinate action fixes the span A
    of phi's columns: every permuted column is annihilated by the
    annihilator Y = {y : sum_i y_i phi[i][j] = 0 for all j} of A."""
    m, n = phi.m, phi.n
    columns = [phi.column(j) for j in range(phi.k)]
    annihilator = nullspace_mod_p(columns, m, n)
    return [
        perm
        for perm in autos
        if all(
            sum(y[i] * col[perm[i]] for i in range(n)) % m == 0
            for y in annihilator
            for col in columns
        )
    ]


def blow_up_filter(perms: list[Perm], arr: Arrangement, blown: tuple[int, ...]) -> list[Perm]:
    """The permutations in `perms` that map the line sets of the blown
    points onto themselves."""
    sets = {frozenset(arr.points[pid].incident) for pid in blown}
    return [perm for perm in perms if {frozenset(perm[i] for i in s) for s in sets} == sets]
