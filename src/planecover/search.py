"""The incidence automorphism search and the projective realization of line
permutations, and what they keep per arrangement (`SearchState`).

Only `arrangement info --autos`, `symmetry search`, `real classify` and
`paper verify` load this module.  `arrangement` imports it when an
arrangement's search state is first needed (`Arrangement._search`) and
when `combinatorial_automorphisms` runs, so a command that reads only
incidence never compiles it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property

from .arrangement import Arrangement, Perm
from .homology import Vector, row_reduce
from .linalg import (
    Mat3,
    Vec3,
    adjugate,
    columns_to_matrix,
    conj_vec,
    det3,
    matmul,
    matvec,
    normalize_matrix,
    proportional,
    scale,
)


# -- what the search keeps per arrangement -----------------------------------


class SearchState:
    """What the search and the realizations keep for one arrangement.

    `Arrangement._search` builds it the first time a search, a realization
    or |Aut_comb| is asked for, and the arrangement keeps it, so every query
    that shares the arrangement (`catalog`) shares it too.  It holds:

    - the incidence tables, computed at once: each point's multiplicity
      (`mult`) and lines (`through`), the point where lines i != j meet
      (`meet`), each line's profile and its same-profile lines
      (`profiles`, `same_profile`; `_incidence`), and the search's line
      order with each position's anchor (`order`, `anchors`;
      `_search_order`);
    - the projective frame (`frame`), built when first read
      (`symmetry.klein_model` reads it before its search, to refuse
      early): a general-position quadruple and adj of the scaled frame of
      its lines, then of its conjugated lines.  An arrangement without 4
      lines in general position refuses it every time it is asked;
    - the realization memo (`realizations`): `realize_symmetry`'s answers by
      (perm, anti), filled as they are asked for.  The commands ask only
      about incidence automorphisms, so it has at most 2 |Aut_comb|
      entries, each solved once however many covers of the arrangement ask;
    - |Aut_comb| (`automorphism_order`), counted on first use
      (`count_automorphisms`).
    """

    def __init__(self, arr: Arrangement) -> None:
        self.arr = arr
        self.mult = [p.r for p in arr.points]
        self.through = [p.incident for p in arr.points]
        self.meet, self.profiles = _incidence(arr)
        self.same_profile = [tuple(j for j, q in enumerate(self.profiles) if q == p) for p in self.profiles]
        self.order, self.anchors = _search_order(self.meet, self.mult, self.profiles)
        self.realizations: dict[tuple[Perm, bool], Mat3 | None] = {}

    def candidates(self, k: int, perm: list[int] | range) -> tuple[int, ...]:
        """The lines that order[k] may map to, given the images `perm` of
        the lines before it: the lines through the point where its anchor
        lines' images meet, or, if it has no anchor, its same-profile lines."""
        anchor = self.anchors[k]
        if anchor is None:
            return self.same_profile[self.order[k]]
        return self.through[self.meet[perm[anchor[0]]][perm[anchor[1]]]]

    @cached_property
    def frame(self) -> tuple[tuple[int, ...], tuple[Mat3, Mat3]]:
        for quad in itertools.combinations(range(self.arr.n), 4):
            vs = [self.arr.lines[i].coeffs for i in quad]
            if all(det3(three) for three in itertools.combinations(vs, 3)):
                return quad, tuple(adjugate(_scaled_frame(w)) for w in (vs, [conj_vec(v) for v in vs]))
        raise ValueError(
            "the symmetry model needs a finite projective stabilizer: "
            "the arrangement has no 4 lines in general position"
        )

    @cached_property
    def automorphism_order(self) -> int:
        return count_automorphisms(self.arr)

    def realize(self, perm: Perm, anti: bool) -> Mat3 | None:
        """M = W adj(V), for the scaled frames V and W of a quadruple of
        lines in general position and of its images, verified exactly on
        every line (a degenerate image quadruple fails it); absence of a
        matrix is a definite answer, not a failure.  Not memoized:
        `realize_symmetry` keeps the answers in `realizations`."""
        lines = self.arr.lines
        quad, source_adjugates = self.frame
        m = matmul(_scaled_frame([lines[perm[i]].coeffs for i in quad]), source_adjugates[anti])
        sigma = conj_vec if anti else (lambda v: v)
        for i, line in enumerate(lines):
            if not proportional(matvec(m, sigma(line.coeffs)), lines[perm[i]].coeffs):
                return None
        return normalize_matrix(m)


# -- combinatorial symmetry --------------------------------------------------


def _incidence(arr: Arrangement) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The point where lines i != j meet, as meet[i][j] (-1 on the
    diagonal), and each line's profile: the sorted multiplicities of the
    points on it."""
    n = arr.n
    meet = [[-1] * n for _ in range(n)]
    for pid, p in enumerate(arr.points):
        for i, j in itertools.combinations(p.incident, 2):
            meet[i][j] = meet[j][i] = pid
    mult = [p.r for p in arr.points]
    return meet, [tuple(sorted(mult[pid] for pid in set(row) if pid >= 0)) for row in meet]


def _search_order(
    meet: list[list[int]], mult: list[int], profiles: list[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, int] | None]]:
    """A static line order for the automorphism search, most constrained
    first, and for each position an anchor: two earlier lines through a
    point of multiplicity >= 3 on that line, or None.

    Each step prefers a line with at most one candidate, then one meeting
    ordered lines in the most distinct points of multiplicity >= 3, then
    one with the fewest candidates, then the lowest index.  A line through
    such a point P that already lies on two ordered lines is anchored
    there, with mult(P) minus the ordered lines through P as its candidate
    count (the least over such points); any other line counts the
    unordered lines of its profile.
    """
    n = len(meet)
    order: list[int] = []
    anchors: list[tuple[int, int] | None] = []
    on_ordered = [0] * len(mult)
    rest = set(range(n))
    while rest:
        best = None
        for i in sorted(rest):
            met = {meet[i][j] for j in order if mult[meet[i][j]] >= 3}
            known = [p for p in met if on_ordered[p] >= 2]
            if known:
                pid = min(known, key=lambda p: (mult[p] - on_ordered[p], p))
                count = mult[pid] - on_ordered[pid]
            else:
                pid, count = -1, sum(1 for j in rest if profiles[j] == profiles[i])
            key = (count > 1, -len(met), count)
            if best is None or key < best[0]:
                best = (key, i, pid)
        _, i, pid = best
        anchors.append(tuple(j for j in order if meet[i][j] == pid)[:2] if pid >= 0 else None)
        order.append(i)
        rest.remove(i)
        for p in set(meet[i]) - {-1}:
            on_ordered[p] += 1
    return order, anchors


def count_automorphisms(arr: Arrangement) -> int:
    """|Aut_comb| by orbit-stabilizer (Sims), without listing the group.

    The search's line order is a base: G_j, the automorphisms fixing
    order[0..j-1] line by line, has |G_j| = |orbit of order[j] under G_j| x
    |G_j+1|.  Levels run last to first, so every generator found so far lies
    in G_j.  Each line the search would try for order[j] with that prefix
    fixed, and that the generators do not reach, gets one first-solution
    run of `incidence_automorphisms` sending order[j] to it, as nauty drives
    its search (McKay 1981): a hit is a new generator, and a miss proves the
    line outside the orbit, so the count is exact.

    Cost: the base is the whole line order, so n levels, of at most n runs
    each; a level whose only candidate is its own line runs nothing.  The
    runs at one level search disjoint subtrees of the listing's search
    tree, each below a walk of at most n forced nodes, and in practice the
    generators leave few runs.  Each hit strictly enlarges the generated
    group, so there are at most log2 |Aut_comb| <= n log2 n generators, each
    followed by an O(n x generators) orbit update.
    """
    state = arr._search
    order, profiles = state.order, state.profiles
    gens: list[Perm] = []
    total = 1
    for j in reversed(range(arr.n)):
        i, fixed = order[j], order[:j]
        orbit = _orbit(i, gens)
        # the listing's candidates with the prefix fixed line by line
        for c in state.candidates(j, range(arr.n)):
            if c in orbit or c in fixed or profiles[c] != profiles[i]:
                continue
            hit = incidence_automorphisms(arr, prefix=(*fixed, c), first=True)
            if hit:
                gens.append(hit[0])
                orbit = _orbit(i, gens)
        total *= len(orbit)
    return total


def _orbit(i: int, gens: list[Perm]) -> set[int]:
    orbit, frontier = {i}, [i]
    for x in frontier:
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return orbit


def incidence_automorphisms(
    arr: Arrangement,
    rows: tuple[Vector, ...] | None = None,
    m: int = 0,
    blown: tuple[int, ...] = (),
    prefix: tuple[int, ...] = (),
    first: bool = False,
) -> list[Perm]:
    """The incidence automorphisms, sorted; given the rows of an epimorphism
    phi onto (Z/m)^k, m prime, only those sigma with phi[sigma(i)] = phi[i] P
    for one matrix P, which are the permutations whose coordinate action
    fixes the span of phi's columns; given blown point ids, only those
    mapping the blown points onto themselves; given a prefix, only those
    sending the line at position t of the search order to prefix[t]; with
    `first`, only the first one found (an empty list if there is none).

    Backtracking over the static line order of `_search_order`, kept in
    the arrangement's `SearchState`.  A line anchored at two earlier lines
    a, b must map to a line through the point where the images of a and b
    meet, so its candidates are the lines through that one point; an
    unanchored line tries the lines of its profile
    (`SearchState.candidates`), and a line in the prefix tries its given
    image only.  Each candidate must be unused, have the same profile, and
    for every earlier line j send the point line ^ j to a point of the same
    multiplicity, consistently with the partial point map, which stays
    injective; a permutation passing these checks at every line is an
    automorphism, and every automorphism passes them.  A blown point counts
    as a multiplicity of its own, so the point map sends blown points to
    blown points and, a bijection once complete, onto them.  The first
    lines anchor the rest on arrangements with many multiple points (three
    unanchored lines on the quadrilateral, dual Hesse, Hesse and
    Ceva(6)+3), so the search visits about |Aut| x n nodes, each scanning at
    most the lines through one point and checking one pair per earlier
    line.  Arrangements with only double points anchor nothing and list
    all n! permutations.  A prefix confines the search to the subtree below
    it, and `first` stops it at the first leaf (`count_automorphisms`).

    With phi, one reduction of the rows in search order (`row_reduce`)
    writes each line's row as a combination of the earlier lines with new
    rows, the pivots, or finds it new.  A line with a combination must map
    to a line whose row is the same combination of the pivots' images'
    rows; a pivot line is unconstrained.  A permutation passing every such
    check has phi[sigma(i)] = phi[i] P for the P taking the pivots' rows to
    their images' rows, and every such permutation passes them.

    With phi, a line's profile is also refined to its class: the profile,
    the number of lines whose row equals its row and the number whose row
    is proportional to it, zero rows making a class of their own.  A line
    maps only to a line of its class.  This is exact: phi has rank k, so
    the P of a kept sigma is invertible, and sigma maps the lines with a
    row equal (proportional) to line i's, or zero, onto those of sigma(i).
    Both checks only prune, so the search visits a subset of the full
    search's nodes, and the classes stop a pivot line from being tried at
    every line of its profile.  On the census covers (dual Hesse, Hesse
    and Ceva(6)+3 over (Z/5)^2 and (Z/5)^3, |H_comb| <= 2 for H_comb the
    character-preserving automorphisms) it visits a median of 19-99 nodes
    per arrangement and shape, against 35-569 with profiles alone; covers
    whose rows are pairwise non-proportional gain nothing.
    """
    n = arr.n
    state = arr._search
    mult, meet, profiles, order = state.mult, state.meet, state.profiles, state.order
    if blown:
        # a point's multiplicity, negated if it is blown up
        blown_set = set(blown)
        mult = [-r if pid in blown_set else r for pid, r in enumerate(mult)]
    # combos[k]: (pivot line, coefficient) pairs giving the row of order[k]
    combos: list[tuple[tuple[int, int], ...] | None] = [None] * n
    if rows is not None:
        if len(rows) != n:
            raise ValueError("epimorphism size does not match the arrangement")
        # a line's class: its profile, and the numbers of lines whose rows
        # equal its row and are proportional to it; zero rows are a class of
        # their own.  Each row is scaled to lead with 1 (a zero row stays
        # zero), so that proportional rows become equal.
        units = [pow(next((x for x in r if x), 1), m - 2, m) for r in rows]
        scaled = [tuple(x * u % m for x in r) for r, u in zip(rows, units)]
        equal, proportional = Counter(rows), Counter(scaled)
        profiles = [
            (p, equal[r], proportional[s] if any(r) else 0)
            for p, r, s in zip(profiles, rows, scaled)
        ]
        reduced, pivots = row_reduce(
            [tuple(rows[i][j] for i in order) for j in range(len(rows[0]))], m, n
        )
        for k in set(range(n)) - set(pivots):
            combos[k] = tuple((order[p], r[k]) for p, r in zip(pivots, reduced) if r[k])

    perm = [-1] * n
    used = [False] * n
    pmap = [-1] * len(mult)
    pmap_inv = [-1] * len(mult)
    results: list[Perm] = []
    forced = len(prefix)

    def extend(k: int) -> bool:
        """Place order[k] and the lines after it; True once `first` has its
        permutation, leaving the tables as they are."""
        if k == n:
            results.append(tuple(perm))
            return first
        i = order[k]
        candidates = prefix[k : k + 1] if k < forced else state.candidates(k, perm)
        profile = profiles[i]
        row = meet[i]
        earlier = order[:k]
        combo = combos[k]
        if combo is not None:
            target = tuple(
                sum(c * rows[perm[b]][j] for b, c in combo) % m for j in range(len(rows[i]))
            )
        for img in candidates:
            if used[img] or profiles[img] != profile:
                continue
            if combo is not None and rows[img] != target:
                continue
            img_row = meet[img]
            added: list[int] = []
            for j in earlier:
                p = row[j]
                q = img_row[perm[j]]
                if pmap[p] >= 0:
                    if pmap[p] != q:
                        break
                elif mult[p] != mult[q] or pmap_inv[q] >= 0:
                    break
                else:
                    pmap[p] = q
                    pmap_inv[q] = p
                    added.append(p)
            else:
                perm[i] = img
                used[img] = True
                if extend(k + 1):
                    return True
                used[img] = False
            for p in added:
                pmap_inv[pmap[p]] = -1
                pmap[p] = -1
        return False

    extend(0)
    return sorted(results)


# -- projective / anti-projective realizability ------------------------------


def _scaled_frame(vs: list[Vec3]) -> Mat3:
    """Columns c_i v_i (i < 3), c the Cramer numerators of v_3 in the basis
    v_0, v_1, v_2: the matrix maps (1, 1, 1) to det(v_0, v_1, v_2) v_3."""
    v0, v1, v2, v3 = vs
    c = (det3((v3, v1, v2)), det3((v0, v3, v2)), det3((v0, v1, v3)))
    return columns_to_matrix(*(scale(vs[i], c[i]) for i in range(3)))
