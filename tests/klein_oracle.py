"""Brute-force reference for the Klein model: every group element, inverses,
involutions, and the conjugacy classes of anti-holomorphic involutions found
by conjugating each involution by every element of the group.

This is O(|involutions| |G|) group products, so it serves as a test oracle
for `classify_real_structures` on covers with |G| up to about 10^4.

Each class record is built here too: the fixed lines from the permutation,
the real blown points from the matrix route of `realize_oracle` on the
class's realized matrix, and the real-part fields from that count through
`_real_part_from_count`, the formula the library prints (which holds only
when the deck action has no fixed vectors, ROADMAP item 12).
"""

from __future__ import annotations

import itertools

import realize_oracle
from planecover.arrangement import compose_perms, invert_perm, perm_cycles_str
from planecover.symmetry import KleinModel, RealStructureClass, _mat_apply, _real_part_from_count

Element = tuple[int, tuple[int, ...]]  # (symmetry index, deck vector)


def elements(model: KleinModel):
    for idx in range(len(model.realized)):
        for delta in itertools.product(range(model.m), repeat=model.k):
            yield (idx, delta)


def index_of(model: KleinModel, perm: tuple[int, ...], anti: bool) -> int:
    """The index in H of the realized symmetry (perm, anti)."""
    return {(r.perm, r.anti): i for i, r in enumerate(model.realized)}[perm, anti]


def inverse(model: KleinModel, x: Element) -> Element:
    i, d = x
    r = model.realized[i]
    idx = index_of(model, invert_perm(r.perm), r.anti)
    moved = _mat_apply(model.realized[idx].deck_aut, d, model.m)
    return (idx, tuple((-v) % model.m for v in moved))


def is_involution(model: KleinModel, x: Element) -> bool:
    i, d = x
    r = model.realized[i]
    if compose_perms(r.perm, r.perm) != tuple(range(len(r.perm))):
        return False
    moved = _mat_apply(r.deck_aut, d, model.m)
    return all((a + b) % model.m == 0 for a, b in zip(d, moved))


def anti_involutions(model: KleinModel) -> list[Element]:
    return [
        x for x in elements(model) if model.realized[x[0]].anti and is_involution(model, x)
    ]


def brute_force_classify(model: KleinModel) -> list[RealStructureClass]:
    """Anti involutions partitioned into conjugacy classes by enumeration."""
    involutions = anti_involutions(model)
    inv_set = set(involutions)
    all_elements = list(elements(model))
    classes: list[list[Element]] = []
    seen: set[Element] = set()
    for x in involutions:
        if x in seen:
            continue
        orbit = set()
        for g in all_elements:
            y = model.multiply(model.multiply(g, x), inverse(model, g))
            if y not in inv_set:
                raise AssertionError("conjugation left the involution set")
            orbit.add(y)
        seen |= orbit
        classes.append(sorted(orbit))

    out = [class_record(model, orbit[0], len(orbit)) for orbit in classes]
    out.sort(key=lambda c: (-len(c.fixed_lines), c.perm_cycles, c.size))
    return out


def class_record(model: KleinModel, rep: Element, size: int) -> RealStructureClass:
    """The record of the class of `rep`: the lines its permutation fixes, and
    the blown points its matrix fixes, each with its lines 1-based."""
    r = model.realized[rep[0]]
    arr = model.cover.arrangement
    fixed = set(realize_oracle.fixed_points_of(arr, r.matrix, r.anti))
    real_blown = tuple(
        tuple(i + 1 for i in arr.points[pid].incident)
        for pid in model.cover.blown_ids
        if arr.points[pid] in fixed
    )
    euler, betti = _real_part_from_count(len(real_blown)) if model.m % 2 else (None, None)
    return RealStructureClass(
        representative=rep,
        size=size,
        perm_cycles=perm_cycles_str(r.perm),
        fixed_lines=tuple(i + 1 for i, image in enumerate(r.perm) if image == i),
        real_blown_points=real_blown,
        real_part_euler=euler,
        real_part_betti=betti,
    )
