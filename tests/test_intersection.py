import random
from fractions import Fraction

import pytest

from planecover.intersection import (
    DivisorClass,
    canonical_class,
    exceptional,
    pairing,
    strict_transform,
)


def blown_ids(arr):
    return tuple(pid for pid, p in enumerate(arr.points) if p.r >= 3)


def hyperplane(context):
    return DivisorClass.make(1, {}, context)


def test_hyperplane_squares_to_one():
    ctx = (0, 1)
    assert pairing(hyperplane(ctx), hyperplane(ctx)) == 1


def test_exceptional_squares_to_minus_one():
    ctx = (0, 1)
    assert pairing(exceptional(0, ctx), exceptional(0, ctx)) == -1
    assert pairing(exceptional(0, ctx), exceptional(1, ctx)) == 0
    assert pairing(hyperplane(ctx), exceptional(0, ctx)) == 0


def test_dual_hesse_strict_transform_self_intersection(dh):
    ctx = blown_ids(dh)
    for i in range(9):
        st = strict_transform(dh, i, ctx)
        assert pairing(st, st) == -3
        assert len(st.e) == 4


def test_quadrilateral_strict_transform(cq):
    ctx = blown_ids(cq)
    for i in range(6):
        st = strict_transform(cq, i, ctx)
        assert len(st.e) == 2
        assert pairing(st, st) == -1


def test_strict_transform_with_no_blown_points(dh):
    st = strict_transform(dh, 0, ())
    assert st == hyperplane(())
    assert pairing(st, st) == 1


def test_canonical_class_no_blowup():
    k = canonical_class(())
    assert k.h == -3
    assert pairing(k, k) == 9


def test_canonical_class_dual_hesse_blowup(dh):
    ctx = blown_ids(dh)
    k = canonical_class(ctx)
    assert pairing(k, k) == 9 - 12


def test_three_canonical_identity_on_dual_hesse(dh):
    ctx = blown_ids(dh)
    lhs = canonical_class(ctx).scaled(3)
    rhs = canonical_class(ctx).scaled(0)
    for i in range(9):
        rhs = rhs - strict_transform(dh, i, ctx)
    assert lhs == rhs


def test_pullback_of_line_has_self_intersection_one(dh, cq):
    for arr in (dh, cq):
        ctx = blown_ids(arr)
        for i in range(arr.n):
            # the total transform: the strict transform plus the E_p through the line
            tt = strict_transform(arr, i, ctx)
            for pid in ctx:
                if i in arr.points[pid].incident:
                    tt = tt + exceptional(pid, ctx)
            assert pairing(tt, tt) == 1


def test_mismatched_contexts_rejected():
    with pytest.raises(ValueError):
        pairing(hyperplane((0,)), hyperplane((0, 1)))


def test_exceptional_outside_context_rejected():
    with pytest.raises(ValueError):
        DivisorClass.make(Fraction(0), {5: Fraction(1)}, (0, 1))


def random_class(rng, ctx):
    return DivisorClass.make(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        {p: Fraction(rng.randint(-3, 3)) for p in ctx},
        ctx,
    )


def test_pairing_symmetric_bilinear():
    rng = random.Random(7)
    ctx = (0, 1, 2, 3)
    for _ in range(50):
        a, b, c = (random_class(rng, ctx) for _ in range(3))
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert pairing(a, b) == pairing(b, a)
        assert pairing(a + b, c) == pairing(a, c) + pairing(b, c)
        assert pairing(a.scaled(s), b) == s * pairing(a, b)
