import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planecover.homology import BlownPlane
from planecover.intersection import DivisorClass, exceptional, pairing, strict_transforms


def blown_ids(arr):
    return frozenset(pid for pid, p in enumerate(arr.points) if p.r >= 3)


def lines_of(arr, blown):
    """The strict transforms of arr's lines on the plane blown up at `blown`
    (m and k are not read)."""
    return strict_transforms(BlownPlane(arr, tuple(sorted(blown)), 5, 2))


def hyperplane(blown):
    return DivisorClass(1, {}, blown)


def canonical_class(blown):
    """K_tilde = -3H + sum of E_p over the blown points."""
    return DivisorClass(-3, {p: 1 for p in blown}, blown)


def add(*classes, scale=1):
    """scale times the sum of classes, coefficient by coefficient."""
    e = {}
    for d in classes:
        for p, c in d.e.items():
            e[p] = e.get(p, 0) + scale * c
    return DivisorClass(scale * sum(d.h for d in classes), e, classes[0].blown)


def basis(blown):
    return [hyperplane(blown), *(exceptional(p, blown) for p in sorted(blown))]


def same_class(d1, d2):
    """Equal classes, read through the form: it is unimodular on the basis
    H, E_p, so two classes agree iff they pair alike with every basis class."""
    return all(pairing(d1, b) == pairing(d2, b) for b in basis(d1.blown))


def test_hyperplane_squares_to_one():
    blown = frozenset((0, 1))
    assert pairing(hyperplane(blown), hyperplane(blown)) == 1


def test_exceptional_squares_to_minus_one():
    blown = frozenset((0, 1))
    assert pairing(exceptional(0, blown), exceptional(0, blown)) == -1
    assert pairing(exceptional(0, blown), exceptional(1, blown)) == 0
    assert pairing(hyperplane(blown), exceptional(0, blown)) == 0


def test_dual_hesse_strict_transform_self_intersection(dh):
    lines = lines_of(dh, blown_ids(dh))
    assert len(lines) == 9
    for st_ in lines:
        assert pairing(st_, st_) == -3
        assert len(st_.e) == 4


def test_quadrilateral_strict_transform(cq):
    lines = lines_of(cq, blown_ids(cq))
    assert len(lines) == 6
    for st_ in lines:
        assert len(st_.e) == 2
        assert pairing(st_, st_) == -1


def test_strict_transform_with_no_blown_points(dh):
    for st_ in lines_of(dh, frozenset()):
        assert st_ == hyperplane(frozenset())
        assert pairing(st_, st_) == 1


def test_strict_transforms_list_the_blown_points_on_each_line(cq):
    # an explicit blow-up set: every point of the quadrilateral, the three
    # double points included, so each line meets three blown points
    blown = frozenset(range(len(cq.points)))
    for i, st_ in enumerate(lines_of(cq, blown)):
        assert st_.e == {pid: -1 for pid, p in enumerate(cq.points) if i in p.incident}
        assert pairing(st_, st_) == 1 - 3


def test_canonical_class_no_blowup():
    k = canonical_class(frozenset())
    assert pairing(k, k) == 9


def test_canonical_class_dual_hesse_blowup(dh, cq):
    # 9 - 12 on dual Hesse with its triple points blown up
    for arr in (dh, cq):
        for blown in (blown_ids(arr), frozenset(range(len(arr.points)))):
            k = canonical_class(blown)
            assert pairing(k, k) == 9 - len(blown)


def test_three_canonical_identity_on_dual_hesse(dh):
    blown = blown_ids(dh)
    lhs = add(canonical_class(blown), scale=3)
    rhs = add(*lines_of(dh, blown), scale=-1)
    assert lhs == rhs
    assert same_class(lhs, rhs)


def test_pullback_of_line_has_self_intersection_one(dh, cq):
    for arr in (dh, cq):
        blown = blown_ids(arr)
        for i, st_ in enumerate(lines_of(arr, blown)):
            # the total transform: the strict transform plus the E_p through the line
            tt = add(st_, *(exceptional(pid, blown) for pid in blown if i in arr.points[pid].incident))
            assert pairing(tt, tt) == 1


def test_mismatched_contexts_rejected():
    with pytest.raises(ValueError, match="different blow-up sets"):
        pairing(hyperplane(frozenset((0,))), hyperplane(frozenset((0, 1))))


def test_exceptional_outside_context_rejected():
    with pytest.raises(ValueError, match=r"outside the blow-up set: \[5\]"):
        exceptional(5, frozenset((0, 1)))


BLOWN = frozenset((0, 1, 2, 3))
coefficient = st.integers(-50, 50)
divisor_class = st.builds(
    lambda h, e: DivisorClass(h, {p: c for p, c in e.items() if c}, BLOWN),
    coefficient,
    st.fixed_dictionaries({p: coefficient for p in sorted(BLOWN)}),
)


@settings(max_examples=100, deadline=None)
@given(divisor_class, divisor_class, divisor_class, st.integers(-7, 7))
def test_pairing_symmetric_bilinear(a, b, c, s):
    assert pairing(a, b) == pairing(b, a)
    assert pairing(add(a, b), c) == pairing(a, c) + pairing(b, c)
    assert pairing(add(a, scale=s), b) == s * pairing(a, b)
    # the sparse pairing reads an absent coefficient as 0
    dense = DivisorClass(a.h, {p: a.e.get(p, 0) for p in BLOWN}, BLOWN)
    assert pairing(dense, b) == pairing(a, b)
