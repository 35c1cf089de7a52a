import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from planecover.bounds import (
    HodgeData,
    component_count_bound,
    fake_plane_involution_check,
    hodge_from_surface,
    is_maximal,
    lefschetz_trace,
    my_identity,
    prop_h20_lower_bound,
    real_betti_total,
    small_component_exclusion,
    smith_total,
)


def test_smith_total_nine_line_covers():
    h = hodge_from_surface(333, 111, q=0, nu=0)
    assert (h.h10, h.h20, h.h11) == (0, 36, 37)
    assert smith_total(h) == 111
    # b2 = 2*36 + 37 = 109, and the total equals e(X) for these surfaces
    assert 2 + 2 * h.h20 + h.h11 - 2 == 109


counts = st.integers(0, 60)


@given(counts, counts, counts, st.integers(0, 8))
def test_smith_total_is_euler_plus_8q_plus_4nu(h10, h20, h11, nu):
    # b1 = b3 = 2 h10 and b2 = 2 h20 + h11, so e = 2 - 4 h10 + 2 h20 + h11,
    # the Betti total is e + 8 h10, and the 2-torsion of H_1 adds nu to each
    # of H_1, H_2 (twice) and H_3 with Z/2 coefficients
    e = 2 - 4 * h10 + 2 * h20 + h11
    assert smith_total(HodgeData(h10, h20, h11, nu)) == e + 8 * h10 + 4 * nu


@given(counts, counts, counts, st.integers(0, 8))
def test_smith_total_through_hodge_from_surface(q, pg, h11, nu):
    e = 2 - 4 * q + 2 * pg + h11
    k2 = 12 * (1 - q + pg) - e
    h = hodge_from_surface(k2, e, q, nu)
    assert (h.h10, h.h20, h.h11, h.nu) == (q, pg, h11, nu)
    assert smith_total(h) == e + 8 * q + 4 * nu


def test_smith_total_example2_hodge_triple():
    # (h10, h20, h11) = (2, 38, 41), the q = 2 figures for example2: e + 8q
    h = hodge_from_surface(333, 111, q=2)
    assert (h.h10, h.h20, h.h11) == (2, 38, 41)
    assert smith_total(h) == 111 + 8 * 2 == 127


def test_smith_total_projective_plane():
    h = HodgeData(h10=0, h20=0, h11=1)
    assert smith_total(h) == 3
    assert is_maximal(h._replace(components=((1, 1, 1),)))


def test_example2_not_maximal():
    h = hodge_from_surface(333, 111)
    assert not is_maximal(h._replace(components=((1, 5, 1),)))
    assert real_betti_total(((1, 5, 1),)) == 7


def test_smith_bound_violation_detected():
    h = HodgeData(h10=0, h20=0, h11=1)
    with pytest.raises(ValueError, match="Smith"):
        is_maximal(h._replace(components=((10, 10, 10),)))


def test_lefschetz_trace_example2():
    h = hodge_from_surface(333, 111)
    assert lefschetz_trace(h._replace(components=((1, 5, 1),))) == -4


def test_lefschetz_trace_empty_real_part():
    h = hodge_from_surface(333, 111)
    assert h.components == () and lefschetz_trace(h) == -1


def test_lefschetz_trace_magnitude_guard():
    h = HodgeData(h10=0, h20=0, h11=2)
    with pytest.raises(ValueError, match="exceeds"):
        lefschetz_trace(h._replace(components=((1, 40, 1),)))


def test_my_identity():
    assert my_identity(HodgeData(h10=0, h20=36, h11=37))
    assert my_identity(HodgeData(h10=0, h20=0, h11=1))
    assert not my_identity(HodgeData(h10=0, h20=3, h11=3))


def m_surface_beta1(h):
    """First real Betti number of a maximal surface: 1 + 2(h10+nu) + h20 + p-."""
    _, p_minus = h.require_split()
    return 1 + 2 * (h.h10 + h.nu) + h.h20 + p_minus


def my_m_surface_beta1(h):
    """The maximal-surface beta1 rewritten under the h11 = h20 + h10 + 1
    identity: h11 + p_minus + h10 + 2 nu."""
    assert my_identity(h)
    return h.h11 + h.p_minus + h.h10 + 2 * h.nu


def test_beta1_formulas_agree_under_my_identity():
    # the maximal-surface count rewritten under h11 = h20 + h10 + 1
    for h10, nu, h20, p_plus in itertools.product(range(3), range(3), range(6), range(4)):
        h11 = h20 + h10 + 1
        p_minus = h11 - 1 - p_plus
        if p_minus < 0:
            continue
        h = HodgeData(h10=h10, h20=h20, h11=h11, nu=nu, p_plus=p_plus, p_minus=p_minus)
        assert m_surface_beta1(h) == my_m_surface_beta1(h)


def test_beta1_derivable_from_smith_and_lefschetz():
    # for maximal data: beta1 = (smith_total - 1 - (p_plus - p_minus)) / 2
    for h10, nu, h20, p_plus in itertools.product(range(2), range(2), range(5), range(3)):
        for h11 in range(max(1, p_plus + 1), h20 + h10 + 4):
            p_minus = h11 - 1 - p_plus
            if p_minus < 0:
                continue
            h = HodgeData(h10=h10, h20=h20, h11=h11, nu=nu, p_plus=p_plus, p_minus=p_minus)
            derived = Fraction(smith_total(h) - 1 - (p_plus - p_minus), 2)
            assert derived == m_surface_beta1(h)


def test_prop_h20_lower_bound_values():
    base = dict(h10=0, h20=36, h11=37)
    assert prop_h20_lower_bound(HodgeData(nu=0, p_plus=0, p_minus=36, **base)) == 4
    assert prop_h20_lower_bound(HodgeData(nu=1, p_plus=0, p_minus=36, **base)) == 6
    assert prop_h20_lower_bound(HodgeData(nu=0, p_plus=2, p_minus=34, **base)) == 14


def test_prop_h20_bound_requires_my_identity():
    h = HodgeData(h10=0, h20=3, h11=3, p_plus=0, p_minus=2)
    with pytest.raises(ValueError, match="Miyaoka-Yau"):
        prop_h20_lower_bound(h)


def test_component_count_bound_infeasible_below_three():
    h = HodgeData(h10=0, h20=36, h11=37, p_plus=0, p_minus=36)
    for k3 in (0, 1, 2):
        verdict = component_count_bound(h, k3)
        assert not verdict.feasible
    boundary = component_count_bound(h, 3)
    assert "h11 <= p_minus + 1" in boundary.note


def test_fake_plane_report():
    rep = fake_plane_involution_check()
    assert rep.curve_case_contradiction
    assert rep.lefschetz_fixed_points == 3
    assert rep.jacobian_det == 4
    assert rep.holomorphic_sum == Fraction(3, 4)
    assert rep.holomorphic_contradiction


def test_small_component_exclusion():
    assert small_component_exclusion((1, 0, 1)) == "rejected"  # sphere
    assert small_component_exclusion((1, 1, 1)) == "rejected"  # RP^2
    assert small_component_exclusion((1, 2, 1)) == "rejected"  # torus / Klein bottle
    assert small_component_exclusion((1, 3, 1)) == "accepted"  # N_3


def test_hodge_from_surface_example3():
    h = hodge_from_surface(45, 15)
    assert (h.h10, h.h20, h.h11) == (0, 4, 5)
    assert my_identity(h)


def test_hodge_from_surface_rejects_bad_noether():
    with pytest.raises(ValueError, match="divisible by 12"):
        hodge_from_surface(10, 10)


def test_hodge_data_validation():
    with pytest.raises(ValueError, match="p_plus"):
        HodgeData(h10=0, h20=1, h11=3, p_plus=1, p_minus=3)
    with pytest.raises(ValueError, match="together"):
        HodgeData(h10=0, h20=1, h11=3, p_plus=1)
    with pytest.raises(ValueError, match="non-negative"):
        HodgeData(h10=-1, h20=0, h11=1)
    with pytest.raises(ValueError, match="needs"):
        HodgeData(h10=0, h20=1, h11=3).require_split()
