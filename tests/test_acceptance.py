"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Everything
is exact integer or field arithmetic; there are no tolerances anywhere.
"""

import functools
import random

from hypothesis import given, settings
import hypothesis.strategies as st

from planecover.arrangement import Line, build_arrangement, combinatorial_automorphisms
from planecover.bounds import (
    HodgeData,
    component_count_bound,
    fake_plane_involution_check,
    hodge_from_surface,
    is_maximal,
    prop_h20_lower_bound,
    smith_total,
)
from planecover.catalog import PHI1, PHI2
from planecover.characters import enumerate_characters, r_profile
from planecover.cover import invariants, nonnegative_solutions
from planecover.cyclotomic import CycNumber
from planecover.homology import galois_kernel
from planecover.symmetry import (
    character_preserving_symmetries,
    classify_real_structures,
)

from autos_oracle import points_on_line
from realize_oracle import IDENTITY3
from test_arrangement import DUAL_HESSE_TRIPLES
from test_homology import loop_pairing, random_valid_phi


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {summary}")
                raise
            print(f"PASS criterion {number}: {summary}")

        return wrapper

    return decorate


@criterion(1, "dual Hesse arrangement: t3=12, four triples per line, exact triple set")
def test_criterion_1(dh):
    assert dh.t == {3: 12}
    for i in range(9):
        assert len(points_on_line(dh, i)) == 4
    assert set(dh.triples_1based()) == set(DUAL_HESSE_TRIPLES)


@criterion(2, "examples I and II: smooth; K2=333, e=111, K2=3e, and all curve data")
def test_criterion_2(cover1, cover2):
    for cover in (cover1, cover2):
        assert cover.certificate.ok
        rep = invariants(cover)
        assert rep.k2 == 333
        assert rep.euler == 111
        assert rep.k2 == 3 * rep.euler
        assert all(
            (c.self_int, c.k_degree, c.genus) == (-3, 9, 4) for c in rep.line_curves
        )
        assert all(
            (d.self_int, d.k_degree, d.genus) == (-1, 3, 2) for d in rep.point_curves
        )


@criterion(3, "example III: K2=45, e=15, chi=5, K2=3e")
def test_criterion_3(cover3):
    rep = invariants(cover3)
    assert (rep.k2, rep.euler, rep.chi) == (45, 15, 5)
    assert rep.k2 == 3 * rep.euler


@criterion(4, "character sets A1 and A2 reproduce the reference lists exactly")
def test_criterion_4():
    from test_characters import ALPHA, BETA, reference_lists, unique_profile_elements

    a1_ref, a2_ref = reference_lists()
    a1 = enumerate_characters(PHI1)
    a2 = enumerate_characters(PHI2)
    assert a1 == a1_ref and a2 == a2_ref
    uniques = unique_profile_elements(a1, 5)
    assert ALPHA in uniques and r_profile(ALPHA, 5) == (3, 4, 0, 2, 0)
    assert BETA in uniques and r_profile(BETA, 5) == (2, 5, 1, 1, 0)


@criterion(5, "example I: 432 automorphisms, only identity preserves A1, Kl=25, no anti")
def test_criterion_5(dh, model1):
    autos = combinatorial_automorphisms(dh)
    q = 3
    agl_order = q**2 * (q**2 - 1) * (q**2 - q)  # |AGL(2,3)| oracle
    assert len(autos) == agl_order == 432
    preserving = character_preserving_symmetries(dh, PHI1)
    assert preserving == [tuple(range(9))]
    assert model1.order == 25
    assert not model1.has_anti
    assert classify_real_structures(model1) == []


@criterion(6, "example II: unique conjugation symmetry, inversion action, one class, not maximal")
def test_criterion_6(dh, cover2, model2):
    preserving = character_preserving_symmetries(dh, PHI2)
    assert len(preserving) == 2  # identity plus exactly one nontrivial
    conj_perm = (0, 2, 1, 5, 4, 3, 7, 6, 8)
    assert conj_perm in preserving
    anti = [r for r in model2.realized if r.anti]
    assert len(anti) == 1
    assert anti[0].matrix == IDENTITY3  # plain coefficient conjugation
    assert anti[0].deck_aut == ((4, 0), (0, 4))  # s g s^-1 = g^-1
    classes = classify_real_structures(model2)
    assert len(classes) == 1 and classes[0].size == 25
    assert len(classes[0].real_blown_points) == 4
    betti = classes[0].real_part_betti
    assert sum(betti) == 7
    h = hodge_from_surface(333, 111, q=0, nu=0)
    assert smith_total(h) == 111
    assert sum(betti) < smith_total(h)
    assert not is_maximal(h._replace(components=(betti,)))


@criterion(7, "example III: two real-structure classes with the stated fingerprints")
def test_criterion_7(model3):
    classes = classify_real_structures(model3)
    assert len(classes) >= 2
    fixed = sorted(c.fixed_lines for c in classes)
    assert (1, 2, 3, 4, 5, 6) in fixed
    assert (3, 6) in fixed
    # exact count is a derived result of the search, not an external value
    assert len(classes) == 2


@criterion(8, "Diophantine filter: 7a + 12b = 27 has no non-negative solutions")
def test_criterion_8():
    assert nonnegative_solutions((7, 12), 27) == []


@criterion(9, "fixed-point arithmetic: 3 fixed points, 3/4 != 1, h20 >= 4, k3 < 3 infeasible")
def test_criterion_9():
    rep = fake_plane_involution_check()
    assert rep.curve_case_contradiction
    assert rep.lefschetz_fixed_points == 3
    assert rep.holomorphic_sum == 0.75 and rep.holomorphic_contradiction
    h = HodgeData(h10=0, h20=36, h11=37, nu=0, p_plus=0, p_minus=36)
    assert prop_h20_lower_bound(h) == 4
    for k3 in (0, 1, 2):
        assert not component_count_bound(h, k3).feasible


@criterion(10, "Noether quotient is integral on every builtin cover")
def test_criterion_10_noether(cover1, cover2, cover3):
    for cover in (cover1, cover2, cover3):
        rep = invariants(cover)
        assert (rep.k2 + rep.euler) % 12 == 0


small_coeff = st.builds(CycNumber, st.integers(-2, 2), st.integers(-1, 1))
line_strategy = (
    st.tuples(small_coeff, small_coeff, small_coeff)
    .filter(lambda t: any(t))
    .map(lambda t: Line.make(*t))
)


@criterion(10, "pair-count identity on 50 random small arrangements")
@settings(max_examples=50, deadline=None)
@given(st.lists(line_strategy, min_size=2, max_size=6, unique_by=lambda l: l.coeffs))
def test_criterion_10_random_arrangements(lines):
    arr = build_arrangement(lines)
    total = sum(cnt * r * (r - 1) // 2 for r, cnt in arr.t.items())
    assert total == arr.n * (arr.n - 1) // 2


@criterion(10, "character count and kernel annihilation on 20 random epimorphisms")
def test_criterion_10_random_phis(dh, cq):
    rng = random.Random(8888)
    for arr in (dh, cq):
        for _ in range(10):
            phi = random_valid_phi(rng, arr.n)
            charset = enumerate_characters(phi)
            assert len(charset) == phi.m**phi.k
            for gamma in galois_kernel(phi):
                for a in charset:
                    assert loop_pairing(gamma, a, phi.m) == 0


cyc_values = st.builds(
    CycNumber,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@criterion(10, "field axioms and conjugation involutivity on random field elements")
@settings(max_examples=100)
@given(cyc_values, cyc_values, cyc_values)
def test_criterion_10_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
