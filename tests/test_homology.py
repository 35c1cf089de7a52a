import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from planecover.arrangement import Line, build_arrangement
from planecover.catalog import PHI1, PHI2, PHI3
from planecover.characters import enumerate_characters
from planecover.cyclotomic import CycNumber
from planecover.homology import (
    CoverModel,
    Epimorphism,
    PointCheck,
    SmoothnessCertificate,
    blown_plane,
    galois_kernel,
    is_prime,
    rank_mod_p,
    smoothness_check,
)
from test_symmetry import PAPER_AND_CENSUS_ARRANGEMENTS


def kernel_elements(phi):
    """All m**r vectors of the kernel of phi's quotient map, r its rank."""
    basis = galois_kernel(phi)
    for coeffs in itertools.product(range(phi.m), repeat=len(basis)):
        yield tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % phi.m for i in range(phi.n))


def loop_pairing(gamma, a, m):
    """Deck pairing sum over i < n of gamma_i a_i mod m.  Both vectors are
    zero-sum lifts, so the n-th coordinate is redundant under the relation
    sum(lambda_i) = 0 and is left out."""
    return sum(g * x for g, x in zip(gamma[:-1], a[:-1])) % m


def assert_epimorphism(phi):
    """Rows summing to zero with rank k: the relation of H_1 holds and phi
    is onto (Z/mZ)^k."""
    assert all(sum(r[j] for r in phi.rows) % phi.m == 0 for j in range(phi.k))
    assert rank_mod_p(phi.rows, phi.m) == phi.k


def test_phi1_valid():
    assert_epimorphism(PHI1)


def test_phi2_valid():
    assert_epimorphism(PHI2)


def test_phi3_valid():
    assert_epimorphism(PHI3)


def test_all_zero_rows_not_surjective():
    message = "invalid epimorphism: ('rows do not generate (Z/mZ)^k',)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Epimorphism(m=5, k=2, rows=((0, 0),) * 5)


def test_zero_sum_violation_detected():
    message = "invalid epimorphism: ('row sums (3,) are not 0 mod 5',)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Epimorphism(m=5, k=1, rows=((1,), (1,), (1,)))


def test_both_violations_reported_in_order():
    message = (
        "invalid epimorphism: ('row sums (1, 0) are not 0 mod 5', "
        "'rows do not generate (Z/mZ)^k')"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        Epimorphism(m=5, k=2, rows=((1, 0), (2, 0), (3, 0)))


@st.composite
def residue_rows(draw):
    """(m, k, rows) for small prime m; half the draws restore the zero sum in
    the last row so that both sides of the validity rule are reached."""
    m = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * k), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[-1] = tuple(-sum(r[j] for r in rows[:-1]) for j in range(k))
    return m, k, rows


@settings(max_examples=300, deadline=None)
@given(residue_rows())
def test_epimorphism_constructs_iff_zero_sum_and_onto(case):
    m, k, rows = case
    zero_sum = all(sum(r[j] for r in rows) % m == 0 for j in range(k))
    # onto (Z/mZ)^k iff the m^k combinations of the columns are pairwise distinct
    combos = {
        tuple(sum(c * r[j] for j, c in enumerate(coeffs)) % m for r in rows)
        for coeffs in itertools.product(range(m), repeat=k)
    }
    valid = zero_sum and len(combos) == m**k
    try:
        phi = Epimorphism(m=m, k=k, rows=tuple(rows))
    except ValueError as exc:
        assert not valid, exc
        assert str(exc).startswith("invalid epimorphism: (")
    else:
        assert valid
        assert phi.rows == tuple(tuple(x % m for x in r) for r in rows)


def test_composite_modulus_reported():
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        Epimorphism(m=6, k=1, rows=((1,), (5,)))


def test_exceptional_class_triple(dh):
    p123 = next(p for p in dh.points if p.incident_1based() == (1, 2, 3))
    assert PHI1.of_loops(p123.incident) == (3, 2)


def test_phi_of_eps_is_row_sum(dh):
    for p in dh.points:
        total = tuple(
            sum(PHI1.rows[i][j] for i in p.incident) % 5 for j in range(2)
        )
        assert PHI1.of_loops(p.incident) == total


def double_point_check(u, v, m=5):
    """The check at the double point of lines 1 and 2 of four lines in
    general position, with phi(lambda_1) = u and phi(lambda_2) = v."""
    one, zero = CycNumber(1), CycNumber(0)
    four_lines = build_arrangement([
        Line.make(one, zero, zero), Line.make(zero, one, zero), Line.make(zero, zero, one),
        Line.make(one, one, one),
    ])
    rows = [u, v, (1, 0)]
    rows.append(tuple(-sum(col) % m for col in zip(*rows)))
    cert = CoverModel.build(four_lines, Epimorphism(m=m, k=2, rows=tuple(rows)), ()).certificate
    return next(c for c in cert.checks if c.incident_1based == (1, 2))


def test_independence_examples():
    assert double_point_check((1, 0), (0, 1)).detail == "((1, 0), (0, 1)) independent"
    check = double_point_check((1, 2), (2, 4))
    assert (check.kind, check.ok, check.detail) == ("double", False, "((1, 2), (2, 4)) dependent")
    assert double_point_check((4, 1), (1, 0)).ok  # det = -1 mod 5


def eliminated_certificate(arr, phi, blown_ids):
    """`smoothness_check` with each pair decided by elimination: u and v are
    independent iff rank_mod_p([u, v], m) == 2."""
    blown = set(blown_ids)
    checks = []
    for pid, point in enumerate(arr.points):
        inc1 = point.incident_1based()
        if pid in blown:
            eps = phi.of_loops(point.incident)
            bad = [i + 1 for i in point.incident if rank_mod_p([eps, phi.rows[i]], phi.m) != 2]
            detail = (
                f"phi(eps)={eps} dependent with line(s) {bad}"
                if bad
                else f"phi(eps)={eps} independent with each incident line image"
            )
            checks.append(PointCheck(inc1, "blown", not bad, detail))
        elif point.r == 2:
            u, v = (phi.rows[i] for i in point.incident)
            ok = rank_mod_p([u, v], phi.m) == 2
            detail = f"({u}, {v}) " + ("independent" if ok else "dependent")
            checks.append(PointCheck(inc1, "double", ok, detail))
        else:
            detail = f"{point.r}-fold point left unblown"
            checks.append(PointCheck(inc1, "unresolved", False, detail))
    return SmoothnessCertificate(tuple(checks), all(c.ok for c in checks))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PAPER_AND_CENSUS_ARRANGEMENTS)),
    st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_minor_certificate_matches_elimination(name, m, k, rng):
    arr = PAPER_AND_CENSUS_ARRANGEMENTS[name]()
    rows = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(arr.n - 1)]
    rows.append(tuple((-sum(r[j] for r in rows)) % m for j in range(k)))
    try:
        phi = Epimorphism(m=m, k=k, rows=tuple(rows))
    except ValueError:
        assume(False)
    if rng.random() < 0.5:
        blown = tuple(pid for pid, p in enumerate(arr.points) if p.r >= 3)
    else:
        blown = tuple(sorted(rng.sample(range(len(arr.points)), rng.randint(0, len(arr.points)))))
    plane = blown_plane(arr, blown, m, k)
    assert smoothness_check(plane, phi) == eliminated_certificate(arr, phi, blown)


def blown_ids(arr):
    return tuple(pid for pid, p in enumerate(arr.points) if p.r >= 3)


def test_example1_smooth(dh):
    cert = CoverModel.build(dh, PHI1, blown_ids(dh)).certificate
    assert cert.ok
    assert len(cert.checks) == 12
    assert all(c.kind == "blown" for c in cert.checks)


def test_example3_smooth_including_unblown_doubles(cq):
    cert = CoverModel.build(cq, PHI3, blown_ids(cq)).certificate
    assert cert.ok
    kinds = sorted(c.kind for c in cert.checks)
    assert kinds.count("double") == 3
    assert kinds.count("blown") == 4


def test_dependent_epsilon_fails(dh):
    # lambda_1, lambda_2, lambda_3 all map to (1, 0): eps maps to (3, 0)
    rows = [(1, 0), (1, 0), (1, 0), (0, 1), (0, 4), (2, 0), (0, 0), (0, 0), (0, 0)]
    phi = Epimorphism(m=5, k=2, rows=tuple(rows))
    p123 = next(
        pid for pid, p in enumerate(dh.points) if p.incident_1based() == (1, 2, 3)
    )
    cert = CoverModel.build(dh, phi, (p123,)).certificate
    failing = [c for c in cert.checks if not c.ok and c.kind == "blown"]
    assert any(c.incident_1based == (1, 2, 3) for c in failing)
    assert not cert.ok


def test_unblown_triple_point_is_a_failure(dh):
    cert = CoverModel.build(dh, PHI1, ()).certificate
    assert not cert.ok
    assert all(c.kind == "unresolved" for c in cert.checks)


def test_branch_curve_table_of_example3(cq):
    """Curves 0-5 are the lines, 6-9 the E_p of the four triple points; a
    blown point's lines each cross its E_p, an unblown double point's two
    lines cross each other."""
    cover = CoverModel.build(cq, PHI3)
    plane = cover.plane
    by_point = {p.incident_1based(): pairs for p, pairs in zip(cq.points, plane.crossings)}
    assert by_point == {
        (1, 2, 3): ((6, 0), (6, 1), (6, 2)), (1, 4): ((0, 3),), (1, 5, 6): ((7, 0), (7, 4), (7, 5)),
        (2, 4, 6): ((8, 1), (8, 3), (8, 5)), (2, 5): ((1, 4),), (3, 4, 5): ((9, 2), (9, 3), (9, 4)),
        (3, 6): ((2, 5),),
    }
    # the blown points in curve order, and the b of the blown points
    # (curve 6 + b) on each line
    assert [p.incident_1based() for p in plane.blown_points] == [(1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)]
    assert plane.on_line == ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
    # E_p's image is the sum of the rows of the lines through p
    assert plane.images(PHI3) == (*PHI3.rows, (3, 2), (3, 2), (3, 2), (1, 4))
    # each curve's image, then those of the curves crossing it
    assert plane.meeting(PHI3)[0] == [PHI3.rows[0], (3, 2), PHI3.rows[3], (3, 2)]
    assert plane.meeting(PHI3)[6] == [(3, 2), *PHI3.rows[:3]]
    # the plane reads no phi: it is kept on the arrangement, and every
    # cover of the shape shares it
    assert blown_plane(cq, cover.blown_ids, 5, 2) is plane and cq._planes[cover.blown_ids, 5, 2] is plane
    # with nothing blown, each triple point is left without a crossing, no
    # line has a blown point, and the images are phi's rows
    bare = blown_plane(cq, (), 5, 2)
    assert [len(pairs) for pairs in bare.crossings] == [0, 1, 0, 0, 1, 0, 1]
    assert bare.blown_points == () and bare.on_line == ((),) * cq.n
    assert bare.images(PHI3) == PHI3.rows


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
def test_a_cover_with_an_unbranched_exceptional_curve_is_smooth(cq):
    """phi(E_p) = 0 at p = (1 2 3): E_p is not a branch curve, so each point
    of E_p lies on at most one branch curve and the cover is smooth there.
    The certificate still asks phi(E_p) to be independent of each line's
    image, and refuses the cover."""
    phi = Epimorphism(m=5, k=2, rows=((0, 1), (0, 1), (0, 3), (1, 0), (1, 0), (3, 0)))
    cover = CoverModel.build(cq, phi)
    assert cover.plane.images(phi)[cq.n] == (0, 0)
    assert cover.certificate.ok


def test_smoothness_monotone_under_more_blowups(dh):
    rows = [(1, 0), (1, 0), (1, 0), (0, 1), (0, 4), (2, 0), (0, 0), (0, 0), (0, 0)]
    phi = Epimorphism(m=5, k=2, rows=tuple(rows))
    small = (0,)
    large = blown_ids(dh)
    fail_small = {
        c.incident_1based for c in CoverModel.build(dh, phi, small).certificate.checks
        if not c.ok and c.kind == "blown"
    }
    fail_large = {
        c.incident_1based for c in CoverModel.build(dh, phi, large).certificate.checks
        if not c.ok and c.kind == "blown"
    }
    assert fail_small <= fail_large


def test_galois_kernel_orders():
    basis = galois_kernel(PHI1)
    # n - 1 - k = 6 independent kernel vectors, so the deck group has order
    # 5^(n - 1) / 5^6 = 25
    assert rank_mod_p(basis, PHI1.m) == len(basis) == 6
    assert PHI1.m ** (PHI1.n - 1 - len(basis)) == 25


def test_double_cover_kernel():
    phi = Epimorphism(m=2, k=1, rows=((1,), (1,)))
    basis = galois_kernel(phi)
    assert basis == ()
    assert phi.m ** (phi.n - 1 - len(basis)) == 2
    assert list(kernel_elements(phi)) == [(0, 0)]


def test_kernel_vectors_are_zero_sum_and_annihilate_columns():
    for g in galois_kernel(PHI2):
        assert sum(g) % 5 == 0
        for j in range(2):
            assert sum(PHI2.rows[i][j] * g[i] for i in range(8)) % 5 == 0


def test_kernel_closed_under_addition():
    elements = set(kernel_elements(PHI3))
    basis = galois_kernel(PHI3)
    for a in basis:
        for b in basis:
            s = tuple((x + y) % 5 for x, y in zip(a, b))
            assert s in elements


def test_exhaustive_kernel_pairing_annihilation_phi1():
    charset = enumerate_characters(PHI1)
    for gamma in kernel_elements(PHI1):
        for a in charset:
            assert loop_pairing(gamma, a, 5) == 0


def test_invalid_phi_rejected_by_kernel():
    # the rows are refused at construction, so no invalid phi reaches the kernel
    with pytest.raises(ValueError, match="invalid epimorphism"):
        galois_kernel(Epimorphism(m=5, k=2, rows=((0, 0),) * 4))


def random_valid_phi(rng, n, m=5, k=2):
    while True:
        rows = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(n - 1)]
        last = tuple((-sum(r[j] for r in rows)) % m for j in range(k))
        try:
            return Epimorphism(m=m, k=k, rows=tuple(rows) + (last,))
        except ValueError:
            continue


def test_random_phis_kernel_annihilation(dh, cq):
    rng = random.Random(20260808)
    for arr in (dh, cq):
        for _ in range(10):
            phi = random_valid_phi(rng, arr.n)
            charset = enumerate_characters(phi)
            assert len(charset) == 25
            basis = galois_kernel(phi)
            assert phi.m ** (phi.n - 1 - len(basis)) == 25
            for gamma in basis:
                for a in charset:
                    assert loop_pairing(gamma, a, 5) == 0


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if _trial_division(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # Carmichael numbers and the least strong pseudoprimes to the bases up to
    # 2, 3, 5, 7, 11, 13, 17, 23 and 37 (OEIS A014233)
    composites = [561, 1105, 1729, 2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461, (2**61 - 1) * 65537]
    assert not any(is_prime(n) for n in composites)
    assert all(is_prime(n) for n in (2**31 - 1, 2**61 - 1, 10**18 + 9, 2**64 - 59))
    with pytest.raises(ValueError, match="past the range"):
        is_prime(3317044064679887385961981)
