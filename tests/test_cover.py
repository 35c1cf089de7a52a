import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from lattice_oracle import (
    adjoint_branch_class,
    canonical_class,
    component_count,
    exceptional,
    lattice_canonical_route,
    lattice_invariants,
    pairing,
    scanned_euler,
    strict_transform,
)
from planecover import cover as cover_module
from planecover.arrangement import Line, build_arrangement, complete_quadrilateral, dual_hesse
from planecover.catalog import PHI3, builtin_cover
from planecover.cover import (
    adjoint_class,
    generator_words,
    invariants,
    nonnegative_solutions,
    stratified_euler,
    three_canonical_decomposition,
    word_str,
)
from planecover.cyclotomic import CycNumber
from planecover.homology import BlownPlane, CoverModel, Epimorphism, SmoothnessCertificate
from test_symmetry import (
    CENSUS_COVERS,
    CENSUS_GENERIC_COVERS,
    PAPER_AND_CENSUS_ARRANGEMENTS,
    QUAD_COVERS,
    ceva6_plus_3,
    hesse,
    named_cover,
    odd_cover,
    random_smooth_cover,
)


def test_example1_invariants(cover1):
    rep = invariants(cover1)
    assert rep.k2 == 333
    assert rep.euler == 111
    assert rep.chi == 37
    assert rep.my_defect == 0
    for c in rep.line_curves:
        assert (c.self_int, c.k_degree, c.genus) == (-3, 9, 4)
    for d in rep.point_curves:
        assert (d.self_int, d.k_degree, d.genus) == (-1, 3, 2)
    assert len(rep.line_curves) == 9 and len(rep.point_curves) == 12


def test_example2_invariants(cover2):
    rep = invariants(cover2)
    assert (rep.k2, rep.euler) == (333, 111)


def test_example3_invariants(cover3):
    rep = invariants(cover3)
    assert (rep.k2, rep.euler, rep.chi) == (45, 15, 5)
    assert rep.my_defect == 0


def test_noether_integrality(cover1, cover2, cover3):
    for cover in (cover1, cover2, cover3):
        rep = invariants(cover)
        assert (rep.k2 + rep.euler) % 12 == 0
        for c in rep.line_curves + rep.point_curves:
            assert c.genus >= 0
            assert (c.self_int + c.k_degree + 2) % 2 == 0


def test_euler_cross_check_verbatim_grouping(cover1, cover2):
    # the same stratification grouped line-wise: 25(15 - 9*2 - 12*2 + 9*4)
    # + 5*9(2-4) + 5*12(2-3) + 9*4
    grouped = 25 * (15 - 9 * 2 - 12 * 2 + 9 * 4) + 5 * 9 * (2 - 4) + 5 * 12 * (2 - 3) + 9 * 4
    assert grouped == invariants(cover1).euler == invariants(cover2).euler


def cover_canonical(cover):
    """The oracle's K_adj, which the library's integral class is m times."""
    kadj = adjoint_branch_class(cover.arrangement, cover.blown_ids, cover.m)
    mkadj = adjoint_class(cover.plane)
    assert Fraction(mkadj.h, cover.m) == kadj.h
    assert {p: Fraction(c, cover.m) for p, c in mkadj.e.items() if c} == dict(kadj.e)
    return kadj


def test_cover_canonical_example1(cover1):
    kadj = cover_canonical(cover1)
    assert kadj.h == Fraction(21, 5)
    assert all(c == Fraction(-3, 5) for _, c in kadj.e)
    assert len(kadj.e) == 12


def test_cover_canonical_example3(cover3):
    kadj = cover_canonical(cover3)
    assert kadj.h == Fraction(9, 5)
    assert all(c == Fraction(-3, 5) for _, c in kadj.e)
    assert len(kadj.e) == 4


def test_adjoint_class_trivial_degree(dh):
    blown = tuple(pid for pid, p in enumerate(dh.points) if p.r >= 3)
    assert adjoint_branch_class(dh, blown, 1) == canonical_class(blown)
    # the integral class m K_adj reads K_tilde = -3H + sum E_p at m = 1 too
    mkadj = adjoint_class(BlownPlane(dh, blown, 1, 2))
    assert (mkadj.h, mkadj.e) == (-3, {p: 1 for p in blown})


def test_three_canonical_example1(cover1):
    dec = three_canonical_decomposition(cover1)
    assert dec.line_coeffs == (7,) * 9
    assert dec.point_coeffs == (12,) * 12
    assert dec.integral and dec.all_positive and dec.canonical_route


def test_three_canonical_example3(cover3):
    dec = three_canonical_decomposition(cover3)
    assert dec.integral and dec.all_positive
    assert not dec.canonical_route
    assert sum(dec.line_coeffs) == 27
    # consistency of the class identity behind the reported coefficients
    arr, blown, m = cover3.arrangement, cover3.blown_ids, cover3.m
    lhs = adjoint_branch_class(arr, blown, m).scaled(3)
    rhs = canonical_class(blown).scaled(0)
    for i, c in enumerate(dec.line_coeffs):
        rhs = rhs + strict_transform(arr, i, blown).scaled(Fraction(c, m))
    for pid, d in zip(blown, dec.point_coeffs):
        rhs = rhs + exceptional(pid, blown).scaled(Fraction(d, m))
    assert lhs == rhs


def test_trivial_degree_refused_at_the_type_level():
    # m = 1 means no branch curves at all; the epimorphism type refuses it
    with pytest.raises(ValueError, match="modulus"):
        Epimorphism(m=1, k=1, rows=((0,),) * 9)


PHI_ROWS_FOR_DH = (
    (1, 1), (1, 0), (1, 1), (3, 3), (3, 0), (0, 1), (0, 1), (0, 2), (1, 1),
)


def test_triangle_cover_reports_honest_decomposition():
    # three generic lines, nothing to blow up: the degree-25 cover is again
    # a plane, [x:y:z] -> [x^5:y^5:z^5], and no positive combination of
    # branch curves can express the anti-ample 3K.  A closed-form second
    # route: on P^2, K = -3H, e = 3 and chi = 1, and each C_i is a line
    # {x_i = 0}, with C^2 = 1, K.C = -3 and genus 0, so 3K = -3(C1 + C2 + C3)
    # is integral.  K^2 = 3e holds (my_defect 0) on a surface that is no ball
    # quotient: here h = (m - 1) n - 3m = -3, and X is not of general type
    arr = build_arrangement(
        [
            Line.make(CycNumber(1), CycNumber(0), CycNumber(0)),
            Line.make(CycNumber(0), CycNumber(1), CycNumber(0)),
            Line.make(CycNumber(0), CycNumber(0), CycNumber(1)),
        ]
    )
    phi = Epimorphism(m=5, k=2, rows=((1, 0), (0, 1), (4, 4)))
    cover = CoverModel.build(arr, phi)
    assert cover.certificate.ok
    rep = invariants(cover)
    assert (rep.k2, rep.euler, rep.chi, rep.my_defect) == (9, 3, 1, 0)
    assert [(c.label, c.self_int, c.k_degree, c.genus) for c in rep.line_curves] == [
        (f"C{i}", 1, -3, 0) for i in (1, 2, 3)
    ]
    assert rep.point_curves == ()
    assert adjoint_class(cover.plane).h == -3 and cover.blown_ids == ()
    dec = three_canonical_decomposition(cover)
    assert dec.line_coeffs == (-3, -3, -3) and dec.point_coeffs == ()
    assert dec.integral and not dec.all_positive
    assert dec.note == "no positive integral distribution found; symmetric rational solution"


def test_invariants_require_smoothness(dh):
    rows = [(1, 0), (1, 0), (1, 0), (0, 1), (0, 4), (2, 0), (0, 0), (0, 0), (0, 0)]
    phi = Epimorphism(m=5, k=2, rows=tuple(rows))
    cover = CoverModel.build(dh, phi)
    assert not cover.certificate.ok
    with pytest.raises(ValueError, match="not certified smooth"):
        invariants(cover)


def test_stratified_euler_rejects_unblown_triple(dh):
    with pytest.raises(ValueError, match="unblown 3-fold"):
        stratified_euler(dh, (), 5, 2)


def test_scaling_sanity_trivial_cover(cq):
    # with m = 1, k = 0 the stratified formula must return the blown plane
    blown = tuple(pid for pid, p in enumerate(cq.points) if p.r >= 3)
    assert stratified_euler(cq, blown, 1, 0) == 3 + len(blown)

    two_lines = build_arrangement(
        [
            Line.make(CycNumber(1), CycNumber(0), CycNumber(0)),
            Line.make(CycNumber(0), CycNumber(1), CycNumber(0)),
        ]
    )
    assert stratified_euler(two_lines, (), 1, 0) == 3


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PAPER_AND_CENSUS_ARRANGEMENTS)),
    st.sampled_from([(1, 0), (1, 3), *((m, k) for m in (2, 3, 5, 7) for k in range(1, 5))]),
    st.randoms(use_true_random=False),
)
def test_closed_form_euler_matches_the_strata_scan(name, mk, rng):
    """Equal values or equal error texts: refusals of unblown r >= 3 points,
    non-integral e at k = 1, and the blown plane itself at (m, k) = (1, 0)."""
    arr = PAPER_AND_CENSUS_ARRANGEMENTS[name]()
    points = range(len(arr.points))
    if rng.random() < 0.5:
        blown = tuple(pid for pid in points if arr.points[pid].r >= 3)
        blown += tuple(pid for pid in points if arr.points[pid].r == 2 and rng.random() < 0.3)
        blown = tuple(sorted(blown))
    else:
        blown = tuple(sorted(rng.sample(points, rng.randint(0, len(points)))))
    assert outcome(stratified_euler, arr, blown, *mk) == outcome(scanned_euler, arr, blown, *mk)


def test_diophantine_filter_obstruction():
    assert nonnegative_solutions((7, 12), 27) == []
    assert nonnegative_solutions((7, 12), 9) == []
    assert nonnegative_solutions((7, 12), 19) == [(1, 1)]


def test_diophantine_filter_general():
    assert nonnegative_solutions((2, 3), 7) == [(2, 1)]
    assert set(nonnegative_solutions((1, 2), 4)) == {(0, 2), (2, 1), (4, 0)}
    with pytest.raises(ValueError):
        nonnegative_solutions((0, 3), 5)


def test_generator_words_examples(cover1, cover2, cover3):
    w1 = [word_str(w, j, 5) for j, w in enumerate(generator_words(cover1.phi))]
    assert w1 == ["w1^5 = l1*l2*l3*l4^3*l5^3*l9", "w2^5 = l1*l3*l4^3*l6*l7*l8^2*l9"]
    w2 = [word_str(w, j, 5) for j, w in enumerate(generator_words(cover2.phi))]
    assert w2 == ["w1^5 = l2*l3*l5*l7*l8", "w2^5 = l1*l4*l6*l7^2*l8^2*l9^3"]
    w3 = [word_str(w, j, 5) for j, w in enumerate(generator_words(cover3.phi))]
    assert w3 == ["w1^5 = l1*l2*l3*l6^2", "w2^5 = l3^2*l4*l5*l6"]


def test_generator_word_exponents_are_zero_sum(cover1):
    for w in generator_words(cover1.phi):
        assert sum(w) % 5 == 0


def test_generator_words_are_the_unit_characters(cover1, cover2, cover3):
    # the j-th word exponent vector is the character of the j-th deck
    # coordinate: mod-m vanishing orders along the branch curves
    from planecover.characters import enumerate_characters

    for cover in (cover1, cover2, cover3):
        charset = set(enumerate_characters(cover.phi))
        for w in generator_words(cover.phi):
            assert w in charset


def test_builtin_covers_are_smooth():
    for name in ("example1", "example2", "example3"):
        assert builtin_cover(name).certificate.ok


def test_build_rejects_mismatched_sizes(cq):
    with pytest.raises(ValueError, match="rows"):
        CoverModel.build(cq, Epimorphism(m=5, k=2, rows=PHI_ROWS_FOR_DH))


def test_build_accepts_explicit_blow_list(cq):
    blown = tuple(pid for pid, p in enumerate(cq.points) if p.r >= 3)
    cover = CoverModel.build(cq, PHI3, list(blown))
    assert cover.blown_ids == blown
    assert cover.certificate.ok
    with pytest.raises(ValueError, match="out of range"):
        CoverModel.build(cq, PHI3, [99])


def hirzebruch_closed_forms(n, t, m, k):
    """K^2 and e of the (Z/m)^k cover of the plane blown up at every point of
    multiplicity r >= 3 (Hirzebruch 1983): with f blown points and
    S = t_2 + sum r t_r nodes of the branch divisor,
      K^2 = m^(k-2) [ (n(m-1) - 3m)^2 - sum_{r>=3} t_r (m - (m-1)(r-1))^2 ]
      e   = m^(k-2) [ m^2 (3 - 2n - f + S) + 2m (n + f - S) + S ]."""
    f = sum(c for r, c in t.items() if r >= 3)
    s = t.get(2, 0) + sum(r * c for r, c in t.items() if r >= 3)
    k2 = (n * (m - 1) - 3 * m) ** 2 - sum(
        c * (m - (m - 1) * (r - 1)) ** 2 for r, c in t.items() if r >= 3
    )
    e = m * m * (3 - 2 * n - f + s) + 2 * m * (n + f - s) + s
    return k2 * m ** (k - 2), e * m ** (k - 2)


def full_kummer_rows(m):
    """phi of the full (Z/m)^5 Kummer cover w_j^m = l_j / l_6 of the quadrilateral."""
    return [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(m - 1,) * 5]


FULL_KUMMER_5 = (5, full_kummer_rows(5))


@pytest.mark.parametrize(
    "name", ["quadrilateral_5_3", "quadrilateral_5_4", "full_kummer_5", "kummer_3_5"]
)
def test_kummer_invariants_match_hirzebruch_closed_forms(cq, name):
    from test_symmetry import QUAD_COVERS, quadrilateral_cover

    m, rows = FULL_KUMMER_5 if name == "full_kummer_5" else QUAD_COVERS[name]
    rep = invariants(quadrilateral_cover(cq, m, rows))
    # the complete quadrilateral: 6 lines, 3 double and 4 triple points
    assert (rep.k2, rep.euler) == hirzebruch_closed_forms(6, {2: 3, 3: 4}, m, len(rows[0]))
    if name == "full_kummer_5":
        assert (rep.k2, rep.euler) == (5625, 1875)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_full_kummer_curves_lift_to_fermat_curves(cq, m):
    # a second route to the per-curve genus: on the full Kummer cover of the
    # quadrilateral each of the ten branch curves lifts to d disjoint Fermat
    # curves of degree m, of genus (m - 1)(m - 2)/2 (Hirzebruch 1983), and a
    # preimage of arithmetic genus p_a splits as p_a - 1 = d (g - 1)
    from test_symmetry import quadrilateral_cover

    cover = quadrilateral_cover(cq, m, full_kummer_rows(m))
    rep = invariants(cover)
    for c in rep.line_curves + rep.point_curves:
        d = component_count(cover, c.label)
        assert (c.genus - 1) % d == 0
        assert (c.genus - 1) // d + 1 == (m - 1) * (m - 2) // 2



def pardini_chi(cover):
    """chi(O_X) by Pardini's eigensheaf formula (Pardini, "Abelian covers of
    algebraic varieties", 1991), summed over the m^k characters c: f_* O_X
    is the sum of the L_c^{-1}, where m L_c = sum of a_D D over the branch
    curves D of the blown-up plane Y, a_D = c . phi(D) mod m in [0, m - 1],
    and Riemann-Roch gives chi(L_c^{-1}) = 1 + (L_c^2 + L_c . K_Y)/2.  phi(D)
    is phi of the line for a strict transform and the sum of phi over the
    lines through p for the exceptional curve E_p.  Nothing here goes
    through stratified_euler or adjoint_branch_class."""
    arr, phi, m = cover.arrangement, cover.phi, cover.m
    total = Fraction(0)
    for c in itertools.product(range(m), repeat=phi.k):
        a = [sum(x * y for x, y in zip(c, row)) % m for row in phi.rows]
        # m L_c = h H + sum_p x_p E_p, since L_i' = H - (E_p for blown p on L_i)
        h = sum(a)
        x = [
            sum(a[i] for i in arr.points[pid].incident) % m
            - sum(a[i] for i in arr.points[pid].incident)
            for pid in cover.blown_ids
        ]
        square = h * h - sum(v * v for v in x)  # (m L_c)^2
        k_degree = -3 * h - sum(x)  # (m L_c) . K_Y, K_Y = -3H + sum E_p
        total += 1 + Fraction(square + m * k_degree, 2 * m * m)
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "quadrilateral_5_3", "quadrilateral_5_4",
             "kummer_3_5"],
)
def test_chi_matches_pardinis_eigensheaf_sum(cq, name):
    cover = named_cover(name, cq)
    assert pardini_chi(cover) == invariants(cover).chi


@pytest.mark.parametrize("name, chi", [("quadrilateral_2_4", 1), ("quadrilateral_2_5", 2)])
def test_pardini_chi_of_the_m2_covers(cq, name, chi):
    # K^2 + e from the adjoint class and the stratified Euler characteristic
    # agrees, and so does `invariants`
    cover = named_cover(name, cq)
    assert pardini_chi(cover) == invariants(cover).chi == chi
    kadj = adjoint_branch_class(cq, cover.blown_ids, cover.m)
    k2 = Fraction(cover.m) ** cover.k * pairing(kadj, kadj)
    assert k2 + stratified_euler(cq, cover.blown_ids, cover.m, cover.k) == 12 * chi


# (arrangement, m, k) with m^k <= 125 where random rows are often smooth.
# The m = 2 covers have lines whose preimage is several rational curves
# (p_a < 0), which `invariants` accepts by counting the components.
RANDOM_COVER_SHAPES = [
    (complete_quadrilateral, 2, 4), (complete_quadrilateral, 2, 5),
    (complete_quadrilateral, 3, 3), (complete_quadrilateral, 3, 4),
    (complete_quadrilateral, 5, 2), (complete_quadrilateral, 5, 3),
    (dual_hesse, 2, 4), (dual_hesse, 2, 5), (dual_hesse, 2, 6),
    (dual_hesse, 3, 3), (dual_hesse, 3, 4), (dual_hesse, 5, 3),
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RANDOM_COVER_SHAPES), st.integers(0, 2**32))
def test_chi_matches_pardini_on_random_smooth_covers(shape, seed):
    build, m, k = shape
    cover = random_smooth_cover(build(), m, k, random.Random(seed))
    assume(cover is not None)
    assert pardini_chi(cover) == invariants(cover).chi
    assert_the_plane_lists_the_blown_points(cover)


# -- the integral class m K_adj against the rational lattice --------------------

def hesse_minus_axes():
    """The 9 lines x + a y + b z, a^3 = b^3 = 1: 9 triple and 9 double points."""
    return build_arrangement(list(hesse().lines[3:]))


def as_if_smooth(cover):
    """The cover with its certificate forced ok, so that the number checks
    behind it (the Noether quotient, adjunction) are reached on covers that
    are not smooth."""
    return cover._replace(certificate=SmoothnessCertificate((), True))


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_matches_lattice(cover):
    """invariants equals the lattice route field for field, or raises the
    same text, as built and, for k >= 2, as if smooth; the canonical route
    of the 3K decomposition is taken iff the lattice identity holds.  No
    k = 1 cover is smooth, and `invariants` scales by the integer m^(k-2)."""
    for c in [cover, as_if_smooth(cover)] if cover.k >= 2 else [cover]:
        assert outcome(invariants, c) == outcome(lattice_invariants, c)
    identity = lattice_canonical_route(cover.arrangement, cover.blown_ids)
    assert three_canonical_decomposition(as_if_smooth(cover)).canonical_route == identity
    if any(cover.arrangement.points[pid].r == 2 for pid in cover.blown_ids):
        assert not identity


def assert_the_plane_lists_the_blown_points(cover):
    """The blown plane's blown points and the blown points on each line,
    against a scan of every point of the arrangement."""
    arr, plane = cover.arrangement, cover.plane
    blown = [p for pid, p in enumerate(arr.points) if pid in cover.blown_ids]
    assert list(plane.blown_points) == blown
    on_line = [[b for b, p in enumerate(blown) if i in p.incident] for i in range(arr.n)]
    assert list(map(list, plane.on_line)) == on_line


def every_point_blown(cover):
    arr = cover.arrangement
    return CoverModel.build(arr, cover.phi, list(range(len(arr.points))))


def oracle_cover(name, cq):
    if name in CENSUS_GENERIC_COVERS:
        build, rows = CENSUS_GENERIC_COVERS[name]
        return CoverModel.build(build(), Epimorphism(m=5, k=2, rows=tuple(rows)))
    if name == "kummer_5_5" or name in CENSUS_COVERS:
        return odd_cover(name, cq)
    return named_cover(name, cq)


@pytest.mark.parametrize(
    "name",
    ["example1", "example2", "example3", *QUAD_COVERS, "kummer_5_5", *CENSUS_COVERS,
     *CENSUS_GENERIC_COVERS],
)
def test_invariants_match_the_lattice_on_named_covers(cq, name):
    cover = oracle_cover(name, cq)
    assert_matches_lattice(cover)
    # the same epimorphism with every double point blown up too (e_p = 1)
    assert_matches_lattice(every_point_blown(cover))


def test_m2_refusals_and_blown_double_points(cq):
    # the smooth m = 2 covers: each line's preimage is d = 2 (d = 4) rational
    # curves, of arithmetic genus 1 - d (Hirzebruch's (Z/2)^5 cover is a K3)
    for name, numbers, p_a in (("quadrilateral_2_4", (0, 12, 1), -1),
                               ("quadrilateral_2_5", (0, 24, 2), -3)):
        cover = named_cover(name, cq)
        rep = invariants(cover)
        assert (rep.k2, rep.euler, rep.chi) == numbers
        assert [c.genus for c in rep.line_curves] == [p_a] * 6
        assert [component_count(cover, c.label) for c in rep.line_curves] == [1 - p_a] * 6
        # K is numerically trivial (h = 0 and every e_p = 0), so 3K = 0
        assert numerically_trivial_k(cover)
        dec = three_canonical_decomposition(cover)
        assert dec.line_coeffs == (0,) * 6 and dec.point_coeffs == (0,) * 4
        assert (dec.integral, dec.all_positive, dec.canonical_route) == (True, False, False)
        assert dec.note == "K is numerically trivial, so 3K = 0"
    # phi(E_p) = 0 at a blown point: not smooth, and as if smooth C1 has
    # p_a = -1 over d = 4 components, which fits no genus
    rows = ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1))
    cover = as_if_smooth(CoverModel.build(cq, Epimorphism(m=2, k=4, rows=rows)))
    assert outcome(invariants, cover) == "ValueError: adjunction gives no valid genus for C1"
    assert_matches_lattice(cover)
    # the quadrilateral with example3's phi stays smooth with its double
    # points blown up, and each of them (e_p = 1) lifts to (-1)-curves:
    # D^2 = (D, K) = -m^(k-2) e_p
    cover = CoverModel.build(cq, PHI3, list(range(7)))
    rep = invariants(cover)
    assert rep == lattice_invariants(cover)
    assert [d.k_degree for d in rep.point_curves if d.label.count(",") == 1] == [-1, -1, -1]


K1_COVERS = {
    "dual_hesse_5_1": (dual_hesse, 5, [(1,)] * 8 + [(2,)]),
    "quadrilateral_3_1": (complete_quadrilateral, 3, [(1,), (2,), (1,), (2,), (0,), (0,)]),
    "hesse_minus_axes_7_1": (hesse_minus_axes, 7, [(j % 7,) for j in range(8)] + [(0,)]),
}


@pytest.mark.parametrize("name", sorted(K1_COVERS))
def test_k1_covers_match_the_lattice(name):
    # no k = 1 cover is smooth: two line images are never independent in Z/m
    build, m, rows = K1_COVERS[name]
    cover = CoverModel.build(build(), Epimorphism(m=m, k=1, rows=tuple(rows)))
    assert outcome(invariants, cover).startswith("ValueError: cover is not certified smooth")
    assert_matches_lattice(cover)
    assert_matches_lattice(every_point_blown(cover))


def ceva6_first_nine():
    """x, y, z and x - r y, y - r z, z - r x for r = 1, zeta: 9 lines with
    one triple, three 4-fold and 15 double points."""
    return build_arrangement(list(ceva6_plus_3().lines[:9]))


@pytest.mark.parametrize("build", [hesse_minus_axes, ceva6_first_nine, ceva6_plus_3])
def test_canonical_route_needs_nine_lines_and_only_triple_points(build):
    """3K_tilde = -(sum of strict transforms) iff n = 9 and every blown point
    is 3-fold: 9 lines take the route with only their triple points blown
    and leave it once a double or a 4-fold point is blown too; Ceva(6)+3's
    21 lines never take it, not even with only triple points blown."""
    arr = build()
    rows = [(j % 5, j // 5 % 5) for j in range(arr.n - 1)]
    rows.append(tuple(-sum(col) % 5 for col in zip(*rows)))
    phi = Epimorphism(m=5, k=2, rows=tuple(rows))
    by_r = {}
    for pid, p in enumerate(arr.points):
        by_r.setdefault(p.r, []).append(pid)
    triples = by_r[3]
    higher = [by_r[r][0] for r in sorted(by_r) if r > 3]
    routes = []
    for blow in (triples, triples + by_r[2][:1], triples + higher, list(range(len(arr.points)))):
        cover = CoverModel.build(arr, phi, blow)
        assert_matches_lattice(cover)
        dec = three_canonical_decomposition(as_if_smooth(cover))
        routes.append(dec.canonical_route)
        if dec.canonical_route:
            # the uniform coefficients of 3K_tilde = -(sum of strict transforms)
            assert dec.line_coeffs == (2 * 5 - 3,) * 9
            assert dec.point_coeffs == (3 * (5 - 1),) * len(blow)
            assert dec.note == "3K_tilde = -(sum of strict transforms); uniform coefficients"
    assert routes == [arr.n == 9, False, arr.n == 9 and not higher, False]


@pytest.fixture
def search_nodes(monkeypatch):
    """The prefixes the 3K search visits: one call of `_extra_lines` each."""
    nodes = []
    original = cover_module._extra_lines

    def counted(*args):
        nodes.append(args[:2])
        return original(*args)

    monkeypatch.setattr(cover_module, "_extra_lines", counted)
    return nodes


def test_three_canonical_skips_the_search_when_no_distribution_can_work(search_nodes):
    # 25 lines through [0:0:1] and z = 0, m = 5, the 25-fold point blown:
    # base = 10, rem = 7, and the blown point's coefficient is at most
    # 15 - 3*4*24 + 25*10 + 7 = -16 over all C(26, 7) subsets
    lines = [Line.make(CycNumber(1), CycNumber(t), CycNumber(0)) for t in range(25)]
    arr = build_arrangement(lines + [Line.make(CycNumber(0), CycNumber(0), CycNumber(1))])
    assert arr.t == {2: 25, 25: 1}
    phi = Epimorphism(m=5, k=2, rows=((0, 1),) * 24 + ((4, 1), (1, 0)))
    pencil = next(pid for pid, p in enumerate(arr.points) if p.r == 25)
    cover = CoverModel.build(arr, phi, [pencil])
    assert cover.certificate.ok
    dec = three_canonical_decomposition(cover)
    assert search_nodes == [(0, 7)]  # refused at the empty prefix
    assert dec.line_coeffs == (Fraction(267, 26),) * 26
    assert dec.point_coeffs == (Fraction(-423, 26),)
    assert not (dec.integral or dec.all_positive or dec.canonical_route)
    assert dec.note == "no positive integral distribution found; symmetric rational solution"


def enumerated_line_coeffs(cover):
    """The line coefficients of the first of all C(n, rem) subsets, in
    lexicographic order, whose lines get one more and leave every blown
    point's coefficient 3m - 3(m-1)(r-1) + (sum over its lines) positive; None
    if there is none (or the even share is not positive)."""
    arr, m = cover.arrangement, cover.m
    total = 3 * (arr.n * (m - 1) - 3 * m)
    base, rem = divmod(total, arr.n)
    if base <= 0:
        return None
    for extra in itertools.combinations(range(arr.n), rem):
        c = [base + (i in extra) for i in range(arr.n)]
        points = (arr.points[pid] for pid in cover.blown_ids)
        if all(3 * m - 3 * (m - 1) * (p.r - 1) + sum(c[i] for i in p.incident) > 0 for p in points):
            return tuple(c)
    return None


def numerically_trivial_k(cover):
    """m K_adj = ((m-1)n - 3m) H + sum of (m - (m-1)(r_p - 1)) E_p is zero."""
    arr, m = cover.arrangement, cover.m
    points = [arr.points[pid] for pid in cover.blown_ids]
    return (m - 1) * arr.n == 3 * m and all(m == (m - 1) * (p.r - 1) for p in points)


def assert_3k_matches_enumeration(cover):
    dec = three_canonical_decomposition(cover)
    expected = enumerated_line_coeffs(cover)
    if expected is None and numerically_trivial_k(cover):
        assert dec.note == "K is numerically trivial, so 3K = 0"
        assert not any(dec.line_coeffs + dec.point_coeffs) and dec.integral
    elif expected is None:
        assert dec.note == "no positive integral distribution found; symmetric rational solution"
    else:
        assert dec.line_coeffs == expected and dec.integral and dec.all_positive
        assert all(d > 0 for d in dec.point_coeffs)
    return expected


def two_pencils(a, b):
    """a lines through [0:0:1] and b lines through [1:0:0], y = 0 in both."""
    lines = [(0, 1, 0), (1, 0, 0), *[(1, t, 0) for t in range(1, a - 1)], (0, 0, 1)]
    lines += [(0, 1, s) for s in range(1, b - 1)]
    return build_arrangement([Line.make(*map(CycNumber, row)) for row in lines])


def two_column_phi(n, m):
    """An epimorphism of n lines onto (Z/m)^2; the 3K search reads only m."""
    rows = [(1, 0)] * (n - 2) + [(0, 1), ((n - 2) * (m - 1) % m, m - 1)]
    return Epimorphism(m=m, k=2, rows=tuple(rows))


# 13 + 12 lines, n = 24, m = 2: base = 2 and rem = 6, but the two pencil
# points need 5 and 4 of the 6 lines and share only y = 0
TWO_PENCIL_PHI = (
    (1, 1, 1, 1), (1, 1, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 0),
    (0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1),
    (0, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 1),
    (1, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0),
)


def test_three_canonical_prunes_the_two_pencil_cover(search_nodes):
    arr = two_pencils(13, 12)
    assert arr.t == {2: 132, 12: 1, 13: 1}
    blown = [pid for pid, p in enumerate(arr.points) if p.r > 2]
    cover = CoverModel.build(arr, Epimorphism(m=2, k=4, rows=TWO_PENCIL_PHI), blown)
    assert cover.certificate.ok
    assert assert_3k_matches_enumeration(cover) is None
    # C(24, 6) = 134596 subsets enumerated; the search refuses at the empty
    # prefix: the needs 5 + 4 exceed the 2 + 5 * 1 that six lines can give
    assert search_nodes == [(0, 6)]


def test_three_canonical_refuses_sixteen_plus_sixteen_pencils_at_once(search_nodes):
    # n = 31, m = 2: base = 2 and rem = 13; each 16-fold point has
    # 3(3 - 16) + 16 * 2 = -7, so it needs 8 of the 13 lines, and 8 + 8 = 16
    # exceeds the 2 + 12 * 1 = 14 that 13 lines can give (y = 0 is the one
    # line through both).  Either point alone could have its 8 lines, so only
    # the joint bound refuses; C(31, 13) is too many subsets to enumerate.
    arr = two_pencils(16, 16)
    assert arr.n == 31 and arr.t == {2: 225, 16: 2}
    blown = [pid for pid, p in enumerate(arr.points) if p.r > 2]
    cover = as_if_smooth(CoverModel.build(arr, two_column_phi(arr.n, 2), blown))
    dec = three_canonical_decomposition(cover)
    assert search_nodes == [(0, 13)]
    assert dec.line_coeffs == (Fraction(75, 31),) * 31
    assert not (dec.integral or dec.all_positive or dec.canonical_route)
    assert dec.note == "no positive integral distribution found; symmetric rational solution"


ORACLE_ARRANGEMENTS = {
    "quadrilateral": complete_quadrilateral,
    "dual_hesse": dual_hesse,
    "hesse_minus_axes": hesse_minus_axes,
    "ceva6_first_nine": ceva6_first_nine,
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(ORACLE_ARRANGEMENTS)),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_invariants_match_the_lattice_on_random_covers(name, m, k, rng):
    arr = ORACLE_ARRANGEMENTS[name]()
    rows = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(arr.n - 1)]
    rows.append(tuple((-sum(r[j] for r in rows)) % m for j in range(k)))
    try:
        phi = Epimorphism(m=m, k=k, rows=tuple(rows))
    except ValueError:
        assume(False)
    doubles = [pid for pid, p in enumerate(arr.points) if p.r == 2]
    blow = [pid for pid, p in enumerate(arr.points) if p.r >= 3]
    blow += rng.sample(doubles, rng.randint(0, len(doubles)))
    cover = CoverModel.build(arr, phi, blow)
    assert_matches_lattice(cover)
    assert_the_plane_lists_the_blown_points(cover)


@pytest.mark.parametrize(
    "a, b, m, expected",
    [
        (6, 6, 2, (2, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1)),
        (6, 6, 3, (4, 4, 4, 3, 3, 3, 4, 4, 4, 3, 3)),
        (5, 4, 3, (3, 3, 3, 3, 2, 3, 2, 2)),
    ],
)
def test_three_canonical_first_positive_distribution_is_not_the_first_subset(a, b, m, expected):
    # only the pencil point [1:0:0] blown: it needs lines of its own pencil,
    # which come after the first lines of the other one
    arr = two_pencils(a, b)
    cover = CoverModel.build(arr, two_column_phi(arr.n, m), [1])
    assert arr.points[1].r == b
    assert assert_3k_matches_enumeration(as_if_smooth(cover)) == expected


THREE_K_ARRANGEMENTS = {
    **ORACLE_ARRANGEMENTS,
    **{f"pencils_{a}_{b}": (lambda a=a, b=b: two_pencils(a, b))
       for a, b in ((3, 3), (4, 3), (5, 4), (6, 6))},
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(THREE_K_ARRANGEMENTS)),
    st.sampled_from([2, 3, 5, 7]),
    st.randoms(use_true_random=False),
)
def test_three_canonical_matches_the_enumeration(name, m, rng):
    arr = THREE_K_ARRANGEMENTS[name]()
    blow = rng.sample(range(len(arr.points)), rng.randint(0, len(arr.points)))
    cover = CoverModel.build(arr, two_column_phi(arr.n, m), blow)
    assert_3k_matches_enumeration(as_if_smooth(cover))
    assert_the_plane_lists_the_blown_points(cover)
