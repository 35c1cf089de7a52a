import itertools
import math
import sys

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from planecover.arrangement import (
    Line,
    build_arrangement,
    combinatorial_automorphisms,
    complete_quadrilateral,
    compose_perms,
    dual_hesse,
    fixed_points_of,
    invert_perm,
    perm_cycles_str,
    realize_symmetry,
)
from planecover.catalog import PHI2
from planecover.cyclotomic import ONE, ZERO, ZETA, CycNumber
from planecover.homology import Epimorphism
from planecover.linalg import conj_vec, dot, matmul, normalize_matrix
from planecover.search import (
    SearchState,
    _incidence,
    _search_order,
    count_automorphisms,
    incidence_automorphisms,
)
from planecover.symmetry import character_preserving_symmetries
import realize_oracle
from realize_oracle import IDENTITY3
from test_homology import random_valid_phi
from test_symmetry import CENSUS_GENERIC_COVERS, ceva6_plus_3, ceva_lines, invariant_phi, line_strategy

CONJ_PERM = (0, 2, 1, 5, 4, 3, 7, 6, 8)  # (2 3)(4 6)(7 8), 0-based

# triple-point index sets of the nine-line arrangement, 1-based
DUAL_HESSE_TRIPLES = (
    (1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9),
    (1, 5, 9), (3, 5, 7), (1, 6, 8), (3, 4, 8), (2, 4, 9), (2, 6, 7),
)


@pytest.fixture
def dh():
    """A fresh dual Hesse arrangement: the session one carries the
    realizations earlier tests kept on it, so a check here would read them
    instead of solving."""
    return dual_hesse()


@pytest.fixture
def cq():
    """A fresh complete quadrilateral, as for `dh`."""
    return complete_quadrilateral()


def line_of_ints(a, b, c):
    return Line.make(CycNumber(a), CycNumber(b), CycNumber(c))


def test_three_generic_lines_triangle():
    arr = build_arrangement(
        [line_of_ints(1, 0, 0), line_of_ints(0, 1, 0), line_of_ints(0, 0, 1)]
    )
    assert arr.t == {2: 3}


def test_three_concurrent_lines():
    arr = build_arrangement(
        [line_of_ints(1, 0, 0), line_of_ints(0, 1, 0), line_of_ints(1, 1, 0)]
    )
    assert arr.t == {3: 1}


def test_duplicate_line_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_arrangement([line_of_ints(1, 0, 0), line_of_ints(2, 0, 0)])


def test_too_few_lines_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        build_arrangement([line_of_ints(1, 0, 0)])


def test_dual_hesse_multiplicities(dh):
    assert dh.t == {3: 12}


def test_dual_hesse_triples_match_reference_set(dh):
    assert set(dh.triples_1based()) == set(DUAL_HESSE_TRIPLES)
    assert len(dh.triples_1based()) == 12


def test_dual_hesse_four_triples_per_line(dh):
    from autos_oracle import points_on_line

    for i in range(9):
        assert len(points_on_line(dh, i)) == 4


def test_dual_hesse_real_lines(dh):
    real = [i + 1 for i, line in enumerate(dh.lines) if all(c.is_real() for c in line.coeffs)]
    assert real == [1, 5, 9]


def test_quadrilateral_multiplicities(cq):
    assert cq.t == {2: 3, 3: 4}


def test_quadrilateral_double_points(cq):
    doubles = sorted(p.incident_1based() for p in cq.points if p.r == 2)
    assert doubles == [(1, 4), (2, 5), (3, 6)]


def test_quadrilateral_per_line_profile(cq):
    from autos_oracle import line_profile

    for i in range(6):
        assert line_profile(cq, i) == (2, 3, 3)


def test_pair_count_identity_builtin(dh, cq):
    for arr in (dh, cq):
        n = arr.n
        total = sum(cnt * r * (r - 1) // 2 for r, cnt in arr.t.items())
        assert total == n * (n - 1) // 2


def test_triangle_automorphisms():
    arr = build_arrangement(
        [line_of_ints(1, 0, 0), line_of_ints(0, 1, 0), line_of_ints(0, 0, 1)]
    )
    assert len(combinatorial_automorphisms(arr)) == 6


def test_dual_hesse_automorphism_group_order(dh):
    # cross-check: the affine group AGL(2,3) has order 9 * 48 = 432
    autos = combinatorial_automorphisms(dh)
    assert len(autos) == 432
    assert autos == sorted(autos)


def test_quadrilateral_automorphism_group_order(cq):
    # cross-check: S4 permuting the four base points
    assert len(combinatorial_automorphisms(cq)) == 24


def test_automorphisms_form_a_group(cq):
    autos = set(combinatorial_automorphisms(cq))
    sample = sorted(autos)[:8]
    for p in sample:
        inv = tuple(sorted(range(len(p)), key=lambda i: p[i]))
        assert inv in autos
        for q in sample:
            assert tuple(p[q[i]] for i in range(len(p))) in autos


def test_identity_realized_holomorphically(dh):
    assert realize_symmetry(dh, tuple(range(9)), anti=False) == IDENTITY3


def test_conjugation_permutation_realized_by_identity_matrix(dh):
    assert realize_symmetry(dh, CONJ_PERM, anti=True) == IDENTITY3


def test_conjugation_permutation_not_holomorphic(dh):
    assert realize_symmetry(dh, CONJ_PERM, anti=False) is None


def test_identity_anti_not_realizable_on_dual_hesse(dh):
    # an anti-projectivity fixing all nine lines would make every
    # inflection-dual line real, which the solver refutes exactly
    assert realize_symmetry(dh, tuple(range(9)), anti=True) is None


def test_quadrilateral_conjugate_pair_swap_realized(cq):
    perm = (1, 0, 2, 4, 3, 5)  # swap L1<->L2, L4<->L5
    assert realize_symmetry(cq, perm, anti=True) is not None


def test_realized_matrix_satisfies_proportionality_everywhere(dh):
    from planecover.linalg import conj_vec, matvec, proportional

    m = realize_symmetry(dh, CONJ_PERM, anti=True)
    for i in range(9):
        image = matvec(m, conj_vec(dh.lines[i].coeffs))
        assert proportional(image, dh.lines[CONJ_PERM[i]].coeffs)


def test_fixed_points_of_standard_conjugation(dh):
    matrix = realize_symmetry(dh, CONJ_PERM, anti=True)
    fixed = fixed_points_of(dh, CONJ_PERM)
    assert fixed == realize_oracle.fixed_points_of(dh, matrix, True)
    assert {p.incident_1based() for p in fixed} == {(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 9)}


def test_identity_fixes_all_points(dh):
    fixed = fixed_points_of(dh, tuple(range(9)))
    assert fixed == realize_oracle.fixed_points_of(dh, IDENTITY3, False)
    assert len(fixed) == 12


def test_all_real_conjugation_fixes_all_quadrilateral_points(cq):
    matrix = realize_symmetry(cq, tuple(range(6)), anti=True)
    assert matrix is not None
    fixed = fixed_points_of(cq, tuple(range(6)))
    assert fixed == realize_oracle.fixed_points_of(cq, matrix, True)
    assert len(fixed) == 7


def test_fixed_points_of_does_no_field_arithmetic_and_keeps_nothing(dh, monkeypatch):
    # read from the permutation alone: no Q(zeta) product or quotient, and
    # no table left on the arrangement
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        original = getattr(CycNumber, name)

        def counted(self, other, _name=name, _original=original):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(CycNumber, name, counted)
    kept = dict(vars(dh))
    fixed = fixed_points_of(dh, CONJ_PERM)
    assert calls == [] and vars(dh) == kept
    assert len(fixed) == 4


def test_realizable_composition_closure(cq):
    # realizable(p1, a1) and realizable(p2, a2) imply realizable(p1 p2, a1 xor a2)
    syms = []
    for perm, anti in (((0, 1, 2, 3, 4, 5), True), ((1, 0, 2, 4, 3, 5), False)):
        matrix = realize_symmetry(cq, perm, anti)
        assert matrix is not None
        syms.append((perm, anti, matrix))
    for (p1, a1, m1), (p2, a2, m2) in itertools.product(syms, repeat=2):
        # s2 first, then s1: the matrices compose as M1 . sigma1(M2)
        perm = compose_perms(p1, p2)
        if a1:
            m2 = tuple(conj_vec(row) for row in m2)
        direct = realize_symmetry(cq, perm, a1 != a2)
        assert direct is not None
        assert normalize_matrix(matmul(m1, m2)) == direct


def test_cycle_notation():
    assert perm_cycles_str((0, 2, 1, 5, 4, 3, 7, 6, 8)) == "(2 3)(4 6)(7 8)"
    assert perm_cycles_str((0, 1, 2)) == "id"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(line_strategy, min_size=2, max_size=6, unique_by=lambda l: l.coeffs)
)
def test_pair_count_identity_random(lines):
    arr = build_arrangement(lines)
    n = arr.n
    total = sum(cnt * r * (r - 1) // 2 for r, cnt in arr.t.items())
    assert total == n * (n - 1) // 2
    for p in arr.points:
        assert p.r >= 2
        for i in p.incident:
            assert not dot(arr.lines[i].coeffs, p.coords)


# -- realization against the inverse-based reference --------------------------


def hesse():
    """The 12 lines xyz = 0 and x + a y + b z = 0, a^3 = b^3 = 1, through the
    nine flexes of x^3 + y^3 + z^3; zeta^2 and zeta^4 = -zeta are the
    nontrivial cube roots of unity."""
    cube_roots = (ONE, ZETA * ZETA, -ZETA)
    rows = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    rows += [(ONE, a, b) for a in cube_roots for b in cube_roots]
    return build_arrangement([Line.make(*r) for r in rows])


@pytest.mark.parametrize(
    "build, autos, realized",
    [
        (complete_quadrilateral, 24, 48), (dual_hesse, 432, 432), (hesse, 432, 432),
        (ceva6_plus_3, 432, 432),
    ],
    ids=["quadrilateral", "dual_hesse", "hesse", "ceva6_plus_3"],
)
def test_realization_matches_inverse_based_reference(build, autos, realized):
    arr = build()
    perms = combinatorial_automorphisms(arr)
    assert len(perms) == autos
    hits = 0
    for perm in perms:
        for anti in (False, True):
            matrix = realize_symmetry(arr, perm, anti)
            assert matrix == realize_oracle.realize_symmetry(arr, perm, anti)
            # asked again, the answer is the one kept in the arrangement's search state
            assert realize_symmetry(arr, perm, anti) is arr._search.realizations[(perm, anti)] is matrix
            if matrix is not None:
                hits += 1
                assert fixed_points_of(arr, perm) == realize_oracle.fixed_points_of(arr, matrix, anti)
    assert hits == realized
    assert len(arr._search.realizations) == 2 * autos


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=4, max_size=9, unique=True))
def test_fixed_points_match_the_matrix_route_on_ceva_subsets(picked):
    """Subsets of Ceva(6)+3 in a random line order that keep 4 lines in
    general position: for every realized (perm, anti), the permutation's
    fixed points are the matrix route's."""
    full = ceva6_plus_3()
    arr = build_arrangement([full.lines[i] for i in picked])
    try:
        arr._search.frame
    except ValueError:
        assume(False)
    for perm in combinatorial_automorphisms(arr):
        for anti in (False, True):
            matrix = realize_symmetry(arr, perm, anti)
            if matrix is not None:
                assert fixed_points_of(arr, perm) == realize_oracle.fixed_points_of(arr, matrix, anti)


# -- the automorphism search against its oracles -------------------------------


def triangle():
    return build_arrangement([line_of_ints(1, 0, 0), line_of_ints(0, 1, 0), line_of_ints(0, 0, 1)])


def concurrent_three():
    return build_arrangement([line_of_ints(1, 0, 0), line_of_ints(0, 1, 0), line_of_ints(1, 1, 0)])


SEARCH_CASES = {
    "quadrilateral": complete_quadrilateral,
    "dual_hesse": dual_hesse,
    "hesse": hesse,
    "ceva6_plus_3": ceva6_plus_3,
    "triangle": triangle,
    "concurrent_three": concurrent_three,
}


def assert_search_matches_oracles(arr):
    import autos_oracle

    autos = combinatorial_automorphisms(arr)
    assert autos == autos_oracle.combinatorial_automorphisms(arr)
    if arr.n <= 7:
        assert autos == autos_oracle.brute_force_automorphisms(arr)
    # the orbit-stabilizer count, on a fresh build so no table is shared
    assert count_automorphisms(build_arrangement(arr.lines)) == len(autos)
    return autos


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_search_matches_backtracking_and_brute_force(name):
    autos = assert_search_matches_oracles(SEARCH_CASES[name]())
    sizes = {"quadrilateral": 24, "dual_hesse": 432, "hesse": 432, "ceva6_plus_3": 432,
             "triangle": 6, "concurrent_three": 6}
    assert len(autos) == sizes[name]


@settings(max_examples=40, deadline=None)
@given(st.lists(line_strategy, min_size=2, max_size=7, unique_by=lambda l: l.coeffs))
def test_search_matches_oracles_random(lines):
    assert_search_matches_oracles(build_arrangement(lines))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(line_strategy, min_size=2, max_size=7, unique_by=lambda l: l.coeffs),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_constrained_search_matches_annihilator_filter_random(lines, m, k, invariant, rng):
    """A random valid phi, or one whose rows are constant on the cycles of a
    nontrivial automorphism where such a phi exists: the search with phi's
    linear constraint returns the filter's list over the full search."""
    import autos_oracle

    arr = build_arrangement(lines)
    k = min(k, arr.n - 1)
    autos = combinatorial_automorphisms(arr)
    phi = invariant_phi(autos, m, k, rng, tries=20) if invariant and len(autos) > 1 else None
    if phi is None:
        phi = random_valid_phi(rng, arr.n, m, k)
    assert character_preserving_symmetries(arr, phi) == autos_oracle.annihilator_filter(autos, phi)


def pooled_phi(rng, n, m, k, tries=50):
    """A random epimorphism onto (Z/m)^k whose rows, but the last, are
    multiples of two or three pool vectors, zero among them, so that equal,
    proportional and zero rows are common; the last row restores the zero
    sum.  None if `tries` draws find none of rank k."""
    for _ in range(tries):
        pool = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(rng.randint(2, 3))]
        rows = [tuple(rng.randrange(m) * x % m for x in rng.choice(pool)) for _ in range(n - 1)]
        rows.append(tuple(-sum(r[j] for r in rows) % m for j in range(k)))
        try:
            return Epimorphism(m=m, k=k, rows=tuple(rows))
        except ValueError:
            continue
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(line_strategy, min_size=2, max_size=7, unique_by=lambda l: l.coeffs),
        st.lists(st.integers(0, 20), min_size=4, max_size=10, unique=True).map(ceva_lines),
    ),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_constrained_search_on_pooled_rows_matches_the_filters(lines, m, k, blow, rng):
    """Random lines or a subset of Ceva(6)+3, phi with pooled rows, and a
    random blown subset of the points or none: the search, which maps a
    line only to a line of its row class, returns the annihilator filter's
    and then the blow-up filter's list over the reference search's
    Aut_comb."""
    import autos_oracle

    arr = build_arrangement(lines)
    phi = pooled_phi(rng, arr.n, m, min(k, arr.n - 1))
    assume(phi is not None)
    blown = tuple(sorted(rng.sample(range(len(arr.points)), rng.randint(0, len(arr.points))))) if blow else ()
    autos = autos_oracle.combinatorial_automorphisms(arr)
    expected = autos_oracle.blow_up_filter(autos_oracle.annihilator_filter(autos, phi), arr, blown)
    assert character_preserving_symmetries(arr, phi, blown) == expected


def test_a_zero_row_is_a_class_of_its_own():
    """Three coordinate lines, m = 2, k = 1: the zero row of the second line
    has no leading entry to scale by, and the line is fixed."""
    import autos_oracle

    arr = build_arrangement([Line.make(ONE, ZERO, ZERO), Line.make(ZERO, ONE, ZERO), Line.make(ZERO, ZERO, ONE)])
    phi = Epimorphism(m=2, k=1, rows=((1,), (0,), (1,)))
    expected = [(0, 1, 2), (2, 1, 0)]
    assert autos_oracle.annihilator_filter(autos_oracle.combinatorial_automorphisms(arr), phi) == expected
    assert character_preserving_symmetries(arr, phi) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=4, max_size=10, unique=True))
def test_search_matches_oracles_on_ceva_subsets(picked):
    """Subsets of Ceva(6)+3 in a random line order: triple and 4- to 8-fold
    points, so most lines are anchored."""
    full = ceva6_plus_3()
    assert_search_matches_oracles(build_arrangement([full.lines[i] for i in picked]))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["dual_hesse", "hesse", "ceva6_plus_3"]), st.randoms(use_true_random=False))
def test_search_on_relabelled_lines_is_the_conjugate_group(name, rng):
    arr = SEARCH_CASES[name]()
    s = list(range(arr.n))
    rng.shuffle(s)
    relabelled = build_arrangement([arr.lines[i] for i in s])
    # line k of the relabelled arrangement is line s[k]: g acts as s^-1 g s
    s_inv = invert_perm(tuple(s))
    expected = sorted(compose_perms(s_inv, compose_perms(g, tuple(s)))
                      for g in combinatorial_automorphisms(arr))
    assert combinatorial_automorphisms(relabelled) == expected


def vandermonde(n):
    """The lines x + a y + a^2 z for n distinct a in Q(zeta): tangent lines
    of one conic, so no three meet and Aut_comb is all of S_n."""
    values = [CycNumber(a, b) for b in range(3) for a in range(-2, 4)][:n]
    return build_arrangement([Line.make(ONE, a, a * a) for a in values])


@pytest.mark.parametrize("n", range(2, 17))
def test_count_on_vandermonde_lines_is_n_factorial(n):
    arr = vandermonde(n)
    assert arr.t == {2: n * (n - 1) // 2}
    assert count_automorphisms(arr) == math.factorial(n)


def search_nodes(fn, arr):
    """fn(arr) and the number of calls of the search's `extend`, one per
    node of the search tree visited, over all of fn's searches."""
    nodes = 0
    extend_code = next(
        c for c in incidence_automorphisms.__code__.co_consts
        if getattr(c, "co_name", None) == "extend"
    )

    def profile(frame, event, _arg):
        nonlocal nodes
        if event == "call" and frame.f_code is extend_code:
            nodes += 1

    sys.setprofile(profile)
    try:
        result = fn(arr)
    finally:
        sys.setprofile(None)
    return result, nodes


@pytest.mark.parametrize(
    "build",
    [*SEARCH_CASES.values(), lambda: vandermonde(7),
     # a subset of Ceva(6)+3 whose count misses at some candidates
     lambda: build_arrangement([ceva6_plus_3().lines[i] for i in (1, 3, 5, 11, 13, 16, 17, 18)])],
    ids=[*SEARCH_CASES, "vandermonde7", "ceva_subset"],
)
def test_count_visits_at_most_n_times_the_listings_nodes(build):
    """The runs at one level of the count search disjoint subtrees of the
    listing's search tree, and there are n levels."""
    arr = build()
    count, nodes = search_nodes(count_automorphisms, arr)
    autos, listing_nodes = search_nodes(combinatorial_automorphisms, arr)
    assert count == len(autos)
    assert listing_nodes > 0 and nodes <= arr.n * listing_nodes


@pytest.mark.parametrize(
    "phi, nodes, profile_nodes",
    [(PHI2, 29, 122),
     (Epimorphism(m=5, k=2, rows=tuple(CENSUS_GENERIC_COVERS["census_generic_dual_hesse"][1])), 26, 95)],
    ids=["example2", "census_generic_dual_hesse"],
)
def test_row_classes_prune_the_character_preserving_search(monkeypatch, phi, nodes, profile_nodes):
    """One `SearchState.candidates` call per inner search node: on dual
    Hesse, matching lines by phi's row classes visits at most `nodes`
    nodes, where matching them by profile alone visited `profile_nodes`."""
    calls = []
    candidates = SearchState.candidates

    def counted(state, k, perm):
        calls.append(k)
        return candidates(state, k, perm)

    monkeypatch.setattr(SearchState, "candidates", counted)
    assert len(character_preserving_symmetries(dual_hesse(), phi)) == (2 if phi is PHI2 else 1)
    assert len(calls) <= nodes < profile_nodes


@settings(max_examples=40, deadline=None)
@given(
    st.lists(line_strategy, min_size=2, max_size=7, unique_by=lambda l: l.coeffs),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_prefix_and_first_select_the_listings_permutations(lines, rng, first):
    """A forced prefix gives exactly the automorphisms with those images at
    the first positions of the search order, and `first` one of them."""
    arr = build_arrangement(lines)
    order = arr._search.order
    autos = combinatorial_automorphisms(arr)
    length = rng.randint(0, arr.n)
    prefix = tuple(rng.choice(autos)[i] for i in order[:length])
    if rng.random() < 0.5 and length:
        prefix = (*prefix[:-1], rng.randrange(arr.n))
    expected = [g for g in autos if all(g[order[t]] == prefix[t] for t in range(length))]
    got = incidence_automorphisms(arr, prefix=prefix, first=first)
    if first:
        assert len(got) == min(1, len(expected)) and set(got) <= set(expected)
    else:
        assert got == expected


# which positions of the search order have no anchor (U) and which have one
# (a); the same for every line order
ANCHOR_PATTERNS = {
    "quadrilateral": "UUaUaa",
    "dual_hesse": "UUaUaaaaa",
    "hesse": "UUUaaaaaaaaa",
    "ceva6_plus_3": "UUU" + "a" * 18,
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(ANCHOR_PATTERNS)), st.randoms(use_true_random=False))
def test_search_order_anchors_all_but_three_lines(name, rng):
    """In any line order the search starts from three unanchored lines and
    takes every other line's candidates from a point of multiplicity >= 3
    on two earlier lines; on Ceva(6)+3 it starts at the three coordinate
    lines, the only ones through two 8-fold points."""
    arr = SEARCH_CASES[name]()
    s = list(range(arr.n))
    rng.shuffle(s)
    arr = build_arrangement([arr.lines[i] for i in s])
    mult = [p.r for p in arr.points]
    meet, profiles = _incidence(arr)
    order, anchors = _search_order(meet, mult, profiles)
    assert sorted(order) == list(range(arr.n))
    assert "".join("U" if a is None else "a" for a in anchors) == ANCHOR_PATTERNS[name]
    for k, anchor in enumerate(anchors):
        if anchor is None:
            continue
        i, (a, b) = order[k], anchor
        assert a in order[:k] and b in order[:k] and a != b
        assert meet[i][a] == meet[i][b] == meet[a][b]
        assert mult[meet[i][a]] >= 3
    if name == "ceva6_plus_3":
        coordinate = {i for i in range(arr.n) if profiles[i].count(8) == 2}
        assert len(coordinate) == 3 and set(order[:3]) == coordinate
