import functools
import itertools
import json
import random
import re
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from autos_oracle import annihilator_filter, blow_up_filter
from klein_oracle import (
    anti_involutions,
    brute_force_classify,
    elements,
    index_of,
    inverse,
    is_involution,
)
from realize_oracle import IDENTITY3
from planecover.arrangement import (
    Line,
    build_arrangement,
    combinatorial_automorphisms,
    complete_quadrilateral,
    compose_perms,
    dual_hesse,
    invert_perm,
    perm_cycles_str,
)
from planecover.bounds import hodge_from_surface, lefschetz_trace, smith_total
from planecover.catalog import PHI1, PHI2, PHI3, builtin_arrangement, builtin_cover
from planecover.characters import enumerate_characters, preserves_charset
from planecover.cli import run
from planecover.cyclotomic import ONE, ZERO, ZETA, CycNumber, parse_cyc
from planecover.homology import BLOW_ALL_TRIPLE, CoverModel, Epimorphism, rank_mod_p
from planecover.linalg import (
    adjugate,
    conj_vec,
    det3,
    matmul,
    matvec,
    normalize_matrix,
    proportional,
    transpose,
)
from planecover.search import incidence_automorphisms
from planecover.symmetry import (
    character_preserving_symmetries,
    classify_real_structures,
    deck_action_of,
    klein_model,
)

IDENTITY9 = tuple(range(9))

small_coeff = st.builds(CycNumber, st.integers(-2, 2), st.integers(-1, 1))
line_strategy = (
    st.tuples(small_coeff, small_coeff, small_coeff)
    .filter(lambda t: any(t))
    .map(lambda t: Line.make(*t))
)
CONJ_PERM = (0, 2, 1, 5, 4, 3, 7, 6, 8)
QUAD_SWAP = (1, 0, 2, 4, 3, 5)  # (1 2)(4 5)
OPPOSITE_SWAP = (3, 4, 5, 0, 1, 2)  # (1 4)(2 5)(3 6)


def test_example1_only_identity_preserves_characters(dh, cover1):
    perms = character_preserving_symmetries(dh, cover1.phi)
    assert perms == [IDENTITY9]


def test_example2_exactly_one_nontrivial_symmetry(dh, cover2):
    perms = character_preserving_symmetries(dh, cover2.phi)
    assert len(perms) == 2
    assert IDENTITY9 in perms and CONJ_PERM in perms


def test_example3_preserving_subgroup(cq, cover3):
    perms = character_preserving_symmetries(cq, cover3.phi)
    assert tuple(range(6)) in perms
    assert QUAD_SWAP in perms
    # the opposite-swap preserves the characters but not the incidence,
    # so it cannot appear here
    assert OPPOSITE_SWAP not in perms
    assert len(perms) == 2


def test_deck_action_of_conjugation_is_inversion():
    action = deck_action_of(CONJ_PERM, True, PHI2)
    assert action == ((4, 0), (0, 4))


def test_deck_action_of_identity():
    action = deck_action_of(IDENTITY9, False, PHI2)
    assert action == ((1, 0), (0, 1))


def test_deck_action_of_opposite_swap_exchanges_generators():
    action = deck_action_of(OPPOSITE_SWAP, False, PHI3)
    assert action == ((0, 1), (1, 0))


def test_deck_action_rejects_non_preserving_permutation():
    with pytest.raises(ValueError, match="does not preserve"):
        deck_action_of((1, 0) + tuple(range(2, 9)), False, PHI2)


def test_klein_model_example1(model1):
    assert model1.order == 25
    assert not model1.has_anti
    assert [r.perm for r in model1.realized] == [IDENTITY9]
    assert (IDENTITY9, True) in model1.combinatorial_only


def test_klein_model_example2(model2):
    assert model2.order == 50
    assert model2.has_anti
    realized = {(r.perm, r.anti) for r in model2.realized}
    assert realized == {(IDENTITY9, False), (CONJ_PERM, True)}
    # the anti generator is plain coefficient conjugation
    anti = next(r for r in model2.realized if r.anti)
    assert anti.matrix == IDENTITY3
    assert anti.deck_aut == ((4, 0), (0, 4))


def test_klein_model_example2_rejects_combinatorial_only(model2):
    rejected = set(model2.combinatorial_only)
    assert (IDENTITY9, True) in rejected
    assert (CONJ_PERM, False) in rejected


def test_klein_model_example3(model3):
    assert model3.order == 100
    realized = {(r.perm, r.anti) for r in model3.realized}
    assert realized == {
        (tuple(range(6)), False),
        (tuple(range(6)), True),
        (QUAD_SWAP, False),
        (QUAD_SWAP, True),
    }


def test_deck_action_homomorphism_on_models(model2, model3):
    for model in (model2, model3):
        for r1, r2 in itertools.product(model.realized, repeat=2):
            perm = compose_perms(r1.perm, r2.perm)
            anti = r1.anti != r2.anti
            idx = index_of(model, perm, anti)
            composed = model.realized[idx].deck_aut
            m = model.m
            k = model.k
            product = tuple(
                tuple(
                    sum(r1.deck_aut[i][t] * r2.deck_aut[t][j] for t in range(k)) % m
                    for j in range(k)
                )
                for i in range(k)
            )
            assert composed == product


def test_example1_has_no_real_structures(model1):
    assert classify_real_structures(model1) == []


def test_example2_unique_real_structure_class(model2):
    classes = classify_real_structures(model2)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.size == 25
    assert cls.perm_cycles == "(2 3)(4 6)(7 8)"
    assert cls.fixed_lines == (1, 5, 9)
    assert len(cls.real_blown_points) == 4
    assert cls.real_part_euler == -3
    assert cls.real_part_betti == (1, 5, 1)


def test_example2_all_anti_elements_are_involutions(model2):
    anti_elements = [x for x in elements(model2) if model2.realized[x[0]].anti]
    assert len(anti_elements) == 25
    assert all(is_involution(model2, x) for x in anti_elements)


def test_example3_two_classes_with_distinct_fingerprints(model3):
    classes = classify_real_structures(model3)
    assert len(classes) >= 2
    assert len(classes) == 2  # derived exact count
    by_lines = {cls.fixed_lines: cls for cls in classes}
    assert (1, 2, 3, 4, 5, 6) in by_lines
    assert (3, 6) in by_lines
    all_real = by_lines[(1, 2, 3, 4, 5, 6)]
    two_real = by_lines[(3, 6)]
    assert len(all_real.real_blown_points) == 4
    assert all_real.real_part_betti == (1, 5, 1)
    assert len(two_real.real_blown_points) == 2
    assert two_real.real_part_betti == (1, 3, 1)


@pytest.mark.parametrize(
    "blow, order, perms",
    [([0, 1, 2, 3, 5], 50, ["id"]), ([0, 1, 2, 3, 4, 5, 6], 100, ["id", "(1 2)(4 5)"])],
    ids=["triples-and-one-double", "all-points"],
)
def test_symmetries_keep_the_blow_up_set(cq, blow, order, perms):
    # points 1, 4 and 6 are the double points (1,4), (2,5) and (3,6); the
    # swap (1 2)(4 5) sends (1,4) to (2,5), so with only (1,4) blown it is
    # birational on the blown-up cover, not an automorphism
    model = klein_model(CoverModel.build(cq, PHI3, blow))
    assert [perm_cycles_str(p) for p in model.character_preserving] == perms
    assert model.order == order
    assert [c.perm_cycles for c in classify_real_structures(model)] == perms


def test_search_keeps_the_blow_up_set(cq):
    # with (1,4) the one double point blown, the search itself drops the
    # swap (1 2)(4 5), which sends (1,4) to (2,5)
    assert [perm_cycles_str(p) for p in character_preserving_symmetries(cq, PHI3)] == [
        "id", "(1 2)(4 5)",
    ]
    assert character_preserving_symmetries(cq, PHI3, (0, 1, 2, 3, 5)) == [tuple(range(6))]


def test_classes_partition_the_involutions(model3):
    classes = classify_real_structures(model3)
    total = sum(c.size for c in classes)
    assert total == len(anti_involutions(model3))


def test_representatives_square_to_identity(model2, model3):
    for model in (model2, model3):
        for cls in classify_real_structures(model):
            x = cls.representative
            idx, delta = model.multiply(x, x)
            assert model.realized[idx].perm == tuple(range(model.cover.arrangement.n))
            assert not model.realized[idx].anti
            assert all(v == 0 for v in delta)


def real_part_topology(cls):
    """Euler characteristic and Z/2-Betti numbers of the real projective
    plane blown up at the class's real blown-up points, which for odd m is
    the real locus upstairs."""
    blown = len(cls.real_blown_points)
    return 1 - blown, (1, 1 + blown, 1)


def test_real_part_topology_example2(cover2, model2):
    cls = classify_real_structures(model2)[0]
    euler, betti = cls.real_part_euler, cls.real_part_betti
    assert (euler, betti) == real_part_topology(cls)
    assert euler == -3
    assert betti == (1, 5, 1)
    assert sum(betti) == 7


def test_real_part_no_real_centers():
    from planecover.symmetry import _real_part_from_count

    assert _real_part_from_count(0) == (1, (1, 1, 1))


def test_even_degree_refused(cq):
    # for even m the real locus is not determined by the real blown-up points
    classes = classify_real_structures(klein_model(quadrilateral_cover(cq, *QUAD_COVERS["quadrilateral_2_4"])))
    assert classes
    assert all(c.real_part_euler is None and c.real_part_betti is None for c in classes)


def test_example2_not_maximal_cross_module(cover2, model2):
    # real total Betti 7 against the Smith total 111 upstairs
    cls = classify_real_structures(model2)[0]
    rep_total = sum(cls.real_part_betti)
    from planecover.cover import invariants

    rep = invariants(cover2)
    h = hodge_from_surface(rep.k2, rep.euler, q=0, nu=0)
    assert rep_total == 7
    assert smith_total(h) == 111
    assert rep_total < smith_total(h)


def test_perm_cycle_labels(model2):
    labels = sorted(perm_cycles_str(r.perm) for r in model2.realized)
    assert labels == ["(2 3)(4 6)(7 8)", "id"]


# -- structural classification against the brute-force oracle -----------------

QUAD_COVERS = {
    "quadrilateral_5_3": (5, [(1, 4, 3), (2, 3, 0), (3, 0, 2), (4, 4, 4), (3, 1, 1), (2, 3, 0)]),
    "quadrilateral_5_4": (
        5,
        [(4, 1, 0, 1), (4, 4, 1, 3), (4, 2, 4, 2), (3, 2, 4, 4), (0, 3, 4, 1), (0, 3, 2, 4)],
    ),
    "kummer_3_5": (
        3,
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
         (2, 2, 2, 2, 2)],
    ),
    # m = 2 covers with nonzero H^1 = ker(1 + A) / im(1 - A)
    "quadrilateral_2_4": (
        2,
        [(1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 0), (0, 1, 1, 0)],
    ),
    "quadrilateral_2_5": (
        2,
        [(0, 1, 1, 0, 1), (0, 1, 1, 1, 0), (1, 1, 0, 0, 0), (0, 0, 1, 1, 1), (0, 0, 0, 0, 1),
         (1, 1, 1, 0, 1)],
    ),
}


def quadrilateral_cover(cq, m, rows):
    phi = Epimorphism(m=m, k=len(rows[0]), rows=tuple(tuple(r) for r in rows))
    return CoverModel.build(cq, phi, BLOW_ALL_TRIPLE)


def named_cover(name, cq):
    if name in QUAD_COVERS:
        return quadrilateral_cover(cq, *QUAD_COVERS[name])
    return builtin_cover(name)


# -- relabelling the deck group: phi -> phi A for A in GL_k(F_m) ----------------

RELABELLED_COVERS = {
    "example1": ("builtin:dual_hesse", PHI1.m, PHI1.rows),
    "example2": ("builtin:dual_hesse", PHI2.m, PHI2.rows),
    "example3": ("builtin:complete_quadrilateral", PHI3.m, PHI3.rows),
    "kummer_3_5": ("builtin:complete_quadrilateral", *QUAD_COVERS["kummer_3_5"]),
}


def mat_mul(x, y, m):
    return [[sum(x[i][t] * y[t][j] for t in range(len(y))) % m for j in range(len(y[0]))]
            for i in range(len(x))]


def json_reports(capsys, path, arrangement, m, rows):
    """Every cover command's JSON report on the cover with these rows of phi,
    written to path (the same path on both sides, so `cover` agrees)."""
    k = len(rows[0])
    path.write_text(json.dumps({"arrangement": arrangement, "m": m, "k": k, "phi": rows}))
    reports = {}
    for command in ("characters list", "real classify", "cover invariants", "symmetry search",
                    "cover smoothness"):
        assert run(["--format", "json", *command.split(), str(path)]) == 0
        reports[command] = capsys.readouterr().out
    return reports


def invertible_mod(rng, k, m):
    while True:
        a = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
        if rank_mod_p(a, m) == k:
            return a


def is_scalar(d):
    return all(d[i][j] == d[0][0] * (i == j) for i in range(len(d)) for j in range(len(d)))


def assert_relabelled_deck_group(before, after, a, m):
    """The JSON reports (by command) of a cover and of the cover with phi
    replaced by phi A, for A in GL_k(F_m), describe the same cover.  The
    `cover` field, the file name, is not compared."""
    old, new = ({c: {**json.loads(text), "cover": None} for c, text in r.items()} for r in (before, after))
    # the character set is the column span of phi, which A keeps
    assert new["characters list"] == old["characters list"]
    # the classes of one H-class of permutations, several only for m = 2,
    # are ordered by size, which A keeps, not by their least deck vectors
    assert new["real classify"] == old["real classify"]
    assert {**old["cover invariants"], "generator_words": None} == {**new["cover invariants"], "generator_words": None}
    # each deck action D becomes A^T D (A^T)^-1
    at = [list(col) for col in zip(*a)]
    for d, e in zip(old["symmetry search"]["realized"], new["symmetry search"]["realized"]):
        assert mat_mul(e["deck_action"], at, m) == mat_mul(at, d["deck_action"], m)
        d["deck_action"] = e["deck_action"] = None
    assert new["symmetry search"] == old["symmetry search"]
    # the detail strings print the rows of phi
    for check in [*old["cover smoothness"]["checks"], *new["cover smoothness"]["checks"]]:
        check["detail"] = None
    assert new["cover smoothness"] == old["cover smoothness"]


@pytest.mark.parametrize("name", list(RELABELLED_COVERS))
def test_relabelled_deck_group_gives_the_same_cover(name, capsys, tmp_path):
    arrangement, m, rows = RELABELLED_COVERS[name]
    path = tmp_path / "cover.json"
    before = json_reports(capsys, path, arrangement, m, rows)
    deck_actions = [r["deck_action"] for r in json.loads(before["symmetry search"])["realized"]]
    # only kummer_3_5 has deck actions that A^T (.) (A^T)^-1 can move
    assert sum(not is_scalar(d) for d in deck_actions) == (46 if name == "kummer_3_5" else 0)
    rng = random.Random(name)
    for _ in range(3):
        a = invertible_mod(rng, len(rows[0]), m)
        after = json_reports(capsys, path, arrangement, m, mat_mul(rows, a, m))
        assert_relabelled_deck_group(before, after, a, m)


# -- relabelling the lines: line k and phi row k of the relabelled cover are
# old line s[k] and old row s[k] ---------------------------------------------


def parse_cycles(text, n):
    """The 0-based permutation of n lines written in 1-based cycle notation."""
    perm = list(range(n))
    for cycle in re.findall(r"\(([^)]*)\)", text):
        lines = [int(x) - 1 for x in cycle.split()]
        for a, b in zip(lines, lines[1:] + lines[:1]):
            perm[a] = b
    return tuple(perm)


def relabelled_reports(capsys, path, cover, s):
    """`cover invariants`, `symmetry search` and `real classify` on the cover
    (lines, m, rows of phi) relabelled by s, every line label written back
    in the old labels.  The 3K spread and the generator words depend on the
    line order by design, and a class's representative is its least
    element in the new labels, so a class is compared by the H-conjugacy
    class of its permutation."""
    lines, m, rows = cover
    n = len(lines)
    path.write_text(json.dumps({
        "arrangement": {"lines": [lines[i].as_strings() for i in s]},
        "m": m, "k": len(rows[0]), "phi": [list(rows[i]) for i in s],
    }))
    reports = {}
    for command in ("cover invariants", "symmetry search", "real classify"):
        assert run(["--format", "json", *command.split(), str(path)]) == 0
        reports[command] = json.loads(capsys.readouterr().out)

    def old_lines(new):  # 1-based new labels -> sorted 1-based old labels
        return tuple(sorted(s[i - 1] + 1 for i in new))

    def old_perm(text):  # sigma(s[k]) = s[sigma'(k)]
        new, perm = parse_cycles(text, n), [0] * n
        for k in range(n):
            perm[s[k]] = s[new[k]]
        return tuple(perm)

    def curves(entries):
        return {
            e["label"][0] + ",".join(map(str, old_lines(map(int, e["label"][1:].split(","))))):
            (e["genus"], e["k_degree"], e["self_int"])
            for e in entries
        }

    inv = reports["cover invariants"]
    sym = reports["symmetry search"]
    realized = sorted(
        (old_perm(r["perm"]), r["anti"], r["matrix"], r["deck_action"]) for r in sym["realized"]
    )
    group = {perm for perm, *_ in realized}
    classes = []
    for c in reports["real classify"]["classes"]:
        perm = old_perm(c["perm"])
        fixed = {i for i in range(n) if perm[i] == i}
        # the representative's fixed lines and real blown points are the
        # ones its permutation keeps
        assert old_lines(c["fixed_lines"]) == tuple(sorted(i + 1 for i in fixed))
        for triple in c["real_blown_points"]:
            assert {perm[i - 1] + 1 for i in old_lines(triple)} == set(old_lines(triple))
        conjugates = frozenset(compose_perms(compose_perms(h, perm), invert_perm(h)) for h in group)
        betti = None if c["real_part_betti"] is None else tuple(c["real_part_betti"])
        classes.append((c["size"], c["real_part_euler"], betti, conjugates,
                        len(fixed), len(c["real_blown_points"])))
    return {
        "invariants": ({key: inv[key] for key in ("k2", "euler", "chi", "my_defect")},
                       curves(inv["line_curves"]), curves(inv["point_curves"])),
        "symmetry": (
            {key: sym[key] for key in ("klein_order", "has_anti", "conjugate_isomorphic",
                                       "combinatorial_automorphisms")},
            realized,
            sorted(old_perm(p) for p in sym["character_preserving"]),
            sorted((old_perm(r["perm"]), r["anti"]) for r in sym["combinatorial_only"]),
        ),
        "real": (reports["real classify"]["klein_order"], Counter(classes)),
    }


@pytest.mark.parametrize("name", list(RELABELLED_COVERS))
def test_relabelled_lines_give_the_same_cover(name, capsys, tmp_path):
    arrangement, m, rows = RELABELLED_COVERS[name]
    cover = (builtin_arrangement(arrangement.split(":")[1]).lines, m, rows)
    n = len(rows)
    path = tmp_path / "cover.json"
    before = relabelled_reports(capsys, path, cover, tuple(range(n)))
    rng = random.Random(f"lines-{name}")
    for _ in range(3):
        s = list(range(n))
        rng.shuffle(s)
        assert relabelled_reports(capsys, path, cover, tuple(s)) == before


def random_smooth_cover(arr, m, k, rng, tries=500):
    """A cover of arr by a random epimorphism onto (Z/m)^k that is certified
    smooth with every point of multiplicity >= 3 blown up, or None."""
    for _ in range(tries):
        rows = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(arr.n - 1)]
        rows.append(tuple((-sum(r[j] for r in rows)) % m for j in range(k)))
        try:
            phi = Epimorphism(m=m, k=k, rows=tuple(rows))
        except ValueError:
            continue
        cover = CoverModel.build(arr, phi)
        if cover.certificate.ok:
            return cover
    return None


def ceva_lines(picked):
    """The lines of Ceva(6)+3 at the indices `picked`, in that order."""
    full = PAPER_AND_CENSUS_ARRANGEMENTS["ceva6_plus_3"]()
    return [full.lines[i] for i in picked]


def has_frame(lines):
    """Whether some 4 of the lines are in general position."""
    return any(
        all(det3(three) for three in itertools.combinations(quad, 3))
        for quad in itertools.combinations([line.coeffs for line in lines], 4)
    )


# (m, k) with m^k <= 125
RELABELLED_SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.lists(st.integers(0, 20), min_size=4, max_size=8, unique=True).map(ceva_lines),
        st.lists(line_strategy, min_size=4, max_size=8, unique_by=lambda l: l.coeffs),
    ),
    st.sampled_from(RELABELLED_SHAPES),
    st.integers(0, 2**32),
)
def test_relabelled_lines_give_the_same_random_cover(capsys, tmp_path, lines, shape, seed):
    """A random smooth cover of a subset of Ceva(6)+3 or of random lines,
    n <= 8 and m^k <= 125, relabelled by a random s: the reports agree as
    in `test_relabelled_lines_give_the_same_cover`, so in particular the
    character-preserving list is the conjugate group s^-1 H_comb s."""
    m, k = shape
    assume(k < len(lines) and has_frame(lines))
    rng = random.Random(seed)
    smooth = random_smooth_cover(build_arrangement(lines), m, k, rng, tries=50)
    assume(smooth is not None)
    cover = (lines, m, smooth.phi.rows)
    path = tmp_path / "cover.json"
    before = relabelled_reports(capsys, path, cover, tuple(range(len(lines))))
    s = list(range(len(lines)))
    rng.shuffle(s)
    assert relabelled_reports(capsys, path, cover, tuple(s)) == before


# -- a projective change of coordinates g, and complex conjugation: lines map
# by l -> g^{-T} l (the lines of the points x -> g x), or l -> conj l --------


def coordinate_reports(capsys, tmp_path, name, lines):
    """`arrangement info --autos` and every cover command's JSON report on
    RELABELLED_COVERS[name] with these lines given inline, with the line and
    point coordinates and the realized matrices taken out and returned
    beside the rest, parsed."""
    _, m, rows = RELABELLED_COVERS[name]
    inline = {"lines": [line.as_strings() for line in lines]}
    reports = json_reports(capsys, tmp_path / "cover.json", inline, m, [list(r) for r in rows])
    path = tmp_path / "arrangement.json"
    path.write_text(json.dumps(inline))
    assert run(["--format", "json", "arrangement", "info", str(path), "--autos"]) == 0
    reports = {c: json.loads(r) for c, r in reports.items()}
    reports["arrangement info"] = info = json.loads(capsys.readouterr().out)

    def parse(rows):
        return tuple(tuple(parse_cyc(x) for x in row) for row in rows)

    return (
        reports,
        parse(info.pop("lines")),
        parse(p.pop("coords") for p in info["points"]),
        [(r["anti"], parse(r.pop("matrix"))) for r in reports["symmetry search"]["realized"]],
    )


def small_cyc(rng):
    return CycNumber(rng.randint(-1, 2)) + CycNumber(rng.randint(-1, 1)) * ZETA


def coordinate_change(rng):
    """A seeded g in GL_3(Q(zeta)) with small entries, not all rational."""
    while True:
        g = tuple(tuple(small_cyc(rng) for _ in range(3)) for _ in range(3))
        if det3(g) and not all(x.is_real() for row in g for x in row):
            return g


def conj_mat(mat):
    return tuple(conj_vec(row) for row in mat)


def projective_change(g):
    """The maps of lines, points and realized matrices (anti, M) under
    x -> g x: l -> g^{-T} l and M -> g^{-T} M sigma(g)^T, sigma the
    conjugation when anti.  g^{-T} is taken up to the scalar det g, which
    no projective answer sees."""
    g_inv_t = transpose(adjugate(g))

    def matrix(anti, mat):
        return matmul(matmul(g_inv_t, mat), transpose(conj_mat(g) if anti else g))

    return functools.partial(matvec, g_inv_t), functools.partial(matvec, g), matrix


# complex conjugation of every coefficient, which gives conj X
CONJUGATION = (conj_vec, conj_vec, lambda anti, mat: conj_mat(mat))


@pytest.mark.parametrize("name", list(RELABELLED_COVERS))
def test_coordinate_change_and_conjugation_give_the_same_cover(name, capsys, tmp_path):
    """Every report is equal except the lines and point coordinates, which
    move with the map, and the realized matrices, which move as
    `projective_change` and `CONJUGATION` say, up to normalization."""
    lines = builtin_arrangement(RELABELLED_COVERS[name][0].split(":")[1]).lines
    before, old_lines, old_coords, old_matrices = coordinate_reports(capsys, tmp_path, name, lines)
    rng = random.Random(f"coordinates-{name}")
    changes = [projective_change(coordinate_change(rng)) for _ in range(2)]
    for line_map, point_map, matrix_map in [*changes, CONJUGATION]:
        moved = [Line.make(*line_map(line.coeffs)) for line in lines]
        after, new_lines, new_coords, new_matrices = coordinate_reports(
            capsys, tmp_path, name, moved
        )
        assert after == before
        for old, new, move in ((old_lines, new_lines, line_map),
                               (old_coords, new_coords, point_map)):
            assert len(old) == len(new)
            assert all(proportional(move(u), v) for u, v in zip(old, new))
        assert [anti for anti, _ in new_matrices] == [anti for anti, _ in old_matrices]
        assert [normalize_matrix(matrix_map(anti, mat)) for anti, mat in old_matrices] == [
            mat for _, mat in new_matrices
        ]


@pytest.mark.parametrize("name", ["example1", "example2", "example3", *QUAD_COVERS])
def test_structural_classes_match_brute_force(name, cq):
    model = klein_model(named_cover(name, cq))
    # every field, the least-element representative included, and the order
    assert classify_real_structures(model) == brute_force_classify(model)


def test_structural_classes_with_nonzero_h1(cq):
    sizes = [
        [c.size for c in classify_real_structures(klein_model(quadrilateral_cover(cq, *spec)))]
        for spec in (QUAD_COVERS["quadrilateral_2_4"], QUAD_COVERS["quadrilateral_2_5"])
    ]
    # the classes of one H-class of permutations come in the order of size
    assert sizes[0] == [1, 1, 2, 4, 4, 4, 4]
    assert sizes[1] == [1, 3, 4, 6, 6, 12, 24, 24, 12, 12]


def test_full_kummer_cover_mod_5(cq):
    # |G| = 5^5 * 48 = 150000: out of the oracle's reach
    rows = [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(4, 4, 4, 4, 4)]
    classes = classify_real_structures(klein_model(quadrilateral_cover(cq, 5, rows)))
    assert [(c.perm_cycles, c.size) for c in classes] == [
        ("id", 3125),
        ("(2 3)(5 6)", 750),
        ("(2 5)(3 6)", 375),
    ]


@pytest.mark.parametrize("name", ["example2", "example3", "quadrilateral_2_4"])
def test_klein_model_group_law(name, cq):
    model = klein_model(named_cover(name, cq))
    group = list(elements(model))
    members = set(group)
    one = (index_of(model, tuple(range(model.cover.arrangement.n)), False), (0,) * model.k)
    for x in group:
        assert model.multiply(one, x) == x == model.multiply(x, one)
        x_inv = inverse(model, x)
        assert model.multiply(x, x_inv) == one == model.multiply(x_inv, x)
        for y in group:
            assert model.multiply(x, y) in members
    rng = random.Random(4)
    for _ in range(2000):
        x, y, z = (rng.choice(group) for _ in range(3))
        assert model.multiply(model.multiply(x, y), z) == model.multiply(x, model.multiply(y, z))


# -- the annihilator filter against the enumerated character set -------------


def sixth_roots():
    """1, zeta, ..., zeta^5, by repeated products."""
    roots = [ONE]
    for _ in range(5):
        roots.append(roots[-1] * ZETA)
    return roots


def hesse():
    """The 12 lines through the 9 flexes of x^3 + y^3 + z^3 (t2 = 12, t4 = 9)."""
    cube = sixth_roots()[::2]
    axes = [Line.make(ONE, ZERO, ZERO), Line.make(ZERO, ONE, ZERO), Line.make(ZERO, ZERO, ONE)]
    return build_arrangement(axes + [Line.make(ONE, a, b) for a in cube for b in cube])


def ceva6_plus_3():
    """xyz (x^6 - y^6)(y^6 - z^6)(z^6 - x^6) = 0: 21 lines, t2 = 18, t3 = 36, t8 = 3."""
    axes = [Line.make(ONE, ZERO, ZERO), Line.make(ZERO, ONE, ZERO), Line.make(ZERO, ZERO, ONE)]
    return build_arrangement(axes + [
        line
        for r in sixth_roots()
        for line in (Line.make(ONE, -r, ZERO), Line.make(ZERO, ONE, -r), Line.make(-r, ZERO, ONE))
    ])


# the arrangements of the paper and of the census, each built once
PAPER_AND_CENSUS_ARRANGEMENTS = {
    "quadrilateral": functools.cache(complete_quadrilateral),
    "dual_hesse": functools.cache(dual_hesse),
    "hesse": functools.cache(hesse),
    "ceva6_plus_3": functools.cache(ceva6_plus_3),
}


def invariant_phi(autos, m, k, rng, tries=1000):
    """A random epimorphism onto (Z/m)^k whose rows are constant on the cycles
    of a random nontrivial automorphism, which therefore fixes every column;
    None if `tries` draws find none."""
    n = len(autos[0])
    for _ in range(tries):
        perm = rng.choice(autos[1:])
        cycles = set()
        for i in range(n):
            cycle, j = {i}, perm[i]
            while j != i:
                cycle.add(j)
                j = perm[j]
            cycles.add(frozenset(cycle))
        # the rows of one cycle whose length is a unit mod m restore the zero sum
        fix = next((c for c in cycles if len(c) % m), None)
        if fix is None:
            continue
        rows = [None] * n
        for c in cycles:
            row = tuple(rng.randrange(m) for _ in range(k))
            for i in c:
                rows[i] = row
        rest = [sum(rows[i][j] for i in range(n) if i not in fix) for j in range(k)]
        scale = pow(len(fix), m - 2, m)
        for i in fix:
            rows[i] = tuple((-x * scale) % m for x in rest)
        try:
            return Epimorphism(m=m, k=k, rows=tuple(rows))
        except ValueError:
            continue
    return None


SEARCH_ARRANGEMENTS = {"dual_hesse": dual_hesse, "hesse": hesse, "ceva6_plus_3": ceva6_plus_3}


def assert_search_matches_filter(arr, phi):
    """The constrained search returns the annihilator filter's list over
    Aut_comb, order included; returns that list."""
    expected = annihilator_filter(combinatorial_automorphisms(arr), phi)
    assert character_preserving_symmetries(arr, phi) == expected
    return expected


@pytest.mark.parametrize("name", ["example1", "example2", "example3", *QUAD_COVERS])
def test_annihilator_filter_matches_character_enumeration(name, cq):
    cover = named_cover(name, cq)
    autos = combinatorial_automorphisms(cover.arrangement)
    charset = frozenset(enumerate_characters(cover.phi))
    expected = [perm for perm in autos if preserves_charset(perm, charset)]
    assert annihilator_filter(autos, cover.phi) == expected
    assert assert_search_matches_filter(cover.arrangement, cover.phi) == expected


@pytest.mark.parametrize("name", SEARCH_ARRANGEMENTS)
def test_annihilator_filter_on_symmetric_epimorphisms(name):
    from test_homology import random_valid_phi

    arr = SEARCH_ARRANGEMENTS[name]()
    autos = combinatorial_automorphisms(arr)
    rng = random.Random(name)
    phis = [random_valid_phi(rng, arr.n)]
    phis += [invariant_phi(autos, m, k, rng) for m, k in ((5, 1), (5, 2), (3, 3), (2, 4))]
    for index, phi in enumerate(phis):
        charset = frozenset(enumerate_characters(phi))
        expected = [perm for perm in autos if preserves_charset(perm, charset)]
        assert annihilator_filter(autos, phi) == expected
        assert assert_search_matches_filter(arr, phi) == expected
        # an invariant phi keeps its automorphism besides the identity
        assert index == 0 or len(expected) >= 2


BLOW_UP_ARRANGEMENTS = {"quadrilateral": complete_quadrilateral, "dual_hesse": dual_hesse, "hesse": hesse}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BLOW_UP_ARRANGEMENTS)), st.integers(0, 2**32), st.data())
def test_search_with_blown_points_matches_the_blow_up_filter(name, seed, data):
    """The search that takes the blown points returns the old post-filter's
    list, with and without an epimorphism; the blown set is arbitrary or
    closed under a random automorphism, so that more than the identity
    survives."""
    arr = BLOW_UP_ARRANGEMENTS[name]()
    autos = combinatorial_automorphisms(arr)
    rng = random.Random(seed)
    phi = invariant_phi(autos, 5, data.draw(st.integers(1, 3), label="k"), rng)
    blown = set(data.draw(st.sets(st.integers(0, len(arr.points) - 1)), label="blown"))
    if data.draw(st.booleans(), label="closed"):
        point_ids = {frozenset(p.incident): pid for pid, p in enumerate(arr.points)}
        g = rng.choice(autos)
        while True:
            image = {point_ids[frozenset(g[i] for i in arr.points[pid].incident)] for pid in blown}
            if image <= blown:
                break
            blown |= image
    blown = tuple(sorted(blown))
    assert incidence_automorphisms(arr, blown=blown) == blow_up_filter(autos, arr, blown)
    if phi is not None:
        preserving = character_preserving_symmetries(arr, phi)
        assert character_preserving_symmetries(arr, phi, blown) == blow_up_filter(preserving, arr, blown)


# -- topology cross-checks through the bounds module ---------------------------

# the conjugation-invariant (Z/5)^3 census covers of seed 1, one per census
# arrangement: each has anti-holomorphic symmetries and real structures
CENSUS_COVERS = {
    "census_dual_hesse": (dual_hesse, [
        (3, 0, 0), (0, 1, 2), (0, 1, 3), (2, 4, 4), (0, 2, 0), (2, 4, 1), (1, 3, 1), (1, 3, 4),
        (1, 2, 0)]),
    "census_hesse": (hesse, [
        (0, 3, 0), (2, 0, 0), (4, 1, 0), (4, 2, 0), (3, 0, 0), (3, 0, 0), (4, 3, 2), (2, 4, 1),
        (1, 0, 2), (4, 3, 3), (1, 0, 3), (2, 4, 4)]),
    "census_ceva6_plus_3": (ceva6_plus_3, [
        (4, 1, 0), (1, 1, 0), (1, 1, 0), (4, 0, 0), (4, 3, 0), (2, 1, 0), (0, 1, 4), (4, 2, 0),
        (1, 1, 2), (3, 2, 2), (2, 0, 1), (4, 3, 0), (3, 1, 0), (3, 0, 0), (0, 4, 0), (3, 2, 3),
        (2, 0, 4), (4, 3, 0), (0, 1, 1), (4, 2, 0), (1, 1, 3)]),
}
# the other three census covers of seed 1, onto (Z/5)^2
CENSUS_GENERIC_COVERS = {
    "census_generic_dual_hesse": (dual_hesse, [
        (1, 4), (2, 2), (4, 4), (1, 4), (2, 3), (3, 4), (4, 0), (1, 4), (2, 0)]),
    "census_generic_hesse": (hesse, [
        (3, 0), (3, 2), (2, 1), (4, 2), (4, 1), (1, 2), (1, 0), (1, 3), (1, 2), (2, 0), (4, 4),
        (4, 3)]),
    "census_generic_ceva6_plus_3": (ceva6_plus_3, [
        (2, 4), (4, 0), (0, 2), (4, 1), (4, 1), (1, 3), (2, 4), (1, 3), (1, 2), (3, 1), (3, 4),
        (1, 3), (3, 1), (2, 1), (4, 1), (3, 2), (1, 3), (1, 3), (3, 1), (1, 3), (1, 2)]),
}
ODD_COVERS = ["example1", "example2", "example3", "quadrilateral_5_3", "quadrilateral_5_4",
              "kummer_3_5", "kummer_5_5", *CENSUS_COVERS]


def odd_cover(name, cq):
    if name == "kummer_5_5":
        rows = [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(4, 4, 4, 4, 4)]
        return quadrilateral_cover(cq, 5, rows)
    if name in CENSUS_COVERS:
        build, rows = CENSUS_COVERS[name]
        phi = Epimorphism(m=5, k=len(rows[0]), rows=tuple(rows))
        return CoverModel.build(build(), phi, BLOW_ALL_TRIPLE)
    return named_cover(name, cq)


@pytest.mark.parametrize("name", [*CENSUS_COVERS, *CENSUS_GENERIC_COVERS])
def test_search_matches_annihilator_filter_on_census_covers(name):
    build, rows = {**CENSUS_COVERS, **CENSUS_GENERIC_COVERS}[name]
    phi = Epimorphism(m=5, k=len(rows[0]), rows=tuple(rows))
    preserving = assert_search_matches_filter(build(), phi)
    # the conjugation-invariant covers keep the conjugation permutation
    assert len(preserving) >= (2 if name in CENSUS_COVERS else 1)


@pytest.mark.parametrize("name", ODD_COVERS)
def test_topology_cross_checks(name, cq):
    """Noether (12 | K^2 + e), Bogomolov-Miyaoka-Yau (K^2 <= 3e, equality on
    the paper's ball-quotient examples), and for every real structure the
    parity chi(X_R) = e(X) mod 2, Smith's b*(X_R; Z/2) <= b*(X; Z/2) and
    the Lefschetz trace chi(X_R) - 1 within the primitive (1,1)-part.

    The Hodge data take q = nu = 0; then `my_identity` holds iff K^2 = 3e,
    and `smith_total` is e(X) <= e(X) + 4 b_1(X) <= b*(X; Z/2), so the
    Smith check is at least as strict as the inequality itself."""
    from planecover.bounds import my_identity
    from planecover.cover import invariants

    cover = odd_cover(name, cq)
    rep = invariants(cover)
    assert (rep.k2 + rep.euler) % 12 == 0
    h = hodge_from_surface(rep.k2, rep.euler, q=0, nu=0)
    assert smith_total(h) == rep.euler
    assert rep.k2 <= 3 * rep.euler
    assert my_identity(h) == (rep.k2 == 3 * rep.euler)
    if name in ("example1", "example2", "example3"):
        assert my_identity(h)
    model = klein_model(cover)
    # the search yields H in (perm, anti) order; klein_model does not sort it
    assert list(model.realized) == sorted(model.realized, key=lambda r: (r.perm, r.anti))
    classes = classify_real_structures(model)
    assert classes or name == "example1"
    for cls in classes:
        euler_r, betti_r = real_part_topology(cls)
        assert (euler_r, betti_r) == (cls.real_part_euler, cls.real_part_betti)
        assert euler_r == betti_r[0] - betti_r[1] + betti_r[2]
        assert (euler_r - rep.euler) % 2 == 0
        assert sum(betti_r) <= smith_total(h)
        assert lefschetz_trace(h._replace(components=(betti_r,))) == cls.real_part_euler - 1
