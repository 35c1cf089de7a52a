"""The per-process memos behind `catalog.resolve_arrangement` and
`catalog.resolve_cover`.

An arrangement is built once per builtin name or tuple of line strings and
shared, with its search state (`search.SearchState`) and its blown planes
(`homology.BlownPlane`, with the records of `cover invariants`), by every
later query, and the last cover resolved is kept, with the Klein model it
keeps: reports from a warm process must equal those of cold runs byte for
byte, a shared arrangement and its state must equal a fresh build's and its
kept realizations the reference route's, and a later query must not
rebuild, certify or realize again what an earlier one did, nor skip a
check that reads the cover's phi.  Fixed points are not
kept: they are read from each permutation, and must equal the reference
route's from the kept matrix.
"""

import importlib
import io
import itertools
import json
import pkgutil
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import planecover
import realize_oracle
from planecover import arrangement, catalog, homology, search, symmetry
from planecover import cover as cover_module
from planecover.arrangement import (
    Line,
    build_arrangement,
    complete_quadrilateral,
    dual_hesse,
    fixed_points_of,
    realize_symmetry,
)
from planecover.catalog import ARRANGEMENT_MEMO_SIZE, PHI1, PHI2, resolve_arrangement, resolve_cover
from planecover.cli import run
from planecover.cover import invariants, three_canonical_decomposition
from planecover.homology import CoverModel, Epimorphism
from test_cover import RANDOM_COVER_SHAPES
from test_loader_fuzz import QUAD_COVER, QUAD_LINES
from test_symmetry import (
    CENSUS_COVERS,
    CENSUS_GENERIC_COVERS,
    QUAD_COVERS,
    assert_relabelled_deck_group,
    invertible_mod,
    mat_mul,
    random_smooth_cover,
)

COVER_COMMANDS = (
    ["cover", "smoothness"], ["cover", "invariants"], ["characters", "list"],
    ["symmetry", "search"], ["real", "classify"],
)


def lines_of(arr):
    return {"lines": [line.as_strings() for line in arr.lines]}


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def every_query(tmp_path):
    """Every command on example1-3, the seed-1 census covers (inline
    arrangement JSON, builtin dual Hesse) and the quadrilateral Kummer covers
    (inline lines), with `arrangement info` on each arrangement."""
    covers = [f"builtin:example{i}" for i in (1, 2, 3)]
    arrangements = ["builtin:dual_hesse", "builtin:complete_quadrilateral"]
    for name, (build, rows) in {**CENSUS_COVERS, **CENSUS_GENERIC_COVERS}.items():
        ref = "builtin:dual_hesse" if build is dual_hesse else lines_of(build())
        doc = {"arrangement": ref, "m": 5, "k": len(rows[0]), "phi": rows}
        covers.append(write(tmp_path / f"{name}.json", doc))
        if isinstance(ref, dict):
            arrangements.append(write(tmp_path / f"{name}-arrangement.json", ref))
    for name, (m, rows) in QUAD_COVERS.items():
        doc = {"arrangement": {"lines": QUAD_LINES}, "m": m, "k": len(rows[0]), "phi": rows}
        covers.append(write(tmp_path / f"{name}.json", doc))
    queries = [[*command, ref] for ref in covers for command in COVER_COMMANDS]
    queries += [["arrangement", "info", ref, *autos] for ref in arrangements for autos in ([], ["--autos"])]
    hodge = write(tmp_path / "hodge.json", {"k2": 333, "euler": 111, "p_plus": 0, "p_minus": 36})
    return queries + [["bounds", "check", hodge, "--k3", "0"], ["paper", "verify"]]


def clear_memos():
    catalog._arrangement.cache_clear()
    catalog._kept = None


def sweep(queries, cold):
    reports = []
    for argv in queries:
        for fmt in ("text", "json"):
            if cold:
                clear_memos()
            reports.append(run_captured(["--format", fmt, *argv]))
    return reports


def test_warm_reports_equal_cold_reports(tmp_path):
    queries = every_query(tmp_path)
    cold = sweep(queries, cold=True)
    warm = sweep(queries, cold=False)
    assert catalog._arrangement.cache_info().hits > 0
    # every query succeeds, `cover invariants` of the m = 2 quadrilateral
    # covers included
    assert {code for code, _, _ in cold} == {0}
    assert warm == cold


# what the search state holds besides the realizations and |Aut_comb|
SEARCH_TABLES = ("mult", "through", "meet", "profiles", "same_profile", "order", "anchors", "frame")


def test_shared_arrangement_equals_a_fresh_build_after_every_command(tmp_path):
    sweep(every_query(tmp_path), cold=False)
    fresh = {
        "builtin:dual_hesse": dual_hesse(),
        "builtin:complete_quadrilateral": complete_quadrilateral(),
        **{name: build() for name, (build, _) in CENSUS_COVERS.items()},
    }
    fresh["quadrilateral lines"] = build_arrangement([Line.parse(row) for row in QUAD_LINES])
    refs = {name: name for name in fresh}
    refs.update({name: lines_of(arr) for name, arr in fresh.items() if not name.startswith("builtin:")})
    unasked = set()
    for name, arr in fresh.items():
        shared = resolve_arrangement(refs[name])
        assert resolve_arrangement(refs[name]) is shared
        assert shared == arr
        assert (shared.t, shared.notes) == (arr.t, arr.notes)
        for table in SEARCH_TABLES:
            assert getattr(shared._search, table) == getattr(arr._search, table), table
        assert shared.automorphism_order == arr.automorphism_order
        # every kept answer is the reference route's on the fresh build
        if not shared._search.realizations:
            unasked.add(name)
        for (perm, anti), matrix in shared._search.realizations.items():
            assert matrix == realize_oracle.realize_symmetry(arr, perm, anti)
            if matrix is not None:
                assert fixed_points_of(shared, perm) == realize_oracle.fixed_points_of(arr, matrix, anti)
    # the sweep names the census dual Hesse cover's arrangement as a builtin
    assert unasked == {"census_dual_hesse"}


def test_a_rewritten_file_resolves_to_its_new_lines(tmp_path):
    path = tmp_path / "arrangement.json"
    write(path, {"lines": QUAD_LINES})
    assert resolve_arrangement(str(path)).n == 6
    write(path, {"lines": QUAD_LINES[:5]})
    assert resolve_arrangement(str(path)).n == 5
    code, out, _ = run_captured(["--format", "json", "arrangement", "info", str(path)])
    assert code == 0 and json.loads(out)["n"] == 5
    write(path, {"lines": QUAD_LINES})
    code, out, _ = run_captured(["--format", "json", "arrangement", "info", str(path)])
    assert code == 0 and json.loads(out)["n"] == 6


NEAR_PENCIL = [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "lines, action, message",
    [
        ([["1", "0", "0"], ["0", "1/0", "0"], ["0", "0", "1"]], None, "bad cyclotomic literal"),
        ([["1", "0", "0"], ["2", "0", "0"], ["0", "0", "1"]], None, "duplicate line"),
        ([["1", "0", "0"]], None, "at least 2 lines"),
        ("abc", None, "needs a 'lines' array"),
        # built and shared, but its projective frame is refused every time
        (NEAR_PENCIL, ["symmetry", "search"], "4 lines in general position"),
        (NEAR_PENCIL, ["real", "classify"], "4 lines in general position"),
    ],
    ids=["literal", "duplicate", "one-line", "not-a-list", "near-pencil-search", "near-pencil-real"],
)
def test_malformed_arrangement_exits_2_on_every_repeat(tmp_path, lines, action, message):
    if action is None:
        argv = ["arrangement", "info", write(tmp_path / "arrangement.json", {"lines": lines})]
    else:
        phi = [[1, 0], [0, 1], [1, 2], [3, 2]]
        cover = {"arrangement": {"lines": lines}, "m": 5, "k": 2, "phi": phi}
        argv = [*action, write(tmp_path / "cover.json", cover)]
    results = [run_captured(argv) for _ in range(3)]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert results[1:] == [results[0]] * 2


def four_line_arrangements(count):
    """count distinct arrangements of four lines, none the quadrilateral."""
    return [
        {"lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", str(c)]]}
        for c in range(1, count + 1)
    ]


def test_memo_evicts_the_least_recently_used_arrangement():
    docs = four_line_arrangements(ARRANGEMENT_MEMO_SIZE + 1)
    first = resolve_arrangement(docs[0])
    assert resolve_arrangement(docs[0]) is first
    kept = [resolve_arrangement(doc) for doc in docs[1:]]
    assert catalog._arrangement.cache_info().currsize == ARRANGEMENT_MEMO_SIZE
    assert resolve_arrangement(docs[-1]) is kept[-1]
    rebuilt = resolve_arrangement(docs[0])
    assert rebuilt is not first and rebuilt == first
    # re-resolving the oldest evicted the next oldest
    assert resolve_arrangement(docs[1]) is not kept[0]


# name -> defining module or class
COUNTED = {
    "build_arrangement": arrangement, "combinatorial_automorphisms": arrangement,
    "count_automorphisms": search, "_incidence": search, "_search_order": search,
    "realize": search.SearchState, "smoothness_check": homology, "klein_model": symmetry,
}


@pytest.fixture
def calls(monkeypatch):
    """The calls to COUNTED, under every name planecover holds them by, and
    on the defining class."""
    calls = []
    modules = [planecover] + [
        importlib.import_module(f"planecover.{info.name}")
        for info in pkgutil.iter_modules(planecover.__path__)
    ]
    for name, defining in COUNTED.items():
        original = getattr(defining, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for owner in [*modules, defining]:
            for key, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, key, counted)
    return calls


# no command lists Aut_comb; the commands that print |Aut_comb| count it
ALL = set(COUNTED) - {"combinatorial_automorphisms"}
NO_COUNT = ALL - {"count_automorphisms"}
COVER_WORK = {"smoothness_check", "klein_model"}


@pytest.mark.parametrize(
    "queries, first, counts, again",
    [
        ([["symmetry", "search", "builtin:example3"]], ALL, (1, 1, 1), {}),
        ([["symmetry", "search", "COVER_JSON"]], ALL, (1, 1, 1), {}),
        ([["real", "classify", "builtin:example2"]], NO_COUNT, (0, 1, 1), {}),
        ([["real", "classify", "COVER_JSON"]], NO_COUNT, (0, 1, 1), {}),
        ([["arrangement", "info", "builtin:dual_hesse", "--autos"]], ALL - {"realize"} - COVER_WORK,
         (1, 0, 0), {}),
        # two commands on one cover file certify it once
        ([["cover", "smoothness", "COVER_JSON"], ["real", "classify", "COVER_JSON"]], NO_COUNT,
         (0, 1, 1), {}),
        # dual Hesse and the quadrilateral, each counted once for all its
        # covers; one cover is kept, so a second run certifies the three
        # examples and builds their models again, and nothing else
        ([["paper", "verify"]], ALL, (2, 3, 3), {"smoothness_check": 3, "klein_model": 3}),
    ],
    ids=["symmetry-builtin", "symmetry-file", "real-builtin", "real-file", "info-autos",
         "smoothness-then-real", "paper-verify"],
)
def test_a_repeated_query_builds_nothing_again(tmp_path, calls, queries, first, counts, again):
    """`counts` is what the first run counts |Aut_comb|, certifies
    smoothness and builds a Klein model; `again` what a second run repeats."""
    # example3's cover, with its arrangement given by line strings
    cover = write(tmp_path / "cover.json", {**QUAD_COVER, "arrangement": {"lines": QUAD_LINES}})
    queries = [[cover if a == "COVER_JSON" else a for a in argv] for argv in queries]
    first_reports = [run_captured(argv) for argv in queries]
    assert {code for code, _, _ in first_reports} == {0}
    assert set(calls) == first
    assert tuple(map(calls.count, ("count_automorphisms", "smoothness_check", "klein_model"))) == counts
    calls.clear()
    assert [run_captured(argv) for argv in queries] == first_reports
    assert Counter(calls) == again


@pytest.fixture
def realizations(monkeypatch):
    """The (lines, perm, anti) that `klein_model` asks `realize_symmetry`
    about, and those the uncached `SearchState.realize` solves."""
    asked, solved = [], []

    def count(log, original, arrangement_of):
        def counted(owner, perm, anti):
            log.append((arrangement_of(owner).lines, tuple(perm), anti))
            return original(owner, perm, anti)

        return counted

    monkeypatch.setattr(
        symmetry, "realize_symmetry", count(asked, symmetry.realize_symmetry, lambda arr: arr)
    )
    monkeypatch.setattr(
        search.SearchState, "realize", count(solved, search.SearchState.realize, lambda state: state.arr)
    )
    return asked, solved


@pytest.mark.parametrize(
    "queries",
    [
        [["symmetry", "search", "builtin:example2"]] * 2,
        [["real", "classify", "builtin:example2"]] * 2,
        [["symmetry", "search", "builtin:example1"], ["real", "classify", "builtin:example1"],
         ["symmetry", "search", "builtin:example2"], ["real", "classify", "builtin:example2"]],
        [["real", "classify", "example3"], ["real", "classify", "kummer_3_5"],
         ["symmetry", "search", "quadrilateral_5_3"], ["real", "classify", "example3"]],
    ],
    ids=["symmetry-twice", "real-twice", "two-dual-hesse-covers", "three-quadrilateral-covers"],
)
def test_no_permutation_is_realized_twice(tmp_path, realizations, queries):
    # the quadrilateral covers name their arrangement by the same line strings
    covers = {"example3": (5, QUAD_COVER["phi"]), **QUAD_COVERS}
    asked, solved = realizations
    asked_after = []
    for argv in queries:
        *command, ref = argv
        if ref in covers:
            m, rows = covers[ref]
            doc = {"arrangement": {"lines": QUAD_LINES}, "m": m, "k": len(rows[0]), "phi": rows}
            ref = write(tmp_path / f"{ref}.json", doc)
        assert run_captured([*command, ref])[0] == 0
        asked_after.append(len(asked))
    if queries[0] == queries[1]:
        # the second query on the kept cover reads its kept model
        assert asked_after[1] == asked_after[0] > 0
    else:
        # a second cover of an arrangement asks again what the first asked
        assert len(asked) > len(solved)
    assert Counter(solved) == Counter(set(asked))


def test_a_warm_arrangement_refuses_non_permutations_and_shares_no_list():
    assert run_captured(["real", "classify", "builtin:example2"])[0] == 0
    arr = resolve_arrangement("builtin:dual_hesse")
    identity = tuple(range(arr.n))
    assert (identity, False) in arr._search.realizations
    for perm in ((0,) * arr.n, identity[:-1], (*identity, arr.n)):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a permutation"):
                realize_symmetry(arr, perm, False)
        assert (perm, False) not in arr._search.realizations
    (perm, anti), matrix = next((key, m) for key, m in arr._search.realizations.items() if m is not None)
    fixed = fixed_points_of(arr, perm)
    assert isinstance(fixed, tuple)
    assert fixed == realize_oracle.fixed_points_of(dual_hesse(), matrix, anti)


# -- the kept cover -------------------------------------------------------------


def test_a_rewritten_cover_file_is_answered_anew(tmp_path):
    path = tmp_path / "cover.json"
    phi = QUAD_COVER["phi"]
    # a new phi, or the same phi with another blow-up set (all seven points,
    # or none: not smooth, so three of the commands refuse it)
    specs = [(5, phi, "all_r_ge_3"), (5, phi, list(range(7))), (5, phi, []),
             (*QUAD_COVERS["quadrilateral_5_3"], "all_r_ge_3"),
             (*QUAD_COVERS["quadrilateral_2_4"], "all_r_ge_3"), (5, phi, "all_r_ge_3")]
    for m, rows, blow in specs:
        write(path, {**QUAD_COVER, "m": m, "k": len(rows[0]), "phi": rows, "blow_up": blow})
        assert resolve_cover(str(path)).phi.rows == tuple(map(tuple, rows))
        warm = [run_captured(["--format", "json", *command, str(path)]) for command in COVER_COMMANDS]
        cold = []
        for command in COVER_COMMANDS:
            clear_memos()
            cold.append(run_captured(["--format", "json", *command, str(path)]))
        assert warm == cold
        assert json.loads(warm[0][1])["k"] == len(rows[0])


# unhashable and out-of-range fields are refused with the same line whether
# or not a cover is kept
BLOW_UP_TEXT = "blow_up must be 'all_r_ge_3' or a list of integer point ids, got "
UNHASHABLE_FIELDS = [
    ({"blow_up": {}}, BLOW_UP_TEXT + "{}"),
    ({"blow_up": {"a": [1]}}, BLOW_UP_TEXT + "{'a': [1]}"),
    ({"blow_up": [[0]]}, BLOW_UP_TEXT + "[[0]]"),
    ({"blow_up": [0, {}]}, BLOW_UP_TEXT + "[0, {}]"),
    ({"blow_up": [0, 99]}, "blow-up id 99 out of range"),
    ({"phi": [[{}, 0], *QUAD_COVER["phi"][1:]]}, "phi entries must be integers, got {}"),
    ({"phi": [[[0], 0], *QUAD_COVER["phi"][1:]]}, "phi entries must be integers, got [0]"),
    # the row count is refused before the blow-up input
    ({"phi": [[1, 0], [0, 1], [4, 0], [0, 4], [0, 0]], "blow_up": {}},
     "epimorphism has 5 rows but the arrangement has 6 lines"),
    ({"m": {}}, "m must be an integer, got {}"),
    ({"k": []}, "k must be an integer, got []"),
    ({"arrangement": {"lines": {}}}, "arrangement JSON needs a 'lines' array"),
]


@pytest.mark.parametrize("fields, message", UNHASHABLE_FIELDS,
                         ids=["-".join(f) + f"-{i}" for i, (f, _) in enumerate(UNHASHABLE_FIELDS)])
def test_an_unhashable_cover_field_keeps_its_error_line(tmp_path, fields, message):
    good = write(tmp_path / "good.json", QUAD_COVER)
    bad = write(tmp_path / "bad.json", {**QUAD_COVER, **fields})
    for command in COVER_COMMANDS:
        for ref in (bad, good, bad):
            code, out, err = run_captured([*command, ref])
            if ref == good:
                assert code == 0
            else:
                assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("doc", [
    {**QUAD_COVER, "blow_up": []},
    {"arrangement": {"lines": NEAR_PENCIL}, "m": 5, "k": 2, "phi": [[1, 0], [0, 1], [1, 2], [3, 2]]},
], ids=["not-smooth", "near-pencil"])
def test_a_refused_cover_is_refused_on_every_repeat_and_certified_once(tmp_path, calls, doc):
    ref = write(tmp_path / "cover.json", doc)
    smoothness = run_captured(["cover", "smoothness", ref])
    assert smoothness[0] == 0
    refusals = [run_captured([*command, ref]) for command in (["symmetry", "search"], ["real", "classify"])]
    for code, out, err in refusals:
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    for _ in range(2):
        assert run_captured(["cover", "smoothness", ref]) == smoothness
        assert [run_captured([*command, ref]) for command in (["symmetry", "search"], ["real", "classify"])] == refusals
    # a refusal keeps no model, so each of the six asks again
    assert Counter(c for c in calls if c in COVER_WORK) == {"smoothness_check": 1, "klein_model": 6}


def test_a_second_cover_replaces_the_kept_one(tmp_path, calls):
    one = resolve_cover("builtin:example1")
    assert resolve_cover("builtin:example1") is one
    model = one.klein_model
    assert one.klein_model is model
    two = resolve_cover("builtin:example2")
    assert resolve_cover("builtin:example2") is two
    # a cover keeps its model whether or not it is still the kept cover
    assert one.klein_model is model
    again = resolve_cover("builtin:example1")
    assert again is not one and again == one
    # a file with example1's content has another key, its text, so it is
    # certified again as a new cover
    doc = {"arrangement": "builtin:dual_hesse", "m": 5, "k": 2, "phi": [list(r) for r in PHI1.rows]}
    from_file = resolve_cover(write(tmp_path / "example1.json", doc))
    assert from_file is not again and from_file == again
    # the new cover object builds its own model, once
    assert again.klein_model is again.klein_model is not model
    assert again.klein_model == model
    assert Counter(c for c in calls if c in COVER_WORK) == {"smoothness_check": 4, "klein_model": 2}


def test_the_kept_cover_shares_the_arrangement_memos_object(tmp_path):
    lines = {"lines": QUAD_LINES}
    ref = write(tmp_path / "cover.json", {**QUAD_COVER, "arrangement": lines})
    cover = resolve_cover(ref)
    assert cover.arrangement is resolve_arrangement(lines)
    assert resolve_cover(ref) is cover
    for doc in four_line_arrangements(ARRANGEMENT_MEMO_SIZE):
        resolve_arrangement(doc)
    # the memo evicted the quadrilateral, so the cover is made anew on the
    # rebuilt arrangement
    rebuilt = resolve_cover(ref)
    assert rebuilt is not cover and rebuilt == cover
    assert rebuilt.arrangement is resolve_arrangement(lines)
    assert rebuilt.arrangement is not cover.arrangement
    assert resolve_cover(ref) is rebuilt



# -- the kept cover found by its document's text ---------------------------------


def test_a_builtin_cover_between_two_reads_of_a_document_replaces_its_text(tmp_path):
    # example2's cover: the same shared arrangement as example1
    doc = write(tmp_path / "a.json", {"arrangement": "builtin:dual_hesse", "m": 5, "k": 2,
                                      "phi": [list(r) for r in PHI2.rows]})
    first = resolve_cover(doc)
    example1 = resolve_cover("builtin:example1")
    assert example1.arrangement is first.arrangement
    again = resolve_cover(doc)
    assert again == first != example1
    assert again.phi == PHI2


def test_a_document_naming_an_arrangement_file_is_resolved_anew(tmp_path):
    lines = tmp_path / "lines.json"
    write(lines, {"lines": QUAD_LINES})
    doc = write(tmp_path / "cover.json", {**QUAD_COVER, "arrangement": str(lines)})
    first = resolve_cover(doc)
    assert first.arrangement is resolve_arrangement({"lines": QUAD_LINES})
    # the same cover document, byte for byte, over the lines in another order
    write(lines, {"lines": QUAD_LINES[::-1]})
    second = resolve_cover(doc)
    assert second.arrangement is resolve_arrangement({"lines": QUAD_LINES[::-1]})
    # and over five lines, which phi's six rows do not fit
    write(lines, {"lines": QUAD_LINES[:5]})
    with pytest.raises(ValueError, match="6 rows but the arrangement has 5 lines"):
        resolve_cover(doc)


@pytest.fixture
def parses_and_epimorphisms(monkeypatch):
    """The calls to `json.loads` and to `Epimorphism`'s constructor."""
    calls = []
    loads, new = json.loads, homology.Epimorphism.__new__

    def counted_loads(*args, **kwargs):
        calls.append("loads")
        return loads(*args, **kwargs)

    def counted_new(cls, *args, **kwargs):
        calls.append("Epimorphism")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted_loads)
    monkeypatch.setattr(homology.Epimorphism, "__new__", counted_new)
    return calls


@pytest.mark.parametrize("arrangement_ref", ["builtin:complete_quadrilateral", {"lines": QUAD_LINES}],
                         ids=["builtin", "inline"])
def test_a_repeated_document_is_neither_parsed_nor_checked(
    tmp_path, parses_and_epimorphisms, arrangement_ref
):
    doc = {**QUAD_COVER, "arrangement": arrangement_ref}
    one, two = (write(tmp_path / name, doc) for name in ("one.json", "two.json"))
    first = resolve_cover(one)
    assert parses_and_epimorphisms == ["loads", "Epimorphism"]
    parses_and_epimorphisms.clear()
    assert resolve_cover(two) is first
    assert resolve_cover(one) is first
    assert parses_and_epimorphisms == []


def test_a_document_with_other_whitespace_is_parsed_and_certified_again(
    tmp_path, calls, parses_and_epimorphisms
):
    doc = {**QUAD_COVER, "arrangement": {"lines": QUAD_LINES}}
    one = write(tmp_path / "one.json", doc)
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps(doc, indent=4))
    first = resolve_cover(one)
    second = resolve_cover(str(spaced))
    assert second is not first and second == first
    assert resolve_cover(str(spaced)) is second
    assert parses_and_epimorphisms == ["loads", "Epimorphism"] * 2
    assert calls.count("smoothness_check") == 2
    # each command on the re-spaced document, right after the same command
    # on the first, reports as a cold run does
    for command in COVER_COMMANDS:
        clear_memos()
        cold = run_captured(["--format", "json", *command, str(spaced)])
        run_captured(["--format", "json", *command, one])
        assert run_captured(["--format", "json", *command, str(spaced)]) == cold


def test_a_file_whose_text_is_a_builtin_name_is_not_the_builtin_cover(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text("builtin:example1")
    for command in COVER_COMMANDS:
        clear_memos()
        code, out, err = cold = run_captured([*command, str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert run_captured([*command, "builtin:example1"])[0] == 0
        assert run_captured([*command, str(path)]) == cold


# the quadrilateral shapes (n = 6, m^k <= 125) of the random smooth covers
QUAD_SHAPES = [(m, k) for build, m, k in RANDOM_COVER_SHAPES if build is complete_quadrilateral]
QUAD_REFS = ["builtin:complete_quadrilateral", {"lines": QUAD_LINES}]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(QUAD_SHAPES), st.integers(0, 2**32), st.data())
def test_random_covers_interleaved_warm_equal_cold_and_keep_their_relabelling(
    tmp_path_factory, shape, seed, data
):
    """A random smooth cover and the same cover with phi replaced by phi A,
    for a random A in GL_k(F_m), through every cover command interleaved in
    one warm process, give the reports of cold runs; and the two covers'
    reports are related as `assert_relabelled_deck_group` requires."""
    m, k = shape
    rng = random.Random(seed)
    cover = random_smooth_cover(complete_quadrilateral(), m, k, rng)
    assume(cover is not None)
    a = invertible_mod(rng, k, m)
    rows = [list(r) for r in cover.phi.rows]
    directory = tmp_path_factory.mktemp("random-cover")
    refs = [
        write(directory / f"{name}.json", {"arrangement": data.draw(st.sampled_from(QUAD_REFS)), "m": m, "k": k, "phi": phi})
        for name, phi in (("cover", rows), ("relabelled", mat_mul(rows, a, m)))
    ]
    queries = [
        (fmt, tuple(command), ref) for ref in refs for command in COVER_COMMANDS for fmt in ("text", "json")
    ]
    clear_memos()
    warm = {}
    for query in data.draw(st.permutations(queries)):
        fmt, command, ref = query
        warm[query] = run_captured(["--format", fmt, *command, ref])
    cold = {}
    for query in queries:
        fmt, command, ref = query
        clear_memos()
        cold[query] = run_captured(["--format", fmt, *command, ref])
    assert {code for code, _, _ in cold.values()} == {0}
    assert warm == cold
    before, after = (
        {" ".join(command): cold["json", tuple(command), ref][1] for command in COVER_COMMANDS} for ref in refs
    )
    assert_relabelled_deck_group(before, after, a, m)


# -- the blown planes kept on a shared arrangement --------------------------------

# the shapes whose covers share one blown plane: dual Hesse and the
# quadrilateral over (Z/5)^2 and (Z/5)^3, and the quadrilateral's m = 2,
# (Z/2)^4 shape, whose curves have p_a < 0
PLANE_SHAPES = {
    "dual_hesse_5_2": ("dual_hesse", 5, 2), "dual_hesse_5_3": ("dual_hesse", 5, 3),
    "quadrilateral_5_2": ("complete_quadrilateral", 5, 2),
    "quadrilateral_5_3": ("complete_quadrilateral", 5, 3),
    "quadrilateral_2_4": ("complete_quadrilateral", 2, 4),
}


BUILTIN_ARRANGEMENTS = {"dual_hesse": dual_hesse, "complete_quadrilateral": complete_quadrilateral}


def smooth_phis(name, m, k, count=3):
    """count distinct epimorphisms of the builtin arrangement `name` onto
    (Z/m)^k whose covers are certified smooth, drawn from a seeded stream
    row by row: a row is drawn again while a point whose lines all have rows
    has two dependent images crossing there (the certificate decides)."""
    arr = BUILTIN_ARRANGEMENTS[name]()
    rng, phis = random.Random(f"{name}-{m}-{k}"), []
    vectors = [v for v in itertools.product(range(m), repeat=k) if any(v)]

    def independent(u, v):
        return any((u[a] * v[b] - u[b] * v[a]) % m for a in range(k) for b in range(a + 1, k))

    def crossings_ok(rows, p):
        if p.r == 2:
            return independent(rows[p.incident[0]], rows[p.incident[1]])
        eps = tuple(sum(rows[i][j] for i in p.incident) % m for j in range(k))
        return all(independent(eps, rows[i]) for i in p.incident)

    def extend(rows):
        i = len(rows)
        if i == arr.n - 1:
            options = [tuple(-sum(r[j] for r in rows) % m for j in range(k))]
        else:
            options = rng.sample(vectors, len(vectors))
        for row in options:
            rows.append(row)
            done = [p for p in arr.points if p.incident[-1] == i]
            if all(crossings_ok(rows, p) for p in done) and (i == arr.n - 1 or extend(rows)):
                return True
            rows.pop()
        return False

    while len(phis) < count:
        rows = []
        assert extend(rows)
        try:
            phi = Epimorphism(m=m, k=k, rows=tuple(rows))
        except ValueError:
            continue
        assert CoverModel.build(arr, phi).certificate.ok
        if phi not in phis:
            phis.append(phi)
    return phis


@pytest.mark.parametrize("shape", sorted(PLANE_SHAPES))
def test_a_kept_blown_plane_gives_every_cover_its_cold_report(tmp_path, shape):
    """Each cover's `cover invariants` report, text and JSON, read from a
    plane that earlier covers of the shape filled, equals the one from an
    empty store (a freshly built arrangement), in either order; so does its
    3K decomposition."""
    name, m, k = PLANE_SHAPES[shape]
    phis = smooth_phis(name, m, k)
    refs = [
        write(tmp_path / f"cover{i}.json",
              {"arrangement": f"builtin:{name}", "m": m, "k": k, "phi": [list(r) for r in phi.rows]})
        for i, phi in enumerate(phis)
    ]
    cold = {}
    for ref in refs:
        for fmt in ("text", "json"):
            clear_memos()
            cold[ref, fmt] = run_captured(["--format", fmt, "cover", "invariants", ref])
    assert {code for code, _, _ in cold.values()} == {0}
    for order in (refs, refs[::-1]):
        clear_memos()
        warm = {(ref, fmt): run_captured(["--format", fmt, "cover", "invariants", ref])
                for ref in order for fmt in ("text", "json")}
        assert warm == cold
        # one plane, filled by the first cover and read by the others
        assert list(resolve_arrangement(f"builtin:{name}")._planes) == [(resolve_cover(ref).blown_ids, m, k)]
    build = BUILTIN_ARRANGEMENTS[name]
    for order in (phis, phis[::-1]):
        shared = build()
        decompositions = [three_canonical_decomposition(CoverModel.build(shared, phi)) for phi in order]
        fresh = [three_canonical_decomposition(CoverModel.build(build(), phi)) for phi in order]
        assert decompositions == fresh
        assert all(dec is decompositions[0] for dec in decompositions)


@pytest.fixture
def eliminations(monkeypatch):
    """The meeting-image ranks `cover.invariants` computes, one per call."""
    ranks = []
    original = cover_module.rank_mod_p

    def counted(rows, p):
        ranks.append(len(rows))
        return original(rows, p)

    monkeypatch.setattr(cover_module, "rank_mod_p", counted)
    return ranks


def test_a_kept_plane_skips_no_check_of_a_cover(tmp_path, eliminations):
    # a cover of the shape a smooth one has filled, not smooth at the double
    # point (1 4) since lines 1 and 4 have one image, is refused with the
    # cold error line
    smooth = write(tmp_path / "smooth.json", QUAD_COVER)
    rows = [[1, 0], [1, 0], [1, 2], [1, 0], [0, 1], [1, 2]]
    refused = write(tmp_path / "refused.json", {**QUAD_COVER, "phi": rows})
    for fmt in ("text", "json"):
        for command in (["cover", "invariants"], ["cover", "smoothness"]):
            clear_memos()
            cold = run_captured(["--format", fmt, *command, refused])
            assert run_captured(["--format", fmt, *command, smooth])[0] == 0
            assert run_captured(["--format", fmt, *command, refused]) == cold
    code, out, err = run_captured(["cover", "invariants", refused])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: cover is not certified smooth: (1 4): ")
    # on the (Z/2)^4 shape every curve has p_a < 0, and each cover runs the
    # rank test of each curve, whether it fills the plane or reads it
    arr = complete_quadrilateral()
    for phi in smooth_phis("complete_quadrilateral", 2, 4, count=4):
        eliminations.clear()
        rep = invariants(CoverModel.build(arr, phi))
        curves = rep.line_curves + rep.point_curves
        assert [c.genus for c in curves] == [-1] * 10
        assert len(eliminations) == 10
    assert len(arr._planes) == 1
    # and the test refuses a cover as if smooth with phi(E_p) = 0 at (1 2 3):
    # C1 has p_a = -1 over d = 4 components
    rows = ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1))
    cover = CoverModel.build(arr, Epimorphism(m=2, k=4, rows=rows))
    assert not cover.certificate.ok
    eliminations.clear()
    with pytest.raises(ValueError, match="^adjunction gives no valid genus for C1$"):
        invariants(cover._replace(certificate=homology.SmoothnessCertificate((), True)))
    assert len(eliminations) == 1
