"""The per-process arrangement memo behind `catalog.resolve_arrangement`.

An arrangement is built once per builtin name or tuple of line strings and
shared, with its cached frame, search tables, |Aut_comb| and realizations of
line permutations, by every later query: reports from a warm process must
equal those of cold runs byte for byte, a shared arrangement must equal a
fresh build and its kept realizations the reference route's, and a later
query must not rebuild or realize again what an earlier one did.  Fixed
points are not kept: they are read from each permutation, and must equal
the reference route's from the kept matrix.
"""

import importlib
import io
import json
import pkgutil
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

import planecover
import realize_oracle
from planecover import arrangement, catalog, search, symmetry
from planecover.arrangement import (
    Line,
    build_arrangement,
    complete_quadrilateral,
    dual_hesse,
    fixed_points_of,
    realize_symmetry,
)
from planecover.catalog import ARRANGEMENT_MEMO_SIZE, resolve_arrangement
from planecover.cli import run
from test_loader_fuzz import QUAD_COVER, QUAD_LINES
from test_symmetry import CENSUS_COVERS, CENSUS_GENERIC_COVERS, QUAD_COVERS

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


def sweep(queries, cold):
    reports = []
    for argv in queries:
        for fmt in ("text", "json"):
            if cold:
                catalog._arrangement.cache_clear()
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
        assert shared._search_tables == arr._search_tables
        assert shared._frame == arr._frame
        assert shared.automorphism_order == arr.automorphism_order
        # every kept answer is the reference route's on the fresh build
        if not shared._realizations:
            unasked.add(name)
        for (perm, anti), matrix in shared._realizations.items():
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


def test_memo_evicts_the_least_recently_used_arrangement():
    docs = [
        {"lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", str(c)]]}
        for c in range(1, ARRANGEMENT_MEMO_SIZE + 2)
    ]
    first = resolve_arrangement(docs[0])
    assert resolve_arrangement(docs[0]) is first
    kept = [resolve_arrangement(doc) for doc in docs[1:]]
    assert catalog._arrangement.cache_info().currsize == ARRANGEMENT_MEMO_SIZE
    assert resolve_arrangement(docs[-1]) is kept[-1]
    rebuilt = resolve_arrangement(docs[0])
    assert rebuilt is not first and rebuilt == first
    # re-resolving the oldest evicted the next oldest
    assert resolve_arrangement(docs[1]) is not kept[0]


# name -> defining module
COUNTED = {
    "build_arrangement": arrangement, "combinatorial_automorphisms": arrangement,
    "count_automorphisms": search, "_incidence": search, "_search_order": search,
    "_realize": search,
}


@pytest.fixture
def calls(monkeypatch):
    """The calls to COUNTED, under every name planecover holds them by."""
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

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


# no command lists Aut_comb; the commands that print |Aut_comb| count it
ALL = set(COUNTED) - {"combinatorial_automorphisms"}
NO_COUNT = ALL - {"count_automorphisms"}


@pytest.mark.parametrize(
    "argv, first, counts",
    [
        (["symmetry", "search", "builtin:example3"], ALL, 1),
        (["symmetry", "search", "COVER_JSON"], ALL, 1),
        (["real", "classify", "builtin:example2"], NO_COUNT, 0),
        (["real", "classify", "COVER_JSON"], NO_COUNT, 0),
        (["arrangement", "info", "builtin:dual_hesse", "--autos"], ALL - {"_realize"}, 1),
        # dual Hesse and the quadrilateral, each counted once for all its covers
        (["paper", "verify"], ALL, 2),
    ],
    ids=["symmetry-builtin", "symmetry-file", "real-builtin", "real-file", "info-autos", "paper-verify"],
)
def test_a_repeated_query_builds_nothing_again(tmp_path, calls, argv, first, counts):
    # example3's cover, with its arrangement given by line strings
    cover = {**QUAD_COVER, "arrangement": {"lines": QUAD_LINES}}
    argv = [write(tmp_path / "cover.json", cover) if a == "COVER_JSON" else a for a in argv]
    first_report = run_captured(argv)
    assert first_report[0] == 0
    assert set(calls) == first
    assert calls.count("count_automorphisms") == counts
    calls.clear()
    assert run_captured(argv) == first_report
    assert calls == []


@pytest.fixture
def realizations(monkeypatch):
    """The (lines, perm, anti) that `klein_model` asks `realize_symmetry`
    about, and those the uncached `_realize` solves."""
    asked, solved = [], []

    def count(log, original):
        def counted(arr, perm, anti):
            log.append((arr.lines, tuple(perm), anti))
            return original(arr, perm, anti)

        return counted

    monkeypatch.setattr(symmetry, "realize_symmetry", count(asked, symmetry.realize_symmetry))
    monkeypatch.setattr(search, "_realize", count(solved, search._realize))
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
    for argv in queries:
        *command, ref = argv
        if ref in covers:
            m, rows = covers[ref]
            doc = {"arrangement": {"lines": QUAD_LINES}, "m": m, "k": len(rows[0]), "phi": rows}
            ref = write(tmp_path / f"{ref}.json", doc)
        assert run_captured([*command, ref])[0] == 0
    asked, solved = realizations
    assert len(asked) > len(solved)
    assert Counter(solved) == Counter(set(asked))


def test_a_warm_arrangement_refuses_non_permutations_and_shares_no_list():
    assert run_captured(["real", "classify", "builtin:example2"])[0] == 0
    arr = resolve_arrangement("builtin:dual_hesse")
    identity = tuple(range(arr.n))
    assert (identity, False) in arr._realizations
    for perm in ((0,) * arr.n, identity[:-1], (*identity, arr.n)):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a permutation"):
                realize_symmetry(arr, perm, False)
        assert (perm, False) not in arr._realizations
    (perm, anti), matrix = next((key, m) for key, m in arr._realizations.items() if m is not None)
    fixed = fixed_points_of(arr, perm)
    assert isinstance(fixed, tuple)
    assert fixed == realize_oracle.fixed_points_of(dual_hesse(), matrix, anti)
