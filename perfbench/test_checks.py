"""The benchmark's checks pass on planecover's reports and reject reports
altered by hand.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from perfbench import checks
from perfbench.inputs import stream
from perfbench.run import PER_LAYER, ROOT, check_report, check_round
from planecover import cli


def _run(queries: list[dict]) -> dict[tuple[str, str], dict]:
    reports = {}
    for q in queries:
        assert cli.run([*q["argv"], "--out", q["out"]]) == 0, q["argv"]
        q["rc"] = 0
        with open(q["out"], encoding="utf-8") as fh:
            reports[(q["cover"], q["kind"])] = json.load(fh)
    return reports


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    queries = stream("paper", 7, 0, str(tmp_path_factory.mktemp("paper")), "r")
    return queries, _run(queries)


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    queries = stream("census", 7, 0, str(tmp_path_factory.mktemp("census")), "r")
    hesse = [q for q in queries if "-hesse-" in q["cover"]]
    return hesse, _run(hesse)


def test_paper_round_passes(paper):
    queries, _ = paper
    assert check_round(queries) == []


def test_census_hesse_round_passes(census):
    queries, reports = census
    assert check_round(queries) == []
    real = [r for (cover, kind), r in reports.items() if kind == "real classify"]
    assert any(r["class_count"] for r in real), "a real-structure class is drawn"


def _bump_first_class_size(r):
    r["classes"][0]["size"] += 1


def _drop_first_class(r):
    r["classes"].pop(0)
    r["class_count"] -= 1


def _drop_real_point(r):
    c = next(c for c in r["classes"] if c["real_blown_points"])
    c["real_blown_points"].pop()


def _swap_matrix_entries(r):
    sym = next(s for s in r["realized"] if s["perm"] != "id")
    row = sym["matrix"][0]
    row[0], row[1] = row[1], row[0]


def _drop_realized(r):
    r["realized"] = [s for s in r["realized"] if s["perm"] == "id"]
    r["klein_order"] = 25


def _wrong_deck_action(r):
    row = r["realized"][-1]["deck_action"][0]
    row[0] = (row[0] + 1) % 5


def _flip_smooth_check(r):
    r["checks"][0]["ok"] = not r["checks"][0]["ok"]


def _bump(key, by=1):
    def mutate(r):
        r[key] += by

    return mutate


def _drop_character(r):
    r["characters"].pop()


def _change_character(r):
    v = r["characters"][-1]["vector"]
    v[0], v[1] = (v[0] + 1) % 5, (v[1] - 1) % 5  # still zero-sum


def _move_line(r):
    r["lines"][0], r["lines"][1] = r["lines"][1], r["lines"][0]


def _shift_point(r):
    r["points"][0]["coords"] = ["1", "2", "3"]


CORRUPTIONS = [
    ("example1", "cover invariants", _bump("k2")),
    ("example1", "cover invariants", _bump("euler", 12)),
    ("example3", "cover smoothness", _flip_smooth_check),
    ("example2", "characters list", _drop_character),
    ("example2", "characters list", _change_character),
    ("example3", "symmetry search", _swap_matrix_entries),
    ("example3", "symmetry search", _drop_realized),
    ("example3", "symmetry search", _bump("klein_order")),
    ("example2", "symmetry search", _wrong_deck_action),
    ("example3", "real classify", _bump_first_class_size),
    ("example3", "real classify", _drop_first_class),
    ("example3", "real classify", _drop_real_point),
    ("dual_hesse", "arrangement info", _move_line),
    ("complete_quadrilateral", "arrangement info", _shift_point),
    ("dual_hesse", "arrangement info", _bump("automorphism_order")),
    ("example2", "bounds check", _bump("smith_total")),
    ("paper", "paper verify", _bump("mismatch_count")),
]


def _check(queries, reports, cover, kind, report):
    ctx = next(q["ctx"] for q in queries if q["cover"] == cover and q["kind"] == kind)
    return check_report(kind, report, ctx, sym_report=reports.get((cover, "symmetry search")))


@pytest.mark.parametrize(
    "cover,kind,mutate", CORRUPTIONS, ids=[f"{c}-{k}-{m.__name__}" for c, k, m in CORRUPTIONS]
)
def test_check_rejects_altered_report(paper, cover, kind, mutate):
    queries, reports = paper
    report = reports[(cover, kind)]
    assert _check(queries, reports, cover, kind, report) == []
    altered = copy.deepcopy(report)
    mutate(altered)
    assert _check(queries, reports, cover, kind, altered) != []


def test_closed_forms_match_known_values():
    # the paper's nine-line covers and the full Kummer cover of the quadrilateral
    assert checks.closed_forms("dual_hesse", 5, 2) == (333, 111)
    assert checks.closed_forms("complete_quadrilateral", 5, 5) == (5625, 1875)


def test_trace_patches_every_namespace_and_counts_repeated_search():
    code = (
        "import os\n"
        "from perfbench.worker import Tracer\n"
        "from planecover import arrangement, cli, symmetry\n"
        "t = Tracer(); t.install()\n"
        "assert symmetry.combinatorial_automorphisms is arrangement.combinatorial_automorphisms\n"
        "assert symmetry.combinatorial_automorphisms.__wrapped__ is not None\n"
        "cli.run(['--format', 'json', 'symmetry', 'search', 'builtin:example3', '--out', os.devnull])\n"
        "print(t.metrics()['arrangement.autos_calls'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["3"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "symmetry_s", "real_s", "peak_rss_mb"
    }
