import argparse
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from planecover import cli, jsonio
from planecover.cli import run
from test_symmetry import QUAD_COVERS, hesse, random_smooth_cover


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_cover_invariants_example1(capsys):
    code, out = capture(capsys, ["cover", "invariants", "builtin:example1"])
    assert code == 0
    assert "333" in out and "111" in out and "37" in out


def test_cover_invariants_json(capsys):
    code, out = capture(
        capsys, ["--format", "json", "cover", "invariants", "builtin:example3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["k2"] == 45 and data["euler"] == 15 and data["chi"] == 5


def test_arrangement_info(capsys):
    code, out = capture(capsys, ["arrangement", "info", "builtin:dual_hesse"])
    assert code == 0
    data_lines = [l for l in out.splitlines() if "t:" in l or "3: 12" in l]
    assert any("12" in l for l in data_lines)


def test_arrangement_info_autos(capsys):
    code, out = capture(
        capsys,
        ["--format", "json", "arrangement", "info", "builtin:complete_quadrilateral", "--autos"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["automorphism_order"] == 24
    assert data["t"] == {"2": 3, "3": 4}
    assert data["notes"]


def test_cover_smoothness(capsys):
    code, out = capture(
        capsys, ["--format", "json", "cover", "smoothness", "builtin:example2"]
    )
    assert code == 0
    assert json.loads(out)["smooth"] is True


def test_characters_list(capsys):
    code, out = capture(
        capsys, ["--format", "json", "characters", "list", "builtin:example1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 25
    assert [1, 1, 1, 3, 3, 0, 0, 0, 1] in [c["vector"] for c in data["characters"]]


def test_symmetry_search(capsys):
    code, out = capture(
        capsys, ["--format", "json", "symmetry", "search", "builtin:example2"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["klein_order"] == 50
    assert data["combinatorial_automorphisms"] == 432
    assert data["has_anti"] is True


def test_real_classify_example3(capsys):
    code, out = capture(
        capsys, ["--format", "json", "real", "classify", "builtin:example3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["class_count"] == 2
    fixed = sorted(tuple(c["fixed_lines"]) for c in data["classes"])
    assert fixed == [(1, 2, 3, 4, 5, 6), (3, 6)]


def test_real_classify_example1_empty(capsys):
    code, out = capture(
        capsys, ["--format", "json", "real", "classify", "builtin:example1"]
    )
    assert code == 0
    assert json.loads(out)["class_count"] == 0


def test_bounds_check(tmp_path, capsys):
    hodge = {
        "k2": 333,
        "euler": 111,
        "p_plus": 0,
        "p_minus": 36,
        "components": [[1, 5, 1]],
        "k3": 0,
    }
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps(hodge))
    code, out = capture(capsys, ["--format", "json", "bounds", "check", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["smith_total"] == 111
    assert data["maximal"] is False
    assert data["lefschetz_trace"] == -4
    assert data["h20_lower_bound"] == 4
    assert data["component_count"]["feasible"] is False


HODGE = {"k2": 333, "euler": 111, "p_plus": 0, "p_minus": 36, "components": [[1, 5, 1]]}


@pytest.mark.parametrize(
    "doc, message, options",
    [
        ([1, 2], "hodge JSON must be an object, got array", []),
        ("k2", "hodge JSON must be an object, got string", []),
        ({**HODGE, "components": [[1, "a"]]}, "components[0] must be 3 non-negative integer", []),
        ({**HODGE, "components": [[1, 5]]}, "components[0] must be 3", []),
        ({**HODGE, "components": [[1, 5, -1]]}, "components[0] must be 3", []),
        ({**HODGE, "components": {"a": 1}}, "'components' must be a list", []),
        ({"h10": 0, "h20": 1, "h11": 1.5}, "'h11' must be an integer, got 1.5", []),
        ({"h10": 0, "h20": 1, "h11": True}, "'h11' must be an integer, got True", []),
        ({"h20": 1, "h11": 2}, "hodge JSON needs an integer 'h10'", []),
        ({"k2": 333}, "hodge JSON needs an integer 'euler'", []),
        ({**HODGE, "k2": "333"}, "'k2' must be an integer", []),
        ({**HODGE, "p_plus": 0.0}, "'p_plus' must be an integer", []),
        ({**HODGE, "nu": None}, "'nu' must be an integer", []),
        ({**HODGE, "k3": False}, "'k3' must be an integer", []),
        ({**HODGE, "k3": -1}, "k3 must be non-negative, got -1", []),
        ({**HODGE, "k3": "x"}, "'k3' must be an integer", ["--k3", "0"]),
        ({**HODGE, "k3": -1}, "k3 must be non-negative, got -1", ["--k3", "0"]),
        # q is h10 of the derived numbers, refused under its own name
        ({"k2": 333, "euler": 111, "q": -1}, "q must be non-negative, got -1", []),
        # one form only: k2, euler and optional q, or h10, h20 and h11
        ({"k2": 333, "euler": 111, "h10": 5, "h20": 1, "h11": 1},
         "must use one form, k2/euler/q or h10/h20/h11, got k2, euler, h10, h20, h11", []),
        ({"h10": 0, "h20": 1, "h11": 1, "q": 2},
         "must use one form, k2/euler/q or h10/h20/h11, got q, h10, h20, h11", []),
        ({**HODGE, "h11": 37}, "must use one form, k2/euler/q or h10/h20/h11, got k2, euler, h11", []),
        # q alone selects the k2/euler form
        ({"q": 0}, "hodge JSON needs an integer 'k2'", []),
        ({"q": 0, "nu": 0}, "hodge JSON needs an integer 'k2'", []),
        # a misspelt key is refused, not left at its default (q = 0)
        ({**HODGE, "Q": 2}, "hodge JSON has unknown keys ['Q']; allowed: ['components', ", []),
    ],
    ids=[
        "list", "string", "component-str", "component-pair", "component-negative",
        "components-object", "h11-float", "h11-bool", "h10-missing", "euler-missing",
        "k2-str", "p-plus-float", "nu-null", "k3-bool", "k3-negative",
        "k3-str-under-argument", "k3-negative-under-argument", "q-negative",
        "mixed-forms", "q-beside-hodge-numbers", "h11-beside-surface",
        "q-only", "q-and-nu", "unknown-key",
    ],
)
def test_malformed_hodge_json_is_input_error(tmp_path, capsys, doc, message, options):
    # a malformed document field is refused even when an argument overrides it
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps(doc))
    assert run(["bounds", "check", str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_bounds_check_k3_argument_overrides_json(tmp_path, capsys):
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps({**HODGE, "k3": 5}))
    code, out = capture(capsys, ["--format", "json", "bounds", "check", str(path), "--k3", "0"])
    assert code == 0
    assert json.loads(out)["component_count"]["k3"] == 0


def test_bounds_check_negative_k3_argument_is_input_error(tmp_path, capsys):
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps(HODGE))
    assert run(["bounds", "check", str(path), "--k3", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k3 must be non-negative, got -1\n"


@pytest.mark.parametrize("command", [["arrangement", "info"], ["cover", "invariants"], ["bounds", "check"]])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_paper_verify_passes(capsys):
    code, out = capture(capsys, ["paper", "verify"])
    assert code == 0
    assert "mismatch_count: 0" in out


def test_paper_verify_builds_one_klein_model_per_example(capsys, monkeypatch):
    # the symmetry and real reports of an example share one model
    from planecover import symmetry

    covers = []
    original = symmetry.klein_model

    def counted(cover):
        covers.append(cover)
        return original(cover)

    monkeypatch.setattr(symmetry, "klein_model", counted)
    code, out = capture(capsys, ["paper", "verify"])
    assert code == 0
    assert "mismatch_count: 0" in out
    assert len(covers) == 3
    assert len(set(covers)) == 3


def test_paper_verify_flags_mismatches(capsys, monkeypatch):
    from planecover import verify

    reference = verify._load_reference()
    corrupted = json.loads(json.dumps(reference))
    corrupted["example1"]["k2"] = 334
    monkeypatch.setattr(verify, "_load_reference", lambda: corrupted)
    code, out = capture(capsys, ["paper", "verify"])
    assert code == 1
    assert "expected 334" in out


EXAMPLES = {"example1", "example2", "example3"}


@pytest.mark.parametrize(
    "builder, key, sections",
    [
        ("arrangement_report", "automorphism_order", {"dual_hesse", "complete_quadrilateral"}),
        ("smoothness_report", "smooth", EXAMPLES),
        ("invariants_report", "chi", EXAMPLES),
        ("characters_report", "characters", {"characters"}),
        ("symmetry_report", "klein_order", EXAMPLES),
        ("real_report", "class_count", EXAMPLES),
        ("bounds_report", "smith_total", {"bounds"}),
    ],
    ids=["arrangement", "smoothness", "invariants", "characters", "symmetry", "real", "bounds"],
)
def test_paper_verify_reads_each_command_report(capsys, monkeypatch, builder, key, sections):
    # one changed value in a command's report must show in `paper verify`
    original = getattr(cli, builder)

    def changed(*args, **kwargs):
        report = original(*args, **kwargs)
        value = report[key]
        if isinstance(value, bool):
            report[key] = not value
        elif isinstance(value, int):
            report[key] = value + 1
        else:
            report[key] = value[1:]
        return report

    monkeypatch.setattr(cli, builder, changed)
    code, out = capture(capsys, ["--format", "json", "paper", "verify"])
    assert code == 1
    report = json.loads(out)["sections"]
    assert {name for name, section in report.items() if not section["ok"]} == sections


def test_unknown_builtin_is_input_error(capsys):
    assert run(["cover", "invariants", "builtin:nope"]) == 2


def test_missing_file_is_input_error(capsys):
    assert run(["arrangement", "info", "/no/such/file.json"]) == 2


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["arrangement", "info", str(path)]) == 2


def test_bad_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 2


def test_reports_are_deterministic(capsys):
    _, first = capture(capsys, ["--format", "json", "symmetry", "search", "builtin:example3"])
    _, second = capture(capsys, ["--format", "json", "symmetry", "search", "builtin:example3"])
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(
        ["--format", "json", "--out", str(target), "cover", "invariants", "builtin:example1"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["k2"] == 333


def test_arrangement_json_file_input(tmp_path, capsys):
    spec = {"lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1*z"]]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(spec))
    code, out = capture(capsys, ["--format", "json", "arrangement", "info", str(path)])
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_cover_json_file_input(tmp_path, capsys):
    cover = {
        "arrangement": "builtin:complete_quadrilateral",
        "m": 5,
        "k": 2,
        "phi": [[1, 0], [1, 0], [1, 2], [0, 1], [0, 1], [2, 1]],
        "blow_up": "all_r_ge_3",
    }
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    code, out = capture(capsys, ["--format", "json", "cover", "invariants", str(path)])
    assert code == 0
    assert json.loads(out)["k2"] == 45


QUAD_PHI = [[1, 0], [1, 0], [1, 2], [0, 1], [0, 1], [2, 1]]

UNBLOWN_QUADRILATERAL = (
    "error: cover is not certified smooth: (1 2 3): 3-fold point left unblown, "
    "(1 5 6): 3-fold point left unblown, (2 4 6): 3-fold point left unblown, "
    "(3 4 5): 3-fold point left unblown\n"
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_non_smooth_refusal_names_each_point(tmp_path, capsys, fmt):
    """example3's phi with no point blown up: each failing point is named by
    its lines, as `cover smoothness` prints them."""
    cover = {"arrangement": "builtin:complete_quadrilateral", "m": 5, "k": 2, "phi": QUAD_PHI,
             "blow_up": []}
    path = tmp_path / "unblown.json"
    path.write_text(json.dumps(cover))
    code, out = capture(capsys, ["--format", "json", "cover", "smoothness", str(path)])
    report = json.loads(out)
    assert code == 0 and report["smooth"] is False
    labels = [
        "(" + " ".join(map(str, c["point"])) + ")" for c in report["checks"] if not c["ok"]
    ]
    assert labels == ["(1 2 3)", "(1 5 6)", "(2 4 6)", "(3 4 5)"]
    for command in (["cover", "invariants"], ["symmetry", "search"], ["real", "classify"]):
        assert run(["--format", fmt, *command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == UNBLOWN_QUADRILATERAL


@pytest.mark.parametrize(
    "field, value",
    [
        ("phi", [[1.5, 0]] + QUAD_PHI[1:]),
        ("phi", [[True, 0]] + QUAD_PHI[1:]),
        ("phi", [["1", 0]] + QUAD_PHI[1:]),
        ("phi", [1, 0, 1, 2, 0, 2]),
        ("m", 5.0),
        ("m", True),
        ("k", "2"),
        ("k", True),
        ("k", 0),
        ("m", 4),
        ("blow_up", [0.5, 2.5, 3.5, 5.5]),
        ("blow_up", ["0"]),
        ("blow_up", [True]),
        ("blow_up", "all"),
        ("arrangement", 5),
        ("arrangement", ["builtin:dual_hesse"]),
        # a Mersenne prime far past trial division: refused by the zero-sum check, at once
        ("m", 2**61 - 1),
        ("m", 2**89 - 1),
        # no field: the whole document is the value, and not an object
        (None, [1, 2]),
        (None, "abc"),
        (None, 5),
        (None, None),
        # a misspelt blow_up is refused, not read as the default blow-up
        ("blowup", []),
    ],
    ids=[
        "phi-float", "phi-bool", "phi-str", "phi-flat", "m-float", "m-bool", "k-str", "k-bool",
        "k-zero", "m-composite", "blow-float", "blow-str", "blow-bool", "blow-unknown-keyword",
        "arrangement-int", "arrangement-list", "m-mersenne-61", "m-too-large",
        "document-list", "document-str", "document-int", "document-null", "blow-up-misspelt",
    ],
)
def test_malformed_cover_json_is_input_error(tmp_path, capsys, field, value):
    cover = {"arrangement": "builtin:complete_quadrilateral", "m": 5, "k": 2, "phi": QUAD_PHI}
    cover[field] = value
    if field == "k" and value == 0:
        cover["phi"] = [[] for _ in QUAD_PHI]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(value if field is None else cover))
    code = run(["cover", "smoothness", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if field is None:
        kind = {list: "array", str: "string", int: "number", type(None): "null"}[type(value)]
        assert err == f"error: cover JSON must be an object, got {kind}\n"
    if field == "phi" and not isinstance(value[0], list):
        assert err == "error: cover JSON field 'phi' must be an array of arrays, one per line\n"
    if field == "m" and value == 4:
        assert "modulus 4 is not prime" in err
    if field == "blowup":
        assert err == (
            "error: cover JSON has unknown keys ['blowup']; "
            "allowed: ['arrangement', 'blow_up', 'k', 'm', 'phi']\n"
        )
    if field == "m" and value == 2**89 - 1:
        assert "past the range of the exact primality test" in err


@pytest.mark.parametrize("command", [["symmetry", "search"], ["real", "classify"]])
def test_near_pencil_refused_before_automorphism_search(tmp_path, capsys, monkeypatch, command):
    from planecover import search, symmetry

    def no_search(*args):
        raise AssertionError("automorphism search started")

    monkeypatch.setattr(symmetry, "combinatorial_automorphisms", no_search)
    # the search constrained by phi, behind the character filter
    for module in (search, symmetry):
        monkeypatch.setattr(module, "incidence_automorphisms", no_search)
    # x, y and x + y meet in one point: no 4 lines in general position
    cover = {
        "arrangement": {"lines": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]},
        "m": 5,
        "k": 2,
        "phi": [[1, 0], [0, 1], [1, 2], [3, 2]],
    }
    path = tmp_path / "near_pencil.json"
    path.write_text(json.dumps(cover))
    assert run(["cover", "smoothness", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["smooth"] is True
    assert run([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite projective stabilizer" in err and "4 lines in general position" in err


def test_symmetry_search_runs_one_automorphism_search(capsys, monkeypatch):
    from planecover import arrangement, search, symmetry

    calls = []
    count = search.count_automorphisms

    def counted(arr):
        calls.append(arr)
        return count(arr)

    def no_listing(arr):
        raise AssertionError("Aut_comb listed")

    monkeypatch.setattr(search, "count_automorphisms", counted)
    for module in (arrangement, symmetry):
        monkeypatch.setattr(module, "combinatorial_automorphisms", no_listing)
    argv = ["--format", "json", "symmetry", "search", "builtin:example3"]
    code, out = capture(capsys, argv)
    assert code == 0
    assert len(calls) == 1
    data = json.loads(out)
    assert data["combinatorial_automorphisms"] == 24
    assert data["character_preserving"] == ["id", "(1 2)(4 5)"]
    # the count is kept on the arrangement, which the process shares
    assert capture(capsys, argv) == (code, out)
    assert len(calls) == 1


def test_real_classify_never_lists_the_combinatorial_group(capsys, monkeypatch):
    import importlib
    import pkgutil

    import planecover
    from planecover import arrangement

    search = arrangement.combinatorial_automorphisms

    def no_search(arr):
        raise AssertionError("Aut_comb listed")

    for info in pkgutil.iter_modules(planecover.__path__):
        module = importlib.import_module(f"planecover.{info.name}")
        for name, value in list(vars(module).items()):
            if value is search:
                monkeypatch.setattr(module, name, no_search)
    for name, order in (("example1", 25), ("example2", 50), ("example3", 100)):
        code, out = capture(capsys, ["--format", "json", "real", "classify", f"builtin:{name}"])
        assert code == 0
        assert json.loads(out)["klein_order"] == order


@pytest.mark.parametrize(
    "argv",
    [
        ["arrangement", "info", "builtin:dual_hesse"],
        ["cover", "smoothness", "builtin:example3"],
        ["cover", "invariants", "builtin:example3"],
        ["characters", "list", "builtin:example3"],
        ["symmetry", "search", "builtin:example3"],
        ["real", "classify", "builtin:example3"],
        ["bounds", "check", "HODGE_JSON"],
        ["paper", "verify"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_unwritable_out_path_is_input_error(tmp_path, capsys, argv):
    hodge = tmp_path / "hodge.json"
    hodge.write_text(json.dumps({"k2": 333, "euler": 111}))
    argv = [str(hodge) if a == "HODGE_JSON" else a for a in argv]
    out = tmp_path / "missing" / "report.json"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "report.json" in captured.err
    assert not out.exists()


AXES = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "lines[0] must be 3 coefficient strings"),
        ({"lines": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]},
         "lines[1] must be 3 coefficient strings"),
        ({"lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "1"]]}, "lines[2] must be 3"),
        ({"lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", None]]}, "lines[2] must be 3"),
        ({"lines": [["1", "0", "0"], "010", ["0", "0", "1"]]}, "lines[1] must be 3"),
        ({"lines": "abc"}, "needs a 'lines' array"),
        ({"lines": {"0": ["1", "0", "0"]}}, "needs a 'lines' array"),
        ({"lines": [["1", "0", "0"], ["0", "1/0", "0"], ["0", "0", "1"]]},
         "bad cyclotomic literal '1/0'"),
        # terms side by side: "2z" is not read as 2 + z
        ({"lines": [["1", "1", "2z"], *AXES]}, "bad cyclotomic literal '2z' at position 1"),
        # a key outside the schema is refused before any field is read
        ({"lines": AXES, "Lines": "x", "name": "axes"},
         "arrangement JSON has unknown keys ['Lines', 'name']; allowed: ['lines']"),
    ],
    ids=["ints", "short-row", "long-row", "null", "string-row", "string", "object",
         "zero-denominator", "terms-side-by-side", "unknown-keys"],
)
def test_malformed_arrangement_json_is_input_error(tmp_path, capsys, doc, message):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    assert run(["arrangement", "info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def clear_parsers():
    """Forget the parser tree built so far (it is kept for the life of the process)."""
    cli._build_parser.cache_clear()


@pytest.fixture
def parsers_built(monkeypatch):
    """The parsers constructed from here on, with none kept from earlier runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    clear_parsers()
    return built


def command_argv(command, tmp_path):
    """A well-formed command line for each command."""
    positional = {
        ("arrangement", "info"): ["builtin:dual_hesse"],
        ("bounds", "check"): [str(tmp_path / "hodge.json")],
        ("paper", "verify"): [],
    }
    return [*command, *positional.get(command, ["builtin:example3"])]


def test_no_exact_command_line_constructs_a_parser(capsys, parsers_built, tmp_path):
    (tmp_path / "hodge.json").write_text('{"k2": 333, "euler": 111}')
    for command in cli.COMMANDS:
        argv = command_argv(command, tmp_path)
        assert run(argv) == 0
        assert run(["--format", "json", *argv, "--out", str(tmp_path / "report")]) == 0
    assert run(["--format", "json", "bounds", "check", "/no/such/file.json"]) == 2
    assert parsers_built == []
    assert cli._build_parser.cache_info().currsize == 0
    # help for a group builds the whole tree, once for the process
    assert run(["cover", "--help"]) == 0
    assert "planecover" in parsers_built and cli._build_parser.cache_info().currsize == 1
    parsers_built.clear()
    assert run(["cover", "--help"]) == 0
    assert parsers_built == []


def test_every_declared_argument_is_one_the_direct_reading_takes():
    # `_read_exact` reads a positional, a `store_true` flag or a typed
    # option, each declared under one name
    for command, (_, _, arguments, _) in cli.COMMANDS.items():
        for names, kwargs in arguments:
            assert len(names) == 1, command
            assert set(kwargs) <= {"help", "action", "type", "default"}, command
            assert kwargs.get("action", "store_true") == "store_true", command
            assert names[0].startswith("--") or set(kwargs) == {"help"}, command


def read_as(parse, argv, capsys):
    """What a parse of argv gives: the namespace (or the exit code) and its output."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


FAST_SHAPES = {
    "plain": lambda a: a,
    "flags-first": lambda a: ["--format", "json", "--out", "F", *a],
    "flags-last": lambda a: [*a, "--format", "json", "--out", "F"],
    "equals-first": lambda a: ["--format=json", "--out=F", *a],
    "equals-last": lambda a: [*a, "--format=json", "--out=F"],
    "abbreviated-first": lambda a: ["--form", "json", *a],
    "abbreviated-last": lambda a: [*a, "--form", "json"],
    "override": lambda a: ["--format", "json", "--out", "F", *a, "--format", "text"],
    "help": lambda a: [*a[:2], "--help"],
    "bad-format-last": lambda a: [*a, "--format", "xml"],
    "double-dash": lambda a: [*a[:2], "--", *a[2:]],
}
# the shapes `cli._read_exact` reads; it leaves every other one to the full tree
DIRECT_SHAPES = {"plain", "flags-first", "flags-last", "override"}


@pytest.mark.parametrize("shape", list(FAST_SHAPES))
@pytest.mark.parametrize("command", list(cli.COMMANDS), ids=" ".join)
def test_command_parser_reads_argv_as_the_full_tree(capsys, tmp_path, command, shape):
    clear_parsers()
    argv = FAST_SHAPES[shape](command_argv(command, tmp_path))
    fast = read_as(cli._parse, argv, capsys)
    assert cli._build_parser.cache_info().currsize == (shape not in DIRECT_SHAPES)
    assert fast == read_as(cli._build_parser().parse_args, argv, capsys)
    if isinstance(fast[0], dict):  # parsed, not help or an error
        text = shape in ("plain", "override", "double-dash")
        assert fast[0]["format"] == ("text" if text else "json")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["cover", "--help"], 0),
        ([], 2),
        (["cover"], 2),
        (["nosuch", "action", "x"], 2),
        (["cover", "nosuch", "builtin:example3"], 2),
        (["cover", "smoothness"], 2),
        (["--format", "xml", "cover", "smoothness", "builtin:example3"], 2),
        (["--format", "cover", "smoothness", "builtin:example3"], 2),
        (["--out", "-x", "cover", "smoothness", "builtin:example3"], 2),
        (["--format"], 2),
        (["cover", "smoothness", "builtin:example3", "--bogus"], 2),
        (["cover", "smoothness", "builtin:example3", "extra"], 2),
        (["cover", "smoothness", "builtin:example3", "--=x"], 2),
        (["cover", "--format", "json", "smoothness", "builtin:example3"], 2),
    ],
    ids=repr,
)
def test_other_command_lines_exit_as_the_full_tree(capsys, argv, code):
    clear_parsers()
    full = read_as(cli._build_parser().parse_args, argv, capsys)
    assert full[0] == code
    assert read_as(cli._parse, argv, capsys) == full
    assert run(argv) == code
    assert capsys.readouterr().err == full[2]


# command words, the flags the commands declare, words the direct reading
# leaves to the full tree, and values
VOCABULARY = [
    *sorted({word for command in cli.COMMANDS for word in command}),
    "--format", "--out", "--autos", "--k3", "-1", "--", "-h", "--form", "--out=x", "",
    "json", "text", "7", "builtin:example3",
]
words = st.lists(st.sampled_from(VOCABULARY), max_size=6)
# a flag with a value the direct reading takes, or with any word
top_flags = st.one_of(
    st.sampled_from([("--format", "json"), ("--format", "text"), ("--out", "x"), ("--out", "")]),
    st.tuples(st.sampled_from(["--format", "--out"]), st.sampled_from(VOCABULARY)),
)
# one of those, a declared flag or option, a positional, or any word
pieces = st.one_of(
    top_flags,
    st.sampled_from([("--autos",), ("--k3", "7"), ("builtin:example3",)]),
    st.sampled_from(VOCABULARY).map(lambda word: (word,)),
)


def joined(parts):
    return [word for part in parts for word in part]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        words,
        # top-level flags, a command, maybe its positional, and more words:
        # lines the direct reading takes, and lines near them
        st.builds(
            lambda before, command, ref, after: [*joined(before), *command, *ref, *joined(after)],
            st.lists(top_flags, max_size=2),
            st.sampled_from(list(cli.COMMANDS)),
            st.sampled_from([(), ("builtin:example3",), ("builtin:example3",)]),
            st.lists(pieces, max_size=3),
        ),
    )
)
@example(["--format", "json", "bounds", "check", "x", "--k3", "7", "--out", ""])
@example(["arrangement", "info", "--autos", "builtin:example3", "--autos", "--format", "text"])
@example(["--out", "x", "paper", "verify", "--out", "y"])
def test_parse_reads_any_command_line_as_the_full_tree(argv):
    def read(parse):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert read(cli._parse) == read(cli._build_parser().parse_args)


@pytest.mark.parametrize(
    "flags",
    [["--format", "json", "--out", "OUT", "cover", "invariants"], ["cover", "invariants", "--format", "json", "--out", "OUT"]],
    ids=["top-level", "leaf"],
)
def test_format_and_out_do_not_carry_over(tmp_path, capsys, flags):
    target = tmp_path / "report.json"
    assert run([str(target) if f == "OUT" else f for f in flags] + ["builtin:example3"]) == 0
    assert json.loads(target.read_text())["k2"] == 45
    code, out = capture(capsys, ["cover", "invariants", "builtin:example3"])
    assert code == 0
    assert out.startswith("[cover invariants]\n")
    assert json.loads(target.read_text())["k2"] == 45


@pytest.mark.parametrize("command", list(cli.COMMANDS), ids=" ".join)
def test_every_command_has_help(capsys, command):
    code, out = capture(capsys, [*command, "--help"])
    assert code == 0
    assert out.startswith(f"usage: planecover {' '.join(command)} [-h]")
    for names, kwargs in cli.COMMANDS[command][2]:
        assert kwargs.get("help"), names


def test_top_level_help_names_every_group(capsys):
    code, out = capture(capsys, ["--help"])
    assert code == 0
    for group, _ in cli.COMMANDS:
        assert f"    {group} " in out


def test_run_calls_the_patched_report_builder(capsys, monkeypatch):
    # the benchmark's trace replaces these names in the cli namespace
    resolved = []
    resolve = cli.resolve_cover

    def traced(ref):
        resolved.append(ref)
        return resolve(ref)

    monkeypatch.setattr(cli, "resolve_cover", traced)
    monkeypatch.setattr(cli, "real_report", lambda model, ref: {"cover": ref, "m": model.m})
    code, out = capture(capsys, ["real", "classify", "builtin:example3"])
    assert code == 0
    assert out == "[real classify]\ncover: builtin:example3\nm: 5\n"
    assert resolved == ["builtin:example3"]


def test_symmetry_search_builds_the_incidence_tables_once(capsys, monkeypatch):
    from planecover import search

    calls = []
    for name in ("_incidence", "_search_order"):
        original = getattr(search, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(search, name, counted)
    code, out = capture(capsys, ["--format", "json", "symmetry", "search", "builtin:example2"])
    assert code == 0
    assert json.loads(out)["combinatorial_automorphisms"] == 432
    assert calls == ["_incidence", "_search_order"]


def test_reproduce_examples_prints_only_the_cli_reports(capsys):
    # the script adds nothing of its own: its stdout is the concatenated
    # reports of the same ten invocations through cli.run
    commands = (("cover", "invariants"), ("symmetry", "search"), ("real", "classify"))
    expected = []
    for name in ("example1", "example2", "example3"):
        for group, action in commands:
            expected.append(capture(capsys, [group, action, f"builtin:{name}"]))
    expected.append(capture(capsys, ["paper", "verify"]))
    assert [code for code, _ in expected] == [0] * 10
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_examples.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(out for _, out in expected).encode()


# -- the JSON writer -------------------------------------------------------------

def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# nested dicts, lists and tuples, empty ones at every depth; any text; ints
# of up to 30 digits; lists of ints or of strings, which the writer joins in
# one call; and lists mixing bools and None with ints, which it must not
big_ints = st.integers(-(10**30), 10**30)
json_values = st.recursive(
    st.none() | st.booleans() | big_ints | st.text()
    | st.lists(big_ints)
    | st.lists(st.text())
    | st.lists(st.sampled_from([None, True, False, 0, 1, -1])),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"q\"b\\s\n\x00\x1f\x7f": ["é", " ", "\U0001f600", "'\"\\/"], "": {}})
@example([True, 1, False, 0, None, -(10**29) - 7, 12345678901234567890123456789])
@example([[], {}, (), [[], [{}]], {"a": [], "b": {"c": ()}}])
@example((1, (2, "3"), [True], {"z": 1, "a": -1, "m": (None,)}))
def test_the_json_writer_writes_what_json_dumps_writes(value):
    assert jsonio.dumps(value) == stdlib_json(value)


def test_every_report_is_written_as_json_dumps_writes_it(tmp_path, capsys, monkeypatch):
    """Each report of example1-3, the Kummer rungs over the quadrilateral and
    a random census-shaped cover (Hesse, inline lines, onto (Z/5)^3), in
    every command, and the text the command prints."""
    reports = []

    def recording(value):
        reports.append(value)
        return jsonio.dumps(value)

    monkeypatch.setattr(cli, "dumps", recording)
    covers = [f"builtin:example{i}" for i in (1, 2, 3)]
    for name in ("quadrilateral_5_3", "quadrilateral_5_4", "kummer_3_5"):
        m, rows = QUAD_COVERS[name]
        doc = {"arrangement": "builtin:complete_quadrilateral", "m": m, "k": len(rows[0]), "phi": rows}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        covers.append(str(path))
    census = random_smooth_cover(hesse(), 5, 3, random.Random(1))
    census_lines = {"lines": [line.as_strings() for line in census.arrangement.lines]}
    doc = {"arrangement": census_lines, "m": 5, "k": 3, "phi": [list(r) for r in census.phi.rows]}
    path = tmp_path / "census.json"
    path.write_text(json.dumps(doc))
    covers.append(str(path))
    (tmp_path / "census-arrangement.json").write_text(json.dumps(census_lines))
    hodge = tmp_path / "hodge.json"
    hodge.write_text(json.dumps(HODGE))
    commands = [[*command, ref] for ref in covers for command in (
        ["cover", "smoothness"], ["cover", "invariants"], ["characters", "list"],
        ["symmetry", "search"], ["real", "classify"],
    )]
    commands += [["arrangement", "info", ref, "--autos"] for ref in (
        "builtin:dual_hesse", "builtin:complete_quadrilateral", str(tmp_path / "census-arrangement.json"),
    )]
    commands += [["bounds", "check", str(hodge), "--k3", "1"], ["paper", "verify"]]
    for argv in commands:
        code, out = capture(capsys, ["--format", "json", *argv])
        assert code == 0
        assert out == stdlib_json(reports[-1]) + "\n"
    assert len(reports) == len(commands)
