"""README's examples run as printed and give the values its text states:
the `## Library` example, the command-line examples, and the per-curve
numbers it quotes for disconnected preimages."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from planecover.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def library_example() -> str:
    section = TEXT.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_gives_its_stated_values():
    names: dict = {}
    exec(compile(library_example(), "README.md", "exec"), names)
    rep, model, classes = names["rep"], names["model"], names["classes"]
    assert (rep.k2, rep.euler) == (333, 111)
    assert model.order == 50
    assert [r.anti for r in model.realized] == [False, True]
    assert [c.real_part_betti for c in classes] == [(1, 5, 1)]


def run_text(argv):
    """The exit code and the lines printed by one command."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().splitlines()


def command_examples() -> list[list[str]]:
    """The command lines of the `sh` block that runs the builtin covers,
    without the program name and the comments."""
    block = next(b for b in re.findall(r"```sh\n(.*?)```", TEXT, re.S) if "builtin:example1" in b)
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.strip()]


def test_the_command_examples_print_their_stated_values():
    invariants, classify, search = (run_text(argv) for argv in command_examples())
    assert invariants[0] == classify[0] == search[0] == 0
    assert {"k2: 333", "euler: 111"} <= set(invariants[1])
    assert "class_count: 2" in classify[1]
    assert json.loads("\n".join(search[1]))["klein_order"] == 50


def readme_rows() -> list[list[list[int]]]:
    """Each `phi rows` list the README quotes, in order."""
    return [
        [json.loads(row) for row in rows.split()]
        for rows in re.findall(r"phi rows `([^`]*)`", TEXT, re.S)
    ]


def invariants_lines(tmp_path, m, rows):
    path = tmp_path / "cover.json"
    doc = {"arrangement": "builtin:complete_quadrilateral", "m": m, "k": len(rows[0]), "phi": rows}
    path.write_text(json.dumps(doc))
    code, lines = run_text(["cover", "invariants", str(path)])
    assert code == 0
    return lines


def test_a_disconnected_preimage_prints_its_whole_genus(tmp_path):
    lines = invariants_lines(tmp_path, 5, readme_rows()[0])
    assert any(line.startswith("  - label=C1, self_int=-5,") and line.endswith(", genus=6") for line in lines)


KUMMER_2_5 = [[int(i == j) for j in range(5)] for i in range(5)] + [[1] * 5]


@pytest.mark.parametrize(
    "rows, k2, euler, chi, genus",
    [(readme_rows()[1], 0, 12, 1, -1), (KUMMER_2_5, 0, 24, 2, -3)],
    ids=["enriques_2_4", "k3_kummer_2_5"],
)
def test_m2_quadrilateral_covers_print_negative_genera(tmp_path, rows, k2, euler, chi, genus):
    lines = invariants_lines(tmp_path, 2, rows)
    assert {f"k2: {k2}", f"euler: {euler}", f"chi: {chi}"} <= set(lines)
    line_curves = [line for line in lines if line.startswith("  - label=C")]
    assert len(line_curves) == 6
    assert all(line.endswith(f", genus={genus}") for line in line_curves)
