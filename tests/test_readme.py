"""README's `## Library` example runs as printed and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_gives_its_stated_values():
    names: dict = {}
    exec(compile(library_example(), "README.md", "exec"), names)
    rep, model, classes = names["rep"], names["model"], names["classes"]
    assert (rep.k2, rep.euler) == (333, 111)
    assert model.order == 50
    assert [r.anti for r in model.realized] == [False, True]
    assert [c.real_part_betti for c in classes] == [(1, 5, 1)]
