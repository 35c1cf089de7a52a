"""Start-up: each command loads only the pipeline modules its report needs,
the package exports its names lazily, no command loads `dataclasses` or
`inspect` (the records are NamedTuples, so no code is generated at import),
only the commands that compute invariants or bounds load `fractions`, and
only a command line the direct reading leaves to the whole parser tree (help,
say) loads `argparse`.

The module sets are read in a fresh interpreter per command, so they do not
depend on what other tests imported; no timing is asserted."""

import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

import planecover

SRC = os.path.dirname(os.path.dirname(os.path.abspath(planecover.__file__)))

# one command (or none: a bare `import planecover`), what it must load, and
# what it must not load; of the cover commands only `cover invariants` loads
# the invariants modules `cover` and `intersection`, only the commands that
# search or realize line permutations load `search`, only `paper verify`
# loads `verify`, and `bounds check` loads `bounds` and `jsonio` without any
# geometry and without `verify`
CASES = {
    "import planecover": (None, set(), {
        "arrangement", "bounds", "catalog", "characters", "cli", "cover", "cyclotomic",
        "homology", "intersection", "jsonio", "linalg", "search", "symmetry", "verify",
    }),
    # incidence only: `Arrangement._search` is never built, so no `search`
    "arrangement info": (
        ["arrangement", "info", "builtin:dual_hesse"],
        {"arrangement"},
        {"search", "symmetry", "cover", "intersection", "characters", "bounds", "verify"},
    ),
    "arrangement info --autos": (
        ["arrangement", "info", "builtin:dual_hesse", "--autos"],
        {"arrangement", "search"},
        {"cover", "intersection", "characters", "symmetry", "bounds", "verify"},
    ),
    "cover smoothness": (
        ["cover", "smoothness", "builtin:example1"],
        {"homology"},
        {"cover", "intersection", "characters", "search", "symmetry", "bounds", "verify"},
    ),
    "cover invariants": (
        ["cover", "invariants", "builtin:example3"],
        {"cover", "intersection"},
        {"characters", "search", "symmetry", "bounds", "verify"},
    ),
    "characters list": (
        ["characters", "list", "builtin:example1"],
        {"characters"},
        {"cover", "intersection", "search", "symmetry", "bounds", "verify"},
    ),
    "symmetry search": (
        ["symmetry", "search", "builtin:example2"],
        {"search", "symmetry"},
        {"cover", "intersection", "characters", "bounds", "verify"},
    ),
    "real classify": (
        ["real", "classify", "builtin:example3"],
        {"search", "symmetry"},
        {"cover", "intersection", "characters", "bounds", "verify"},
    ),
    "bounds check": (
        ["bounds", "check", "HODGE"],
        {"bounds", "jsonio"},
        {"arrangement", "catalog", "cover", "cyclotomic", "homology", "intersection",
         "characters", "linalg", "search", "symmetry", "verify"},
    ),
    # help is left to the whole parser tree
    "cover --help": (["cover", "--help"], {"argparse", "gettext"}, {"catalog", "arrangement"}),
}

PROBE = """
import contextlib, io, json, os, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import planecover
    code = 0
else:
    from planecover import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([*argv, "--out", os.devnull])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("planecover.") or m in HEAVY)]))
"""

# standard-library modules that cost milliseconds to import: no command needs
# `dataclasses` (it pulls in `inspect`, `ast`, `dis` and `tokenize`), and only
# the commands with an invariants or bounds module need `fractions` (it pulls
# in `decimal`); `CycNumber` computes on integers.  Only the whole parser
# tree, built for help (HELP), loads `argparse` and the `gettext` it pulls in
PARSER = ("argparse", "gettext")
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", *PARSER)
RATIONAL = {"cover invariants", "bounds check"}
HELP = {"cover --help"}


def fresh_modules(code, *args):
    """The module names a fresh interpreter holds after running `code`."""
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{code}", *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def loaded_modules(argv):
    code, modules = fresh_modules(PROBE, json.dumps(argv))
    return code, {m.removeprefix("planecover.") for m in modules}


@functools.cache
def bare_interpreter_modules():
    """What `python -c pass` loads of HEAVY on this Python and site setup."""
    return set(fresh_modules("import json, sys; print(json.dumps([m for m in HEAVY if m in sys.modules]))"))


@pytest.mark.parametrize("case", list(CASES))
def test_command_loads_only_its_modules(case, tmp_path):
    argv, needed, unused = CASES[case]
    if argv is not None and "HODGE" in argv:
        hodge = tmp_path / "hodge.json"
        hodge.write_text(json.dumps({"k2": 333, "euler": 111, "p_plus": 0, "p_minus": 36,
                                     "components": [[1, 5, 1]]}))
        argv = [str(hodge) if a == "HODGE" else a for a in argv]
    code, modules = loaded_modules(argv)
    assert code == 0
    assert needed <= modules
    assert not modules & unused, sorted(modules & unused)
    assert "dataclasses" not in modules
    # some site set-ups import `inspect` (or another of these) before any
    # planecover code runs
    unneeded = {"inspect"} | (set() if case in RATIONAL else {"fractions", "decimal"})
    unneeded |= set() if case in HELP else set(PARSER)
    for name in unneeded & modules:
        assert name in bare_interpreter_modules(), name


def test_paper_verify_as_main_never_imports_cli_again():
    """Run as `python -m planecover.cli`, cli is `__main__`; `verify` reads
    the builders from that module object, so `planecover.cli` is never
    imported (compiled and run a second time)."""
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "planecover.cli", "paper", "verify"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0 and "mismatch_count: 0" in out.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert "planecover.verify" in imported
    assert "planecover.cli" not in imported


def test_every_export_is_the_defining_modules_object(monkeypatch):
    from planecover import symmetry

    for name in planecover.__all__:
        module = importlib.import_module(f"planecover.{planecover._MODULE_OF[name]}")
        assert getattr(planecover, name) is vars(module)[name], name
    # read at each access, never cached in the package
    monkeypatch.setattr(symmetry, "klein_model", "patched")
    assert planecover.klein_model == "patched"


def test_dir_lists_every_export():
    assert set(planecover.__all__) <= set(dir(planecover))
    assert "__version__" in dir(planecover)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        planecover.no_such_name
    with pytest.raises(ImportError):
        from planecover import no_such_name  # noqa: F401
