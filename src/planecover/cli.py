"""Command-line front end.

Each `<group> <action>` subcommand is declared once, in `COMMANDS`;
`paper verify` recomputes the bundled reference values from the commands'
own reports and diffs them (`verify`).  Identical inputs produce
byte-identical reports.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .jsonio import dumps, read_json

if TYPE_CHECKING:
    import argparse

    from .arrangement import Arrangement
    from .homology import CoverModel
    from .symmetry import KleinModel


# -- report builders (dicts with deterministic ordering) ------------------------
#
# Of planecover, this module imports only `jsonio` when it loads: the reader
# every command that takes a document loads anyway, through `catalog` or
# `bounds`, and the JSON report writer (`_emit`).  The resolvers below import
# `catalog` (and through it `arrangement`, `homology` and `linalg`) when a
# handler resolves an arrangement or a cover, so `bounds check` loads no
# geometry.  Each builder imports the other pipeline modules its report needs
# when it runs, so a command loads only those (only `cover invariants` and
# `paper verify` load the invariants modules `cover` and `intersection`) and
# reads each name from its defining module at call time.  The builders (and, for `bounds check`
# and `paper verify`, `bounds` and `verify`) are the only place a record
# becomes a report dict.  The symmetry and real builders take the Klein
# model, which a cover keeps (`CoverModel.klein_model`), and `catalog` keeps
# the last cover it resolved, so the commands on one cover in a row, and
# `paper verify` on each example, build one model for both.


def resolve_arrangement(ref: str) -> Arrangement:
    from . import catalog

    return catalog.resolve_arrangement(ref)


def resolve_cover(ref: str) -> CoverModel:
    from . import catalog

    return catalog.resolve_cover(ref)


def arrangement_report(arr: Arrangement, ref: str, with_autos: bool) -> dict:
    report = {
        "arrangement": ref,
        "lines": [line.as_strings() for line in arr.lines],
        "n": arr.n,
        "t": {str(r): cnt for r, cnt in sorted(arr.t.items())},
        "points": [
            {
                "lines": list(p.incident_1based()),
                "r": p.r,
                "coords": [str(c) for c in p.coords],
            }
            for p in arr.points
        ],
        "triples": sorted(list(t) for t in arr.triples_1based()),
        "pair_identity_ok": True,  # enforced at build time
        "notes": list(arr.notes),
    }
    if with_autos:
        report["automorphism_order"] = arr.automorphism_order
    return report


def smoothness_report(cover: CoverModel, ref: str) -> dict:
    cert = cover.certificate
    return {
        "cover": ref,
        "m": cover.m,
        "k": cover.k,
        "blown_points": [list(p.incident_1based()) for p in cover.plane.blown_points],
        "smooth": cert.ok,
        "checks": [
            {
                "point": list(c.incident_1based),
                "kind": c.kind,
                "ok": c.ok,
                "detail": c.detail,
            }
            for c in cert.checks
        ],
    }


def invariants_report(cover: CoverModel, ref: str) -> dict:
    from .cover import generator_words, invariants, three_canonical_decomposition, word_str

    rep = invariants(cover)
    dec = three_canonical_decomposition(cover)
    words = [
        word_str(w, j, cover.m) for j, w in enumerate(generator_words(cover.phi))
    ]
    data = rep._asdict()
    for kind in ("line_curves", "point_curves"):
        data[kind] = [c._asdict() for c in data[kind]]
    data["cover"] = ref
    data["three_canonical"] = {
        **dec._asdict(),
        "line_coeffs": [str(c) for c in dec.line_coeffs],
        "point_coeffs": [str(c) for c in dec.point_coeffs],
    }
    data["generator_words"] = words
    return data


def characters_report(cover: CoverModel, ref: str) -> dict:
    from .characters import enumerate_characters, r_profile

    charset = enumerate_characters(cover.phi)
    profiles = [r_profile(a, cover.m) for a in charset]
    freq = Counter(profiles)
    return {
        "cover": ref,
        "count": len(charset),
        "characters": [
            {"vector": list(a), "profile": list(p)} for a, p in zip(charset, profiles)
        ],
        "profile_unique": [list(a) for a, p in zip(charset, profiles) if freq[p] == 1],
    }


def symmetry_report(model: KleinModel, ref: str) -> dict:
    from .arrangement import perm_cycles_str

    return {
        "cover": ref,
        "combinatorial_automorphisms": model.cover.arrangement.automorphism_order,
        "character_preserving": [perm_cycles_str(p) for p in model.character_preserving],
        "realized": [
            {
                "perm": perm_cycles_str(r.perm),
                "anti": r.anti,
                "matrix": [[str(x) for x in row] for row in r.matrix],
                "deck_action": [list(row) for row in r.deck_aut],
            }
            for r in model.realized
        ],
        "combinatorial_only": [
            {"perm": perm_cycles_str(p), "anti": anti}
            for p, anti in model.combinatorial_only
        ],
        "klein_order": model.order,
        "has_anti": model.has_anti,
        "conjugate_isomorphic": model.has_anti,
    }


def real_report(model: KleinModel, ref: str) -> dict:
    from .symmetry import classify_real_structures

    classes = classify_real_structures(model)
    return {
        "cover": ref,
        "klein_order": model.order,
        "class_count": len(classes),
        "classes": [
            {
                "perm": c.perm_cycles,
                "size": c.size,
                "fixed_lines": list(c.fixed_lines),
                "real_blown_points": [list(t) for t in c.real_blown_points],
                "real_part_euler": c.real_part_euler,
                "real_part_betti": list(c.real_part_betti)
                if c.real_part_betti
                else None,
            }
            for c in classes
        ],
    }


# `bounds check` reads its document in `bounds`, beside the arithmetic it
# feeds.  `paper verify` runs code no other command needs, kept in `verify`
# and loaded only when it runs.  `verify` reads the report builders and
# resolvers (`bounds_report` included) from this module's object at call
# time, so a patched builder is the one run.  It takes the object rather than
# importing `planecover.cli`: run as `python -m planecover.cli`, this module
# is `__main__`, and importing it by name would compile and run it again.


def bounds_report(data: dict, k3: int | None = None) -> dict:
    from . import bounds

    return bounds.bounds_report(data, k3)


def verify_report() -> tuple[dict, int]:
    from . import verify

    return verify.verify_report(sys.modules[__name__])


# -- rendering --------------------------------------------------------------------


def _render_text(command: str, report: dict) -> str:
    lines: list[str] = []

    def emit(key: str, value, indent: int = 0) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    flat = ", ".join(f"{k}={_short(v)}" for k, v in item.items())
                    lines.append(f"{pad}  - {flat}")
                else:
                    lines.append(f"{pad}  - {_short(item)}")
        else:
            lines.append(f"{pad}{key}: {_short(value)}")

    lines.append(f"[{command}]")
    for key, value in report.items():
        emit(key, value)
    return "\n".join(lines) + "\n"


def _short(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "(" + " ".join(_short(v) for v in value) + ")"
    return str(value)


def _emit(report: dict, command: str, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = dumps(report) + "\n"
    else:
        text = _render_text(command, report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------------


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


_COVER_REF = _arg("ref", help="builtin:example1|example2|example3 or a JSON file")

# (group, action) -> (group help, action help, arguments, handler); a handler
# returns the report and the exit code.  Handlers look up the report builders
# and resolvers by global name at call time, so a patched name is the one run.
COMMANDS = {
    ("arrangement", "info"): (
        "line arrangement reports",
        "incidence structure of an arrangement",
        (
            _arg("ref", help="builtin:<name> or a JSON file"),
            _arg("--autos", action="store_true", help="include the automorphism count"),
        ),
        lambda a: (arrangement_report(resolve_arrangement(a.ref), a.ref, a.autos), 0),
    ),
    ("cover", "smoothness"): (
        "branched cover reports",
        "smoothness certificate",
        (_COVER_REF,),
        lambda a: (smoothness_report(resolve_cover(a.ref), a.ref), 0),
    ),
    ("cover", "invariants"): (
        "branched cover reports",
        "numeric invariants of the smooth cover",
        (_COVER_REF,),
        lambda a: (invariants_report(resolve_cover(a.ref), a.ref), 0),
    ),
    ("characters", "list"): (
        "character set reports",
        "enumerate the character set",
        (_COVER_REF,),
        lambda a: (characters_report(resolve_cover(a.ref), a.ref), 0),
    ),
    ("symmetry", "search"): (
        "symmetry search",
        "realizable character-preserving symmetries",
        (_COVER_REF,),
        lambda a: (symmetry_report(resolve_cover(a.ref).klein_model, a.ref), 0),
    ),
    ("real", "classify"): (
        "real structure classification",
        "conjugacy classes of real structures",
        (_COVER_REF,),
        lambda a: (real_report(resolve_cover(a.ref).klein_model, a.ref), 0),
    ),
    ("bounds", "check"): (
        "topological bound arithmetic",
        "evaluate bound identities on Hodge data",
        (
            _arg("hodge", help="JSON file with the Hodge data"),
            _arg("--k3", type=int, default=None, help="count of N3 components"),
        ),
        lambda a: (bounds_report(read_json(a.hodge), a.k3), 0),
    ),
    ("paper", "verify"): (
        "bundled reference values",
        "recompute and diff the bundled reference values",
        (),
        lambda a: verify_report(),
    ),
}


_FORMATS = ("text", "json")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level flags, a parser per group and per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="planecover",
        description="Exact invariants and real-structure classification for "
        "abelian covers of the plane branched over line arrangements.",
    )
    parser.add_argument("--format", choices=_FORMATS, default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for (group, action), (group_help, action_help, arguments, _) in COMMANDS.items():
        if group not in actions:
            actions[group] = groups.add_parser(group, help=group_help).add_subparsers(
                dest="action", required=True
            )
        command = actions[group].add_parser(action, help=action_help)
        # the top-level flags are accepted after the command too; SUPPRESS
        # keeps the command's parser from clobbering a value parsed at the
        # top level
        command.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)
        command.add_argument("--out", default=argparse.SUPPRESS)
        for names, kwargs in arguments:
            command.add_argument(*names, **kwargs)
    return parser


# option -> (namespace name, type or None for a store_true flag, choices)
_TOP_OPTIONS = {"--format": ("format", str, _FORMATS), "--out": ("out", str, None)}


def _read_exact(argv: list[str]) -> SimpleNamespace | None:
    """What the full tree makes of a command line
    `[--format F] [--out O] <group> <action> ...` that spells out every flag
    exactly, read from the command's declaration in `COMMANDS`: its
    positional, `store_true` flags, typed options and the top-level flags,
    each option's value the next word.  None for any word it does not take
    exactly, which leaves the line to the full tree: help, an unknown or
    abbreviated flag, `--flag=value`, `--`, a value starting with `-`, a
    value its type or choices refuse, a missing or extra positional."""
    values = {"format": "text", "out": None}
    words = iter(argv)
    word = next(words, None)
    while word in _TOP_OPTIONS:
        if not _take(values, _TOP_OPTIONS[word], next(words, None)):
            return None
        word = next(words, None)
    command = (word, next(words, None))
    if command not in COMMANDS:
        return None
    values.update(group=command[0], action=command[1])
    positionals, options = [], dict(_TOP_OPTIONS)
    for (name,), kwargs in COMMANDS[command][2]:
        if name[0] != "-":
            positionals.append(name)
        elif kwargs.get("action") == "store_true":
            options[name] = (name[2:], None, None)
            values[name[2:]] = False
        else:
            options[name] = (name[2:], kwargs.get("type", str), kwargs.get("choices"))
            values[name[2:]] = kwargs.get("default")
    for word in words:
        if word[:1] != "-":
            if not positionals:
                return None
            values[positionals.pop(0)] = word
        elif word not in options:
            return None
        elif options[word][1] is None:
            values[options[word][0]] = True
        elif not _take(values, options[word], next(words, None)):
            return None
    return None if positionals else SimpleNamespace(**values)


def _take(values: dict, option: tuple, word: str | None) -> bool:
    """Store word as the option's value; False where the full tree must read
    it (no word, or one starting with `-`)."""
    name, kind, choices = option
    if word is None or word[:1] == "-":
        return False
    try:
        value = kind(word)
    except (TypeError, ValueError):
        return False
    if choices is not None and value not in choices:
        return False
    values[name] = value
    return True


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The full tree's reading of argv, read directly (`_read_exact`) when
    every word is one the direct reading takes."""
    args = _read_exact(argv)
    return _build_parser().parse_args(argv) if args is None else args


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    handler = COMMANDS[args.group, args.action][3]
    try:
        report, code = handler(args)
        _emit(report, f"{args.group} {args.action}", args.format, args.out)
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
