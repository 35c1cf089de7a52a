"""Command-line front end.

Each `<group> <action>` subcommand is declared once, in `COMMANDS`;
`paper verify` recomputes the bundled reference values from the commands'
own reports and diffs them.  Identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .arrangement import Arrangement, perm_cycles_str
from .catalog import read_json, require_object, resolve_arrangement, resolve_cover
from .cyclotomic import _is_int
from .homology import CoverModel

if TYPE_CHECKING:
    from .bounds import Betti
    from .symmetry import KleinModel


# -- report builders (dicts with deterministic ordering) ------------------------
#
# Every command loads `catalog` and the modules it imports.  Each builder
# imports the other pipeline modules its report needs when it runs, so a
# command loads only those (only `cover invariants` and `paper verify` load
# the invariants modules `cover` and `intersection`) and reads each name from
# its defining module at call time.  The builders are the only place a record
# becomes a report dict.  The symmetry and real builders take the Klein model,
# built once per command (`_klein_model`), so `paper verify` builds one per
# example for both.


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
        "blown_points": [
            list(cover.arrangement.points[pid].incident_1based())
            for pid in cover.blown_ids
        ],
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
    from .characters import enumerate_characters, r_profile, unique_profile_elements

    charset = enumerate_characters(cover.phi)
    uniques = unique_profile_elements(charset, cover.m)
    return {
        "cover": ref,
        "count": len(charset),
        "characters": [
            {"vector": list(a), "profile": list(r_profile(a, cover.m))}
            for a in charset
        ],
        "profile_unique": [list(a) for a in uniques],
    }


def _klein_model(cover: CoverModel) -> KleinModel:
    from .symmetry import klein_model

    return klein_model(cover)


def symmetry_report(model: KleinModel, ref: str) -> dict:
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


_REQUIRED = object()


def _hodge_int(data: dict, name: str, default: object = _REQUIRED) -> int | None:
    """An integer field of hodge JSON; a missing optional one (or null where
    the default is None) gives the default."""
    value = data.get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"hodge JSON needs an integer {name!r}")
    if value is not default and not _is_int(value):
        raise ValueError(f"hodge JSON field {name!r} must be an integer, got {value!r}")
    return value


def _hodge_components(data: dict) -> tuple[Betti, ...]:
    comps = data.get("components", [])
    if not isinstance(comps, list):
        raise ValueError(f"hodge JSON field 'components' must be a list, got {comps!r}")
    for idx, c in enumerate(comps):
        if not (
            isinstance(c, list)
            and len(c) == 3
            and all(_is_int(b) and b >= 0 for b in c)
        ):
            raise ValueError(
                f"hodge JSON field components[{idx}] must be 3 non-negative integer "
                f"Betti numbers, got {c!r}"
            )
    return tuple(tuple(c) for c in comps)


def bounds_report(data: dict, k3: int | None = None) -> dict:
    """Bound arithmetic on hodge JSON: an object with integer k2 and euler
    (and optional q), or integer h10, h20 and h11, never fields of both (any
    of k2, euler or q selects the first form); optional integer nu, p_plus,
    p_minus and k3 (the `--k3` argument overrides it), and components as
    Betti triples."""
    from . import bounds as bounds_mod

    require_object(data, "hodge")
    surface = [key for key in ("k2", "euler", "q") if key in data]
    hodge = [key for key in ("h10", "h20", "h11") if key in data]
    if surface and hodge:
        raise ValueError(
            "hodge JSON must use one form, k2/euler/q or h10/h20/h11, "
            f"got {', '.join(surface + hodge)}"
        )
    optional = {
        "nu": _hodge_int(data, "nu", 0),
        "p_plus": _hodge_int(data, "p_plus", None),
        "p_minus": _hodge_int(data, "p_minus", None),
        "components": _hodge_components(data),
    }
    document_k3 = _hodge_int(data, "k3", None)
    if k3 is None:
        k3 = document_k3
    for value in (k3, document_k3):
        if value is not None and value < 0:
            raise ValueError(f"k3 must be non-negative, got {value}")
    if surface:
        h = bounds_mod.hodge_from_surface(
            _hodge_int(data, "k2"),
            _hodge_int(data, "euler"),
            q=_hodge_int(data, "q", 0),
            **optional,
        )
    else:
        h = bounds_mod.HodgeData(
            h10=_hodge_int(data, "h10"),
            h20=_hodge_int(data, "h20"),
            h11=_hodge_int(data, "h11"),
            **optional,
        )
    out: dict = {
        "hodge": {"h10": h.h10, "h20": h.h20, "h11": h.h11, "nu": h.nu},
        "smith_total": bounds_mod.smith_total(h),
        "my_identity": bounds_mod.my_identity(h),
    }
    if h.components:
        out["real_betti_total"] = bounds_mod.real_betti_total(h.components)
        out["maximal"] = bounds_mod.is_maximal(h)
        out["lefschetz_trace"] = bounds_mod.lefschetz_trace(h)
        out["component_exclusions"] = [
            bounds_mod.small_component_exclusion(c) for c in h.components
        ]
    if h.p_plus is not None and bounds_mod.my_identity(h):
        out["h20_lower_bound"] = bounds_mod.prop_h20_lower_bound(h)
    if k3 is not None and h.p_plus is not None:
        verdict = bounds_mod.component_count_bound(h, k3)
        out["component_count"] = {
            "k3": k3,
            "feasible": verdict.feasible,
            "note": verdict.note,
        }
    return out


# -- reference verification ------------------------------------------------------


def _load_reference() -> dict:
    from importlib import resources

    with resources.files("planecover.golden").joinpath("reference.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def current_reference_values() -> dict:
    """Recompute everything the bundled reference file pins down.

    A field that some command prints is read from that command's report,
    built by the global name `COMMANDS` calls; only the fields that no
    command prints are computed here."""
    from .bounds import fake_plane_involution_check
    from .cover import nonnegative_solutions

    out: dict = {"characters": {}}
    for name in ("dual_hesse", "complete_quadrilateral"):
        ref = f"builtin:{name}"
        arr = resolve_arrangement(ref)
        info = arrangement_report(arr, ref, with_autos=True)
        out[name] = {key: info[key] for key in ("t", "triples", "automorphism_order")}
        if name == "dual_hesse":
            out[name]["triples_per_line"] = [
                sum(i in t for t in info["triples"]) for i in range(1, info["n"] + 1)
            ]
            out[name]["real_lines"] = [
                i + 1
                for i, line in enumerate(arr.lines)
                if all(c.is_real() for c in line.coeffs)
            ]
        else:
            out[name]["doubles"] = sorted(p["lines"] for p in info["points"] if p["r"] == 2)
    for i, name in enumerate(("example1", "example2", "example3"), 1):
        ref = f"builtin:{name}"
        cover = resolve_cover(ref)
        model = _klein_model(cover)
        inv = invariants_report(cover, ref)
        sym = symmetry_report(model, ref)
        real = real_report(model, ref)
        if i < 3:  # A1 and A2 are the character sets of example1 and example2
            chars = characters_report(cover, ref)["characters"]
            out["characters"][f"A{i}"] = [c["vector"] for c in chars]
        out[name] = {
            "smooth": smoothness_report(cover, ref)["smooth"],
            **{key: inv[key] for key in ("k2", "euler", "chi", "my_defect", "generator_words")},
            **{
                f"{kind}_{label}": sorted({c[field] for c in inv[f"{kind}_curves"]})
                for kind in ("line", "point")
                for label, field in (
                    ("self", "self_int"), ("k_degree", "k_degree"), ("genus", "genus")
                )
            },
            # every builtin 3K distribution is integral
            "three_canonical_lines": [int(c) for c in inv["three_canonical"]["line_coeffs"]],
            "three_canonical_points": [int(c) for c in inv["three_canonical"]["point_coeffs"]],
            "klein_order": sym["klein_order"],
            "has_anti": sym["has_anti"],
            "realized": [[r["perm"], r["anti"]] for r in sym["realized"]],
            "real_class_count": real["class_count"],
            "real_classes": [
                {
                    "fixed_lines": c["fixed_lines"],
                    "n_real_blown": len(c["real_blown_points"]),
                    "euler": c["real_part_euler"],
                    "betti": c["real_part_betti"],
                }
                for c in real["classes"]
            ],
        }
    # example2's surface as `bounds check` reads it: the computed K^2 and e,
    # with q = 0 assumed (wrong for example2, ROADMAP item 6), and the Betti
    # numbers of its one real class as the real part
    ex2 = out["example2"]
    surface = {
        "k2": ex2["k2"],
        "euler": ex2["euler"],
        "q": 0,
        "components": [c["betti"] for c in ex2["real_classes"][:1]],
    }
    h11 = bounds_report(surface)["hodge"]["h11"]
    split = {**surface, "p_plus": 0, "p_minus": h11 - 1}
    checks = [bounds_report(split, k3) for k3 in (0, 1, 2)]
    b = checks[0]
    fake = fake_plane_involution_check()
    out["bounds"] = {
        "nine_line_smith_total": b["smith_total"],
        "nine_line_hodge": [b["hodge"][h] for h in ("h10", "h20", "h11")],
        "example2_real_total": b.get("real_betti_total"),
        "example2_maximal": b.get("maximal"),
        "example2_lefschetz_trace": b.get("lefschetz_trace"),
        "filter_7_12_27": [list(s) for s in nonnegative_solutions((7, 12), 27)],
        "filter_7_12_9": [list(s) for s in nonnegative_solutions((7, 12), 9)],
        "fake_plane": {**fake._asdict(), "holomorphic_sum": str(fake.holomorphic_sum)},
        "h20_lower_bound": b.get("h20_lower_bound"),
        "component_count_infeasible": [not r["component_count"]["feasible"] for r in checks],
    }
    return out


def _diff(expected, actual, path: str, mismatches: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                mismatches.append(f"{path}.{key}: unexpected")
            elif key not in actual:
                mismatches.append(f"{path}.{key}: missing")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", mismatches)
    elif expected != actual:
        mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")


def verify_report() -> tuple[dict, int]:
    reference = _load_reference()
    actual = current_reference_values()
    sections = {}
    total_mismatches: list[str] = []
    for section in sorted(set(reference) | set(actual)):
        mismatches: list[str] = []
        _diff(reference.get(section), actual.get(section), section, mismatches)
        sections[section] = {"ok": not mismatches, "mismatches": mismatches}
        total_mismatches.extend(mismatches)
    report = {
        "sections": sections,
        "ok": not total_mismatches,
        "mismatch_count": len(total_mismatches),
    }
    return report, (0 if not total_mismatches else 1)


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
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
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
        lambda a: (symmetry_report(_klein_model(resolve_cover(a.ref)), a.ref), 0),
    ),
    ("real", "classify"): (
        "real structure classification",
        "conjugacy classes of real structures",
        (_COVER_REF,),
        lambda a: (real_report(_klein_model(resolve_cover(a.ref)), a.ref), 0),
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


def _add_command_arguments(
    parser: argparse.ArgumentParser, arguments: tuple
) -> argparse.ArgumentParser:
    # the top-level flags are accepted after the command too; SUPPRESS keeps
    # the command's parser from clobbering a value parsed at the top level
    parser.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)
    parser.add_argument("--out", default=argparse.SUPPRESS)
    for names, kwargs in arguments:
        parser.add_argument(*names, **kwargs)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level flags, a parser per group and per command."""
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
        _add_command_arguments(actions[group].add_parser(action, help=action_help), arguments)
    return parser


def _command_parser(group: str, action: str) -> argparse.ArgumentParser:
    """One command's parser, as the full tree builds it for that command."""
    parser = argparse.ArgumentParser(prog=f"planecover {group} {action}")
    return _add_command_arguments(parser, COMMANDS[group, action][2])


# the parsers built so far, kept for the life of the process:
# (group, action) -> that command's parser, None -> the full tree
_PARSERS: dict[tuple[str, str] | None, argparse.ArgumentParser] = {}


def _parser(key: tuple[str, str] | None) -> argparse.ArgumentParser:
    if key not in _PARSERS:
        _PARSERS[key] = _build_parser() if key is None else _command_parser(*key)
    return _PARSERS[key]


def _split_command(argv: list[str]) -> tuple[argparse.Namespace, list[str]] | None:
    """A command line `[--format F] [--out O] <group> <action> ...` as the
    full tree's top level reads it: the namespace it fills and the arguments
    it hands to the command's parser.  None for any other command line (help,
    no command, an error at the top level or a spelling this reader does not
    follow): the full tree parses those."""
    top = {"format": "text", "out": None}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        # --format, --out or an abbreviation, with its value after "=" or next
        name, eq, value = argv[i].partition("=")
        dest = next((d for d in top if len(name) > 2 and f"--{d}".startswith(name)), None)
        if dest is None:
            return None
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
        top[dest] = value
        i += 1
    command, rest = tuple(argv[i : i + 2]), argv[i + 2 :]
    # the top level rejects "--=..." anywhere as ambiguous, before any command parses
    if top["format"] not in _FORMATS or command not in COMMANDS or any(
        a.startswith("--=") for a in rest
    ):
        return None
    return argparse.Namespace(**top, group=command[0], action=command[1]), rest


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full tree's reading of argv, from the one command's parser when
    argv names a command and that parser takes every argument."""
    split = _split_command(argv)
    if split is not None:
        namespace, rest = split
        args, extra = _parser((namespace.group, namespace.action)).parse_known_args(
            rest, namespace
        )
        if not extra:
            return args
    return _parser(None).parse_args(argv)


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
