"""What only `bounds check` and `paper verify` run: the hodge document
reader behind `bounds check`, and the bundled reference values, recomputed
from the commands' own reports and diffed.

`cli.bounds_report` and `cli.verify_report` import this module when they
run, so no other command compiles it.  It never imports `planecover.cli`:
`current_reference_values` and `verify_report` take the cli module object
and read each report builder and resolver from it at call time.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import bounds as bounds_mod
from .jsonio import _is_int, require_object

if TYPE_CHECKING:
    from types import ModuleType

    from .bounds import Betti


# -- bounds check ----------------------------------------------------------------


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


# -- reference verification ----------------------------------------------------


def _load_reference() -> dict:
    from importlib import resources

    with resources.files("planecover.golden").joinpath("reference.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def current_reference_values(cli: ModuleType) -> dict:
    """Recompute everything the bundled reference file pins down.

    A field that some command prints is read from that command's report,
    built by the name `cli.COMMANDS` calls, read from the module `cli`; only
    the fields that no command prints are computed here."""
    from .cover import nonnegative_solutions

    out: dict = {"characters": {}}
    for name in ("dual_hesse", "complete_quadrilateral"):
        ref = f"builtin:{name}"
        arr = cli.resolve_arrangement(ref)
        info = cli.arrangement_report(arr, ref, with_autos=True)
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
        cover = cli.resolve_cover(ref)
        model = cli._klein_model(cover)
        inv = cli.invariants_report(cover, ref)
        sym = cli.symmetry_report(model, ref)
        real = cli.real_report(model, ref)
        if i < 3:  # A1 and A2 are the character sets of example1 and example2
            chars = cli.characters_report(cover, ref)["characters"]
            out["characters"][f"A{i}"] = [c["vector"] for c in chars]
        out[name] = {
            "smooth": cli.smoothness_report(cover, ref)["smooth"],
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
    h11 = cli.bounds_report(surface)["hodge"]["h11"]
    split = {**surface, "p_plus": 0, "p_minus": h11 - 1}
    checks = [cli.bounds_report(split, k3) for k3 in (0, 1, 2)]
    b = checks[0]
    fake = bounds_mod.fake_plane_involution_check()
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


def verify_report(cli: ModuleType) -> tuple[dict, int]:
    """`paper verify`'s report and exit code: the reference diffed against
    `current_reference_values(cli)`, section by section."""
    reference = _load_reference()
    actual = current_reference_values(cli)
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
