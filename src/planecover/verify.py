"""What only `paper verify` runs: the bundled reference values, recomputed
from the commands' own reports and diffed.

`cli.verify_report` imports this module when it runs, so no other command
compiles it.  It never imports `planecover.cli`: `current_reference_values`
and `verify_report` take the cli module object and read each report
builder and resolver from it at call time, `cli.bounds_report` (which reads
the hodge document in `bounds`) included.  An example's Klein model is
`catalog.klein_model` of its cover, which `catalog` keeps with the cover,
so the symmetry and real reports share one model.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .bounds import fake_plane_involution_check
from .catalog import klein_model

if TYPE_CHECKING:
    from types import ModuleType


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
        model = klein_model(cover)
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
