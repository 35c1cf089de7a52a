"""Run the three bundled cover pipelines end to end and print the reports.

Usage: python scripts/reproduce_examples.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planecover.bounds import hodge_from_surface, is_maximal, smith_total
from planecover.catalog import builtin_cover
from planecover.cover import (
    generator_words,
    invariants,
    three_canonical_decomposition,
    word_str,
)
from planecover.symmetry import classify_real_structures, klein_model


def main() -> None:
    for name in ("example1", "example2", "example3"):
        cover = builtin_cover(name)
        rep = invariants(cover)
        model = klein_model(cover)
        classes = classify_real_structures(model)
        dec = three_canonical_decomposition(cover)
        print(f"== {name} ==")
        print(f"  smooth: {cover.certificate.ok}")
        print(f"  K^2 = {rep.k2}, e = {rep.euler}, chi = {rep.chi}, K^2 - 3e = {rep.my_defect}")
        print(f"  line curves: self = {rep.line_curves[0].self_int}, "
              f"K-degree = {rep.line_curves[0].k_degree}, genus = {rep.line_curves[0].genus}")
        print(f"  point curves: self = {rep.point_curves[0].self_int}, "
              f"K-degree = {rep.point_curves[0].k_degree}, genus = {rep.point_curves[0].genus}")
        print(f"  3K coefficients: lines {dec.line_coeffs}, points {dec.point_coeffs}")
        for j, w in enumerate(generator_words(cover.phi)):
            print(f"  {word_str(w, j, cover.m)}")
        print(f"  Klein group order: {model.order} (anti elements: {model.has_anti})")
        for cls in classes:
            print(
                f"  real class {cls.perm_cycles}: size {cls.size}, "
                f"fixed lines {cls.fixed_lines}, real blown centers {cls.n_real_blown}, "
                f"real part betti {cls.real_part_betti}"
            )
        if not classes:
            print("  no real structures (and no anti-holomorphic diffeomorphisms)")
        h = hodge_from_surface(rep.k2, rep.euler, q=0, nu=0)
        print(f"  Smith total upstairs: {smith_total(h)}")
        if classes:
            betti = classes[0].real_part_betti
            print(
                f"  maximal: {is_maximal(h._replace(components=(betti,)))} "
                f"(real total {sum(betti)} vs {smith_total(h)})"
            )
        print()


if __name__ == "__main__":
    main()
