"""Census of incidence symmetries and their realizability for the two
bundled arrangements: how many line permutations preserve incidence, how the
character filter cuts them down per epimorphism, and which survivors admit a
projective or anti-projective matrix.

Usage: python scripts/symmetry_census.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planecover.arrangement import perm_cycles_str, realize_symmetry
from planecover.catalog import PHI1, PHI2, PHI3, builtin_arrangement
from planecover.symmetry import character_preserving_symmetries

CASES = (
    ("dual_hesse", PHI1, "example1"),
    ("dual_hesse", PHI2, "example2"),
    ("complete_quadrilateral", PHI3, "example3"),
)


def main() -> None:
    for arr_name, phi, label in CASES:
        arr = builtin_arrangement(arr_name)
        preserving = character_preserving_symmetries(arr, phi)
        print(f"== {label} ({arr_name}) ==")
        print(f"  incidence automorphisms: {arr.automorphism_order}")
        print(f"  character-preserving:    {len(preserving)}")
        for perm in preserving:
            for anti in (False, True):
                matrix = realize_symmetry(arr, perm, anti)
                kind = "anti" if anti else "holo"
                verdict = "realized" if matrix is not None else "combinatorial only"
                print(f"    {perm_cycles_str(perm):24s} {kind:4s} -> {verdict}")
        print()


if __name__ == "__main__":
    main()
