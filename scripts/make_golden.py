"""Regenerate src/planecover/golden/reference.json.

The two 25-element character lists are transcribed reference data and are
asserted, not computed: regeneration fails loudly if the library stops
reproducing them.  Everything else is recomputed by the library.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planecover.catalog import PHI1, PHI2
from planecover.characters import enumerate_characters
from planecover import cli
from planecover.verify import current_reference_values

A1_NONZERO = [
    (1, 1, 1, 3, 3, 0, 0, 0, 1), (2, 2, 2, 1, 1, 0, 0, 0, 2),
    (3, 3, 3, 4, 4, 0, 0, 0, 3), (4, 4, 4, 2, 2, 0, 0, 0, 4),
    (1, 0, 1, 3, 0, 1, 1, 2, 1), (2, 0, 2, 1, 0, 2, 2, 4, 2),
    (3, 0, 3, 4, 0, 3, 3, 1, 3), (4, 0, 4, 2, 0, 4, 4, 3, 4),
    (2, 1, 2, 1, 3, 1, 1, 2, 2), (4, 2, 4, 2, 1, 2, 2, 4, 4),
    (1, 3, 1, 3, 4, 3, 3, 1, 1), (3, 4, 3, 4, 2, 4, 4, 3, 3),
    (3, 1, 3, 4, 3, 2, 2, 4, 3), (1, 2, 1, 3, 1, 4, 4, 3, 1),
    (4, 3, 4, 2, 4, 1, 1, 2, 4), (2, 4, 2, 1, 2, 3, 3, 1, 2),
    (4, 1, 4, 2, 3, 3, 3, 1, 4), (3, 2, 3, 4, 1, 1, 1, 2, 3),
    (2, 3, 2, 1, 4, 4, 4, 3, 2), (1, 4, 1, 3, 2, 2, 2, 4, 1),
    (0, 1, 0, 0, 3, 4, 4, 3, 0), (0, 2, 0, 0, 1, 3, 3, 1, 0),
    (0, 3, 0, 0, 4, 2, 2, 4, 0), (0, 4, 0, 0, 2, 1, 1, 2, 0),
]

A2_NONZERO = [
    (0, 1, 1, 0, 1, 0, 1, 1, 0), (0, 2, 2, 0, 2, 0, 2, 2, 0),
    (0, 3, 3, 0, 3, 0, 3, 3, 0), (0, 4, 4, 0, 4, 0, 4, 4, 0),
    (1, 0, 0, 1, 0, 1, 2, 2, 3), (2, 0, 0, 2, 0, 2, 4, 4, 1),
    (3, 0, 0, 3, 0, 3, 1, 1, 4), (4, 0, 0, 4, 0, 4, 3, 3, 2),
    (1, 1, 1, 1, 1, 1, 3, 3, 3), (2, 2, 2, 2, 2, 2, 1, 1, 1),
    (3, 3, 3, 3, 3, 3, 4, 4, 4), (4, 4, 4, 4, 4, 4, 2, 2, 2),
    (1, 2, 2, 1, 2, 1, 4, 4, 3), (2, 4, 4, 2, 4, 2, 3, 3, 1),
    (3, 1, 1, 3, 1, 3, 2, 2, 4), (4, 3, 3, 4, 3, 4, 1, 1, 2),
    (1, 3, 3, 1, 3, 1, 0, 0, 3), (2, 1, 1, 2, 1, 2, 0, 0, 1),
    (3, 4, 4, 3, 4, 3, 0, 0, 4), (4, 2, 2, 4, 2, 4, 0, 0, 2),
    (1, 4, 4, 1, 4, 1, 1, 1, 3), (2, 3, 3, 2, 3, 2, 2, 2, 1),
    (3, 2, 2, 3, 2, 3, 3, 3, 4), (4, 1, 1, 4, 1, 4, 4, 4, 2),
]

ZERO9 = (0,) * 9
A1 = sorted(A1_NONZERO + [ZERO9])
A2 = sorted(A2_NONZERO + [ZERO9])


def main() -> None:
    assert tuple(enumerate_characters(PHI1)) == tuple(A1), "library disagrees with the A1 reference list"
    assert tuple(enumerate_characters(PHI2)) == tuple(A2), "library disagrees with the A2 reference list"

    reference = current_reference_values(cli)
    reference["characters"] = {
        "A1": [list(a) for a in A1],
        "A2": [list(a) for a in A2],
    }
    out = Path(__file__).resolve().parents[1] / "src" / "planecover" / "golden" / "reference.json"
    out.write_text(json.dumps(reference, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
