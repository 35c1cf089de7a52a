"""Print the CLI's reports for the paper's three covers, then `paper verify`.

Each bundled cover goes through `cover invariants`, `symmetry search` and
`real classify`; the reports are the CLI's own text, printed in that order.
The exit code is the first nonzero one, so a `paper verify` mismatch fails.

Usage: python scripts/reproduce_examples.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planecover.cli import run

COMMANDS = ("cover invariants", "symmetry search", "real classify")
INVOCATIONS = [
    [*command.split(), f"builtin:example{i}"] for i in (1, 2, 3) for command in COMMANDS
] + [["paper", "verify"]]

if __name__ == "__main__":
    codes = [run(argv) for argv in INVOCATIONS]
    sys.exit(next((code for code in codes if code), 0))
