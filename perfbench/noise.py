"""The machine's speed, measured with a fixed reference loop.

Usage: python3 perfbench/noise.py [--windows 10] [--seconds 6]

The reference loop does the kind of pure-Python work planecover does:
exact `Fraction` arithmetic, as in its geometry, and composition of small
permutation tuples with vectors mod m, as in its group searches.  Run as a
script it prints the loop steps each back-to-back window completed, with
their median and the spread (max - min) / median: a figure that moves by
less than this between two runs cannot be told apart from the machine's
own variation.

`SpeedMeter` samples the loop between the benchmark's queries; run.py
divides every time it reports by the meter's slowdown over the run.
"""

from __future__ import annotations

import argparse
import statistics
import time
from fractions import Fraction

# One reference_step at nominal speed, a round figure so that scaled times
# read close to seconds: between the benchmark's queries on a 2-vCPU 2.0 GHz
# Xeon virtual machine with Python 3.11 a step took 0.45 to 0.9 ms.
NOMINAL_STEP_S = 0.0005
_PERMS = [tuple((i * a + b) % 7 for i in range(7)) for a in range(1, 7) for b in range(7)]


def reference_step() -> int:
    """One fixed piece of reference work; the result only keeps it from being idle."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
    seen = set()
    v = (1, 2, 3)
    for p in _PERMS:
        q = tuple(p[j] for j in _PERMS[len(seen) % len(_PERMS)])
        v = tuple((a + b) % 5 for a, b in zip(v, q))
        seen.add((q, v))
    return acc.numerator % 7 + len(seen)


class SpeedMeter:
    """Reference steps run between queries, and the time they took.

    After a query of t seconds the meter runs the loop for
    max(LEAST_S, SHARE * t), so a long query is followed by a long sample of
    the machine's speed and a short one by a short sample.
    """

    LEAST_S = 0.05
    SHARE = 0.25

    def __init__(self) -> None:
        self.steps = 0
        self.seconds = 0.0
        self.samples: list[tuple[float, int, float]] = []  # (start, steps, seconds)

    def sample_after(self, query_s: float) -> None:
        target = max(self.LEAST_S, self.SHARE * query_s)
        start = time.perf_counter()
        n = 0
        while True:
            reference_step()
            n += 1
            now = time.perf_counter()
            if now - start >= target:
                break
        self.steps += n
        self.seconds += now - start
        self.samples.append((start, n, now - start))

    def merge(self, other: dict) -> None:
        """Add the samples of a meter that ran in another process."""
        self.steps += other["steps"]
        self.seconds += other["seconds"]
        self.samples += [tuple(s) for s in other["samples"]]

    def state(self) -> dict:
        return {"steps": self.steps, "seconds": self.seconds, "samples": self.samples}

    def slowdown(self) -> float:
        """Time per reference step over its nominal: above 1 on a slow stretch."""
        return self.seconds / self.steps / NOMINAL_STEP_S


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--windows", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args()
    counts = []
    for _ in range(args.windows):
        end = time.perf_counter() + args.seconds
        n = 0
        while time.perf_counter() < end:
            reference_step()
            n += 1
        counts.append(n)
    med = statistics.median(counts)
    print("reference steps per window:", counts)
    print(f"median {med}, {args.seconds / med * 1e3:.4f} ms per step, "
          f"spread (max - min) / median = {(max(counts) - min(counts)) / med:.3f}")


if __name__ == "__main__":
    main()
