"""One long-lived planecover process: runs query rounds through
`planecover.cli.run`, optionally under the layer trace.

Usage: python -m perfbench.worker JOB.json

JOB holds `workload`, `seed`, `work`, `reports`, `seconds`, `trace`,
`warmup`, `result` and `spans`.  The worker imports planecover, answers the
warm-up query, prints `ready` and waits for a line on stdin: `exit` ends
it, `go` starts the rounds.  Rounds repeat while another one fits into
`seconds` (at least one round).  The result file gets each round's queries
with their times and exit codes, the speed samples taken between them
(noise.SpeedMeter), and with `trace` the per-layer metrics;
the trace's spans go to `spans` as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import traceback


class Tracer:
    """Spans and counters recorded around planecover's public functions.

    Each wrapped function is replaced in every planecover module namespace
    that holds it, so a function imported by name into another module (say
    `combinatorial_automorphisms` into `symmetry`) is traced there too.
    """

    # (module, attribute, span name or None for a bare call counter, extra counter)
    TARGETS = [
        ("cli", "run", "cli.render", None),
        *[("cli", f, "cli.report", None) for f in (
            "arrangement_report", "smoothness_report", "invariants_report",
            "characters_report", "symmetry_report", "real_report",
            "bounds_report", "verify_report",
        )],
        ("catalog", "resolve_cover", "catalog.resolve", None),
        ("catalog", "resolve_arrangement", "catalog.resolve", None),
        ("arrangement", "build_arrangement", "arrangement.build", None),
        ("arrangement", "combinatorial_automorphisms", "arrangement.autos", "found"),
        ("arrangement", "realize_symmetry", "arrangement.realize", "hits"),
        ("arrangement", "fixed_points_of", "arrangement.fixed_points", None),
        ("linalg", "inverse", None, "linalg.inverse_calls"),
        ("homology", "smoothness_check", "homology.smoothness", None),
        ("homology", "galois_kernel", "homology.kernel", None),
        ("homology", "rank_mod_p", None, "homology.eliminations"),
        ("homology", "nullspace_mod_p", None, "homology.eliminations"),
        ("homology", "solve_mod_p", None, "homology.eliminations"),
        ("characters", "enumerate_characters", "characters.enumerate", "enumerated"),
        ("characters", "preserves_charset", "characters.preserve", None),
        ("symmetry", "character_preserving_symmetries", "symmetry.filter", None),
        ("symmetry", "klein_model", "symmetry.klein_model", None),
        ("symmetry", "classify_real_structures", "symmetry.classify", "classes"),
        ("cover", "invariants", "cover.invariants", None),
        ("cover", "three_canonical_decomposition", "cover.three_k", None),
        ("intersection", "pairing", None, "intersection.pairing_calls"),
    ]
    METHODS = [
        ("cyclotomic", "CycNumber", ("__mul__", "__rmul__"), "cyclotomic.mul_calls"),
        ("cyclotomic", "CycNumber", ("__truediv__", "__rtruediv__"), "cyclotomic.div_calls"),
        ("symmetry", "KleinModel", ("multiply",), "symmetry.multiply_calls"),
    ]

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, query, name, start, end)
        self.ids = itertools.count()
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # [span id, start, child time]
        self.query = -1

    def _span(self, name: str, extra: str | None, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self.ids)
            frame = [sid, time.perf_counter(), 0.0]
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                total = end - frame[1]
                if self.stack:
                    self.stack[-1][2] += total
                self.self_time[name] = self.self_time.get(name, 0.0) + total - frame[2]
                self.counts[name + "_calls"] = self.counts.get(name + "_calls", 0) + 1
                self.spans.append((sid, parent, self.query, name, frame[1], end))
            if extra == "found":
                self._add("arrangement.autos_found", len(result))
            elif extra == "hits":
                self._add("arrangement.realize_hits", result is not None)
            elif extra == "enumerated":
                self._add("characters.enumerated", len(result))
            elif extra == "classes":
                # the classes partition the anti-holomorphic involutions
                self._add("symmetry.classes", len(result))
                self._add("symmetry.involutions", sum(c.size for c in result))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def install(self) -> None:
        import importlib

        modules = [
            importlib.import_module(f"planecover.{m}")
            for m in ("cli", "catalog", "arrangement", "linalg", "cyclotomic", "homology",
                      "characters", "symmetry", "cover", "intersection")
        ]
        for mod, attr, span, extra in self.TARGETS:
            original = getattr(importlib.import_module(f"planecover.{mod}"), attr)
            if span is None:
                wrapped = self._counter(extra, original)
            else:
                wrapped = self._span(span, extra, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for mod, cls_name, names, counter in self.METHODS:
            cls = getattr(importlib.import_module(f"planecover.{mod}"), cls_name)
            for name in names:
                setattr(cls, name, self._counter(counter, cls.__dict__[name]))

    def metrics(self) -> dict[str, float]:
        out = {f"{name}_s": t for name, t in self.self_time.items() if name != "cli.report"}
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "query": query, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def run_query(cli, argv: list[str], out: str) -> int:
    try:
        return cli.run([*argv, "--out", out])
    except Exception:  # a crash is a failed query; the stream goes on
        traceback.print_exc()
        return -1


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from planecover import cli

    run_query(cli, job["warmup"], job["result"] + ".warmup")
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    from perfbench.inputs import stream
    from perfbench.noise import SpeedMeter
    from perfbench.run import another_round_fits

    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    meter = SpeedMeter()
    rounds = []
    begin = time.perf_counter()
    while True:
        queries = stream(job["workload"], job["seed"], len(rounds), job["work"], job["reports"])
        for q in queries:
            if tracer:
                tracer.query += 1
            start = time.perf_counter()
            q["rc"] = run_query(cli, q["argv"], q["out"])
            q["start"], q["end"] = start, time.perf_counter()
            meter.sample_after(q["end"] - start)
        rounds.append(queries)
        if not another_round_fits(begin, queries, job["seconds"]):
            break
    result = {"rounds": rounds, "meter": meter.state()}
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
