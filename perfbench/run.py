"""Benchmark of planecover on three workloads, with a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper|kummer|census --seed N \
        --seconds S --trace 0|1

Load comes from one closed-loop client: one query at a time, the next sent
when the previous one has answered.  `paper` and `kummer` start one
`planecover` process per query, as a shell user would; `census` sends its
queries to one long-lived process through `planecover.cli.run`.  Rounds of
the workload's stream repeat while another round fits into S seconds (at
least one round), and every report is checked against computations made apart from
the program (see checks.py).  Between queries a fixed reference loop samples
the machine's speed (noise.SpeedMeter); every reported time is divided by
the run's slowdown, so it reads in seconds at nominal speed.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 one untraced and one traced round of the
same stream run, their reports must agree byte for byte, and the object
holds the per-layer metrics of the traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import checks  # noqa: E402
from perfbench.inputs import WARMUP, stream  # noqa: E402
from perfbench.noise import SpeedMeter  # noqa: E402

SETUP_REPEATS = 5
QUERY_TIMEOUT = 150.0
PER_LAYER = (
    "cli.import_s", "cli.render_s",
    "catalog.resolve_s", "catalog.resolve_calls",
    "arrangement.build_s", "arrangement.build_calls",
    "arrangement.autos_s", "arrangement.autos_calls", "arrangement.autos_found",
    "arrangement.realize_s", "arrangement.realize_calls", "arrangement.realize_hits",
    "arrangement.fixed_points_s", "arrangement.fixed_points_calls",
    "linalg.inverse_calls", "cyclotomic.mul_calls", "cyclotomic.div_calls",
    "homology.smoothness_s", "homology.kernel_s", "homology.eliminations",
    "characters.enumerate_s", "characters.enumerated",
    "characters.preserve_s", "characters.preserve_calls",
    "symmetry.filter_s", "symmetry.klein_model_s", "symmetry.klein_model_calls",
    "symmetry.classify_s", "symmetry.multiply_calls", "symmetry.involutions",
    "symmetry.classes",
    "cover.invariants_s", "cover.three_k_s", "intersection.pairing_calls",
)


def another_round_fits(begin: float, last_round: list[dict], seconds: float) -> bool:
    """True if a round as long as the last one still ends within `seconds`
    of `begin`: a run measures whole rounds and stops near its budget."""
    now = time.perf_counter()
    return now - begin + (now - last_round[0]["start"]) <= seconds


class Bench:
    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.meter = SpeedMeter()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))

    # -- one process per query ----------------------------------------------------

    def cli_process(self, argv: list[str]) -> int:
        proc = subprocess.run(
            [sys.executable, "-m", "planecover.cli", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=QUERY_TIMEOUT,
        )
        if proc.returncode:
            sys.stderr.write(f"planecover {' '.join(argv)}: exit {proc.returncode}\n")
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return proc.returncode

    def process_setup(self) -> float:
        start = time.perf_counter()
        if self.cli_process([*WARMUP, "--out", os.path.join(self.work, "warmup.json")]):
            raise RuntimeError("the warm-up query failed")
        setup = time.perf_counter() - start
        self.meter.sample_after(setup)
        return setup

    def process_rounds(self, seconds: float, reports: str) -> list[list[dict]]:
        rounds = []
        begin = time.perf_counter()
        while True:
            queries = stream(self.workload, self.seed, len(rounds), self.work, reports)
            for q in queries:
                q["start"] = time.perf_counter()
                try:
                    q["rc"] = self.cli_process([*q["argv"], "--out", q["out"]])
                except subprocess.TimeoutExpired:
                    q["rc"] = -1
                q["end"] = time.perf_counter()
                self.meter.sample_after(q["end"] - q["start"])
            rounds.append(queries)
            if not another_round_fits(begin, queries, seconds):
                return rounds

    # -- one long-lived process -------------------------------------------------------

    def worker(self, seconds: float, reports: str, trace: bool, go: bool) -> tuple[float, dict | None]:
        """Start a worker; return its set-up time and, if `go`, its result."""
        tag = f"{reports}-{time.perf_counter_ns()}"
        job = {
            "workload": self.workload, "seed": self.seed, "work": self.work,
            "reports": reports, "seconds": seconds, "trace": trace, "warmup": WARMUP,
            "result": os.path.join(self.work, f"{tag}.result.json"),
            "spans": os.path.join(HERE, "out", f"spans-{self.workload}-{self.seed}.jsonl"),
        }
        job_path = os.path.join(self.work, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", job_path],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                ready = proc.stdout.readline().strip() == "ready"
                setup = time.perf_counter() - start
                if ready:
                    proc.stdin.write("go\n" if go else "exit\n")
                    proc.stdin.close()
                proc.wait(timeout=170)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not ready or proc.returncode:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        if not go:
            return setup, None
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        self.meter.merge(result["meter"])
        return setup, result

    def worker_setup(self) -> float:
        setup = self.worker(0, "setup", trace=False, go=False)[0]
        self.meter.sample_after(setup)
        return setup

    # -- the stream, its checks and its metrics ------------------------------------------

    def rounds(self, seconds: float, reports: str) -> list[list[dict]]:
        if self.workload == "census":
            return self.worker(seconds, reports, trace=False, go=True)[1]["rounds"]
        return self.process_rounds(seconds, reports)


def check_report(kind: str, report: dict, ctx: dict, autos_order=None, sym_report=None) -> list[str]:
    """Dispatch one report to its check; `real classify` is checked against
    the same cover's symmetry report."""
    if kind == "arrangement info":
        return checks.check_arrangement(report, ctx["arrangement"])
    if kind == "cover smoothness":
        return checks.check_smoothness(report, ctx)
    if kind == "cover invariants":
        return checks.check_invariants(report, ctx)
    if kind == "characters list":
        return checks.check_characters(report, ctx)
    if kind == "symmetry search":
        return checks.check_symmetry(report, ctx, autos_order)
    if kind == "real classify":
        if sym_report is None:
            return ["no symmetry report to check the classes against"]
        return checks.check_real(report, ctx, sym_report)
    if kind == "bounds check":
        return checks.check_bounds(report, ctx["hodge"], ctx["k3"])
    return checks.check_verify(report)


def check_round(queries: list[dict]) -> list[str]:
    """Check every report of one round; a failed query is counted, not checked."""
    errors: list[str] = []
    autos: dict[str, int] = {}
    symmetry: dict[str, dict] = {}
    for q in queries:
        if q["rc"] != 0:
            continue
        with open(q["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        kind, ctx = q["kind"], q["ctx"]
        if kind == "arrangement info":
            autos[ctx["arrangement"]] = report["automorphism_order"]
        elif kind == "symmetry search":
            symmetry[q["cover"]] = report
        errs = check_report(kind, report, ctx, autos.get(ctx.get("arrangement")), symmetry.get(q["cover"]))
        errors += [f"{q['cover']} {kind}: {e}" for e in errs]
    return errors


def same_bytes(a: list[dict], b: list[dict]) -> list[str]:
    errors = []
    for qa, qb in zip(a, b):
        if qa["rc"] == 0 and qb["rc"] == 0:
            with open(qa["out"], "rb") as fa, open(qb["out"], "rb") as fb:
                if fa.read() != fb.read():
                    errors.append(f"{qa['cover']} {qa['kind']}: reports differ between rounds")
    if len(a) != len(b):
        errors.append("rounds differ in length")
    return errors


def check_rounds(workload: str, rounds: list[list[dict]]) -> list[str]:
    """Census rounds are all checked; paper and Kummer rounds repeat round 0,
    so later rounds must match it byte for byte."""
    if workload == "census":
        return [e for r in rounds for e in check_round(r)]
    return check_round(rounds[0]) + [e for r in rounds[1:] for e in same_bytes(rounds[0], r)]


def kind_time(queries: list[dict], kind: str | None = None) -> float:
    """Summed time of the queries of one kind, or of all queries."""
    return sum(q["end"] - q["start"] for q in queries if kind in (None, q["kind"]))


def end_to_end(bench: Bench, seconds: float) -> tuple[list[list[dict]], dict]:
    setup = bench.worker_setup if bench.workload == "census" else bench.process_setup
    # set up before and after the rounds, so that the median spans the run
    setups = [setup() for _ in range(SETUP_REPEATS)]
    rounds = bench.rounds(seconds, "r")
    setups += [setup() for _ in range(SETUP_REPEATS)]
    # a query's time swings with the machine's speed from one second to the
    # next, so the mean over the rounds, which uses every query, is steadier
    # than their median
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(kind_time(r) for r in rounds),
        "symmetry_s": statistics.fmean(kind_time(r, "symmetry search") for r in rounds),
        "real_s": statistics.fmean(kind_time(r, "real classify") for r in rounds),
    }
    slowdown = bench.meter.slowdown()
    metrics = {name: (t / slowdown, "s") for name, t in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    print(f"{bench.workload}: {len(rounds)} round(s) of {len(rounds[0])} queries, "
          f"setup times {[round(s, 4) for s in setups]}")
    print(f"{bench.workload}: slowdown {slowdown:.4f} over {bench.meter.seconds:.2f} s of "
          f"reference steps; unscaled times {json.dumps(raw)}")
    return rounds, metrics


def import_time(bench: Bench) -> float:
    code = "import time; t = time.perf_counter(); import planecover.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=bench.env,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def per_layer(bench: Bench) -> tuple[list[list[dict]], dict, list[str]]:
    untraced = bench.rounds(0, "plain")
    _, result = bench.worker(0, "traced", trace=True, go=True)
    traced = result["rounds"]
    errors = same_bytes(untraced[0], traced[0])
    wall = [kind_time(r[0]) for r in (untraced, traced)]
    print(f"{bench.workload}: untraced round {wall[0]:.3f} s, traced round {wall[1]:.3f} s "
          f"({wall[1] / wall[0] - 1:+.1%}); reports byte-identical: {not errors}")
    layers = dict(result["layers"], **{"cli.import_s": import_time(bench)})
    metrics = {
        name: (layers.get(name, 0), "s" if name.endswith("_s") else "count")
        for name in PER_LAYER
    }
    return untraced + traced, metrics, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "kummer", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "planecover", "cli.py")):
        sys.stderr.write(f"no planecover sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    # One vCPU for the client, its planecover processes and the speed samples:
    # on a shared host each vCPU speeds up and slows down on its own, and the
    # samples only follow the queries' speed on the vCPU the queries run on.
    # Child processes inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        if args.trace:
            rounds, metrics, errors = per_layer(bench)
        else:
            rounds, metrics = end_to_end(bench, args.seconds)
            errors = []
        errors += check_rounds(args.workload, rounds)
        queries = [q for r in rounds for q in r]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    result = {
        "correct": not errors,
        "attempted": len(queries),
        "failed": sum(q["rc"] != 0 for q in queries),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    timings = [[{k: q[k] for k in ("cover", "kind", "start", "end", "rc")} for q in r] for r in rounds]
    with open(os.path.join(HERE, "out", f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=timings, meter=bench.meter.state()), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
