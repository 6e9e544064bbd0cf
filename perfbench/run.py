#!/usr/bin/env python3
"""Benchmark of the zeroforcing command line: census, analyze, witness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its src/ directory, so there is nothing to build.  Each measured pass is
a fresh interpreter (perfbench/child.py) that imports zeroforcing.cli and
calls cli.main(argv) for the workload's CLI calls.  Passes repeat until
--seconds is used up.  Every call is timed in every pass and scaled to a
reference machine speed measured around it (see end_to_end); each
metric is then a median over passes.  Outputs are checked by
perfbench/checks.py after timing.

--trace 0 prints the end-to-end metrics.  --trace 1 makes three passes
(untraced, traced, untraced) and prints the per-layer metrics; the
spans go to
.perfbench/spans-<workload>-<seed>.json.  The last line of stdout is the
JSON result; the lines before it state the input digest and sample
counts.  See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 15
MIN_PASSES = 2
# Times are reported at the machine speed where child.Calibrator's chunk of
# work takes CAL_REF_S; on the 2-core machine of baseline.json it took
# 1.4-2.0 ms, by the load of the machine.  Each call is scaled by the median of the calibration
# samples taken from CAL_WINDOW_S before it to CAL_WINDOW_S after it, and
# by the CAL_MIN_SAMPLES nearest samples when fewer fall in that window.
CAL_REF_S = 0.002
CAL_WINDOW_S = 0.5
CAL_MIN_SAMPLES = 5
# A run must end within 180 s: passes are killed after DEADLINE_S, and no
# pass starts that would be expected to end after RUN_LIMIT_S.
DEADLINE_S = 170
RUN_LIMIT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run the program (not a wrong output)."""


def child(job: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; deadline is a perf_counter time."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # setup_s is an import from the bytecode cache, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def job_for(workload: inputs.Workload, seed: int, trace: bool = False) -> dict:
    return {"calls": workload.calls, "trace": trace, "seed": seed,
            "census_max_n": workload.census_max_n, "records": workload.records,
            "spans_path": str(OUT / f"spans-{workload.name}-{seed}.json")}


def reference_for(workload: inputs.Workload, seed: int, quick: bool) -> dict | None:
    if workload.kind != "analyze" or seed != inputs.DEFAULT_SEED or quick:
        return None
    return json.loads((HERE / "reference_analyze.json").read_text())


def call_p95(walls: list[float]) -> float:
    """p95, or the highest percentile with at least ten samples beyond it
    when there are fewer than 200 calls (the largest below 11 calls)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n >= 200:
        return ordered[math.ceil(0.95 * n) - 1]
    return ordered[n - 11 if n >= 11 else n - 1]


def speed_around(samples: list[list[float]], begin: float, end: float) -> float:
    """Median calibration time near the span [begin, end]."""
    near = [d for t, d in samples if begin - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
    if len(near) < CAL_MIN_SAMPLES:
        middle = (begin + end) / 2
        near = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - middle))[:CAL_MIN_SAMPLES]]
    return statistics.median(near)


def scaled(passes: list[dict], key: str) -> list[float]:
    """Each call's time at the reference speed, median over the passes."""
    per_pass = [[c[key] * CAL_REF_S / speed_around(p["cal_samples"], c["begin"], c["end"])
                 for c in p["calls"]] for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(workload: inputs.Workload, passes: list[dict], setups: list[dict]) -> dict:
    """Other work on a shared machine slows a pass by tens of percent for
    seconds to minutes at a time, and the calibration chunk slows with
    it.  So each call's time is scaled by the calibration samples taken
    around it, and a call's value is the median of its scaled times over
    the passes.  The latencies are ranked over the calls; wall_s and cpu_s
    are sums over the calls."""
    walls = scaled(passes, "wall_s")
    wall_s = math.fsum(walls)
    return {
        "setup_s": (statistics.median([s["setup_s"] * CAL_REF_S / s["setup_cal_s"]
                                       for s in setups]), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (math.fsum(scaled(passes, "cpu_s")), "s"),
        "graphs_per_s": (workload.graphs / wall_s, "1/s"),
        "call_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "call_p95_ms": (call_p95(walls) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median([p["peak_rss_kb"] / 1024 for p in passes]), "MB"),
    }


def unscaled(passes: list[dict], setups: list[dict]) -> str:
    """The measured times before scaling, for the log."""
    med = statistics.median
    cal = med([d for p in passes for _, d in p["cal_samples"]])
    return (f"unscaled medians over passes: wall_s {med([p['wall_s'] for p in passes]):.4f}, "
            f"setup_s {med([s['setup_s'] for s in setups]):.5f}; calibration chunk "
            f"{cal * 1e3:.3f} ms against {CAL_REF_S * 1e3:g} ms")


def per_layer(workload: inputs.Workload, passes: list[dict], spans_path: str) -> dict:
    """Per-layer metrics from the passes untraced, traced, untraced."""
    untraced, traced, _ = passes
    trace = json.loads(Path(spans_path).read_text())
    routes = []
    if workload.kind != "census":
        for call in traced["calls"]:
            for line in call["stdout"].splitlines():
                try:
                    doc = json.loads(line)
                    routes.append(doc["witness"]["route"] if "witness" in doc else doc["route"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass  # a malformed document is already counted by the gates
    census_ran = workload.kind == "census"
    pool_cpu = ((untraced["cpu_self_s"], untraced["cpu_children_s"]) if census_ran
                else (0.0, 0.0))
    walls = [math.fsum(scaled([p], "wall_s")) for p in passes]
    metrics = spans.layer_metrics(trace, routes, traced["micro"], pool_cpu,
                                  2 * walls[1] / (walls[0] + walls[2]) - 1)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    for suffix, unit in (("_us.p50", "us"), ("_us.p95", "us"), ("_us.p99", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        plant=None) -> dict:
    """Measure one workload; returns the result object.  plant(calls) may
    corrupt a pass's outputs before they are checked (self-test only)."""
    workload = inputs.build(name, seed, quick)
    print(f"workload {name} seed {seed}: {workload.graphs} graphs in "
          f"{len(workload.calls)} CLI calls per pass; inputs sha256 {workload.digest()}")
    OUT.mkdir(exist_ok=True)
    reference = reference_for(workload, seed, quick)
    deadline = time.perf_counter() + DEADLINE_S
    child({"setup_only": True}, deadline)  # fills the bytecode cache before timing
    began = time.perf_counter()
    passes = []
    if trace:
        # untraced, traced, untraced: the overhead is taken against the mean
        # of the two untraced passes, which cancels a steady drift in speed
        traced_job = job_for(workload, seed, trace=True)
        for job in (job_for(workload, seed), traced_job, job_for(workload, seed)):
            passes.append(child(job, deadline))
    else:
        while True:
            passes.append(child(job_for(workload, seed), deadline))
            elapsed = time.perf_counter() - began
            mean = elapsed / len(passes)
            if elapsed + 1.5 * mean > RUN_LIMIT_S:
                break
            if elapsed + mean / 2 >= seconds and len(passes) >= MIN_PASSES:
                break
    setups = list(passes)
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(child({"setup_only": True}, deadline))

    failed = 0
    for p in passes:
        if plant is not None:
            plant(p["calls"])
        failed += checks.failed_graphs(workload, p["calls"], reference)
    attempted = workload.graphs * len(passes)
    if trace:
        metrics = per_layer(workload, passes, traced_job["spans_path"])
    else:
        metrics = end_to_end(workload, passes, setups)
        print(unscaled(passes, setups))
    calls = [len(p["calls"]) for p in passes]
    print(f"{len(passes)} passes, {sum(calls)} CLI calls; call_p95_ms ranks "
          f"{calls[0]} calls; setup_s from {len(setups)} imports; "
          f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zeroforcing" / "cli.py").is_file():
        print(f"no zeroforcing sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
