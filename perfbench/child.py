"""One measured pass in a fresh interpreter.

Reads a job (JSON) on stdin, imports zeroforcing.cli (timed as set-up),
runs each CLI call through `cli.main(argv)` with stdin and stdout
redirected to memory, and writes timings (wall and CPU, per call and for
the pass), resource usage and the captured outputs as one JSON object to
stdout.  A fresh process per pass keeps `census._classes`, which is an
lru_cache, cold.

A timer interrupts the pass every CAL_PERIOD_S and times a fixed chunk
of the benchmark's own pure-Python work (the closure of checks.py on
fixed graphs).  Those samples say how fast the machine ran at that
moment; run.py divides each call's time by the samples around it.  The
time spent in the samples is taken out of the call it interrupted.

With "trace" set, spans are recorded at the layer boundaries and dumped
to job["spans_path"], and the micro-samples that the per-layer metrics
need are timed after the workload.  A span keeps the time of the
calibration samples that interrupt it, about 4 % of its length.
"""

from __future__ import annotations

import io
import json
import random
import resource
import signal
import sys
import time
import traceback

MICRO_SAMPLE = 2000
CAL_PERIOD_S = 0.05
CAL_MIN_SAMPLES = 5


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _timed(fn, *args) -> float:
    start = time.perf_counter_ns()
    fn(*args)
    return (time.perf_counter_ns() - start) / 1e9


class Calibrator:
    """Times a fixed chunk of work, about 2 ms, that does not depend on the
    seed or on the program under test."""

    def __init__(self) -> None:
        import checks
        import inputs

        rng = random.Random("calibration")
        self.closure = checks.closure
        self.graphs = [checks.decode_graph6(inputs.dense_graph(rng, 16, 5))[1]
                       for _ in range(4)]
        self.masks = [rng.getrandbits(16) for _ in range(80)]
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, *_signal) -> None:
        # The chunk is timed in CPU time of this thread: a slower host
        # shows in it, but time spent waiting for a core behind this
        # process's own pool workers does not.
        cpu, own, start = time.process_time(), time.thread_time(), time.perf_counter()
        for adj in self.graphs:
            for m in self.masks:
                self.closure(adj, m)
        self.samples.append((start, time.thread_time() - own))
        self.spent_cpu += time.process_time() - cpu
        self.spent_wall += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def micro(job: dict) -> dict[str, list[float]]:
    """Per-call timings on fixed samples of the workload's graphs."""
    from zeroforcing.census import canonical_form, generate_graphs
    from zeroforcing.forcing import derived_set
    from zeroforcing.graph6_io import parse_graph6, write_graph6
    from zeroforcing.graph_core import is_connected

    rng = random.Random(f"micro/{job['seed']}")
    canonical: list[float] = []
    if job["census_max_n"]:
        top = list(generate_graphs(job["census_max_n"]))  # cached by the run
        canonical = [_timed(canonical_form, g) for g in top]
        graphs = [g for g in top if is_connected(g)]
    else:
        graphs = [parse_graph6(r) for r in job["records"]]
    graphs = [rng.choice(graphs) for _ in range(MICRO_SAMPLE)]
    records = [write_graph6(g) for g in graphs]
    return {
        "canonical_form": canonical,
        "derived_set": [_timed(derived_set, g, rng.getrandbits(g.n)) for g in graphs],
        "parse_graph6": [_timed(parse_graph6, r) for r in records],
        "write_graph6": [_timed(write_graph6, g) for g in graphs],
    }


def main() -> None:
    job = json.load(sys.stdin)
    real_stdin, real_stdout = sys.stdin, sys.stdout
    start = time.perf_counter()
    import zeroforcing.cli as cli
    setup_s = time.perf_counter() - start
    # modules of the benchmark are imported only now, so that they do not
    # warm the standard library for the timed import
    calibrator = Calibrator()
    for _ in range(CAL_MIN_SAMPLES):
        calibrator.sample()
    result: dict = {"setup_s": setup_s, "setup_cal_s": sorted(
        d for _, d in calibrator.samples)[CAL_MIN_SAMPLES // 2]}
    if job.get("setup_only"):
        real_stdout.write(json.dumps(result))
        return
    calibrator.samples.clear()

    entry, tracer = cli.main, None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    calls = []
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    calibrator.start()
    spent_wall, spent_cpu = calibrator.spent_wall, calibrator.spent_cpu
    start = time.perf_counter()
    for call in job["calls"]:
        sys.stdin = io.StringIO(call["stdin"])
        sys.stdout = captured = io.StringIO()
        cpu_begin = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        cal_wall, cal_cpu = calibrator.spent_wall, calibrator.spent_cpu
        begin = time.perf_counter()
        try:
            rc = entry(call["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this call's graphs, not the benchmark
            traceback.print_exc()
            rc = -1
        finally:
            sys.stdin, sys.stdout = real_stdin, real_stdout
        end = time.perf_counter()
        wall_s = end - begin - (calibrator.spent_wall - cal_wall)
        cpu_s = (_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu_begin
                 - (calibrator.spent_cpu - cal_cpu))
        calls.append({"rc": rc, "wall_s": wall_s, "cpu_s": cpu_s, "begin": begin, "end": end,
                      "stdout": captured.getvalue()})
    calibrator.stop()
    result.update(
        wall_s=time.perf_counter() - start - (calibrator.spent_wall - spent_wall),
        cpu_self_s=_cpu(resource.RUSAGE_SELF) - cpu_self - (calibrator.spent_cpu - spent_cpu),
        cpu_children_s=_cpu(resource.RUSAGE_CHILDREN) - cpu_children,
        peak_rss_kb=max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        calls=calls,
    )
    while len(calibrator.samples) < CAL_MIN_SAMPLES:
        calibrator.sample()
    result["cal_samples"] = calibrator.samples
    if tracer is not None:
        tracer.dump(job["spans_path"])
        result["micro"] = micro(job)
    real_stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
