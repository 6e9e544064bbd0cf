#!/usr/bin/env python3
"""Quick self-test of the benchmark:  python3 perfbench/selftest.py

Runs every workload, untraced and traced, in a tiny configuration
(census up to n = 6, a handful of graphs) and checks that

- every gate passes, so error_rate is 0;
- a planted wrong value, wrong witness, altered document or non-zero
  exit raises error_rate above 0;
- the same seed gives the same input digest, and another seed another;
- the metrics printed, with their units, are exactly those BENCHMARK.json
  declares, and every name matches [A-Za-z0-9_.-]+.

Exits 0 when all hold.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time

import checks
import inputs
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def _edit_docs(call: dict, edit) -> None:
    docs = [json.loads(line) for line in call["stdout"].splitlines()]
    edit(docs[0])
    call["stdout"] = "".join(json.dumps(d) + "\n" for d in docs)


def _wrong_zero(doc):
    doc["zero_forcing"]["value"] += 1


def _wrong_failed_witness(doc):
    doc["failed_zero_forcing"]["witness"] = doc["failed_zero_forcing"]["witness"][1:]


def _forcing_construction(doc):
    doc["set"] = list(range(doc["n"] - 1))


PLANTS = {
    "analyze Z value off by one": ("analyze-mid", lambda calls: _edit_docs(calls[0], _wrong_zero)),
    "analyze F witness one short": ("analyze-mid",
                                    lambda calls: _edit_docs(calls[-1], _wrong_failed_witness)),
    "witness set that forces": ("witness-large",
                                lambda calls: _edit_docs(calls[0], _forcing_construction)),
    "census document altered": ("census-n8",
                                lambda calls: calls[0].update(stdout=calls[0]["stdout"] + " ")),
    "jobs2 census exit code 2": ("census-n8-jobs2", lambda calls: calls[0].update(rc=2)),
}


def quiet_run(name: str, trace: bool = False, plant=None) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, SEED, 0.1, trace, quick=True, plant=plant)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {False: {(m["name"], m["unit"]) for m in declared["end_to_end"]},
                True: {(m["name"], m["unit"]) for m in declared["per_layer"]}}
    problems = []
    for name in inputs.WORKLOADS:
        for trace in (False, True):
            result = quiet_run(name, trace)
            label = f"{name} trace={int(trace)}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            printed = {(n, m["unit"]) for n, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(printed ^ expected[trace])}")
            problems += [f"{label}: bad metric name {n!r}" for n, _ in printed
                         if not NAME.fullmatch(n)]
    for what, (name, plant) in PLANTS.items():
        result = quiet_run(name, plant=plant)
        if result["failed"] == 0:
            problems.append(f"planted error not counted: {what}")
    workload = inputs.build("analyze-mid", SEED, quick=True)
    record = workload.records[0]
    first = run.child(run.job_for(workload, SEED), time.perf_counter() + 60)["calls"][0]
    doc = json.loads(first["stdout"])
    zero, failed = doc["zero_forcing"], doc["failed_zero_forcing"]
    recorded = [zero["value"], checks.mask(zero["witness"]),
                failed["value"], checks.mask(failed["witness"])]
    moved = recorded[:1] + [recorded[1] << 1] + recorded[2:]
    if not checks.analysis_ok(record, doc, {record: recorded}):
        problems.append("reference comparison rejects the recorded witness")
    if checks.analysis_ok(record, doc, {record: moved}):
        problems.append("reference comparison accepts a different witness")
    for name in inputs.WORKLOADS:
        same = inputs.build(name, SEED).digest() == inputs.build(name, SEED).digest()
        if not same:
            problems.append(f"{name}: the same seed gave different inputs")
        if name.startswith(("analyze", "witness")) and (
                inputs.build(name, SEED).digest() == inputs.build(name, SEED + 1).digest()):
            problems.append(f"{name}: another seed gave the same inputs")
    for problem in problems:
        print(problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
