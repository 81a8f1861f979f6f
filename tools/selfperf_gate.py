#!/usr/bin/env python3
"""Fail when the fresh selfperf summary regressed against the prior record.

Reads a hos-selfperf-2 summary (BENCH_selfperf.json) whose `history`
array carries the previous record — seed the bench's output path with
the checked-in summary before running bench_selfperf, and its
history-append behavior preserves the prior top level — then compares
each run's sim_ns_per_host_s (simulated nanoseconds advanced
per host second; higher is better) against the most recent history
record that measured the same run. A drop beyond the threshold
(default 15%) fails the gate.

Usage: selfperf_gate.py [summary.json] [--threshold=0.15]
"""

import json
import sys


def main(argv):
    path = "BENCH_selfperf.json"
    threshold = 0.15
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            path = arg

    with open(path) as f:
        summary = json.load(f)
    if summary.get("schema") != "hos-selfperf-2":
        print(f"selfperf-gate: unexpected schema {summary.get('schema')!r}")
        return 1

    history = [r for r in summary.get("history", []) if "runs" in r]
    if not history:
        print("selfperf-gate: no prior record in history; nothing to gate")
        return 0
    prev = history[-1]["runs"]

    regressions = []
    compared = 0
    for name, run in summary.get("runs", {}).items():
        if name not in prev:
            continue
        before = prev[name].get("sim_ns_per_host_s", 0.0)
        after = run.get("sim_ns_per_host_s", 0.0)
        if before <= 0.0:
            continue
        compared += 1
        change = after / before - 1.0
        marker = "REGRESSION" if after < (1.0 - threshold) * before else "ok"
        print(f"selfperf-gate: {name}: {before:.4g} -> {after:.4g} "
              f"sim-ns/host-s ({change:+.1%}) {marker}")
        if marker == "REGRESSION":
            regressions.append(name)

    if not compared:
        print("selfperf-gate: prior record shares no runs; nothing to gate")
        return 0
    if regressions:
        print(f"selfperf-gate: FAILED, >{threshold:.0%} slower on: "
              + ", ".join(regressions))
        return 1
    print(f"selfperf-gate: passed ({compared} runs within "
          f"{threshold:.0%} of the prior record)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
