#!/usr/bin/env python3
"""Fail when the fresh selfperf summary regressed against the prior record.

Reads a hos-selfperf-2 summary (BENCH_selfperf.json) whose `history`
array carries the previous record — seed the bench's output path with
the checked-in summary before running bench_selfperf, and its
history-append behavior preserves the prior top level — then compares
each run's sim_ns_per_host_s (simulated nanoseconds advanced
per host second; higher is better) against the most recent history
record measured at the same HOS_BENCH_SCALE. Simulated time per host
second falls with scale, so records at another scale are never
compared. A record without a `scale` field predates it and was
measured at the default 0.3. A drop beyond the threshold (default 15%)
fails the gate, and so does the absence of any like-scale record: the
gate never passes without comparing.

Usage: selfperf_gate.py [summary.json] [--threshold=0.15]
"""

import json
import sys

# bench_selfperf's scale when HOS_BENCH_SCALE is unset; records that
# predate the `scale` field were measured at it.
DEFAULT_SCALE = 0.3


def scale_of(record):
    return float(record.get("scale", DEFAULT_SCALE))


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

    scale = scale_of(summary)
    history = [r for r in summary.get("history", []) if "runs" in r]
    if not history:
        print("selfperf-gate: FAILED, no prior record in history; seed the "
              "output path with the checked-in summary before the run")
        return 1
    like = [r for r in history if abs(scale_of(r) - scale) < 1e-9]
    if not like:
        seen = sorted({scale_of(r) for r in history})
        print(f"selfperf-gate: FAILED, no prior record at scale {scale:g} "
              f"(history has scales {seen}); rerun bench_selfperf at a "
              f"recorded scale")
        return 1
    prev = like[-1]["runs"]

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
        print(f"selfperf-gate: FAILED, the scale-{scale:g} record shares "
              "no runs with the fresh summary")
        return 1
    if regressions:
        print(f"selfperf-gate: FAILED, >{threshold:.0%} slower on: "
              + ", ".join(regressions))
        return 1
    print(f"selfperf-gate: passed ({compared} runs within "
          f"{threshold:.0%} of the prior scale-{scale:g} record)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
