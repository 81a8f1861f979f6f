#!/usr/bin/env python3
"""Gate this tree's host cost against its parent's with hos-bench.

Usage: bench_gate.py PARENT_DIR

PARENT_DIR holds the parent commit's tree, exported with `git archive`
(a worktree would write into this repository's .git):

    mkdir parent && git archive "$(git merge-base origin/main HEAD)" \\
        | tar -x -C parent
    python3 tools/bench_gate.py parent

The gate builds hos-bench in PARENT_DIR and in this tree, then runs
ROUNDS interleaved rounds: every workload in both trees, the parent
first in odd rounds and the change first in even ones, each by that
tree's own `hos-bench/run.py --seed 1 --seconds SECONDS --trace 0`.
It exits 1 when
- an iteration of the change fails;
- a fingerprint of the change differs from PINNED;
- the change's median over the rounds of an end-to-end metric is worse
  than the parent's by more than the metric's bound.

The bounds are BENCHMARK.json's, except sim_ns_per_host_s, which keeps
the 15% of the self-performance gate this one replaced. Per workload and
metric it prints both medians, the parent's interquartile range and how
many rounds the change won. A row whose parent IQR is wider than the
bound is marked UNRESOLVED, unless every change round beat every parent
round: the host was too noisy there to tell a change of the bound's size
from none. The mark does not change the decision.
"""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
SECONDS = 3
SEED = 1

# Seed-1 fingerprints (simulated ns, phases, instructions and LLC misses
# per VM). A host-side change must leave them alone; a change that moves
# simulated results on purpose re-pins them here.
PINNED = {
    "coordinated": "955b754e0c24bb6c",
    "full_vm_sweep": "cd0c7b3e6d4d707f",
    "two_vm_drf": "5436fa791d089ce9",
    "coordinated_observed": "955b754e0c24bb6c",
}

# Tighter than BENCHMARK.json: a regression the old gate failed must
# still fail here.
BOUND_OVERRIDES = {"sim_ns_per_host_s": 0.15}


def load_bounds(spec_path):
    """{metric: (better, bound)} for BENCHMARK.json's end-to-end metrics."""
    spec = json.loads(Path(spec_path).read_text())
    return {m["name"]: (m["better"],
                        BOUND_OVERRIDES.get(m["name"], m["bound"]))
            for m in spec["end_to_end"]}


def parse_run(stdout):
    """One run.py output: its failed count, metric values, fingerprints."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "fingerprints": set(re.findall(r"fingerprint ([0-9a-f]+)", stdout)),
    }


def judge(parent, change, bounds):
    """Compare {workload: [parse_run(), one per round]} of the two trees.

    Returns (report lines, failure lines); the gate passes when the
    second list is empty.
    """
    report, failures = [], []
    for workload, runs in change.items():
        failed = sum(r["failed"] for r in runs)
        if failed:
            failures.append(f"{workload}: {failed} failed iterations")
        prints = set().union(*(r["fingerprints"] for r in runs))
        if prints != {PINNED[workload]}:
            failures.append(f"{workload}: fingerprint {sorted(prints)} "
                            f"!= pinned {PINNED[workload]}")
        base = parent[workload]
        report.append(f"== {workload} ({len(runs)} rounds)")
        for name, (better, bound) in bounds.items():
            p = [r["metrics"][name] for r in base]
            c = [r["metrics"][name] for r in runs]
            p_med, c_med = statistics.median(p), statistics.median(c)
            lo, _, hi = statistics.quantiles(p, n=4, method="inclusive")
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (b - a) > 0 for a, b in zip(c, p))
            change_frac = c_med / p_med - 1.0
            worse = sign * change_frac > bound
            unresolved = ((hi - lo) / p_med > bound and not all(
                sign * (b - a) > 0 for a in c for b in p))
            report.append(
                f"  {name:<18} parent {p_med:<12.6g} (IQR {lo:.6g}-"
                f"{hi:.6g})  change {c_med:<12.6g} {change_frac:+7.1%}  "
                f"wins {wins}/{len(c)}  bound {bound:.0%}"
                + ("  REGRESSION" if worse else "")
                + ("  UNRESOLVED" if unresolved else ""))
            if worse:
                failures.append(
                    f"{workload}: {name} {change_frac:+.1%} against the "
                    f"parent, past its {bound:.0%} bound"
                    + (" (unresolved: the parent's IQR is wider than "
                       "the bound)" if unresolved else ""))
    return report, failures


def run_bench(tree, workload, seconds):
    cmd = [sys.executable, str(tree / "hos-bench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench-gate: {' '.join(cmd)} in {tree} exited "
                 f"{proc.returncode}")
    return proc.stdout


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[1]).resolve(), "change": ROOT}
    if not (trees["parent"] / "hos-bench" / "run.py").is_file():
        print(f"bench-gate: no hos-bench/run.py under {trees['parent']}",
              file=sys.stderr)
        return 2
    bounds = load_bounds(ROOT / "BENCHMARK.json")

    for tree in trees.values():  # builds each tree's hos-bench
        run_bench(tree, "coordinated", 1)
    runs = {side: {w: [] for w in PINNED} for side in trees}
    for r in range(1, ROUNDS + 1):
        for workload in PINNED:
            # Alternate which tree goes first, so neither always runs
            # on the heels of the other.
            sides = list(trees.items())[::1 if r % 2 else -1]
            for side, tree in sides:
                run = parse_run(run_bench(tree, workload, SECONDS))
                runs[side][workload].append(run)
                print(f"bench-gate: round {r} {workload} {side}: run_s "
                      f"{run['metrics']['run_s']:.6g}, failed "
                      f"{run['failed']}", flush=True)

    report, failures = judge(runs["parent"], runs["change"], bounds)
    print("\n".join(report))
    for line in failures:
        print(f"bench-gate: FAILED, {line}")
    if failures:
        return 1
    print(f"bench-gate: passed ({ROUNDS} rounds, {len(PINNED)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
