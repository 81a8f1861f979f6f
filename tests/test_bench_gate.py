#!/usr/bin/env python3
"""The decisions of tools/bench_gate.py, fed synthetic run.py output."""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "tools" / "bench_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# One workload's end-to-end medians, as run.py reports them.
BASE = {"setup_s": 0.03, "run_s": 0.1, "teardown_s": 0.01, "wall_s": 0.14,
        "sim_ns_per_host_s": 2.5e10, "peak_rss_mib": 117.0}
UNITS = {"sim_ns_per_host_s": "ns/s", "peak_rss_mib": "MiB"}


def run_output(workload, failed=0, fingerprint=None, scale=None):
    """run.py's stdout for one run: the table's tail and the JSON line,
    with BASE's metrics multiplied by `scale`'s factors."""
    scale = scale or {}
    metrics = {k: {"value": v * scale.get(k, 1.0),
                   "unit": UNITS.get(k, "s")} for k, v in BASE.items()}
    fingerprint = fingerprint or gate.PINNED[workload]
    return (f"== {workload}: end to end, host time\n"
            f"  fidelity: sim_s 2.502376  fingerprint {fingerprint}\n"
            f"  failed {failed}/12 iterations\n"
            + json.dumps({"correct": failed == 0, "attempted": 12,
                          "failed": failed, "metrics": metrics}) + "\n")


def rounds(per_round):
    """{workload: [parse_run(), ...]} from per_round(workload, round)."""
    return {w: [gate.parse_run(per_round(w, r)) for r in range(gate.ROUNDS)]
            for w in gate.PINNED}


def judge(change, bounds=None):
    """The failures of `change(workload, round)` against an unchanged
    parent."""
    parent = rounds(lambda w, r: run_output(w))
    _, failures = gate.judge(parent, rounds(change),
                             bounds or gate.load_bounds(
                                 ROOT / "BENCHMARK.json"))
    return failures


class BenchGate(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(judge(lambda w, r: run_output(w)), [])

    def test_regression_inside_its_bound_passes(self):
        self.assertEqual(judge(lambda w, r: run_output(
            w, scale={"setup_s": 1.2, "peak_rss_mib": 1.05})), [])

    def test_regression_past_its_bound_fails(self):
        failures = judge(lambda w, r: run_output(
            w, scale={"setup_s": 1.3} if w == "two_vm_drf" else None))
        self.assertEqual(len(failures), 1)
        self.assertIn("two_vm_drf: setup_s", failures[0])

    def test_rss_uses_its_own_tighter_bound(self):
        failures = judge(lambda w, r: run_output(
            w, scale={"peak_rss_mib": 1.12}))
        self.assertEqual(len(failures), len(gate.PINNED))
        self.assertTrue(all("peak_rss_mib" in f for f in failures))

    def test_sixteen_percent_throughput_drop_fails(self):
        # BENCHMARK.json allows 25%; the gate keeps the old 15%.
        failures = judge(lambda w, r: run_output(
            w, scale={"sim_ns_per_host_s": 0.84}
            if w == "coordinated" else None))
        self.assertEqual(len(failures), 1)
        self.assertIn("coordinated: sim_ns_per_host_s", failures[0])
        self.assertEqual(judge(lambda w, r: run_output(
            w, scale={"sim_ns_per_host_s": 0.86})), [])

    def test_median_outlasts_one_slow_round(self):
        self.assertEqual(judge(lambda w, r: run_output(
            w, scale={"run_s": 3.0} if r == 0 else None)), [])

    def test_noisy_parent_marks_the_row_unresolved(self):
        # The parent's run_s rounds spread 0.7x-1.3x: IQR 30% of the
        # median, wider than the 25% bound.
        noisy = rounds(lambda w, r: run_output(
            w, scale={"run_s": 0.7 + 0.15 * r}))
        bounds = gate.load_bounds(ROOT / "BENCHMARK.json")

        def verdict(change):
            report, failures = gate.judge(noisy, rounds(change), bounds)
            row = next(line for line in report if "run_s " in line)
            return row, failures

        row, failures = verdict(lambda w, r: run_output(w))
        self.assertIn("UNRESOLVED", row)
        self.assertNotIn("REGRESSION", row)
        self.assertEqual(failures, [])
        # A median past the bound still fails, and says it is unresolved.
        row, failures = verdict(lambda w, r: run_output(
            w, scale={"run_s": 1.3}))
        self.assertIn("REGRESSION  UNRESOLVED", row)
        self.assertEqual(len(failures), len(gate.PINNED))
        self.assertTrue(all("unresolved" in f for f in failures))
        # Every change round beating every parent round resolves it.
        row, failures = verdict(lambda w, r: run_output(
            w, scale={"run_s": 0.6}))
        self.assertNotIn("UNRESOLVED", row)
        self.assertEqual(failures, [])

    def test_failed_iteration_fails(self):
        failures = judge(lambda w, r: run_output(
            w, failed=1 if (w, r) == ("full_vm_sweep", 3) else 0))
        self.assertEqual(failures, ["full_vm_sweep: 1 failed iterations"])

    def test_fingerprint_off_the_pin_fails(self):
        failures = judge(lambda w, r: run_output(
            w, fingerprint="0123456789abcdef"
            if w == "coordinated_observed" else None))
        self.assertEqual(len(failures), 1)
        self.assertIn("coordinated_observed: fingerprint", failures[0])

    def test_edited_bound_in_benchmark_json_is_honoured(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for m in spec["end_to_end"]:
            if m["name"] == "run_s":
                m["bound"] = 0.5
            if m["name"] == "teardown_s":
                m["bound"] = 0.01
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCHMARK.json"
            path.write_text(json.dumps(spec))
            bounds = gate.load_bounds(path)
        self.assertEqual(bounds["run_s"], ("lower", 0.5))
        # A 40% run_s rise passes under the widened bound, a 2%
        # teardown_s rise fails under the narrowed one.
        self.assertEqual(judge(lambda w, r: run_output(
            w, scale={"run_s": 1.4}), bounds), [])
        failures = judge(lambda w, r: run_output(
            w, scale={"teardown_s": 1.02}), bounds)
        self.assertEqual(len(failures), len(gate.PINNED))
        self.assertTrue(all("teardown_s" in f for f in failures))


if __name__ == "__main__":
    unittest.main()
