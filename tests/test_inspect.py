#!/usr/bin/env python3
"""hos-inspect's verbs and exit codes on one small run.

Usage: test_inspect.py RUN_EXPERIMENT HOS_INSPECT

One `run_experiment --prof --xray --metrics` run at scale 0.05 feeds
every case; the doctored and stripped copies are written next to it.
A section the build compiled out (HOS_XRAY=off, HOS_METRICS=off) skips
the cases that read it.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

RUN_EXPERIMENT = INSPECT = None
SCENARIO = ["graphchi", "coord", "0.25", "0.05"]


class InspectCli(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls._tmp.name)
        subprocess.run([RUN_EXPERIMENT, "--prof", "--xray", "--metrics",
                        "--results=all.json", *SCENARIO], cwd=cls.dir,
                       check=True, stdout=subprocess.DEVNULL)
        cls.record = json.loads((cls.dir / "all.json").read_text())

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def inspect(self, *args):
        """hos-inspect's exit status and stderr."""
        proc = subprocess.run([INSPECT, *args], cwd=self.dir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stderr

    def write(self, name, record):
        (self.dir / name).write_text(json.dumps(record))
        return name

    def doctored(self, name, edit):
        record = json.loads(json.dumps(self.record))
        edit(record)
        return self.write(name, record)

    def need(self, section):
        s = self.record.get(section) or {}
        if not (s.get("vms") or s.get("entries")):
            self.skipTest(f"{section} compiled out of this build")

    def test_good_input_exits_0(self):
        self.need("profile")
        self.assertEqual(self.inspect("diff", "all.json", "all.json")[0], 0)
        self.assertEqual(self.inspect("diff", "--exact", "--json=d.json",
                                      "all.json", "all.json")[0], 0)
        self.assertEqual(json.loads((self.dir / "d.json").read_text())
                         ["schema"], "hos-profdiff-1")

    def test_explain_exits_0(self):
        self.need("xray")
        self.assertEqual(self.inspect("explain", "all.json")[0], 0)
        self.assertEqual(self.inspect("explain", "all.json", "--vm=0",
                                      "--run=0")[0], 0)

    def test_timeline_exits_0(self):
        self.need("metrics")
        self.assertEqual(self.inspect("timeline", "all.json",
                                      "--csv=all.csv")[0], 0)
        self.assertTrue((self.dir / "all.csv").stat().st_size > 0)

    def test_one_changed_ledger_cell_fails_exact(self):
        self.need("profile")

        def bump(record):  # kind "-" rows are span totals, not cells
            cell = next(e for e in record["profile"]["entries"]
                        if e["kind"] != "-")
            cell["sim_ns"] += 1
        other = self.doctored("cell.json", bump)
        self.assertEqual(self.inspect("diff", "--exact", "all.json",
                                      other)[0], 1)
        # One nanosecond is inside the default 5% threshold.
        self.assertEqual(self.inspect("diff", "all.json", other)[0], 0)

    def test_doctored_metrics_buckets_fail(self):
        self.need("metrics")

        def shift(record):  # every slowdown bucket 4 octaves up
            for vm in record["metrics"]["vms"]:
                s = vm["slowdown_ppm"]
                s["buckets"] = [[i + 128, c] for i, c in s["buckets"]]
                s["min"] *= 16
                s["max"] *= 16
        other = self.doctored("shifted.json", shift)
        self.assertEqual(self.inspect("diff", "all.json", other)[0], 1)

    def test_malformed_input_exits_2(self):
        cases = [
            ("explain", "all.json", "--page=abc"),
            ("diff", "--threshold=abc", "all.json", "all.json"),
            ("diff", "--threshold=-1", "all.json", "all.json"),
            ("timeline", "all.json", "--vm=zz"),
            ("explain", "all.json", "--run=abc"),
            ("timeline", "all.json", "--run=0junk"),
            ("explain", "all.json", "--top=-3"),
            ("frobnicate", "all.json"),
            ("explain",),
            ("diff", "all.json"),
            ("explain", "missing.json"),
        ]
        for args in cases:
            status, err = self.inspect(*args)
            self.assertEqual(status, 2, args)
            self.assertTrue(err.strip(), f"{args}: no diagnostic")
        for args in cases[:6]:
            flag = next(a for a in args if a.startswith("--"))
            self.assertIn(flag.split("=")[0], self.inspect(*args)[1])

    def test_unknown_flag_gets_a_hint(self):
        status, err = self.inspect("diff", "--exat", "all.json",
                                   "all.json")
        self.assertEqual(status, 2)
        self.assertIn("did you mean '--exact'", err)

    def test_no_shared_section_exits_2(self):
        prof_only = self.doctored("prof_only.json",
                                  lambda r: r.pop("metrics", None))
        metrics_only = self.doctored("metrics_only.json",
                                     lambda r: r.pop("profile", None))
        self.assertEqual(self.inspect("diff", prof_only,
                                      metrics_only)[0], 2)


if __name__ == "__main__":
    RUN_EXPERIMENT, INSPECT = sys.argv[1:3]
    del sys.argv[1:3]
    unittest.main()
