#!/usr/bin/env python3
"""Tests for scripts/perf_gate.py's gbench mode (wired into ctest as
`hls_perf_gate`): matching host fingerprints compare times, a
fingerprint mismatch fails and names each differing field, and a
regression past the 15% threshold still fails on a matching host."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perf_gate.py")


def archive(path, real_time, num_cpus=4, build_type="release"):
    doc = {
        "context": {"num_cpus": num_cpus, "library_build_type": build_type},
        "benchmarks": [{"name": "BM_X", "run_type": "iteration",
                        "real_time": real_time, "time_unit": "ns"}],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


class GbenchFingerprint(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.dir.name, "base.json")
        self.cur = os.path.join(self.dir.name, "cur.json")

    def tearDown(self):
        self.dir.cleanup()

    def gate(self):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("HLS_PERF_")}
        proc = subprocess.run(
            [sys.executable, GATE, "--current", self.cur,
             "--baseline", self.base, "--format", "gbench"],
            capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout + proc.stderr

    def test_matching_fingerprints_pass(self):
        archive(self.base, 100.0)
        archive(self.cur, 110.0)
        code, out = self.gate()
        self.assertEqual(code, 0, out)
        self.assertIn("perf gate ok: 1 metrics within 15%", out)

    def test_mismatch_fails_naming_each_field(self):
        archive(self.base, 100.0, num_cpus=1, build_type="debug")
        archive(self.cur, 100.0, num_cpus=4, build_type="release")
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("host fingerprint", out)
        self.assertIn("num_cpus: baseline=1 current=4", out)
        self.assertIn("library_build_type: baseline='debug' current='release'",
                      out)
        self.assertNotIn("perf gate ok", out)

    def test_missing_fingerprint_field_fails(self):
        archive(self.base, 100.0)
        with open(self.cur, "w") as f:
            json.dump({"context": {"num_cpus": 4},
                       "benchmarks": [{"name": "BM_X", "real_time": 100.0}]},
                      f)
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("library_build_type: baseline='release' current=None",
                      out)

    def test_regression_past_threshold_fails_on_a_matching_host(self):
        archive(self.base, 100.0)
        archive(self.cur, 116.0)
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL BM_X [real_time]", out)
        self.assertIn("+16.0%", out)


if __name__ == "__main__":
    unittest.main()
