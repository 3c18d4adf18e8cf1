#!/usr/bin/env python3
"""Failure isolation: an operation that aborts its process is counted
as failed, and the operations after it still run.

Run from the root of a checkout after one benchmark run has built
e2ebench (or after `python3 e2ebench/run.py ...`):

    python3 e2ebench/test_isolation.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class IsolationTest(unittest.TestCase):
    def test_abort_is_counted_not_fatal(self):
        binary = os.path.join(run.build_dir(), "e2ebench")
        if not os.path.exists(binary):
            binary = run.build()
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "outcomes.jsonl")
            proc = subprocess.run([binary, "--isolation-selftest",
                                   "--out=" + out], timeout=60)
            self.assertEqual(proc.returncode, 0)
            with open(out) as f:
                outcomes = [json.loads(line) for line in f]
        self.assertEqual([o["index"] for o in outcomes], [0, 1, 2])
        self.assertEqual([o["returned"] for o in outcomes],
                         [True, False, True])
        self.assertIn("signal 6", outcomes[1]["line"])
        self.assertEqual(outcomes[2]["line"], "op2")

    def test_failed_ops_count_in_error_frac(self):
        ops = [
            {"kind": "witness", "target": "jsonq", "ok": True},
            {"kind": "witness", "target": "elfread", "ok": False,
             "error": "bundle does not diverge on replay"},
            {"kind": "failed", "op": {"target": "floatpack"},
             "error": "signal 6 (Aborted)"},
        ]
        failed = [op for op in ops if run.op_failed(op)]
        self.assertEqual(len(failed), 2)
        self.assertEqual([run.op_target(op) for op in failed],
                         ["elfread", "floatpack"])


if __name__ == "__main__":
    unittest.main()
