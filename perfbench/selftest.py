#!/usr/bin/env python3
"""Self-test of the benchmark: short passes pass their checks, corrupted
outputs fail them and count in ``error_rate``, and the tracer sees what
the per-layer table expects.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import calibration
import run
import tracer as tracing
from calibration import REF_UNIT_S
from workloads import FederationWorkload, MatrixWorkload, ParseWorkload

SEED = 3


class WorkloadChecks(unittest.TestCase):
    """One short pass of each workload, then the same output corrupted."""

    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        self.prog = run.load_program()

    def tearDown(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _passes(self, workload, size="full"):
        result = workload.run_pass(size)
        self.assertEqual(workload.check(result.output, size), [])
        return result

    def test_matrix(self):
        w = MatrixWorkload(run.ROOT, self.run_dir)
        w.setup(self.prog, SEED, traced=False)
        result = self._passes(w)
        self.assertEqual(len(result.samples), 20)
        self._passes(w)  # a second pass matches the first byte for byte
        trace_file = next((w.out_dir / "cells").glob("*.trace.jsonl"))
        trace_file.write_bytes(trace_file.read_bytes() + b"\n")
        self.assertTrue(any("cell files differ" in e for e in w.check(result.output)))

    def test_matrix_file_not_written_again(self):
        w = MatrixWorkload(run.ROOT, self.run_dir)
        w.setup(self.prog, SEED, traced=False)
        self._passes(w)
        # A pass that skips a file leaves the stale mark that run_pass set.
        report = next((w.out_dir / "cells").glob("*.report.json"))
        honest = self.prog.scenario.run_matrix

        def skipping(out_dir):
            content = report.read_bytes()
            result = honest(out_dir)
            report.write_bytes(content)
            os.utime(report, ns=(0, 0))
            return result

        self.prog.scenario.run_matrix = skipping
        errors = w.check(w.run_pass().output)
        self.assertTrue(any("not written again" in e for e in errors))

    def test_matrix_wrong_verdict(self):
        w = MatrixWorkload(run.ROOT, self.run_dir)
        w.setup(self.prog, SEED, traced=False)
        w.golden = w.golden.replace("Spoofed,spoofed,true", "Legit,spoofed,true", 1)
        errors = w.check(w.run_pass().output)
        self.assertTrue(any("golden" in e for e in errors))

    def test_federation(self):
        w = FederationWorkload(n_calls=200)
        w.setup(self.prog, SEED, traced=False)
        net = w.run_pass().output
        self.assertEqual(w.check(net), [])
        self.assertGreater(len(net.policy_violations), 0)
        ingress = next(i for i, row in enumerate(net.trace) if row["dir"] == "ingress")
        del net.trace[ingress]
        errors = w.check(net)
        self.assertTrue(any("ingress" in e for e in errors))
        self.assertTrue(any("digest" in e for e in errors))
        net.policy_violations.pop()
        self.assertTrue(any("policy violations" in e for e in w.check(net)))

    def test_parse(self):
        w = ParseWorkload(self.run_dir, n_calls=100)
        w.setup(self.prog, SEED, traced=True)
        code, text = self._passes(w).output
        self._passes(w, "half")
        self.assertEqual(len(text.splitlines()), 100)
        dropped = "".join(text.splitlines(keepends=True)[1:])
        errors = w.check((code, dropped))
        self.assertTrue(any("legs for 100 originations" in e for e in errors))
        self.assertTrue(any("differs from the first pass" in e for e in errors))


class ReferenceSeconds(unittest.TestCase):
    def test_drift_cancels(self):
        # A pass and its calibration blocks slowed alike read the same.
        steady = run.reference_seconds([(0.5, 0.001), (0.5, 0.001)])
        slowed = run.reference_seconds([(0.5, 0.001), (0.9, 0.0018)])
        self.assertAlmostEqual(steady, 0.5 * REF_UNIT_S / 0.001)
        self.assertAlmostEqual(slowed, steady)

    def test_unit_is_deterministic(self):
        self.assertEqual(calibration.unit(), calibration.unit())
        self.assertGreater(calibration.seconds_per_unit(3), 0)


class ErrorRate(unittest.TestCase):
    def test_corrupted_output_and_crash_count_as_failures(self):
        prog = run.load_program()
        w = FederationWorkload(n_calls=50)
        w.setup(prog, SEED, traced=False)
        tally = run.Tally()
        self.assertIsNotNone(run.checked_pass(w, tally))

        honest = w.run_pass

        def corrupted(size="full"):
            result = honest(size)
            result.output.trace.pop()
            return result

        w.run_pass = corrupted
        self.assertIsNone(run.checked_pass(w, tally))

        def crashing(size="full"):
            raise RuntimeError("boom")

        w.run_pass = crashing
        self.assertIsNone(run.checked_pass(w, tally))
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertAlmostEqual(tally.error_rate, 2 / 3)
        self.assertTrue(any("boom" in e for e in tally.errors))


class TracedRun(unittest.TestCase):
    def test_federation_layers(self):
        prog = run.load_program()
        originals = (prog.netsim.serialize_message, prog.netsim.Federation.send)
        w = FederationWorkload(n_calls=100)
        w.setup(prog, SEED, traced=True)
        t = tracing.Tracer("selftest")
        t.install(prog)
        try:
            result = w.run_pass()
            m = t.pass_metrics(w.rows_read())
        finally:
            t.uninstall()
        self.assertEqual(w.check(result.output), [])
        self.assertEqual(m["sip_core.serialize.per_send"], 2.0)
        self.assertEqual(m["sip_core.parse.calls"], 0)
        self.assertEqual(m["cive.verify.calls"], 0)
        self.assertEqual(m["netsim.trace_rows"], len(result.output.trace))
        self.assertEqual((prog.netsim.serialize_message, prog.netsim.Federation.send), originals)
        # Child spans lie inside their parent, so no self time is negative.
        for name, seconds in t.self_s.items():
            self.assertGreaterEqual(seconds, -1e-9, name)

    def test_matrix_layers(self):
        prog = run.load_program()
        w = MatrixWorkload(run.ROOT, Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)))
        try:
            w.setup(prog, SEED, traced=True)
            t = tracing.Tracer("selftest")
            t.install(prog)
            try:
                result = w.run_pass()
                m = t.pass_metrics(w.rows_read())
            finally:
                t.uninstall()
            self.assertEqual(w.check(result.output), [])
        finally:
            shutil.rmtree(w.out_dir.parent, ignore_errors=True)
        self.assertEqual(m["cive.verify.calls"], 20)
        self.assertEqual(m["sip_core.parse.calls"], 0)
        self.assertEqual(m["sip_core.serialize.per_send"], 2.0)
        self.assertGreater(m["netsim.write_trace.self_s"], 0)


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.WORK))
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "matrix",
                 "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
