"""Tests of the benchmark itself (stdlib unittest; pytest also runs them).

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE as REF, HostSpeed  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()[-1:], proc.stderr


class SmokeRuns(unittest.TestCase):
    """Each workload, cut to its first few items, runs and is correct."""

    def check(self, workload, limit, trace):
        code, last, err = _run("--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--limit", str(limit))
        self.assertEqual(code, 0, err)
        result = json.loads(last[0])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], limit)
        kind = "per_layer" if trace else "end_to_end"
        spec = {m["name"]: m["unit"] for m in _spec()[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, spec)

    def test_catalog_q(self):
        self.check("catalog-q", 3, 0)

    def test_fp_procedure(self):
        self.check("fp-procedure", 2, 0)

    def test_iso_q(self):
        self.check("iso-q", 1, 0)

    def test_traced_run(self):
        self.check("iso-q", 1, 1)

    def test_no_source_tree(self):
        """Next to nothing but its own files, the run fails at once and
        prints no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("traces",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "iso-q",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class WitnessChecker(unittest.TestCase):
    # e1 e1 = e2 over Q, on both sides
    DOC = {"dim": 2, "field": "q",
           "table": [{"i": 1, "j": 1, "k": 2, "c": "1"}]}

    def test_accepts_valid_witnesses(self):
        self.assertEqual(oracle.witness_problems(
            self.DOC, self.DOC, [["1", "0"], ["0", "1"]]), [])
        # e1 -> 2 e1 forces e2 -> 4 e2
        self.assertEqual(oracle.witness_problems(
            self.DOC, self.DOC, [["2", "0"], ["0", "4"]]), [])

    def test_rejects_corrupted_witness(self):
        self.assertTrue(oracle.witness_problems(
            self.DOC, self.DOC, [["2", "0"], ["0", "3"]]))
        self.assertTrue(oracle.witness_problems(
            self.DOC, self.DOC, [["1", "1"], ["1", "1"]]))
        self.assertTrue(oracle.witness_problems(self.DOC, self.DOC, None))

    def test_rejects_corrupted_package_witness(self):
        nv = workloads.import_fresh()
        (item,) = workloads.build(nv, "iso-q", 3, limit=1)
        a_doc, b_doc = item.inputs
        witness = item.run()
        self.assertEqual(oracle.witness_problems(a_doc, b_doc, witness), [])
        bad = [row[:] for row in witness]
        bad[0][0] = str(oracle.parse_scalar(bad[0][0]) + Fraction(1, 2))
        self.assertTrue(oracle.witness_problems(a_doc, b_doc, bad))


class SelfTime(unittest.TestCase):
    def test_synthetic_nest(self):
        # root [0, 10]: child A [1, 4] holding G [2, 3]; child B [5, 9];
        # child C [8, 12] overlaps B and outlives the root
        parents = [-1, 0, 1, 0, 0]
        starts = [0.0, 1.0, 2.0, 5.0, 8.0]
        ends = [10.0, 4.0, 3.0, 9.0, 12.0]
        self.assertEqual(tracer.self_times(parents, starts, ends),
                         [2.0, 2.0, 1.0, 4.0, 4.0])

    def test_holes_leave_the_innermost_span(self):
        # root [0, 10] holding A [1, 4] holding G [2, 3]; holes in G, in
        # A after G ended, in the root, and outside every span
        parents = [-1, 0, 1]
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 4.0, 3.0]
        holes = [(2.25, 2.5), (3.5, 3.75), (6.0, 7.0), (11.0, 12.0)]
        self.assertEqual(tracer.self_times(parents, starts, ends, holes),
                         [6.0, 1.75, 0.75])

    def test_wrapped_functions(self):
        pkg = types.ModuleType("fakepkg")
        mod = types.ModuleType("fakepkg.m")
        other = types.ModuleType("fakepkg.other")

        def inner():
            time.sleep(0.02)

        def outer():
            time.sleep(0.01)
            mod.inner()
            mod.inner()

        mod.inner, mod.outer = inner, outer
        other.inner = inner            # imported by name elsewhere
        sys.modules.update({"fakepkg": pkg, "fakepkg.m": mod,
                            "fakepkg.other": other})
        try:
            t = tracer.Tracer(package="fakepkg")
            t.span("m.outer")
            t.span("m.inner")
            self.assertIsNot(other.inner, inner)
            mod.outer()
            t.uninstall()
            self.assertIs(other.inner, inner)
            summary = t.summary()
        finally:
            for name in ("fakepkg", "fakepkg.m", "fakepkg.other"):
                del sys.modules[name]
        self.assertEqual(summary["m.outer"][0], 1)
        self.assertEqual(summary["m.inner"][0], 2)
        self.assertGreaterEqual(summary["m.inner"][1], 0.04)
        self.assertGreaterEqual(summary["m.outer"][1], 0.01)
        self.assertLess(summary["m.outer"][1], 0.04)
        self.assertEqual(list(t.parent), [-1, 0, 0])


class Seeds(unittest.TestCase):
    def inputs(self, workload, seed):
        nv = workloads.import_fresh()
        return [(it.id, it.inputs)
                for it in workloads.build(nv, workload, seed)]

    def test_same_seed_same_inputs(self):
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                first = self.inputs(workload, 5)
                self.assertEqual(first, self.inputs(workload, 5))
                self.assertNotEqual(first, self.inputs(workload, 6))


class HostSpeedScaling(unittest.TestCase):
    def test_piecewise_scaling_skips_samples(self):
        s = HostSpeed()
        # samples at [0, 1] (kernel 2x reference), [5, 6] (1x reference)
        s.begin, s.end = [0.0, 5.0], [1.0, 6.0]
        s.took = [2 * REF, REF]
        # [2, 8]: 3 s before the second sample at mean speed 1.5x slow,
        # 2 s after it at reference speed; the sample itself is skipped
        self.assertAlmostEqual(s.normalize(2.0, 8.0), 3 / 1.5 + 2)


if __name__ == "__main__":
    unittest.main()
