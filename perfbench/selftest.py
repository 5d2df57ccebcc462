"""Quick tests of the benchmark's own code (a few seconds).

Usage: python3 perfbench/selftest.py

Each correctness check is shown to accept a right answer and to reject a
wrong one; the span arithmetic is checked on hand-made spans.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = HERE.parent / ".perfbench_out"


class ExactValues(unittest.TestCase):
    def test_phi_and_kl(self):
        self.assertAlmostEqual(checks.phi(-1.0), 0.15865525393145707, places=14)
        self.assertAlmostEqual(checks.gaussian_kl(0.3, 1.0, 0.1, 1.0), 0.02, places=14)
        self.assertAlmostEqual(checks.gaussian_kl(0.0, 1.0, 0.0, 4.0), math.log(2.0) - 0.375, places=14)


class SweepCheck(unittest.TestCase):
    sigmas = (1.0, 2.0)
    T = 10_000
    grid = (0.5, 1.0, 1.5)

    def rows(self, **override):
        rows = []
        for x in self.grid:
            gap = x * 3.0 / math.sqrt(self.T)
            misid = checks.phi(-x)
            row = {
                "x": repr(x), "T": str(self.T), "R": "1600", "seed": "9",
                "gap": repr(gap), "misid_prob": repr(misid),
                "mean_regret": repr(gap * misid),
                "regret_se": repr(gap * math.sqrt(misid * (1 - misid) / 1600)),
                "scaled_regret": repr(math.sqrt(self.T) * gap * misid),
                "n1_frac": repr(0.335),
            }
            row.update(override)
            rows.append(row)
        return rows

    def errors(self, rows):
        return checks.check_sweep_rows(rows, self.sigmas, self.T, self.grid, 1600, 9)

    def test_consistent_rows_pass(self):
        self.assertEqual(self.errors(self.rows()), [])

    def test_each_wrong_column_fails(self):
        for bad in (
            {"scaled_regret": "1.9", "regret_se": "0.0"},
            {"n1_frac": "0.36"},
            {"gap": "0.02"},
            {"mean_regret": "0.5"},
            {"seed": "10"},
        ):
            with self.subTest(bad=bad):
                self.assertTrue(self.errors(self.rows(**bad)))

    def test_resimulation_matches_and_notices_a_wrong_stream(self):
        from neyman_bai.distributions import Instance, Marginal
        from neyman_bai.engine import TrialConfig, replicate
        from neyman_bai.policies import AdaptiveNeyman

        T, seed, gap = 300, 12345, 0.1
        inst = Instance(Marginal.gaussian(gap, 1.0), Marginal.gaussian(0.0, 4.0))
        reps = replicate(TrialConfig(inst, T, AdaptiveNeyman(), "aipw", seed), 3)

        def trial(i):
            return checks.adaptive_aipw_trial(seed, i, (gap, 0.0), self.sigmas, T)

        self.assertEqual(checks.check_resimulation(reps, trial, range(3)), [])
        self.assertTrue(checks.check_resimulation(reps, lambda i: trial(i + 1), range(3)))
        self.assertTrue(checks.check_resimulation(
            reps, lambda i: checks.adaptive_aipw_trial(seed + 1, i, (gap, 0.0), self.sigmas, T), range(3)
        ))


class TransportCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        class Small(workloads.TransportShort):
            R = 4000

        cls.wl = Small(5, OUT)
        cls.report = cls.wl.operation(1)

    def errors(self, report):
        return self.wl.check(report)

    def test_program_output_passes(self):
        self.assertEqual(self.errors(self.report), [])

    def test_wrong_values_fail(self):
        p = checks.phi(-1.0)
        se = math.sqrt(p * (1 - p) / self.wl.R)
        for bad in (
            {"satisfied": False},
            {"mean_n1": 24.0},
            {"lhs": self.report.lhs * (1 + 1e-9)},
            {"p_alternative": p + 6 * se},
            {"p_baseline": self.report.p_baseline - 0.05},
        ):
            with self.subTest(bad=bad):
                self.assertTrue(self.errors(dataclasses.replace(self.report, **bad)))


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        S = spans.Span
        s = [
            S(1, None, spans.REPLICATE, 0.0, 10.0, {"cells": 100, "cpu_s": 12.0}, -0.5, 10.5),
            S(2, 1, spans.SPAWN, 1.0, 3.0, None, 1.0, 3.0),
            S(3, 1, spans.DRAW, 2.5, 3.5, {"values": 10, "bytes": 80}, 2.0, 4.0),  # overlaps 2
            S(4, 1, spans.SPAWN, 9.0, 12.0, None, 9.0, 12.0),  # clipped at the parent's end
        ]
        self.assertEqual(spans.self_times(s)[1], 10.0 - 3.0 - 1.0)
        self.assertEqual(spans.self_times(s)[3], 1.0)
        m = spans.layer_metrics(s)
        self.assertEqual(m["engine.replicate_self_s"], 6.0)
        self.assertEqual(m["rng.spawn_calls"], 2)
        self.assertEqual(m["rng.spawn_s"], 5.0)
        self.assertEqual(m["distributions.draw_ns_per_value"], 1e8)
        self.assertEqual(m["distributions.bytes_drawn"], 80)
        self.assertEqual(m["engine.replicate_cpu_per_wall"], 1.2)

    def test_worker_thread_spans_attach_to_replicate(self):
        from neyman_bai.distributions import Instance, Marginal
        from neyman_bai.engine import TrialConfig, replicate
        from neyman_bai.policies import Uniform

        inst = Instance(Marginal.gaussian(0.1, 1.0), Marginal.gaussian(0.0, 1.0))
        import neyman_bai.engine as engine

        tracer = spans.Tracer()
        chunk_cells = engine._CHUNK_CELLS
        engine._CHUNK_CELLS = 1000  # 5 replications per chunk at T=100, threads=2
        try:
            with spans.installed(tracer):
                engine.replicate(TrialConfig(inst, 100, Uniform(), "sample_mean", 1), 40, threads=2)
        finally:
            engine._CHUNK_CELLS = chunk_cells
        self.assertIs(engine.replicate, replicate)
        got = tracer.take()
        (rep,) = [x for x in got if x.name == spans.REPLICATE]
        leaves = [x for x in got if x.name in spans.LEAVES]
        self.assertEqual(len(leaves), 160)
        self.assertTrue(all(x.parent == rep.id for x in leaves))


class EntryPoint(unittest.TestCase):
    def test_master_seed_is_a_function_of_workload_and_seed(self):
        a = workloads.master_seed("transport_short", 1)
        self.assertEqual(a, workloads.master_seed("transport_short", 1))
        self.assertNotEqual(a, workloads.master_seed("transport_short", 2))
        self.assertNotEqual(a, workloads.master_seed("sweep_adaptive_2t", 1))

    def test_fails_without_package_source(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "transport_short",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
