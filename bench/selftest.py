"""Self-tests of the benchmark itself (not of mpsolve).

    python3 bench/selftest.py

Run from the root of an mpsolve checkout; takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import run
import workloads

MODULES = run.import_program()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeScenario:
    """Stands in for mpsolve.scenario: each scenario function returns, and writes, what
    a correct program would, except for the one result named by `wrong`."""

    def __init__(self, wrong: str | None = None):
        self.wrong = wrong
        self.calls = 0

    def parse_scenario(self, path):
        return path

    def _csv(self, out, name, text):
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def converge_scenario(self, path, doublings, out):
        errors = [1e-3 / 4**i for i in range(doublings + 1)]
        if self.wrong == "ladder":
            errors[-1] = errors[-2] / 2.0  # order 1 on the last rung
        self._csv(out, "convergence.csv", "slices,l2_error\n")
        return [(8 * 2**i, e) for i, e in enumerate(errors)]

    def run_scenario(self, path, out):
        from mpsolve.oscillator import pulse_phase_prediction

        name = os.path.basename(path)[:-len(".json")]
        ratio, phase = 1.0, None
        if name.startswith("quench"):
            ratio = 0.5 * (1.0 + workloads.scale_eta(path))
            if self.wrong == "quench" and name == "quench_eta081":
                ratio += 2e-3
        if name.startswith("pulse"):
            phase = pulse_phase_prediction(workloads.scale_eta(path))
            if self.wrong == "pulse" and name == "pulse_eta4":
                phase += 0.05
        if name == "stationary":
            self.calls += 1
            drift = 1e-5 if self.wrong == "stationary" else 0.0
            energy = 0.5 + (1e-9 * self.calls if self.wrong == "identical" else 0.0)
            self._csv(out, "energy.csv", "t_end,energy,norm\n0.01,%r,1.0\n0.02,0.5,%r\n"
                      % (energy, 1.0 + drift))

        class Summary:
            final_energy_ratio = ratio
            phase_vs_reference = phase
        return Summary()

    def compare_dirac_scenario(self, path, out):
        a_rk = 0.95e-3 if self.wrong == "dirac" and "dirac_weak" in path else 1e-3
        self._csv(out, "dirac_compare.csv",
                  "m,abs_c_multiproj,abs_c_rk4\n2,%r,%r\n" % (1e-3, a_rk))
        return None


class Broken(FakeScenario):
    """An engine whose every compare-dirac call raises after a short delay."""

    DELAY_S = 0.05

    def compare_dirac_scenario(self, path, out):
        time.sleep(self.DELAY_S)
        raise RuntimeError("engine failure")


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        self.addCleanup(shutil.rmtree, self.work, ignore_errors=True)

    def runner(self, sc, workload):
        return run.Runner(sc, MODULES, workload, self.work)

    def test_benchmark_json_is_well_formed(self):
        spec = _spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.SCENARIOS))
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))

    def test_printed_metrics_are_declared(self):
        spec = _spec()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join("bench", "run.py"), "--workload",
                 "dirac_compare", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[kind]})
            units = {m["name"]: m["unit"] for m in spec[kind]}
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name])
                self.assertTrue(math.isfinite(metric["value"]))

    def test_wrong_result_counts_as_failed_op(self):
        cases = {"ladder": "ramp_converge", "quench": "bundled_run", "pulse": "bundled_run",
                 "stationary": "bundled_run", "dirac": "dirac_compare",
                 "identical": "bundled_run"}
        for wrong, workload in cases.items():
            with self.subTest(wrong=wrong):
                files = workloads.scenario_files(run.ROOT, workload, 3,
                                                 os.path.join(self.work, "inputs"))
                good = self.runner(FakeScenario(), workload)
                good.op(files)
                good.op(files)
                self.assertEqual((good.attempted, good.failed), (2, 0))
                bad = self.runner(FakeScenario(wrong), workload)
                bad.op(files)
                bad.op(files)
                self.assertEqual((bad.attempted, bad.failed),
                                 (2, 1 if wrong == "identical" else 2))

    def test_raising_op_counts_as_failed_op(self):
        files = workloads.scenario_files(run.ROOT, "dirac_compare", 0, self.work)
        runner = self.runner(Broken(), "dirac_compare")
        wall, outcome = runner.op(files)
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertIn("engine failure", outcome.failures[0])
        self.assertTrue(math.isfinite(wall))

    def test_raising_ops_end_the_timed_loop(self):
        files = workloads.scenario_files(run.ROOT, "dirac_compare", 0, self.work)
        for traced_pairs in (False, True):
            with self.subTest(traced_pairs=traced_pairs):
                runner = self.runner(Broken(), "dirac_compare")
                t0 = time.perf_counter()
                plain, traced = runner.timed(files, 0.5, traced_pairs)
                self.assertLess(time.perf_counter() - t0, 0.5 + 2 * Broken.DELAY_S)
                self.assertGreaterEqual(runner.attempted, 2)
                self.assertEqual(runner.failed, runner.attempted)
                self.assertEqual(len(plain) + len(traced), runner.attempted)
                self.assertTrue(all(math.isfinite(w) for w in plain + traced))

    def test_traced_and_untraced_csvs_are_identical(self):
        sc = MODULES["mpsolve.scenario"]
        for workload in ("bundled_run", "dirac_compare"):
            with self.subTest(workload=workload):
                files = workloads.scenario_files(run.ROOT, workload, 0, self.work)
                runner = self.runner(sc, workload)
                digests = []
                for traced in (False, True):
                    runner.op(files, traced=traced)
                    digests.append(workloads.output_digests(runner.out)[0])
                self.assertTrue(digests[0])
                self.assertEqual(digests[0], digests[1])
                self.assertEqual(runner.failed, 0)
                self.assertEqual(runner.recorder.closure_errors(), [])
                self.assertIs(sc.evolve, MODULES["mpsolve.projection"].evolve)

    def test_self_times_add_up(self):
        rec = run.tracing.SpanRecorder()

        def inner():
            rec.spans.append(run.tracing.Span("leaf", 1.0, 2.0, 0, 0))
        rec.run_op(0, inner)
        root = rec.spans[0]
        root.start, root.end = 0.0, 3.0
        rec.spans.append(run.tracing.Span("leaf", 1.5, 2.5, 0, 0))  # overlaps the first
        self.assertEqual(rec.self_times(), [1.5, 1.0, 1.0])
        self.assertNotEqual(rec.closure_errors(), [])

    def test_seeded_inputs(self):
        a = workloads.scenario_files(run.ROOT, "bundled_run", 11, os.path.join(self.work, "a"))
        b = workloads.scenario_files(run.ROOT, "bundled_run", 11, os.path.join(self.work, "b"))
        c = workloads.scenario_files(run.ROOT, "bundled_run", 12, os.path.join(self.work, "c"))
        for name in workloads.RUN_SCENARIOS:
            with open(a[name]) as fa, open(b[name]) as fb, open(c[name]) as fc:
                ra, rb, rc = json.load(fa), json.load(fb), json.load(fc)
            self.assertEqual(ra, rb)
            for key in ("grid", "basis", "initial_state", "outputs"):
                self.assertEqual(ra.get(key), rc.get(key))
            self.assertEqual(ra["schedule"]["slices"], rc["schedule"]["slices"])
            if name != "stationary":
                self.assertNotEqual(ra, rc)
        bundled = workloads.scenario_files(run.ROOT, "ramp_converge", 0, self.work)
        self.assertTrue(bundled["smooth_ramp"].startswith(
            os.path.join(run.ROOT, workloads.BUNDLED_DIR)))

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 75))
        self.assertEqual(run.tail([float(i) for i in range(1, 21)]), (15.0, 75))
        walls = [float(i) for i in range(1, 61)]
        value, pct = run.tail(walls)
        self.assertEqual(pct, 83)
        self.assertEqual(sum(w > value for w in walls), 10)


if __name__ == "__main__":
    unittest.main()
