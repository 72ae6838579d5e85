"""mpsolve benchmark: one command, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
./src; nothing is installed.  One process is the only client and runs ops
back to back (a closed loop), with OpenBLAS on one thread.

Every run parses the workload's scenario files in fresh interpreters to
time set-up, runs one warm-up op on the bundled (seed-0) files, then times
ops on the seed's files for S seconds.  Every op's outputs are checked.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1, traced and untraced ops alternate and it
carries the per-layer metrics.  Spans are written to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

NPROC = len(os.sched_getaffinity(0))
# One OpenBLAS thread, set before numpy is first imported, here and in the
# set-up children.  The products here are small: on a 2-vCPU machine a
# second thread mostly spins, costing 1.8x the CPU time for no wall-time
# gain, and makes op times swing by up to 60% with any other load on the
# machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 15

# A fresh interpreter doing what every CLI invocation does before any work.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import mpsolve.cli
t1 = time.perf_counter()
from mpsolve.scenario import parse_scenario
for path in sys.argv[1:]:
    parse_scenario(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
"""


def declared_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas["name"], blas["version"])
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas,
            "openblas_num_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def measure_setup(paths: list[str]) -> dict[str, float]:
    """Median wall time of a fresh interpreter importing mpsolve.cli and
    parsing the files, over SETUP_SAMPLES runs after one untimed run that
    fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    walls, imports, parses = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *paths], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        wall = time.perf_counter() - t0
        if i:
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            walls.append(wall)
            imports.append(child["import_s"])
            parses.append(child["parse_s"])
    return {"setup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports),
            "scenario.parse_s": statistics.median(parses)}


def tail(walls: list[float]) -> tuple[float, int]:
    """(value, percentile) of the op wall time at the highest percentile with
    at least ten ops beyond it, but never below p75: a run holds too few ops
    for that rule to reach past the median, and the maximum of a few ops
    moves with every stall of a shared machine."""
    n = len(walls)
    pct = max(75, 100 * (n - 10) // n)
    rank = -(-pct * n // 100)  # nearest rank
    return sorted(walls)[rank - 1], pct


class Runner:
    """Runs, times and checks ops of one workload."""

    def __init__(self, sc, modules: dict, workload: str, work: str):
        self.sc = sc
        self.modules = modules
        self.workload = workload
        self.out = os.path.join(work, "out")
        self.recorder = tracing.SpanRecorder()
        self.attempted = 0
        self.failed = 0
        self.bytes_written: dict[int, int] = {}
        self._previous: dict[tuple, dict[str, str]] = {}

    def _execute(self, op_id: int, files: dict[str, str], traced: bool) -> list:
        if not traced:
            return workloads.execute(self.sc, self.workload, files, self.out)
        self.recorder.install(self.modules, OBSERVERS)
        try:
            return self.recorder.run_op(op_id, workloads.execute, self.sc,
                                        self.workload, files, self.out)
        finally:
            self.recorder.uninstall()

    def op(self, files: dict[str, str], traced: bool = False) -> tuple[float, workloads.Outcome]:
        """Run one op; returns its wall time and what the checks found.  An
        op that raises counts as failed, its time up to the raise is its
        wall time, and the run goes on."""
        op_id = self.attempted
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            try:
                results = self._execute(op_id, files, traced)
            finally:
                wall = time.perf_counter() - t0
            outcome = workloads.check(self.workload, files, results, self.out)
            digests, self.bytes_written[op_id] = workloads.output_digests(self.out)
            key = tuple(files.values())
            outcome.failures += workloads.check_identical(digests, self._previous.get(key, {}))
            self._previous[key] = digests
        except Exception:  # an op that raises is a failed op, not a failed run
            outcome = workloads.Outcome(failures=[traceback.format_exc()])
        if outcome.failures:
            self.failed += 1
            for line in outcome.failures:
                print("op %d failed: %s" % (op_id, line), file=sys.stderr)
        return wall, outcome

    def timed(self, files: dict[str, str], seconds: float, traced_pairs: bool):
        """Ops back to back while the next one (or pair) still fits in
        `seconds`; returns the untraced and the traced op wall times."""
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            step = statistics.median(plain) if plain else 0.0
            if traced_pairs and traced:
                step += statistics.median(traced)
            if plain and time.perf_counter() - start + step > seconds:
                break
            plain.append(self.op(files)[0])
            if traced_pairs:
                traced.append(self.op(files, traced=True)[0])
        return plain, traced


def _observe_evolve(rec, args, kwargs, result):
    slices = len(result.reports)
    n = args[0].grid.points
    m = result.reports[0].coefficients.size if slices else 0
    rec.count("slices", slices)
    rec.count("refreshed", sum(r.basis_refreshed for r in result.reports))
    rec.count("flops", 8.0 * n * m * slices)


def _observe_eigendecompose(rec, args, kwargs, result):
    n, m = result.vectors.shape
    rec.count("nm", n * m)


def _observe_integrate(rec, args, kwargs, result):
    rec.count("rk4_steps", result.times.size - 1)


OBSERVERS = {
    "projection.evolve": _observe_evolve,
    "eigensolver.eigendecompose": _observe_eigendecompose,
    "dirac.integrate_amplitudes": _observe_integrate,
}


def layer_metrics(spans: dict, counts: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced op from its spans and counters."""
    def get(name, key):
        return spans[name][key] if name in spans else 0.0

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    slices = counts.get("slices", 0.0)
    eig_calls = get("eigensolver.eigendecompose", "calls")
    eig_s = get("eigensolver.eigendecompose", "total_s")
    return {
        "scenario.self_s": layer_self("scenario."),
        "scenario.bytes_written": bytes_written,
        "projection.slices": slices,
        "projection.basis_refresh_ratio": counts.get("refreshed", 0.0) / slices if slices else 0.0,
        "projection.evolve_s": get("projection.evolve", "total_s"),
        "projection.self_s": layer_self("projection."),
        "projection.energy_s": get("projection.intermediate_energy", "total_s"),
        "projection.flops_computed": counts.get("flops", 0.0),
        "eigensolver.calls": eig_calls,
        "eigensolver.s": eig_s,
        "eigensolver.ms_per_call": 1e3 * eig_s / eig_calls if eig_calls else 0.0,
        "eigensolver.nm_sum": counts.get("nm", 0.0),
        "core.potential_evals": get("core.potential_on_grid", "calls"),
        "core.potential_s": get("core.potential_on_grid", "total_s"),
        "dirac.elements_calls": get("dirac.perturbation_elements", "calls"),
        "dirac.elements_s": get("dirac.perturbation_elements", "total_s"),
        "dirac.integrate_s": get("dirac.integrate_amplitudes", "total_s"),
        "dirac.first_order_s": get("dirac.first_order_amplitude", "total_s"),
        "dirac.self_s": layer_self("dirac."),
        "dirac.rk4_steps": counts.get("rk4_steps", 0.0),
    }


def import_program():
    """Import mpsolve from ./src and nowhere else."""
    init = os.path.join(SRC, "mpsolve", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("error: %s not found; run from the root of an mpsolve "
                         "checkout" % os.path.relpath(init, ROOT))
    sys.path.insert(0, SRC)
    import mpsolve
    import mpsolve.core
    import mpsolve.dirac
    import mpsolve.projection
    import mpsolve.scenario

    if os.path.realpath(mpsolve.__file__) != os.path.realpath(init):
        raise SystemExit("error: imported mpsolve from %s, not ./src" % mpsolve.__file__)
    return {name: sys.modules[name] for name in
            ("mpsolve.core", "mpsolve.dirac", "mpsolve.projection", "mpsolve.scenario")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units()
    modules = import_program()
    env = environment()
    print("environment %s" % json.dumps(env, sort_keys=True))

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    bundled = workloads.scenario_files(ROOT, args.workload, 0, work)
    files = workloads.scenario_files(ROOT, args.workload, args.seed,
                                     os.path.join(work, "inputs"))
    setup = measure_setup(list(files.values()))

    runner = Runner(modules["mpsolve.scenario"], modules, args.workload, work)
    _, warm = runner.op(bundled)
    plain, traced = runner.timed(files, args.seconds, traced_pairs=bool(args.trace))
    closure = runner.recorder.closure_errors()
    for line in closure:
        print("trace check failed: %s" % line, file=sys.stderr)

    if args.trace:
        runner.recorder.write(os.path.join(work, "spans.json"))
        per_op = runner.recorder.per_op()
        rows = [layer_metrics(per_op[op], runner.recorder.counters[op],
                              runner.bytes_written.get(op, 0)) for op in sorted(per_op)]
        values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        values["cli.import_s"] = setup["cli.import_s"]
        values["scenario.parse_s"] = setup["scenario.parse_s"]
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        samples = dict.fromkeys(values, len(traced))
        samples["cli.import_s"] = samples["scenario.parse_s"] = SETUP_SAMPLES
    else:
        tail_s, pct = tail(plain)
        values = {
            "wall_s_p50": statistics.median(plain),
            "wall_s_tail": tail_s,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": (runner.attempted - runner.failed) / runner.attempted,
            # From the warm-up op on the bundled files, so that it compares
            # across seeds: the drawn parameters move it by up to 5x.
            "accuracy_err": warm.accuracy_err,
        }
        samples = {"wall_s_p50": len(plain), "wall_s_tail": len(plain),
                   "setup_s": SETUP_SAMPLES, "peak_rss_mb": 1,
                   "ops_ok_frac": runner.attempted, "accuracy_err": 1}
        print("wall_s_tail is p%d of %d ops" % (pct, len(plain)))

    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": float(value) if math.isfinite(value) else None,
                         "unit": units[name]}
        print("%-32s %.6g %s (n=%d)" % (name, value, units[name], samples[name]))
    result = {"correct": runner.failed == 0 and not closure,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
