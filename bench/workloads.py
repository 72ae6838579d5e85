"""Seeded inputs, operations and correctness checks of the benchmark workloads.

One op is what one CLI invocation does once mpsolve is imported: parse
the scenario files and run `run`, `converge` or `compare-dirac`.  Seed 0
uses the bundled scenario files as they are.  Any other seed writes
scenario files with the same grid, truncation and slice counts, so every
op does the same work; only the physical parameters are drawn.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

BUNDLED_DIR = os.path.join("src", "mpsolve", "scenarios")

QUENCHES = ("quench_eta025", "quench_eta081", "quench_eta121")
PULSES = ("pulse_eta081", "pulse_eta4")
RUN_SCENARIOS = QUENCHES + PULSES + ("stationary",)
DIRAC_SCENARIOS = ("quench_eta025", "dirac_weak")
CONVERGE_DOUBLINGS = 4

# Scenario files each workload passes to the program.
SCENARIOS = {
    "ramp_converge": ("smooth_ramp",),
    "bundled_run": RUN_SCENARIOS,
    "dirac_compare": DIRAC_SCENARIOS,
}

ETA_RANGE = (0.2, 1.5)
RAMP_PEAK_RANGE = (1.2, 2.0)
DIRAC_EPS_RANGE = (5e-4, 2e-3)

QUENCH_RATIO_TOL = 1e-3      # acceptance test 2
PULSE_PHASE_TOL = 1e-2       # acceptance test 3
STATIONARY_NORM_TOL = 1e-6   # acceptance test 4
LADDER_MIN_ORDER = 1.5       # acceptance test 8
DIRAC_AGREE_REL_TOL = 1e-2   # |C_mp - C_rk4| relative to |C_mp| on dirac_weak


def _ramp_values(peak: float, times: list[float]) -> list[float]:
    """S(t) = 1 + (peak - 1) sin^2(pi t / 2): 1 -> peak -> 1 over [0, 2]."""
    return [1.0 + (peak - 1.0) * math.sin(0.5 * math.pi * t) ** 2 for t in times]


def _load_bundled(root: str, name: str) -> dict:
    with open(os.path.join(root, BUNDLED_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _redraw(name: str, raw: dict, rng: random.Random) -> dict:
    """Copy of a bundled scenario with its physical parameter drawn anew."""
    raw = copy.deepcopy(raw)
    scale = raw["potential"].get("scale")
    if name.startswith("quench"):
        scale["eta"] = rng.uniform(*ETA_RANGE)
    elif name.startswith("pulse"):
        eta = rng.uniform(*ETA_RANGE)
        big_t = 4.0 * math.pi / math.sqrt(eta)
        scale.update(eta=eta, t_off=big_t)
        raw["schedule"]["t1"] = big_t
    elif name == "smooth_ramp":
        peak = rng.uniform(*RAMP_PEAK_RANGE)
        times = [round(0.01 * i, 2) for i in range(len(scale["times"]))]
        scale.update(times=times, values=_ramp_values(peak, times))
    elif name == "dirac_weak":
        scale["eta"] = 1.0 + rng.uniform(*DIRAC_EPS_RANGE)
    return raw


def scenario_files(root: str, workload: str, seed: int, dest: str) -> dict[str, str]:
    """Scenario name -> path of the file the program reads for this seed.

    Draws happen in a fixed order over every scenario name, so one seed
    gives the same parameters to a scenario whichever workload uses it.
    """
    names = SCENARIOS[workload]
    if seed == 0:
        return {n: os.path.join(root, BUNDLED_DIR, n + ".json") for n in names}
    rng = random.Random(seed)
    os.makedirs(dest, exist_ok=True)
    paths = {}
    for name in sorted(set(RUN_SCENARIOS + DIRAC_SCENARIOS + ("smooth_ramp",))):
        raw = _redraw(name, _load_bundled(root, name), rng)
        if name in names:
            paths[name] = os.path.join(dest, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(raw, fh, indent=2)
    return paths


def scale_eta(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        return float(json.load(fh)["potential"]["scale"]["eta"])


# ---------------------------------------------------------------- checks
# Each check returns a list of failure messages; an empty list passes.

def check_quench(ratio: float, eta: float) -> list[str]:
    err = abs(ratio - 0.5 * (1.0 + eta))
    if not err <= QUENCH_RATIO_TOL:
        return ["quench eta=%.6g: energy ratio %.9g is %.3g from (1+eta)/2"
                % (eta, ratio, err)]
    return []


def check_pulse(phase: float | None, eta: float, predicted: float) -> list[str]:
    if phase is None:
        return ["pulse eta=%.6g: no phase versus reference" % eta]
    circ = abs(math.remainder(phase - predicted, 2.0 * math.pi))
    if not circ < PULSE_PHASE_TOL:
        return ["pulse eta=%.6g: phase %.9g differs from prediction %.9g by %.3g"
                % (eta, phase, predicted, circ)]
    return []


def check_stationary(norms: list[float]) -> list[str]:
    drift = max((abs(n - 1.0) for n in norms), default=math.inf)
    if not drift <= STATIONARY_NORM_TOL:
        return ["stationary: norm drift %.3g" % drift]
    return []


def check_ladder(errors: list[float]) -> list[str]:
    if len(errors) < 2 or not all(e2 < e1 for e1, e2 in zip(errors, errors[1:])):
        return ["converge: errors do not fall strictly along the ladder: %r" % errors]
    if not errors[-1] > 0:
        return ["converge: zero error on the finest rung"]
    order = math.log2(errors[-2] / errors[-1])
    if not order >= LADDER_MIN_ORDER:
        return ["converge: last-rung order %.4g < %g" % (order, LADDER_MIN_ORDER)]
    return []


def check_dirac_agree(a_mp: float, a_rk: float) -> list[str]:
    if not abs(a_mp - a_rk) <= DIRAC_AGREE_REL_TOL * abs(a_mp):
        return ["dirac_weak: |C_mp|=%.9g and |C_rk4|=%.9g disagree" % (a_mp, a_rk)]
    return []


def check_identical(digests: dict[str, str], previous: dict[str, str]) -> list[str]:
    """Every CSV must match the previous op's copy (none on the first op)."""
    if not previous:
        return []
    return ["%s differs from the previous op's copy" % key
            for key in sorted(set(digests) | set(previous))
            if digests.get(key) != previous.get(key)]


# ---------------------------------------------------------------- ops

def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


def output_digests(out_dir: str) -> tuple[dict[str, str], int]:
    """sha256 of every CSV under out_dir, and the bytes of every file there.
    summary.json is left out of the digests: it carries wall_time_s."""
    digests, total = {}, 0
    for base, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            if name.endswith(".csv"):
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
    return digests, total


@dataclass
class Outcome:
    """What the checks made of one op."""

    failures: list[str] = field(default_factory=list)
    accuracy_err: float = math.nan


def execute(sc, workload: str, files: dict[str, str], out_dir: str) -> list:
    """The timed part of an op: parse each scenario file and call the
    scenario function through the `mpsolve.scenario` module `sc`.  Returns
    what each call returned, in file order."""
    results = []
    for name, path in files.items():
        config = sc.parse_scenario(path)
        out = os.path.join(out_dir, name)
        if workload == "ramp_converge":
            results.append(sc.converge_scenario(config, CONVERGE_DOUBLINGS, out))
        elif workload == "bundled_run":
            results.append(sc.run_scenario(config, out))
        else:
            results.append(sc.compare_dirac_scenario(config, out))
    return results


def check(workload: str, files: dict[str, str], results: list, out_dir: str) -> Outcome:
    """Check one op's returned values and written files."""
    from mpsolve.oscillator import pulse_phase_prediction

    outcome = Outcome()
    fail = outcome.failures.extend
    by_name = dict(zip(files, results))
    if workload == "ramp_converge":
        errors = [err for _, err in by_name["smooth_ramp"]]
        fail(check_ladder(errors))
        outcome.accuracy_err = errors[-1]
    elif workload == "bundled_run":
        quench_errs = []
        for name in QUENCHES:
            eta = scale_eta(files[name])
            ratio = by_name[name].final_energy_ratio
            fail(check_quench(ratio, eta))
            quench_errs.append(abs(ratio - 0.5 * (1.0 + eta)))
        for name in PULSES:
            eta = scale_eta(files[name])
            fail(check_pulse(by_name[name].phase_vs_reference, eta,
                             pulse_phase_prediction(eta)))
        rows = _read_csv(os.path.join(out_dir, "stationary", "energy.csv"))
        fail(check_stationary([float(r["norm"]) for r in rows]))
        outcome.accuracy_err = max(quench_errs)
    else:
        row = _read_csv(os.path.join(out_dir, "dirac_weak", "dirac_compare.csv"))[0]
        a_mp, a_rk = float(row["abs_c_multiproj"]), float(row["abs_c_rk4"])
        fail(check_dirac_agree(a_mp, a_rk))
        outcome.accuracy_err = abs(a_mp - a_rk)
    return outcome
