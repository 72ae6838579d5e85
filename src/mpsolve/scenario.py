"""Scenario configuration files and the deterministic run / converge /
compare-dirac drivers behind the CLI.

Configs are strict JSON: unknown keys are fatal and every violation is
reported, not just the first.  CSV output is byte-stable across runs (17
significant digits, '.' decimal separator, '\\n' line endings); together
with the eigenvector sign convention this makes identical configs produce
identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from . import dirac as dirac_mod
from .core import (Grid, HamiltonianSpec, PotentialSpec, ScaleProfile, WaveFunction,
                   inner_product, norm_squared)
from .eigensolver import discretize, eigendecompose
from .projection import AVERAGING_MODES, EvolutionResult, build_schedule, evolve, project

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "EngineError",
    "RunSummary",
    "parse_scenario",
    "run_scenario",
    "converge_scenario",
    "compare_dirac_scenario",
    "bundled_scenario_path",
]

DEFAULT_GRID = {"x_min": -12.0, "x_max": 12.0, "points": 1024}
DEFAULT_UNITS = {"hbar": 1.0, "mass": 1.0}
DEFAULT_TRUNCATION = 64
EMIT_CHOICES = ("energy", "coefficients", "summary")


class ScenarioError(ValueError):
    """Invalid scenario configuration; carries the full violation list."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class EngineError(RuntimeError):
    """A run failed after validation (solver or I/O trouble)."""


@dataclass(frozen=True)
class ScenarioConfig:
    raw: dict
    grid: Grid
    hamiltonian: HamiltonianSpec
    profile: ScaleProfile
    t0: float
    t1: float
    slices: int
    averaging: str
    truncation: int | None
    eigenstate: int | None
    amplitudes: np.ndarray | None
    out_dir: str
    emit: tuple[str, ...]
    reference: bool
    dirac: dict | None

    @property
    def scenario_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class RunSummary:
    scenario_hash: str
    final_energy_ratio: float
    final_norm: float
    final_coefficients: np.ndarray
    phase_vs_reference: float | None
    wall_time_s: float


def _check_keys(section: dict, allowed: set[str], where: str, errors: list[str]):
    for key in section:
        if key not in allowed:
            errors.append("%s: unknown key %r" % (where, key))


def _num(section, key, where, errors, default=None, positive=False, integer=False):
    if key not in section:
        if default is None:
            errors.append("%s: missing required key %r" % (where, key))
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append("%s.%s: expected a number" % (where, key))
        return default
    if integer and int(val) != val:
        errors.append("%s.%s: expected an integer" % (where, key))
        return default
    if positive and not val > 0:
        errors.append("%s.%s: must be > 0" % (where, key))
        return default
    return int(val) if integer else float(val)


def _parse_profile(section: dict, errors: list[str]) -> ScaleProfile:
    fallback = ScaleProfile.constant()
    if not isinstance(section, dict):
        errors.append("potential.scale: expected an object")
        return fallback
    kind = section.get("kind")
    if kind == "constant":
        _check_keys(section, {"kind", "value"}, "potential.scale", errors)
        value = _num(section, "value", "potential.scale", errors, default=1.0, positive=True)
        return ScaleProfile.constant(value if value else 1.0)
    if kind == "step":
        _check_keys(section, {"kind", "eta", "t_on"}, "potential.scale", errors)
        eta = _num(section, "eta", "potential.scale", errors, positive=True)
        t_on = _num(section, "t_on", "potential.scale", errors, default=0.0)
        return ScaleProfile.step(eta, t_on) if eta else fallback
    if kind == "pulse":
        _check_keys(section, {"kind", "eta", "t_on", "t_off"}, "potential.scale", errors)
        eta = _num(section, "eta", "potential.scale", errors, positive=True)
        t_on = _num(section, "t_on", "potential.scale", errors)
        t_off = _num(section, "t_off", "potential.scale", errors)
        if eta and t_on is not None and t_off is not None and t_on < t_off:
            return ScaleProfile.pulse(eta, t_on, t_off)
        if t_on is not None and t_off is not None and not t_on < t_off:
            errors.append("potential.scale: pulse requires t_on < t_off")
        return fallback
    if kind == "sampled":
        _check_keys(section, {"kind", "times", "values"}, "potential.scale", errors)
        times = section.get("times")
        values = section.get("values")
        try:
            return ScaleProfile.sampled(times, values)
        except (ValueError, TypeError) as exc:
            errors.append("potential.scale: %s" % exc)
            return fallback
    errors.append("potential.scale.kind: must be one of constant/step/pulse/sampled")
    return fallback


def _parse_potential(section: Any, errors: list[str]) -> tuple[PotentialSpec, ScaleProfile]:
    constant = ScaleProfile.constant()
    fallback = (PotentialSpec.harmonic(1.0), constant)
    if not isinstance(section, dict):
        errors.append("potential: expected an object")
        return fallback
    kind = section.get("kind")
    if kind == "harmonic":
        _check_keys(section, {"kind", "k"}, "potential", errors)
        k = _num(section, "k", "potential", errors, default=1.0, positive=True)
        return (PotentialSpec.harmonic(k), constant) if k else fallback
    if kind == "scaled_harmonic":
        _check_keys(section, {"kind", "k", "scale"}, "potential", errors)
        k = _num(section, "k", "potential", errors, default=1.0, positive=True)
        profile = _parse_profile(section.get("scale", {"kind": "constant"}), errors)
        if k:
            return PotentialSpec.scaled_harmonic(k, profile), profile
        return fallback
    if kind == "tabulated":
        _check_keys(section, {"kind", "x_samples", "t_samples", "v_samples"},
                    "potential", errors)
        try:
            pot = PotentialSpec.tabulated(section.get("x_samples"),
                                          section.get("t_samples"),
                                          section.get("v_samples"))
            return pot, constant
        except (ValueError, TypeError) as exc:
            errors.append("potential: %s" % exc)
            return fallback
    errors.append("potential.kind: must be one of harmonic/scaled_harmonic/tabulated")
    return fallback


def _finite(parse):
    def number(token: str):
        val = parse(token)
        if not math.isfinite(val):  # OverflowError for ints beyond a double
            raise ValueError("%s is not a finite double" % token)
        return val
    return number


def _section(raw: dict, key: str, errors: list[str]) -> dict:
    """raw[key] if it is an object, {} if absent, else a violation."""
    val = raw.get(key, {})
    if isinstance(val, dict):
        return val
    errors.append("%s: expected an object" % key)
    return {}


def _read_amplitudes(path: str, points: int | None,
                     errors: list[str]) -> np.ndarray | None:
    """Initial amplitudes from a CSV with `re` and `im` columns, one row per
    grid node; None with a violation recorded if the file is unusable."""
    where = "initial_state.amplitude_file"
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        errors.append("%s: cannot read: %s" % (where, exc))
        return None
    if not {"re", "im"} <= set(reader.fieldnames or ()):
        errors.append("%s: needs 're' and 'im' columns" % where)
        return None
    try:
        amps = np.array([complex(float(row["re"]), float(row["im"])) for row in rows])
    except (TypeError, ValueError):
        errors.append("%s: every 're' and 'im' value must be a number" % where)
        return None
    if not np.all(np.isfinite(amps)):
        errors.append("%s: every 're' and 'im' value must be finite" % where)
        return None
    if points is not None and amps.size != points:
        errors.append("%s: %d rows, but grid.points is %d" % (where, amps.size, points))
        return None
    return amps


def parse_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; raises ScenarioError listing every
    violation found."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
        except (ValueError, OverflowError) as exc:
            raise ScenarioError(["not valid JSON: %s" % exc])
    if not isinstance(raw, dict):
        raise ScenarioError(["top level must be a JSON object"])

    errors: list[str] = []
    _check_keys(raw, {"grid", "units", "potential", "schedule", "basis",
                      "initial_state", "outputs", "reference", "dirac"},
                "top level", errors)

    grid_cfg = {**DEFAULT_GRID, **_section(raw, "grid", errors)}
    _check_keys(grid_cfg, {"x_min", "x_max", "points"}, "grid", errors)
    x_min = _num(grid_cfg, "x_min", "grid", errors)
    x_max = _num(grid_cfg, "x_max", "grid", errors)
    points = _num(grid_cfg, "points", "grid", errors, integer=True)
    if points is not None and points < 3:
        errors.append("grid.points: must be >= 3")
    if x_min is not None and x_max is not None and not x_min < x_max:
        errors.append("grid: x_min must be < x_max")
    grid_ok = None not in (x_min, x_max, points) and points >= 3 and x_min < x_max
    grid = Grid(x_min, x_max, points) if grid_ok else None

    units_cfg = {**DEFAULT_UNITS, **_section(raw, "units", errors)}
    _check_keys(units_cfg, {"hbar", "mass"}, "units", errors)
    hbar = _num(units_cfg, "hbar", "units", errors, positive=True)
    mass = _num(units_cfg, "mass", "units", errors, positive=True)

    potential, profile = _parse_potential(raw.get("potential"), errors)

    sched = raw.get("schedule")
    if not isinstance(sched, dict):
        errors.append("schedule: required object missing")
        sched = {}
    _check_keys(sched, {"t0", "t1", "slices", "averaging"}, "schedule", errors)
    t0 = _num(sched, "t0", "schedule", errors)
    t1 = _num(sched, "t1", "schedule", errors)
    slices = _num(sched, "slices", "schedule", errors, integer=True)
    if slices is not None and slices < 1:
        errors.append("schedule.slices: must be >= 1")
    if t0 is not None and t1 is not None and not t0 < t1:
        errors.append("schedule: t0 must be < t1")
    averaging = sched.get("averaging", "integral")
    if averaging not in AVERAGING_MODES:
        errors.append("schedule.averaging: must be one of %s" % "/".join(AVERAGING_MODES))

    basis_cfg = _section(raw, "basis", errors)
    _check_keys(basis_cfg, {"truncation"}, "basis", errors)
    truncation: int | None = DEFAULT_TRUNCATION
    if "truncation" in basis_cfg:
        if basis_cfg["truncation"] is None:
            truncation = None
        else:
            truncation = _num(basis_cfg, "truncation", "basis", errors,
                              integer=True, positive=True)

    init = _section(raw, "initial_state", errors)
    _check_keys(init, {"eigenstate", "amplitude_file"}, "initial_state", errors)
    eigenstate = None
    amplitudes = None
    if "eigenstate" in init and "amplitude_file" in init:
        errors.append("initial_state: ambiguous initial state "
                      "(both eigenstate and amplitude_file given)")
    elif "amplitude_file" in init:
        amplitude_file = init["amplitude_file"]
        if not isinstance(amplitude_file, str):
            errors.append("initial_state.amplitude_file: expected a path string")
        elif not os.path.exists(os.path.join(os.path.dirname(path), amplitude_file)):
            errors.append("initial_state.amplitude_file: file not found")
        else:
            amplitudes = _read_amplitudes(
                os.path.join(os.path.dirname(path), amplitude_file), points, errors)
    else:
        eigenstate = _num(init, "eigenstate", "initial_state", errors,
                          default=0, integer=True)
        if eigenstate is not None and eigenstate < 0:
            errors.append("initial_state.eigenstate: must be >= 0")
        if eigenstate is not None and points is not None and eigenstate >= points:
            errors.append("initial_state.eigenstate: must be < grid.points")

    outputs = _section(raw, "outputs", errors)
    _check_keys(outputs, {"directory", "emit"}, "outputs", errors)
    out_dir = outputs.get("directory", "out")
    if not isinstance(out_dir, str):
        errors.append("outputs.directory: expected a path string")
    emit = outputs.get("emit", list(EMIT_CHOICES))
    if not isinstance(emit, list):
        errors.append("outputs.emit: expected a list")
        emit = []
    for item in emit:
        if item not in EMIT_CHOICES:
            errors.append("outputs.emit: unknown output %r" % (item,))

    reference = raw.get("reference", False)
    if not isinstance(reference, bool):
        errors.append("reference: expected true or false")
        reference = False

    covered = [("schedule.t0", t0), ("schedule.t1", t1)]
    dirac_cfg = raw.get("dirac")
    if dirac_cfg is not None:
        if not isinstance(dirac_cfg, dict):
            errors.append("dirac: expected an object")
            dirac_cfg = None
        else:
            _check_keys(dirac_cfg, {"states", "rk4_steps", "targets", "t1"},
                        "dirac", errors)
            states = _num(dirac_cfg, "states", "dirac", errors, integer=True, positive=True)
            _num(dirac_cfg, "rk4_steps", "dirac", errors, integer=True, positive=True)
            if "t1" in dirac_cfg:
                t_end = _num(dirac_cfg, "t1", "dirac", errors)
                covered.append(("dirac.t1", t_end))
                if t_end is not None and t0 is not None and not t0 < t_end:
                    errors.append("dirac.t1: must be > schedule.t0")
            targets = dirac_cfg.get("targets")
            if not isinstance(targets, list) or not targets or not all(
                isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in targets
            ):
                errors.append("dirac.targets: expected a non-empty list of state indices")
            elif states is not None and max(targets) >= states:
                errors.append("dirac.targets: every index must be < dirac.states")

    if potential.kind == "tabulated" or profile.kind == "sampled":
        knots = potential.breakpoints()
        for name, t in covered:
            if t is not None and not knots[0] <= t <= knots[-1]:
                errors.append("potential: samples span [%g, %g], not %s = %g"
                              % (knots[0], knots[-1], name, t))
    if potential.kind == "tabulated" and grid is not None and not (
        potential.x_samples.shape == (grid.points,)
        and np.allclose(potential.x_samples, grid.x, rtol=0, atol=1e-12)
    ):
        errors.append("potential.x_samples: must be the grid nodes")

    if errors:
        raise ScenarioError(errors)

    return ScenarioConfig(
        raw=raw,
        grid=grid,
        hamiltonian=HamiltonianSpec(mass, hbar, potential),
        profile=profile,
        t0=t0, t1=t1, slices=slices, averaging=averaging,
        truncation=truncation,
        eigenstate=eigenstate, amplitudes=amplitudes,
        out_dir=out_dir, emit=tuple(emit), reference=reference, dirac=dirac_cfg,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(fh: TextIO, header: list[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                          for v in row) + "\n")


def _write_json(fh: TextIO, doc: dict) -> None:
    json.dump(doc, fh, indent=2)
    fh.write("\n")


@contextmanager
def _output_files(directory: str) -> Iterator[Callable[[str], TextIO]]:
    """Body of a driver that writes into `directory`.  Yields `create(name)`,
    which opens a file there for writing and records its path once the file
    exists.  A solver or I/O failure in the body removes the recorded files,
    and only those, and is raised as EngineError."""
    written: list[str] = []

    def create(name: str) -> TextIO:
        path = os.path.join(directory, name)
        fh = open(path, "w", encoding="utf-8", newline="\n")
        written.append(path)
        return fh

    try:
        os.makedirs(directory, exist_ok=True)
        yield create
    except (RuntimeError, ValueError, OSError, KeyError) as exc:
        for path in written:
            os.remove(path)
        raise EngineError(str(exc)) from exc


def _initial_state(config: ScenarioConfig) -> WaveFunction:
    if config.amplitudes is not None:
        return WaveFunction(config.grid, config.amplitudes)
    n = config.eigenstate
    basis = eigendecompose(discretize(config.hamiltonian, config.grid, config.t0),
                           config.grid, n + 1)
    return basis.state(n)


def _reference_hamiltonian(config: ScenarioConfig) -> HamiltonianSpec:
    """Same Hamiltonian but with the scale frozen at its t0 value."""
    pot = config.hamiltonian.potential
    if pot.kind != "scaled_harmonic":
        return config.hamiltonian
    frozen = ScaleProfile.constant(config.profile(config.t0))
    return HamiltonianSpec(config.hamiltonian.mass, config.hamiltonian.hbar,
                           PotentialSpec.scaled_harmonic(pot.k, frozen))


def _energy_scale(config: ScenarioConfig) -> float:
    """E_0 used for reported energy ratios: the exact hbar omega / 2 of the
    t0-frozen oscillator for harmonic kinds, the grid ground energy
    otherwise."""
    h = config.hamiltonian
    pot = h.potential
    if pot.kind in ("harmonic", "scaled_harmonic"):
        k_eff = pot.k * (config.profile(config.t0) if pot.kind == "scaled_harmonic" else 1.0)
        return 0.5 * h.hbar * math.sqrt(k_eff / h.mass)
    basis = eigendecompose(discretize(h, config.grid, config.t0), config.grid, 1)
    return float(basis.energies[0])


def _run_evolution(config: ScenarioConfig) -> EvolutionResult:
    psi0 = _initial_state(config)
    schedule = build_schedule(config.t0, config.t1, config.slices,
                              config.profile, config.averaging)
    return evolve(psi0, config.hamiltonian, schedule, config.truncation)


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunSummary:
    """Evolve the scenario and write energy.csv / coefficients.csv /
    summary.json (per the emit list).  Files written before a failure are
    removed."""
    out = out_dir if out_dir is not None else config.out_dir
    start = time.perf_counter()
    with _output_files(out) as create:
        result = _run_evolution(config)

        phase = None
        if config.reference:
            psi0 = _initial_state(config)
            schedule = build_schedule(config.t0, config.t1, config.slices,
                                      None, config.averaging)
            ref = evolve(psi0, _reference_hamiltonian(config), schedule,
                         config.truncation)
            phase = float(np.angle(inner_product(ref.final_state, result.final_state)))

        last = result.reports[-1]
        summary = RunSummary(
            scenario_hash=config.scenario_hash,
            final_energy_ratio=last.energy / _energy_scale(config),
            final_norm=last.norm_squared,
            final_coefficients=last.coefficients,
            phase_vs_reference=phase,
            wall_time_s=time.perf_counter() - start,
        )

        if "energy" in config.emit:
            with create("energy.csv") as fh:
                _write_csv(fh, ["t_end", "energy", "norm"],
                           [(r.t_end, r.energy, r.norm_squared) for r in result.reports])
        if "coefficients" in config.emit:
            rows = []
            for r in result.reports:
                for k, c in enumerate(r.coefficients):
                    rows.append((r.slice_index, k, float(c.real), float(c.imag),
                                 float(abs(c) ** 2)))
            with create("coefficients.csv") as fh:
                _write_csv(fh, ["slice", "k", "re", "im", "abs2"], rows)
        if "summary" in config.emit:
            with create("summary.json") as fh:
                _write_json(fh, {
                    "scenario_hash": summary.scenario_hash,
                    "final_energy_ratio": summary.final_energy_ratio,
                    "final_norm": summary.final_norm,
                    "final_coefficients": [
                        [k, float(c.real), float(c.imag)]
                        for k, c in enumerate(summary.final_coefficients)
                    ],
                    "phase_vs_reference": summary.phase_vs_reference,
                    "wall_time_s": summary.wall_time_s,
                })
        return summary


def converge_scenario(config: ScenarioConfig, doublings: int,
                      out_dir: str | None = None) -> list[tuple[int, float]]:
    """Run the scenario at slices x {1, 2, 4, ...} and report the L2 error of
    each rung against a 4x-finer reference run; writes convergence.csv."""
    if doublings < 2:
        raise ScenarioError(["converge requires doublings >= 2"])
    out = out_dir if out_dir is not None else config.out_dir
    with _output_files(out) as create:
        psi0 = _initial_state(config)
        ladder = [config.slices * 2**i for i in range(doublings + 1)]
        ref_slices = ladder[-1] * 4

        def final_state(n_slices: int) -> np.ndarray:
            schedule = build_schedule(config.t0, config.t1, n_slices,
                                      config.profile, config.averaging)
            return evolve(psi0, config.hamiltonian, schedule,
                          config.truncation).final_state.amplitudes

        ref = final_state(ref_slices)
        rows = []
        errors = []
        for n_slices in ladder:
            diff = WaveFunction(config.grid, final_state(n_slices) - ref)
            err = math.sqrt(norm_squared(diff))
            errors.append(err)
            if len(errors) == 1:
                order = ""
            elif err == 0.0 or errors[-2] == 0.0:
                order = _fmt(0.0)
            else:
                order = _fmt(math.log2(errors[-2] / err))
            rows.append((n_slices, err, order))
        with create("convergence.csv") as fh:
            _write_csv(fh, ["slices", "l2_error", "observed_order"], rows)
        return [(n, e) for n, e in zip(ladder, errors)]


def compare_dirac_scenario(config: ScenarioConfig,
                           out_dir: str | None = None) -> dirac_mod.DivergenceReport:
    """Compare multi-projection, RK4 amplitude-equation, and first-order
    amplitudes per target state; writes dirac_compare.csv, norm_history.csv
    and divergence_report.json.  Files written before a failure are
    removed."""
    if config.dirac is None:
        raise ScenarioError(["compare-dirac requires a 'dirac' section "
                             "(states, rk4_steps, targets)"])
    out = out_dir if out_dir is not None else config.out_dir
    with _output_files(out) as create:
        n_states = int(config.dirac["states"])
        rk4_steps = int(config.dirac["rk4_steps"])
        targets = list(config.dirac["targets"])
        t_end = float(config.dirac.get("t1", config.t1))
        h = config.hamiltonian
        t0 = config.t0

        basis0 = eigendecompose(discretize(h, config.grid, t0), config.grid, n_states)
        psi0 = _initial_state(config)
        n_init = config.eigenstate if config.eigenstate is not None else 0

        # multi-projection run over the same window, projected back onto the
        # initial basis
        schedule = build_schedule(t0, t_end, config.slices, config.profile,
                                  config.averaging)
        mp_result = evolve(psi0, h, schedule, config.truncation, final_basis=basis0)
        mp_coeffs = mp_result.final_coefficients

        omegas = basis0.frequencies(h.hbar)

        def v_of_t(t: float) -> np.ndarray:
            return dirac_mod.perturbation_elements(h, basis0, t, t0)

        c0 = np.zeros(n_states, dtype=complex)
        c0[n_init] = project(psi0, basis0)[n_init]
        try:
            traj = dirac_mod.integrate_amplitudes(v_of_t, omegas, c0,
                                                  (t0, t_end), rk4_steps, h.hbar)
            rk4_final = traj.amplitudes[-1] * np.exp(-1j * omegas * (t_end - t0))
        except RuntimeError:
            # amplitude blow-up is itself a reportable outcome
            traj = None
            rk4_final = np.full(n_states, np.nan, dtype=complex)

        rows = []
        for m in targets:
            # first_order_amplitude integrates over [0, T]; V lives in absolute time
            b_fo = dirac_mod.first_order_amplitude(
                lambda t, m=m: v_of_t(t0 + t)[m, n_init], n_init, m, omegas,
                t_end - t0, quadrature_steps=max(rk4_steps, 1000), hbar=h.hbar,
            ) if m != n_init else complex("nan")
            a_mp = abs(mp_coeffs[m])
            a_rk = abs(rk4_final[m])
            a_fo = abs(b_fo)
            rows.append((m, a_mp, a_rk, a_fo,
                         abs(a_mp - a_rk), abs(a_mp - a_fo), abs(a_rk - a_fo)))
        with create("dirac_compare.csv") as fh:
            _write_csv(fh, ["m", "abs_c_multiproj", "abs_c_rk4", "abs_b_first_order",
                            "diff_mp_rk4", "diff_mp_fo", "diff_rk4_fo"], rows)

        if traj is not None:
            norms = traj.norm_history
            with create("norm_history.csv") as fh:
                _write_csv(fh, ["t", "norm"],
                           list(zip(traj.times.tolist(), norms.tolist())))
            report = dirac_mod.divergence_diagnostic(traj)
        else:
            report = dirac_mod.DivergenceReport(math.inf, math.inf, float(t0))
        with create("divergence_report.json") as fh:
            _write_json(fh, {"max_norm": report.max_norm,
                             "final_norm": report.final_norm,
                             "first_exceedance_time": report.first_exceedance_time})
        return report


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a bundled scenario (name with or without .json)."""
    from importlib.resources import files

    if not name.endswith(".json"):
        name += ".json"
    return str(files("mpsolve").joinpath("scenarios", name))
