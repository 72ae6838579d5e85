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
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import dirac as dirac_mod
from .core import (Grid, HamiltonianSpec, PotentialSpec, ScaleProfile, WaveFunction,
                   inner_product, norm_squared)
from .eigensolver import (Sector, SymTridiagonal, _count_below, discretize, eigendecompose,
                          mirror_symmetric, tridiagonal_hamiltonian)
from .projection import evolution_sector, evolve, project, slice_boundaries

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
# most bytes a scenario's retained eigenbasis (grid.points x states doubles), its
# RK4 amplitude history or its per-slice coefficients may take
MAX_BASIS_BYTES = 2 * 1024**3
# doubles per grid point that `validate`, or a cold eigensolve, holds besides
# the basis: tracemalloc read 9.5 for validation and 10.5 for `eigendecompose`
# of one state (2**20 points).  grid.points x _GRID_WORK doubles must fit in
# MAX_BASIS_BYTES as well, which caps the grid at 2**24 points
_GRID_WORK = 16
# most slices one evolution may take, `schedule.slices` and the finest `converge`
# rung alike: at 1-3 ms per slice 2**18 slices take minutes.  `evolve` also
# holds a report per slice, about 1.4 KB at 64 states (370 MB at 2**18), so the
# slices it takes times its retained states x 16 bytes must fit in
# MAX_BASIS_BYTES as well
MAX_SLICES = 2**18
# rows per formatted block in _write_csv
_CSV_BLOCK = 2048
# coefficients.csv rows above which a forked worker formats half of them.  A row
# takes about 4 us to format, and the worker costs about 5 ms (the fork, its
# copy-on-write faults, the join and the append): on 2 cores the split broke
# even near 4000 rows and saved about 20 ms at 16384, where a busy second CPU
# would cost little more than those 5 ms
_SPLIT_ROWS = 8 * _CSV_BLOCK


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
    t0: float
    t1: float
    slices: int
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
    eigensolves: dict[str, int]
    parity: str | None = None


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


def _parse_potential(section: Any, errors: list[str]) -> PotentialSpec:
    fallback = PotentialSpec.harmonic(1.0)
    if not isinstance(section, dict):
        errors.append("potential: expected an object")
        return fallback
    kind = section.get("kind")
    if kind == "harmonic":
        _check_keys(section, {"kind", "k"}, "potential", errors)
        k = _num(section, "k", "potential", errors, default=1.0, positive=True)
        return PotentialSpec.harmonic(k) if k else fallback
    if kind == "scaled_harmonic":
        _check_keys(section, {"kind", "k", "scale"}, "potential", errors)
        k = _num(section, "k", "potential", errors, default=1.0, positive=True)
        profile = _parse_profile(section.get("scale", {"kind": "constant"}), errors)
        return PotentialSpec.scaled_harmonic(k, profile) if k else fallback
    if kind == "tabulated":
        _check_keys(section, {"kind", "x_samples", "t_samples", "v_samples"},
                    "potential", errors)
        try:
            return PotentialSpec.tabulated(section.get("x_samples"),
                                           section.get("t_samples"),
                                           section.get("v_samples"))
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


def _read_amplitudes(path: str, points: int | None, grid: Grid | None,
                     errors: list[str]) -> np.ndarray | None:
    """Initial amplitudes from a CSV with `re` and `im` columns, one row per
    grid node; None with a violation recorded if the file is unusable or,
    on a valid grid, the state's norm is 0 or overflows."""
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
    if grid is not None and not 0.0 < norm_squared(WaveFunction(grid, amps)) < math.inf:
        errors.append("%s: the norm dx * sum |psi|^2 must be > 0 and finite" % where)
        return None
    return amps


def parse_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; raises ScenarioError listing every
    violation found, or the error met reading the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                                parse_constant=_finite(float))
            except (ValueError, OverflowError) as exc:
                raise ScenarioError(["not valid JSON: %s" % exc])
    except OSError as exc:
        raise ScenarioError([str(exc)]) from None
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

    known = len(errors)
    potential = _parse_potential(raw.get("potential"), errors)
    potential_ok = len(errors) == known

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
    if slices is not None and slices > MAX_SLICES:
        errors.append("schedule.slices: must be <= %d" % MAX_SLICES)
    if t0 is not None and t1 is not None and not t0 < t1:
        errors.append("schedule: t0 must be < t1")
    # kept so that existing files stay valid and keep their scenario_hash
    if sched.get("averaging", "integral") != "integral":
        errors.append('schedule.averaging: must be "integral", the exact slice average '
                      '(the midpoint_endpoint_mean mode was removed)')

    basis_cfg = _section(raw, "basis", errors)
    _check_keys(basis_cfg, {"truncation"}, "basis", errors)
    truncation: int | None = DEFAULT_TRUNCATION
    if "truncation" in basis_cfg:
        if basis_cfg["truncation"] is None:
            truncation = None
        else:
            truncation = _num(basis_cfg, "truncation", "basis", errors,
                              integer=True, positive=True)
    # truncation None here is either null (the full basis) or already a violation
    basis_fits = False
    if points is not None and (truncation is not None or basis_cfg.get("truncation") is None):
        retained = min(points, truncation or points)
        basis_fits = (_fits("basis", "eigenbasis", points, retained, 8, errors)
                      and _fits("grid.points", "grid-length work space", points, _GRID_WORK,
                                8, errors))

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
                os.path.join(os.path.dirname(path), amplitude_file), points, grid, errors)
    else:
        eigenstate = _num(init, "eigenstate", "initial_state", errors,
                          default=0, integer=True)
        if eigenstate is not None and eigenstate < 0:
            errors.append("initial_state.eigenstate: must be >= 0")
        if eigenstate is not None and points is not None and eigenstate >= points:
            errors.append("initial_state.eigenstate: must be < grid.points")
        if eigenstate is not None and truncation is not None and eigenstate >= truncation:
            errors.append("initial_state.eigenstate: must be < basis.truncation")

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
    if reference and potential.kind == "tabulated":
        errors.append("reference: a tabulated potential has no t0-frozen reference; "
                      "give a harmonic or scaled_harmonic potential")

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
            steps = _num(dirac_cfg, "rk4_steps", "dirac", errors, integer=True, positive=True)
            if None not in (states, points) and states > points:
                errors.append("dirac.states: must be <= grid.points")
            elif None not in (states, points):
                _fits("dirac.states", "eigenbasis", points, states, 8, errors)
            if None not in (states, steps):  # integrate_amplitudes keeps every step
                _fits("dirac.rk4_steps", "RK4 amplitude history", steps + 1, states, 16,
                      errors)
            t_end = t1
            if "t1" in dirac_cfg:
                t_end = _num(dirac_cfg, "t1", "dirac", errors)
                covered.append(("dirac.t1", t_end))
                if t_end is not None and t0 is not None and not t0 < t_end:
                    errors.append("dirac.t1: must be > schedule.t0")
            if None not in (t0, t_end, steps) and t0 < t_end:
                try:  # the pieces RK4 steps between
                    dirac_mod.rk4_pieces(potential.breakpoints(), (t0, t_end), steps)
                except ValueError as exc:
                    errors.append("dirac.rk4_steps: %s" % exc)
            targets = dirac_cfg.get("targets")
            if not isinstance(targets, list) or not targets or not all(
                isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in targets
            ):
                errors.append("dirac.targets: expected a non-empty list of state indices")
            elif states is not None and max(targets) >= states:
                errors.append("dirac.targets: every index must be < dirac.states")
            if "amplitude_file" in init:
                errors.append("dirac: compare-dirac starts from one retained eigenstate; "
                              "give initial_state.eigenstate, not amplitude_file")
            elif eigenstate is not None and states is not None and eigenstate >= states:
                errors.append("initial_state.eigenstate: must be < dirac.states")

    # the windows evolve runs on: [t0, t1], and [t0, dirac.t1] for compare-dirac;
    # converge's runs take at least schedule.slices slices over [t0, t1], so
    # these bounds cover them as well.  A slice's moments of V take about 4
    # doubles per grid point however many pieces its breakpoints cut it into,
    # within _GRID_WORK, so the pieces are not bounded
    ran = []
    for name, t_end in covered[1:]:
        if None not in (t0, t_end, slices) and t0 < t_end and 1 <= slices <= MAX_SLICES:
            try:
                bounds = slice_boundaries(potential, t0, t_end, slices)
            except ValueError as exc:
                errors.append("schedule: %s" % exc)
                continue
            ran.append(bounds.size - 1)
    if ran and basis_fits:  # evolve keeps every slice's retained coefficients
        _fits("schedule.slices", "per-slice coefficient history", max(ran), retained, 16,
              errors)

    if potential.kind == "tabulated" or potential.profile.kind == "sampled":
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
        potential_ok = False

    if grid is not None and None not in (hbar, mass) and potential_ok and basis_fits:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                wells = _wells(HamiltonianSpec(mass, hbar, potential), grid, t0)
        except ValueError as exc:  # a Hamiltonian entry beyond the double range
            errors.append("potential: %s" % exc)
        else:
            if truncation is not None and truncation < points:
                resolved = min(_count_below(m, s) for m, s in wells)
                if resolved < truncation:
                    errors.append("grid: too coarse for basis.truncation %d: only %d "
                                  "eigenvalues lie below min V + hbar^2/(2 mass dx^2), a "
                                  "quarter of the kinetic band" % (truncation, resolved))
            # evolve carries a state of one parity on its sector, and the odd
            # one holds none of a single retained state, the even ground state
            sector = None if amplitudes is None else evolution_sector(
                WaveFunction(grid, amplitudes), HamiltonianSpec(mass, hbar, potential))
            if sector is not None and sector.states(retained) == 0:
                errors.append("initial_state.amplitude_file: the state is odd and V "
                              "mirror-symmetric, so the one retained state, which is "
                              "even, holds none of it; give basis.truncation >= 2")

    if errors:
        raise ScenarioError(errors)

    return ScenarioConfig(
        raw=raw,
        grid=grid,
        hamiltonian=HamiltonianSpec(mass, hbar, potential),
        t0=t0, t1=t1, slices=slices,
        truncation=truncation,
        eigenstate=eigenstate, amplitudes=amplitudes,
        out_dir=out_dir, emit=tuple(emit), reference=reference, dirac=dirac_cfg,
    )


def _fits(where: str, what: str, rows: int, cols: int, itemsize: int,
          errors: list[str]) -> bool:
    """Whether a rows x cols array of `itemsize`-byte numbers fits in
    MAX_BASIS_BYTES; a violation if not."""
    size = rows * cols * itemsize
    if size > MAX_BASIS_BYTES:
        errors.append("%s: a %d x %d %s takes %d bytes, more than %d"
                      % (where, rows, cols, what, size, MAX_BASIS_BYTES))
    return size <= MAX_BASIS_BYTES


def _wells(h: HamiltonianSpec, grid: Grid,
           t0: float | None) -> list[tuple[SymTridiagonal, float]]:
    """The Hamiltonians that bound a run's resolution, each with its
    min V + hbar^2/(2 m dx^2); ValueError if an entry is beyond the double
    range.

    Above a quarter of the kinetic band 2 hbar^2/(m dx^2) the grid no longer
    resolves a state: the upper states of a coarse grid pair up nearly
    degenerate, and a truncation that cuts such a pair makes projections
    depend on rounding.  Scaled-harmonic ones are taken once, at the largest
    scale the profile takes (the stiffest well holds the fewest states);
    tabulated ones at t0 and at every sample time."""
    pot = h.potential
    if pot.kind == "tabulated":
        times = pot.breakpoints().tolist()
        if t0 is not None and times[0] <= t0 <= times[-1]:
            times.append(t0)
        wells = h.potential_on_grid(grid, np.array(times))
    else:
        wells = [0.5 * pot.profile.extent()[1] * pot.k * grid.x**2]
    quarter_band = 0.5 * h.hbar**2 / (h.mass * grid.dx**2)
    return [(tridiagonal_hamiltonian(h, grid, v), v.min() + quarter_band) for v in wells]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(fh: TextIO, header: list[str], row: str, rows: Iterable[Sequence]) -> None:
    """The header line, then the %-template `row` filled by each row of
    `rows` (any iterable), one line per row; floats go through %.17g, as
    `_fmt` gives them.  Rows are formatted _CSV_BLOCK at a time, so the
    writer's memory does not grow with the row count."""
    fh.write(",".join(header) + "\n")
    _write_rows(fh, row, rows)


def _write_rows(fh: TextIO, row: str, rows: Iterable[Sequence]) -> None:
    """`_write_csv` without the header line."""
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        fh.write((row + "\n") * len(block) % tuple(chain.from_iterable(block)))


def _write_json(fh: TextIO, doc: dict) -> None:
    json.dump(doc, fh, indent=2)
    fh.write("\n")


@contextmanager
def _output_files(directory: str) -> Iterator[Callable[[str], TextIO]]:
    """Body of a driver that writes into `directory`.  Yields `create(name)`,
    which opens a file there for writing and records its path once the file
    exists.  Any exception in the body removes the recorded files, and only
    those; an Exception is then raised as EngineError, and anything else,
    such as KeyboardInterrupt or SystemExit, as itself.

    A `_forked` worker never unwinds through here: multiprocessing ends a
    fork child with os._exit, so a worker cannot remove this process's
    files."""
    written: list[str] = []

    def create(name: str) -> TextIO:
        path = os.path.join(directory, name)
        fh = open(path, "w", encoding="utf-8", newline="\n")
        written.append(path)
        return fh

    try:
        os.makedirs(directory, exist_ok=True)
        yield create
    except BaseException as exc:
        for path in written:
            with suppress(FileNotFoundError):  # already gone, nothing to remove
                os.remove(path)
        if not isinstance(exc, Exception):
            raise
        raise EngineError(str(exc) or type(exc).__name__) from exc


def _initial_state(config: ScenarioConfig) -> WaveFunction:
    """The amplitude file's state, or eigenstate n of H at t0.  Where that
    H is mirror-symmetric, state n is state n // 2 of the even (n even) or
    odd sector (see `Sector.states`), solved on N/2 rows and unfolded
    exactly, so that `evolve` carries it on its sector."""
    if config.amplitudes is not None:
        return WaveFunction(config.grid, config.amplitudes)
    n = config.eigenstate
    matrix = discretize(config.hamiltonian, config.grid, config.t0)
    if not mirror_symmetric(matrix):
        return eigendecompose(matrix, config.grid, n + 1).state(n)
    sector = Sector(config.grid, -1.0 if n % 2 else 1.0)
    basis = eigendecompose(sector.matrix(matrix), sector, n // 2 + 1)
    return WaveFunction(config.grid, sector.unfold(basis.vectors[:, n // 2]))


def _reference_hamiltonian(config: ScenarioConfig) -> HamiltonianSpec:
    """The Hamiltonian frozen at t0: the scaled_harmonic potential with the
    constant profile S(t0).  Validation rejects `reference: true` for a
    tabulated potential, the only other kind."""
    pot = config.hamiltonian.potential
    frozen = replace(pot, profile=ScaleProfile.constant(pot.profile(config.t0)))
    return replace(config.hamiltonian, potential=frozen)


def _energy_scale(config: ScenarioConfig) -> float:
    """E_0 used for reported energy ratios: the exact hbar omega / 2 of the
    t0-frozen oscillator for a scaled_harmonic potential, the grid ground
    energy otherwise."""
    h = config.hamiltonian
    pot = h.potential
    if pot.kind == "scaled_harmonic":
        return 0.5 * h.hbar * math.sqrt(pot.k * pot.profile(config.t0) / h.mass)
    basis = eigendecompose(discretize(h, config.grid, config.t0), config.grid, 1)
    return float(basis.energies[0])


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunSummary:
    """Evolve the scenario and write energy.csv / coefficients.csv /
    summary.json (per the emit list).  Files written before a failure are
    removed."""
    out = out_dir if out_dir is not None else config.out_dir
    start = time.perf_counter()
    with _output_files(out) as create:
        psi0 = _initial_state(config)
        tick = time.perf_counter()
        result = evolve(psi0, config.hamiltonian, config.t0, config.t1, config.slices,
                        config.truncation)
        evolve_s = time.perf_counter() - tick
        eigensolve_s, project_s = result.eigensolve_s, result.project_s

        phase = None
        if config.reference:
            tick = time.perf_counter()
            ref = evolve(psi0, _reference_hamiltonian(config), config.t0, config.t1,
                         config.slices, config.truncation)
            evolve_s += time.perf_counter() - tick
            eigensolve_s += ref.eigensolve_s
            project_s += ref.project_s
            phase = float(np.angle(inner_product(ref.final_state, result.final_state)))

        last = result.reports[-1]
        summary = RunSummary(
            scenario_hash=config.scenario_hash,
            final_energy_ratio=last.energy / _energy_scale(config),
            final_norm=last.norm_squared,
            final_coefficients=last.coefficients,
            phase_vs_reference=phase,
            wall_time_s=time.perf_counter() - start,
            eigensolves=result.eigensolves,
            parity=result.parity,
        )

        tick = time.perf_counter()
        coefficients_s = _write_slice_files(create, config.emit, result.reports)
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
                    "eigensolves": summary.eigensolves,
                    "parity": summary.parity,
                    "timings": {"evolve_s": evolve_s,
                                "eigensolve_s": eigensolve_s,
                                "project_s": project_s,
                                "coefficients_s": coefficients_s,
                                "output_s": time.perf_counter() - tick},
                })
        return summary


_COEFFICIENT_ROW = "%d,%d,%.17g,%.17g,%.17g"


def _write_slice_files(create: Callable[[str], TextIO], emit: Sequence[str],
                       reports: Sequence) -> float:
    """energy.csv and coefficients.csv, each if `emit` names it; returns the
    seconds spent on coefficients.csv.

    A coefficients.csv of more than _SPLIT_ROWS rows is written on two
    processes where `_available_cpus` gives two: one `_forked` worker
    formats the rows of the second half of the slices into an unnamed file
    beside it, while this process writes energy.csv and the first half.
    That file is then appended in bounded chunks, and it is closed, so gone,
    on every way out.  Each row is formatted on its own, so the bytes are
    those of a serial write.  A failure on either side raises here as
    RuntimeError."""
    tick = time.perf_counter()
    split, calls = len(reports), []
    with ExitStack() as files:
        if "coefficients" in emit:
            fh = files.enter_context(create("coefficients.csv"))
            if split * reports[0].coefficients.size > _SPLIT_ROWS and _available_cpus() > 1:
                # beside the output, not in a temporary directory that may be
                # held in memory: a large run's rows take gigabytes
                spill = files.enter_context(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", newline="\n", dir=os.path.dirname(fh.name)))
                split //= 2
                calls.append(partial(_format_part, spill, reports[split:]))
        with _forked("coefficients.csv", calls) as results:
            spent = time.perf_counter() - tick
            if "energy" in emit:
                with create("energy.csv") as energy:
                    _write_csv(energy, ["t_end", "energy", "norm"], "%.17g,%.17g,%.17g",
                               ((r.t_end, r.energy, r.norm_squared) for r in reports))
            tick = time.perf_counter()
            if "coefficients" in emit:
                _write_csv(fh, ["slice", "k", "re", "im", "abs2"], _COEFFICIENT_ROW,
                           _coefficient_rows(reports[:split]))
                if calls:
                    results()
                    fh.flush()
                    spill.seek(0)
                    shutil.copyfileobj(spill.buffer, fh.buffer)
    return spent + time.perf_counter() - tick


def _format_part(spill: TextIO, reports: Sequence) -> None:
    """Body of `_write_slice_files`' worker: the coefficient rows of
    `reports`, without a header, written into `spill` and flushed.  `spill`
    is the parent's open file, inherited through the fork."""
    _write_rows(spill, _COEFFICIENT_ROW, _coefficient_rows(reports))
    spill.flush()


def _coefficient_rows(reports: Sequence) -> Iterator[tuple]:
    """(slice, k, re, im, |C_k|^2) per retained state of every report, built
    from numpy columns about _CSV_BLOCK rows at a time.  |C_k| is np.hypot,
    bit-identical to abs() of a Python complex where np.abs is not, and it
    is squared by Python, whose ** 2 numpy's square misses by an ulp in
    about 0.1% of cases.  `reports` is never empty: a run takes at least one
    slice, and a split run at least two, since MAX_BASIS_BYTES holds one
    slice to _SPLIT_ROWS states."""
    states = reports[0].coefficients.size
    per_block = max(1, _CSV_BLOCK // states)
    for start in range(0, len(reports), per_block):
        block = reports[start:start + per_block]
        c = np.stack([r.coefficients for r in block])
        slices = np.repeat([r.slice_index for r in block], states).tolist()
        ks = np.tile(np.arange(states), len(block)).tolist()
        abs2 = [x ** 2 for x in np.hypot(c.real, c.imag).ravel().tolist()]
        yield from zip(slices, ks, c.real.ravel().tolist(), c.imag.ravel().tolist(), abs2)


def _available_cpus() -> int:
    """CPUs this process may run work on: 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _current_cpu() -> int | None:
    """The CPU this process runs on (field 39 of /proc/self/stat), or None
    where that is not known."""
    try:
        with open("/proc/self/stat", encoding="utf-8") as fh:
            # the fields after the command name, which is in parentheses
            return int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _one_blas_thread() -> None:
    """Cap every OpenBLAS loaded in this process at one thread.  A `_forked`
    worker has a CPU to itself, and OpenBLAS's helper threads would spin on
    the other workers' CPUs: on 2 cores `converge smooth_ramp --doublings 5`
    took 9-10 s with them and 1.7 s without.  The libraries are found among
    the mapped files, so this does nothing without /proc/self/maps."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return
    paths = {f[5].strip() for f in fields
             if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)


@contextmanager
def _forked(name: str, calls: Sequence[Callable[[], Any]]) -> Iterator[Callable[[], list]]:
    """Start one forked worker process per call and yield a function that
    returns the calls' results, in call order, reading each as it arrives.

    Worker i first pins itself to one CPU, the i-th of those this process
    may run on, ordered with this process's CPU last: a forked process
    starts on its parent's CPU, and a scheduler that does not balance load
    between CPUs leaves the two there to take turns.  It then caps OpenBLAS
    at one thread (`_one_blas_thread`), runs its call and sends the result
    back through a pipe of its own.  An exception in a call is sent as its
    message instead, and the worker exits 1 without a traceback; the
    message then raises here as RuntimeError, and so does a worker that
    ends without sending anything ("<name> worker exited with code N").
    The first worker to fail raises, whichever its place in the call
    order, while the others still run.  Each result is read before its
    worker is joined, since it may be larger than the pipe's buffer.  On
    every way out of the block, a worker still running is terminated, and
    every worker is joined."""
    workers = []
    try:
        if calls:  # multiprocessing takes about 8 ms to import
            import multiprocessing
            from multiprocessing.connection import wait

            fork = multiprocessing.get_context("fork")
            here = _current_cpu()
            cpus = (sorted(os.sched_getaffinity(0), key=lambda cpu: (cpu == here, cpu))
                    if hasattr(os, "sched_getaffinity") else [None])
        for i, call in enumerate(calls):
            reader, writer = fork.Pipe(duplex=False)
            proc = fork.Process(target=_worker, args=(call, writer, cpus[i % len(cpus)]))
            proc.start()
            workers.append((proc, reader))  # only a started process can be joined
            writer.close()  # so that a worker's exit ends its pipe

        def results() -> list:
            out = [None] * len(workers)
            pending = {reader: (i, proc) for i, (proc, reader) in enumerate(workers)}
            while pending:
                for reader in wait(list(pending)):
                    i, proc = pending.pop(reader)
                    try:
                        ok, value = reader.recv()
                    except EOFError:
                        proc.join()
                        raise RuntimeError("%s worker exited with code %d"
                                           % (name, proc.exitcode))
                    if not ok:
                        raise RuntimeError(value)
                    out[i] = value
            return out

        yield results
    finally:
        for proc, reader in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            reader.close()


def _worker(call: Callable[[], Any], conn, cpu: int | None) -> None:
    """Body of a `_forked` worker."""
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        _one_blas_thread()
        conn.send((True, call()))
    except Exception as exc:
        conn.send((False, str(exc) or type(exc).__name__))
        raise SystemExit(1)


def _evolve_jobs(config: ScenarioConfig, psi0: WaveFunction, jobs: Sequence[tuple[int, str]]
                 ) -> list[tuple[np.ndarray, dict[str, int], int, str | None]]:
    """The runs of `converge`, one per (slices, scheme) job: each run's
    final amplitudes, eigensolve counts, the slices it took, one per
    report, and the sector it was carried on."""
    results = (evolve(psi0, config.hamiltonian, config.t0, config.t1, n_slices,
                      config.truncation, scheme=scheme) for n_slices, scheme in jobs)
    return [(result.final_state.amplitudes, result.eigensolves, len(result.reports),
             result.parity) for result in results]


def _run_jobs(config: ScenarioConfig, psi0: WaveFunction, jobs: list[tuple[int, str]]
             ) -> list[tuple[np.ndarray, dict[str, int], int, str | None]]:
    """`_evolve_jobs` of `jobs`, in job order, shared among min(jobs, CPUs)
    `_forked` workers, or run here where one worker would do.  Longest
    processing time first (Graham 1969) keeps the workers' loads close:
    each job, the most factors first (a cfm4 slice is two), goes to the
    least-loaded worker.  No job runs here while workers do."""
    workers = min(len(jobs), _available_cpus())
    if workers == 1:
        return _evolve_jobs(config, psi0, jobs)
    factors = [2 * n_slices if scheme == "cfm4" else n_slices for n_slices, scheme in jobs]
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(jobs)), key=factors.__getitem__, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += factors[i]
    with _forked("converge", [partial(_evolve_jobs, config, psi0, [jobs[i] for i in share])
                              for share in shares]) as results:
        runs = dict(zip(chain.from_iterable(shares), chain.from_iterable(results())))
    return [runs[i] for i in range(len(jobs))]


def converge_scenario(config: ScenarioConfig, doublings: int,
                      out_dir: str | None = None) -> list[tuple[int, float]]:
    """Run the scenario at slices x {1, 2, 4, ..., 2**doublings} and report
    the L2 error of each rung against a reference; writes convergence.csv
    and convergence.json.

    The rungs use the scenario's own scheme, the averaged slice Hamiltonian.
    The reference is the fourth-order "cfm4" scheme at a quarter of the
    finest rung's slices (never fewer than `config.slices`, since
    doublings >= 2); both schemes converge to the same limit, so the rungs'
    errors are not biased by sharing the reference's own error.
    convergence.json records the reference's scheme, its slice count,
    `reference_error_estimate`: the L2 distance from the reference to a
    cfm4 run at half its slices (null for a one-slice reference), which is
    an estimate of the reference's error, not a bound; and `eigensolves`,
    each run's eigensolve counts and the sector it was carried on
    (reference, estimate, then the rungs).
    Every slice count written is the count of the run's reports, one per
    slice it took: the uniform slices plus each jump of V inside (t0, t1)
    that `slice_boundaries` adds.

    No run reads another's result, so `_run_jobs` shares the runs among
    up to min(runs, CPUs) forked workers.  Each run is deterministic and
    everything else is computed here in ladder order, so the files are
    identical to a serial run's.
    `doublings` >= 2 must keep the finest rung within MAX_SLICES, and its
    per-slice coefficients within MAX_BASIS_BYTES, or this raises
    ScenarioError before any run starts; where V is piecewise constant in
    time, a warning on stderr says every rung is exact.
    """
    # a right shift, so that a huge request costs nothing to reject
    if doublings < 2 or config.slices > MAX_SLICES >> doublings:
        raise ScenarioError(["converge requires doublings >= 2 and slices x 2**doublings <= %d"
                             " (here %d x 2**%d)" % (MAX_SLICES, config.slices, doublings)])
    pot = config.hamiltonian.potential
    try:  # the finest rung's per-slice coefficients, bounded as `validate` bounds a run's
        finest = slice_boundaries(pot, config.t0, config.t1, config.slices << doublings).size - 1
    except ValueError as exc:
        raise ScenarioError(["schedule: %s" % exc]) from None
    points, errors = config.grid.points, []
    if not _fits("converge", "per-slice coefficient history", finest,
                 min(points, config.truncation or points), 16, errors):
        raise ScenarioError(errors)
    if pot.kind != "tabulated" and pot.profile.kind != "sampled":
        print("warning: convergence trivially flat for a potential "
              "that is piecewise constant in time", file=sys.stderr)
    out = out_dir if out_dir is not None else config.out_dir
    with _output_files(out) as create:
        psi0 = _initial_state(config)
        ladder = [config.slices * 2**i for i in range(doublings + 1)]
        ref_slices = ladder[-1] // 4
        jobs = [(ref_slices, "cfm4")]
        if ref_slices > 1:
            jobs.append((ref_slices // 2, "cfm4"))
        jobs += [(n_slices, "average") for n_slices in ladder]
        runs = _run_jobs(config, psi0, jobs)

        def distance(a: np.ndarray, b: np.ndarray) -> float:
            return math.sqrt(norm_squared(WaveFunction(config.grid, a - b)))

        ref = runs[0][0]
        ref_estimate = distance(ref, runs[1][0]) if ref_slices > 1 else None
        rows = []
        errors = []
        for final, _, n_slices, _ in runs[-len(ladder):]:
            err = distance(final, ref)
            errors.append(err)
            if len(errors) == 1:
                order = ""
            elif err == 0.0 or errors[-2] == 0.0:
                order = _fmt(0.0)
            else:
                order = _fmt(math.log2(errors[-2] / err))
            rows.append((n_slices, err, order))
        with create("convergence.csv") as fh:
            _write_csv(fh, ["slices", "l2_error", "observed_order"], "%d,%.17g,%s", rows)
        with create("convergence.json") as fh:
            _write_json(fh, {"reference_scheme": "cfm4",
                             "reference_slices": runs[0][2],
                             "reference_error_estimate": ref_estimate,
                             "eigensolves": [
                                 {"scheme": scheme, "slices": taken, "counts": counts,
                                  "parity": parity}
                                 for (_, scheme), (_, counts, taken, parity) in zip(jobs, runs)]})
        return [(n_slices, err) for n_slices, err, _ in rows]


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
        knots = h.potential.breakpoints()
        cuts, counts = dirac_mod.rk4_pieces(knots, (t0, t_end), rk4_steps)
        rk4_dt = float(np.max(np.diff(cuts) / counts))

        basis0 = eigendecompose(discretize(h, config.grid, t0), config.grid, n_states)
        n_init = config.eigenstate
        psi0 = basis0.state(n_init)

        # multi-projection run over the same window, projected back onto the
        # initial basis
        mp_coeffs = project(evolve(psi0, h, t0, t_end, config.slices,
                                   config.truncation).final_state, basis0)

        omegas = basis0.energies / h.hbar
        v_of_t = dirac_mod.perturbation_operator(h, basis0, t0)

        c0 = np.zeros(n_states, dtype=complex)
        c0[n_init] = project(psi0, basis0)[n_init]
        try:
            traj = dirac_mod.integrate_amplitudes(v_of_t, omegas, c0, (t0, t_end), rk4_steps,
                                                  knots, hbar=h.hbar)
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
                t_end - t0, knots - t0, hbar=h.hbar,
            ) if m != n_init else complex("nan")
            a_mp = abs(mp_coeffs[m])
            a_rk = abs(rk4_final[m])
            a_fo = abs(b_fo)
            rows.append((m, a_mp, a_rk, a_fo,
                         abs(a_mp - a_rk), abs(a_mp - a_fo), abs(a_rk - a_fo)))
        with create("dirac_compare.csv") as fh:
            _write_csv(fh, ["m", "abs_c_multiproj", "abs_c_rk4", "abs_b_first_order",
                            "diff_mp_rk4", "diff_mp_fo", "diff_rk4_fo"],
                       "%d" + ",%.17g" * 6, rows)

        if traj is not None:
            norms = traj.norm_history
            with create("norm_history.csv") as fh:
                _write_csv(fh, ["t", "norm"], "%.17g,%.17g",
                           zip(traj.times.tolist(), norms.tolist()))
            report = dirac_mod.divergence_diagnostic(traj)
        else:
            report = dirac_mod.DivergenceReport(math.inf, math.inf, float(t0))
        with create("divergence_report.json") as fh:
            _write_json(fh, {"max_norm": report.max_norm,
                             "final_norm": report.final_norm,
                             "first_exceedance_time": report.first_exceedance_time,
                             "rk4_dt": rk4_dt,
                             "max_phase_per_step": float(np.ptp(omegas)) * rk4_dt})
        return report


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a bundled scenario (name with or without .json)."""
    from importlib.resources import files

    if not name.endswith(".json"):
        name += ".json"
    return str(files("mpsolve").joinpath("scenarios", name))
