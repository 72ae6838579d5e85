"""Tests for scenario parsing, the run/converge/compare drivers, and the CLI."""

import contextlib
import copy
import dataclasses
import errno
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpsolve import scenario as scenario_mod
from mpsolve.cli import main as cli_main
from mpsolve.core import Grid, HamiltonianSpec, PotentialSpec
from mpsolve.dirac import DivergenceReport
from mpsolve.eigensolver import Sector, discretize, eigendecompose
from mpsolve.projection import ProjectionStepReport, evolve
from mpsolve.scenario import (
    MAX_BASIS_BYTES,
    MAX_SLICES,
    RunSummary,
    ScenarioError,
    bundled_scenario_path,
    compare_dirac_scenario,
    converge_scenario,
    parse_scenario,
    run_scenario,
)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quench_doc(eta=0.25, truncation=64, slices=4, t1=2.0, points=1024):
    return {
        "grid": {"x_min": -12.0, "x_max": 12.0, "points": points},
        "potential": {
            "kind": "scaled_harmonic",
            "k": 1.0,
            "scale": {"kind": "step", "eta": eta, "t_on": 0.0},
        },
        "schedule": {"t0": 0.0, "t1": t1, "slices": slices,
                     "averaging": "integral"},
        "basis": {"truncation": truncation},
        "initial_state": {"eigenstate": 0},
        "outputs": {"directory": "out", "emit": ["energy", "summary"]},
    }


class TestParse:
    def test_bundled_quench(self):
        cfg = parse_scenario(bundled_scenario_path("quench_eta025"))
        assert cfg.hamiltonian.potential.profile(1.0) == 0.25
        assert cfg.slices == 4
        assert cfg.truncation == 64
        assert cfg.dirac is not None and cfg.dirac["states"] == 16

    def test_all_bundled_scenarios_validate(self):
        for name in ("quench_eta025", "quench_eta081", "quench_eta121",
                     "pulse_eta4", "pulse_eta081", "stationary",
                     "smooth_ramp", "dirac_weak"):
            parse_scenario(bundled_scenario_path(name))

    def test_negative_eta_rejected(self, tmp_path):
        doc = quench_doc()
        doc["potential"]["scale"]["eta"] = -1.0
        with pytest.raises(ScenarioError, match="eta"):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_ambiguous_initial_state(self, tmp_path):
        doc = quench_doc()
        doc["initial_state"] = {"eigenstate": 0, "amplitude_file": "x.csv"}
        with pytest.raises(ScenarioError, match="ambiguous initial state"):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = quench_doc()
        doc["extra_section"] = {}
        doc["schedule"]["dt"] = 0.1
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        # both violations reported at once
        assert any("extra_section" in v for v in excinfo.value.violations)
        assert any("schedule" in v and "dt" in v for v in excinfo.value.violations)

    def test_missing_amplitude_file(self, tmp_path):
        doc = quench_doc()
        doc["initial_state"] = {"amplitude_file": "missing.csv"}
        with pytest.raises(ScenarioError, match="file not found"):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(str(path))

    def test_reference_rejected_for_tabulated_potential(self, tmp_path):
        # a run would compare with itself: only harmonic kinds can be frozen
        doc = with_change(tabulated_doc(), ("reference",), True)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert excinfo.value.violations == [
            "reference: a tabulated potential has no t0-frozen reference; "
            "give a harmonic or scaled_harmonic potential"]


def tabulated_doc(t_samples=(0.0, 2.0), x_samples=None):
    xs = np.linspace(-2.0, 2.0, 9) if x_samples is None else np.asarray(x_samples)
    return {
        "grid": {"x_min": -2.0, "x_max": 2.0, "points": 9},
        "potential": {"kind": "tabulated", "x_samples": xs.tolist(),
                      "t_samples": list(t_samples),
                      "v_samples": [(0.5 * xs**2).tolist()] * len(t_samples)},
        "schedule": {"t0": 0.0, "t1": 2.0, "slices": 4},
        "basis": {"truncation": 2},
    }


def tabulated_ramp_doc():
    """V = (1 + 0.8 t) x^2 / 2 on t in [0, 2], tabulated on 128 nodes."""
    xs = np.linspace(-8.0, 8.0, 128)
    return {
        "grid": {"x_min": -8.0, "x_max": 8.0, "points": 128},
        "potential": {"kind": "tabulated", "x_samples": xs.tolist(),
                      "t_samples": [0.0, 2.0],
                      "v_samples": [(0.5 * xs**2).tolist(), (1.3 * xs**2).tolist()]},
        "schedule": {"t0": 0.0, "t1": 2.0, "slices": 2},
        "basis": {"truncation": 8},
    }


@st.composite
def small_scenarios(draw, dirac=False):
    """A scenario document on at most 64 nodes, with at most 4 slices and
    at most 8 retained states, for every potential and scale-profile kind;
    with `dirac`, also a dirac section of up to 2 more states than the grid
    has nodes, sometimes on a window of its own.  Most drawn documents
    validate; the rest give violations."""
    points = draw(st.integers(3, 64))
    half_width = draw(st.floats(0.5, 20.0))
    t0 = draw(st.floats(-2.0, 2.0))
    t1 = t0 + draw(st.floats(0.01, 4.0))
    magnitude = st.floats(0.01, 100.0)
    times = sorted(set([t0, t1] + draw(st.lists(st.floats(t0, t1), max_size=4))))
    kind = draw(st.sampled_from(("harmonic", "constant", "step", "pulse", "sampled",
                                 "tabulated")))
    if kind == "harmonic":
        potential = {"kind": "harmonic", "k": draw(magnitude)}
    elif kind == "tabulated":
        # a well whose depth varies in time, roughened node by node
        xs = Grid(-half_width, half_width, points).x
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        depths = draw(st.lists(magnitude, min_size=len(times), max_size=len(times)))
        potential = {"kind": "tabulated", "x_samples": xs.tolist(), "t_samples": times,
                     "v_samples": [(0.5 * d * xs**2 + rng.uniform(-0.1, 0.1, points)).tolist()
                                   for d in depths]}
    else:
        if kind == "constant":
            scale = {"kind": "constant", "value": draw(magnitude)}
        elif kind == "step":
            scale = {"kind": "step", "eta": draw(magnitude),
                     "t_on": draw(st.floats(t0 - 1.0, t1 + 1.0))}
        elif kind == "pulse":
            t_on = draw(st.floats(t0 - 1.0, t1))
            scale = {"kind": "pulse", "eta": draw(magnitude), "t_on": t_on,
                     "t_off": t_on + draw(st.floats(0.01, 2.0))}
        else:
            scale = {"kind": "sampled", "times": times,
                     "values": draw(st.lists(magnitude, min_size=len(times),
                                             max_size=len(times)))}
        potential = {"kind": "scaled_harmonic", "k": draw(magnitude), "scale": scale}
    truncation = draw(st.integers(1, 8))
    doc = {
        "grid": {"x_min": -half_width, "x_max": half_width, "points": points},
        "units": {"hbar": draw(st.floats(0.1, 10.0)), "mass": draw(st.floats(0.1, 10.0))},
        "potential": potential,
        "schedule": {"t0": t0, "t1": t1, "slices": draw(st.integers(1, 4)),
                     "averaging": "integral"},
        "basis": {"truncation": truncation},
        # eigenstate == truncation is the one rejected value
        "initial_state": {"eigenstate": draw(st.integers(0, truncation))},
        "outputs": {"emit": draw(st.lists(st.sampled_from(["energy", "coefficients",
                                                           "summary"]), unique=True))},
        # a tabulated potential with a reference is rejected, see TestParse
        "reference": kind != "tabulated" and draw(st.booleans()),
    }
    if dirac:
        states = draw(st.integers(1, points + 2))
        doc["dirac"] = {"states": states, "rk4_steps": draw(st.integers(1, 20)),
                        "targets": draw(st.lists(st.integers(0, states), min_size=1,
                                                 max_size=3))}
        if draw(st.booleans()):
            doc["dirac"]["t1"] = t0 + draw(st.floats(0.01, 5.0))
    return doc


def smooth_ramp_doc():
    with open(bundled_scenario_path("smooth_ramp"), encoding="utf-8") as fh:
        return json.load(fh)


def dirac_weak_doc():
    with open(bundled_scenario_path("dirac_weak"), encoding="utf-8") as fh:
        return json.load(fh)


def coarse_violation(truncation, resolved):
    return ("grid: too coarse for basis.truncation %d: only %d eigenvalues lie below "
            "min V + hbar^2/(2 mass dx^2), a quarter of the kinetic band"
            % (truncation, resolved))


def with_change(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def json_paths(node, prefix=()):
    """Path of every section and leaf under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


class TestValidate:
    @pytest.mark.parametrize("doc, violation", [
        (with_change(smooth_ramp_doc(), ("schedule", "t1"), 3.0),
         "potential: samples span [0, 2], not schedule.t1 = 3"),
        (with_change(smooth_ramp_doc(), ("schedule", "t0"), -1.0),
         "potential: samples span [0, 2], not schedule.t0 = -1"),
        (tabulated_doc(t_samples=(0.0, 1.0)),
         "potential: samples span [0, 1], not schedule.t1 = 2"),
        (with_change(tabulated_doc(), ("dirac",),
                     {"states": 4, "rk4_steps": 10, "targets": [2], "t1": 5.0}),
         "potential: samples span [0, 2], not dirac.t1 = 5"),
        (tabulated_doc(x_samples=np.linspace(-2.0, 2.0, 9) + 0.01),
         "potential.x_samples: must be the grid nodes"),
        (tabulated_doc(x_samples=[0.0, 1.0]),
         "potential.x_samples: must be the grid nodes"),
    ])
    def test_time_and_grid_coverage(self, tmp_path, capsys, doc, violation):
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 1
        assert "invalid scenario: %s" % violation in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("path, value, violation", [
        (("dirac",), {"states": 16, "rk4_steps": 60, "targets": [2, 16]},
         "dirac.targets: every index must be < dirac.states"),
        (("dirac",), {"states": 16, "rk4_steps": 60, "targets": [2], "t1": -1.0},
         "dirac.t1: must be > schedule.t0"),
        (("initial_state", "eigenstate"), 1024,
         "initial_state.eigenstate: must be < grid.points"),
        (("grid",), [1, 2], "grid: expected an object"),
        (("units",), 1.0, "units: expected an object"),
        (("basis",), "big", "basis: expected an object"),
        (("initial_state",), [0], "initial_state: expected an object"),
        (("outputs",), None, "outputs: expected an object"),
        (("outputs", "emit"), "energy", "outputs.emit: expected a list"),
        (("outputs", "directory"), 7, "outputs.directory: expected a path string"),
        (("schedule", "averaging"), "gauss",
         'schedule.averaging: must be "integral", the exact slice average '
         '(the midpoint_endpoint_mean mode was removed)'),
        (("initial_state", "eigenstate"), 64,
         "initial_state.eigenstate: must be < basis.truncation"),
    ])
    def test_bad_shapes_and_indices(self, tmp_path, path, value, violation):
        doc = with_change(quench_doc(), path, value)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert violation in excinfo.value.violations

    def test_empty_output_directory(self, tmp_path, capsys):
        doc = with_change(quench_doc(), ("outputs", "directory"), "")
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == (
            "invalid scenario: outputs.directory: must not be empty\n")

    @pytest.mark.parametrize("command", [["run"], ["converge", "--doublings", "2"],
                                         ["compare-dirac"]])
    def test_empty_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, quench_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command[0], path, *command[1:], "--out", ""])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith("argument --out: must not be empty\n")
        assert os.listdir(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("text, violation", [
        ("re\n1.0\n", "needs 're' and 'im' columns"),
        ("real,imag\n1.0,0.0\n", "needs 're' and 'im' columns"),
        ("re,im\n1.0,abc\n", "every 're' and 'im' value must be a number"),
        ("re,im\n1.0\n", "every 're' and 'im' value must be a number"),
        ("re,im\nnan,0.0\n", "every 're' and 'im' value must be finite"),
        ("re,im\n1e400,0.0\n", "every 're' and 'im' value must be finite"),
        ("re,im\n1.0,0.0\n", "1 rows, but grid.points is 64"),
        ("re,im\n" + "0.0,0.0\n" * 64, "the norm dx * sum |psi|^2 must be > 0 and finite"),
        ("re,im\n" + "".join("%r,0.0\n" % (1e155 * math.exp(-x**2 / 2))
                              for x in np.linspace(-12.0, 12.0, 64)),
         "the norm dx * sum |psi|^2 must be > 0 and finite"),
    ], ids=["no_im", "wrong_names", "non_numeric", "short_row", "nan", "overflow",
            "wrong_length", "zero_norm", "norm_overflow"])
    def test_bad_amplitude_file(self, tmp_path, capsys, text, violation):
        (tmp_path / "amps.csv").write_text(text)
        doc = with_change(quench_doc(points=64), ("initial_state",),
                          {"amplitude_file": "amps.csv"})
        assert cli_main(["run", write_scenario(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == 1
        assert ("invalid scenario: initial_state.amplitude_file: " + violation
                in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("initial_state, violations", [
        ({"eigenstate": 50}, ["initial_state.eigenstate: must be < basis.truncation",
                              "initial_state.eigenstate: must be < dirac.states"]),
        ({"amplitude_file": "amps.csv"},
         ["dirac: compare-dirac starts from one retained eigenstate; "
          "give initial_state.eigenstate, not amplitude_file"]),
    ], ids=["eigenstate_not_retained", "amplitude_file"])
    def test_dirac_needs_a_retained_eigenstate(self, tmp_path, capsys, initial_state,
                                                violations):
        g = np.linspace(-10.0, 10.0, 400)
        ground = np.exp(-g**2 / 2) / math.pi**0.25
        amps = (ground + ground * (2 * g**2 - 1) / math.sqrt(2)) / math.sqrt(2)
        (tmp_path / "amps.csv").write_text(
            "re,im\n" + "".join("%r,0.0\n" % a for a in amps.tolist()))
        doc = with_change(dirac_weak_doc(), ("initial_state",), initial_state)
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.splitlines() == ["invalid scenario: " + v
                                                        for v in violations]

    def test_grid_too_coarse_for_the_retained_states(self, tmp_path, capsys):
        # the 16 lowest states of k = 4 on 64 nodes end in a pair split by
        # 8e-7, where the oscillator's spacing is 2
        g = Grid(-12.0, 12.0, 64)
        stiff = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(4.0))
        energies = eigendecompose(discretize(stiff, g, 0.0), g).energies
        assert np.diff(energies[:16]).min() < 1e-6
        doc = with_change(quench_doc(points=64, truncation=16), ("potential",),
                          {"kind": "harmonic", "k": 4.0})
        doc["schedule"]["slices"] = 0
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid scenario: schedule.slices: must be >= 1",
            "invalid scenario: " + coarse_violation(16, 2),
        ]

    @pytest.mark.parametrize("potential, resolved", [
        ({"kind": "harmonic", "k": 1.0}, None),
        ({"kind": "harmonic", "k": 4.0}, 29),
        ({"kind": "scaled_harmonic", "k": 1.0,
          "scale": {"kind": "step", "eta": 0.25, "t_on": 0.0}}, None),
        ({"kind": "scaled_harmonic", "k": 1.0,
          "scale": {"kind": "step", "eta": 4.0, "t_on": 1.0}}, 29),
        ({"kind": "scaled_harmonic", "k": 1.0,
          "scale": {"kind": "pulse", "eta": 4.0, "t_on": 0.5, "t_off": 1.0}}, 29),
        ({"kind": "scaled_harmonic", "k": 1.0,
          "scale": {"kind": "sampled", "times": [0.0, 1.0, 2.0], "values": [1.0, 4.0, 1.0]}},
         29),
        ({"kind": "scaled_harmonic", "k": 2.0,
          "scale": {"kind": "constant", "value": 2.0}}, 29),
    ], ids=["harmonic", "stiff_harmonic", "weaker_step", "stiffer_step", "stiffer_pulse",
            "stiffer_sampled", "stiff_constant"])
    def test_resolution_counted_at_the_stiffest_scale(self, tmp_path, potential, resolved):
        # 256 nodes on [-12, 12] resolve 58 states of k = 1 and 29 of k = 4
        doc = with_change(quench_doc(points=256, truncation=40), ("potential",), potential)
        try:
            parse_scenario(write_scenario(tmp_path, doc))
            violations = []
        except ScenarioError as exc:
            violations = exc.violations
        assert violations == ([] if resolved is None else [coarse_violation(40, resolved)])

    def test_hamiltonian_beyond_double_range(self, tmp_path, capsys):
        # with the full basis no resolution rule runs; the finiteness check still does
        for points, truncation in ((256, 8), (64, None)):
            doc = with_change(quench_doc(points=points, truncation=truncation),
                              ("potential",), {"kind": "harmonic", "k": 1e308})
            with warnings.catch_warnings():
                # the overflow is reported once, as a violation, not as a warning
                warnings.simplefilter("error")
                assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "invalid scenario: potential: matrix entries must be finite"]

    def test_tabulated_resolution_counted_at_every_sample(self, tmp_path):
        doc = tabulated_doc(t_samples=(0.0, 1.0, 2.0))
        parse_scenario(write_scenario(tmp_path, doc))
        xs = np.linspace(-2.0, 2.0, 9)
        doc["potential"]["v_samples"][2] = (80.0 * xs**2).tolist()
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert excinfo.value.violations == [coarse_violation(2, 0)]

    def test_resolution_counted_at_t0_between_samples(self, tmp_path):
        # each row alone resolves 1 and 2 states, their mean, V at t0 = 1, none
        doc = tabulated_doc()
        doc["potential"]["v_samples"] = [[2.5, 0, 19.4, 0, 8.1, 28.1, 29.5, 0, 0],
                                         [0.2, 0, 0, 0, 0, 0, 22.3, 0, 1.0]]
        doc["basis"]["truncation"] = 1
        parse_scenario(write_scenario(tmp_path, doc))
        doc["schedule"]["t0"] = 1.0
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert excinfo.value.violations == [coarse_violation(1, 0)]

    @pytest.mark.parametrize("points, truncation, ok", [
        (16384, None, True), (16385, None, False), (4194304, 64, True),
        (4194305, 64, False), (10**12, 64, False),
    ])
    def test_basis_size_limit(self, tmp_path, points, truncation, ok):
        doc = quench_doc(points=points, truncation=truncation)
        states = min(points, truncation or points)
        violation = ("basis: a %d x %d eigenbasis takes %d bytes, more than %d"
                     % (points, states, points * states * 8, MAX_BASIS_BYTES))
        try:
            parse_scenario(write_scenario(tmp_path, doc))
            violations = []
        except ScenarioError as exc:
            violations = exc.violations
        assert violations == ([] if ok else [violation])

    def test_grid_work_space_limit(self, tmp_path):
        # one retained state of 2**26 points is a 512 MiB basis, but validating
        # it takes about 9.5 doubles per point (5 GB); the bound counts 16
        def violation(points):
            return ("grid.points: a %d x 16 grid-length work space takes %d bytes, more "
                    "than %d" % (points, points * 16 * 8, MAX_BASIS_BYTES))

        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, quench_doc(points=2**24 + 1,
                                                               truncation=1)))
        assert excinfo.value.violations == [violation(2**24 + 1)]
        # a basis too large is named alone
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, quench_doc(points=2**27, truncation=3)))
        assert [v.split(":")[0] for v in excinfo.value.violations] == ["basis"]
        # `validate` under a 1 GiB address space, in a child process, so that a
        # check that allocates fails there instead of taking gigabytes
        doc = {"grid": {"x_min": -12.0, "x_max": 12.0, "points": 2**26},
               "potential": {"kind": "harmonic", "k": 1.0},
               "schedule": {"t0": 0.0, "t1": 1.0, "slices": 4},
               "basis": {"truncation": 1}, "initial_state": {"eigenstate": 0}}
        paths = [write_scenario(tmp_path, doc, "large.json")] + [
            bundled_scenario_path(name) for name in (
                "quench_eta025", "quench_eta081", "quench_eta121", "pulse_eta4",
                "pulse_eta081", "stationary", "smooth_ramp", "dirac_weak")]
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                 "from mpsolve.cli import main\n"
                 "print([main(['validate', path]) for path in sys.argv[1:]])\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(scenario_mod.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child, *paths], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.splitlines()[-1:] == [str([1] + [0] * (len(paths) - 1))]
        assert proc.stderr == "invalid scenario: %s\n" % violation(2**26)

    @pytest.mark.parametrize("dirac_window", [False, True], ids=["schedule", "dirac"])
    def test_slices_narrower_than_rounding(self, tmp_path, capsys, dirac_window):
        # ten slices of [1, 1 + 1e-15] round onto one another
        doc = quench_doc(points=256, truncation=8, slices=10)
        doc["schedule"].update(t0=1.0, t1=2.0 if dirac_window else 1.0 + 1e-15)
        if dirac_window:
            doc["dirac"] = {"states": 8, "rk4_steps": 10, "targets": [2], "t1": 1.0 + 1e-15}
        path = write_scenario(tmp_path, doc)
        out = ["--out", str(tmp_path / "out")]
        for argv in (["validate", path], ["run", path, *out], ["compare-dirac", path, *out]):
            assert cli_main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [
                "invalid scenario: schedule: slice boundaries must be strictly increasing: "
                "10 slices do not fit in [1.0, 1.000000000000001]"]

    def test_slice_count_limit(self, tmp_path):
        parse_scenario(write_scenario(tmp_path, quench_doc(slices=MAX_SLICES)))
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, quench_doc(slices=MAX_SLICES + 1)))
        assert excinfo.value.violations == ["schedule.slices: must be <= %d" % MAX_SLICES]

    @pytest.mark.parametrize("stationary, points, ok", [
        (False, 512, True), (False, 513, False), (True, 4096, False),
    ], ids=["512_states", "513_states", "stationary_4096_states"])
    def test_coefficient_history_limit(self, tmp_path, capsys, stationary, points, ok):
        # evolve keeps every retained state of every slice: 2**18 slices of 512
        # states take 2 GiB, and a copy of stationary at 4096 would hold 16 GiB
        if stationary:
            doc = json.loads(Path(bundled_scenario_path("stationary")).read_text())
            doc["grid"] = {"x_min": -12.0, "x_max": 12.0, "points": points}
            doc["basis"]["truncation"] = points
            doc["schedule"]["slices"] = MAX_SLICES
        else:
            doc = quench_doc(points=points, truncation=None, slices=MAX_SLICES)
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == (0 if ok else 1)
        assert capsys.readouterr().err == ("" if ok else (
            "invalid scenario: schedule.slices: a %d x %d per-slice coefficient history "
            "takes %d bytes, more than %d\n" % (MAX_SLICES, points, MAX_SLICES * points * 16,
                                               MAX_BASIS_BYTES)))

    @pytest.mark.parametrize("slices", [1, 3])
    def test_many_pieces_per_slice_validate(self, tmp_path, capsys, slices):
        # smooth_ramp's 201 knots cut one slice of [0, 2] into 200 pieces and
        # each of 3 slices into up to 68.  A slice's moments of V take a few
        # grid vectors whatever the piece count, so a 2**20-point copy, once
        # refused for holding V at every piece's Gauss points, is valid
        doc = json.loads(Path(bundled_scenario_path("smooth_ramp")).read_text())
        doc["grid"]["points"] = 2**20
        doc["schedule"]["slices"] = slices
        assert cli_main(["validate", write_scenario(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("truncation", [1, 2])
    def test_odd_state_needs_an_odd_retained_state(self, tmp_path, capsys, truncation):
        # an exactly odd state under an even V is carried on the odd sector,
        # and a truncation of 1 keeps only the even ground state: the run
        # used to end with a norm of 5e-31
        x = Grid(-12.0, 12.0, 64).x[32:]
        half = x * np.exp(-x**2 / 2)
        amps = np.concatenate((-half[::-1], half))
        (tmp_path / "amps.csv").write_text(
            "re,im\n" + "".join("%r,0.0\n" % a for a in amps.tolist()))
        doc = with_change(quench_doc(points=64, truncation=truncation), ("initial_state",),
                          {"amplitude_file": "amps.csv"})
        doc["outputs"]["emit"] = ["summary"]
        path = write_scenario(tmp_path, doc)
        if truncation == 1:
            assert cli_main(["validate", path]) == 1
            assert capsys.readouterr().err == (
                "invalid scenario: initial_state.amplitude_file: the state is odd and V "
                "mirror-symmetric, so the one retained state, which is even, holds none "
                "of it; give basis.truncation >= 2\n")
            return
        assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["parity"] == "odd"
        assert summary["final_coefficients"][0][1:] == [0.0, 0.0]
        assert summary["final_norm"] > 0.5

    def test_dirac_states_within_the_grid(self, tmp_path, capsys):
        # 250 states on 200 nodes failed in compare-dirac as a numpy broadcast error
        doc = with_change(quench_doc(points=200, truncation=8), ("dirac",),
                          {"states": 250, "rk4_steps": 60, "targets": [2]})
        path = write_scenario(tmp_path, doc)
        assert cli_main(["validate", path]) == 1
        assert capsys.readouterr().err == "invalid scenario: dirac.states: must be <= grid.points\n"
        doc["dirac"]["states"] = 200
        parse_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("points, states, steps, where, shape, itemsize", [
        (16385, 16384, 60, "dirac.states", (16385, 16384), 8),
        (256, 16, 2**23, "dirac.rk4_steps", (2**23 + 1, 16), 16),
    ], ids=["basis", "rk4_history"])
    def test_dirac_memory_limits(self, tmp_path, points, states, steps, where, shape,
                                 itemsize):
        what = "eigenbasis" if where == "dirac.states" else "RK4 amplitude history"
        violation = ("%s: a %d x %d %s takes %d bytes, more than %d"
                     % (where, *shape, what, shape[0] * shape[1] * itemsize, MAX_BASIS_BYTES))
        doc = with_change(quench_doc(points=points, truncation=8), ("dirac",),
                          {"states": states, "rk4_steps": steps, "targets": [2]})
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert excinfo.value.violations == [violation]
        # one state or one step fewer fits exactly or below the limit
        doc["dirac"]["states" if where == "dirac.states" else "rk4_steps"] -= 1
        parse_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("scale, t1, dirac_t1, window, pieces", [
        ({"kind": "pulse", "eta": 1.5, "t_on": 0.5, "t_off": 1.5}, 2.0, None, "[0.0, 2.0]", 3),
        ({"kind": "sampled", "times": [0.0, 0.5, 0.75, 1.0], "values": [1.0, 1.2, 0.9, 1.0]},
         1.0, None, "[0.0, 1.0]", 3),
        ({"kind": "step", "eta": 0.5, "t_on": 0.7}, 0.5, 3.0, "[0.0, 3.0]", 2),
    ], ids=["pulse", "sampled", "step_in_dirac_window"])
    def test_rk4_steps_cover_every_piece(self, tmp_path, capsys, scale, t1, dirac_t1,
                                         window, pieces):
        # RK4 takes at least one step between each two breakpoints of V
        doc = quench_doc(points=256, truncation=8, t1=t1)
        doc["potential"]["scale"] = scale
        doc["dirac"] = {"states": 8, "rk4_steps": pieces - 1, "targets": [2]}
        if dirac_t1 is not None:
            doc["dirac"]["t1"] = dirac_t1
        path = write_scenario(tmp_path, doc)
        assert cli_main(["validate", path]) == 1
        assert capsys.readouterr().err == (
            "invalid scenario: dirac.rk4_steps: V's breakpoints cut %s into %d pieces and "
            "RK4 takes at least one step on each, so it needs at least %d steps, not %d\n"
            % (window, pieces, pieces, pieces - 1))
        doc["dirac"]["rk4_steps"] = pieces
        path = write_scenario(tmp_path, doc)
        assert cli_main(["validate", path]) == 0
        assert cli_main(["compare-dirac", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "float_overflow", "int_overflow"])
    def test_non_finite_numbers_rejected(self, tmp_path, literal):
        text = json.dumps(quench_doc()).replace('"eta": 0.25', '"eta": ' + literal)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(str(path))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_any_swapped_value_is_valid_or_a_violation(self, data):
        doc = data.draw(st.sampled_from([
            with_change(quench_doc(), ("dirac",),
                        {"states": 16, "rk4_steps": 60, "targets": [2], "t1": 3.0}),
            smooth_ramp_doc(),
            tabulated_doc(),
        ]))
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        value = data.draw(st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda kids: st.lists(kids, max_size=4)
            | st.dictionaries(st.text(), kids, max_size=4),
            max_leaves=8))
        with tempfile.TemporaryDirectory() as tmp:
            scenario = write_scenario(Path(tmp), with_change(doc, path, value))
            try:
                parse_scenario(scenario)
            except ScenarioError:
                pass


    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(small_scenarios())
    @example({  # passed validate, then projected onto no retained state: zero norm
        "grid": {"x_min": -0.5, "x_max": 0.5, "points": 3},
        "potential": {"kind": "harmonic", "k": 1.0},
        "schedule": {"t0": 0.0, "t1": 1.0, "slices": 1},
        "basis": {"truncation": 1},
        "initial_state": {"eigenstate": 1},
        "outputs": {"emit": []},
    })
    def test_valid_scenario_runs(self, doc):
        # validate exits 0 => run exits 0; an exception fails the test
        with tempfile.TemporaryDirectory() as tmp:
            path = write_scenario(Path(tmp), doc)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if cli_main(["validate", path]) != 0:
                    return
                code = cli_main(["run", path, "--out", str(Path(tmp) / "out")])
            assert code == 0, err.getvalue()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(small_scenarios(dirac=True))
    @example({  # dirac.states == grid.points: the full basis
        "grid": {"x_min": -6.0, "x_max": 6.0, "points": 32},
        "potential": {"kind": "scaled_harmonic", "k": 1.0,
                      "scale": {"kind": "pulse", "eta": 1.5, "t_on": 0.2, "t_off": 0.6}},
        "schedule": {"t0": 0.0, "t1": 1.0, "slices": 3},
        "basis": {"truncation": 2},
        "initial_state": {"eigenstate": 0},
        "outputs": {"emit": ["summary"]},
        "dirac": {"states": 32, "rk4_steps": 5, "targets": [1, 31], "t1": 0.7},
    })
    def test_valid_scenario_runs_every_command(self, doc):
        # validate exits 0 => run, compare-dirac and converge exit 0; the
        # converge runs stay in this process, one example at a time
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(scenario_mod, "_available_cpus", return_value=1):
            path = write_scenario(Path(tmp), doc)
            out = str(Path(tmp) / "out")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if cli_main(["validate", path]) != 0:
                    return
                codes = [cli_main(["run", path, "--out", out]),
                         cli_main(["compare-dirac", path, "--out", out]),
                         cli_main(["converge", path, "--doublings", "2", "--out", out])]
            assert codes == [0, 0, 0], err.getvalue()


def per_value_csv(header, rows):
    """The CSV text of the writer that formatted one value at a time."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


BLOCK = scenario_mod._CSV_BLOCK
SPECIAL_FLOATS = (-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, -2.5e-17)


def csv_table(n, numpy):
    """n rows of (int, float, float, str); with `numpy` the floats are
    numpy floats, as abs() of a numpy complex gives them."""
    for i in range(n):
        a, b = SPECIAL_FLOATS[i % 8], SPECIAL_FLOATS[(3 * i + 1) % 8]
        if numpy:
            a, b = np.float64(a), np.float64(b)
        yield (i, a, b, "" if i == 0 else "s%d" % i)


class TestWriteCsv:
    @pytest.mark.parametrize("numpy", [False, True], ids=["uniform", "numpy"])
    @pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1],
                             ids=["empty", "one_row", "one_block", "block_plus_one"])
    def test_bytes_match_per_value_formatting(self, n, numpy):
        header = ["slice", "a", "b", "order"]
        fh = io.StringIO()
        scenario_mod._write_csv(fh, header, "%d,%.17g,%.17g,%s", csv_table(n, numpy))
        assert fh.getvalue() == per_value_csv(header, csv_table(n, numpy))

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        rows = ((j // 64, j % 64, 0.1 * j, -1.0 / (j + 1), 1e-3 * j) for j in range(200_000))
        with open(tmp_path / "rows.csv", "w", encoding="utf-8", newline="\n") as fh:
            tracemalloc.start()
            try:
                scenario_mod._write_csv(fh, ["slice", "k", "re", "im", "abs2"],
                                        "%d,%d,%.17g,%.17g,%.17g", rows)
                assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
            finally:
                tracemalloc.stop()


def split_doc():
    """A run whose coefficients.csv is split: 701 slices (an odd count) of 24
    states give 16824 rows, more than _SPLIT_ROWS, in blocks of 85 slices, so
    neither half fills its last block."""
    doc = quench_doc(points=256, truncation=24, slices=701)
    doc["outputs"]["emit"] = ["energy", "coefficients", "summary"]
    return doc


@pytest.fixture
def formatted_here(monkeypatch):
    """The report counts that `_coefficient_rows` is called with in this
    process; a forked worker's calls are not seen."""
    calls = []
    rows = scenario_mod._coefficient_rows

    def recorded(reports):
        calls.append(len(reports))
        return rows(reports)

    monkeypatch.setattr(scenario_mod, "_coefficient_rows", recorded)
    return calls


class TestSplitCoefficients:
    @pytest.mark.parametrize("bundled", [True, False], ids=["stationary", "odd_slices"])
    def test_bytes_match_a_serial_write(self, bundled, tmp_path, monkeypatch,
                                        formatted_here):
        path = (bundled_scenario_path("stationary") if bundled
                else write_scenario(tmp_path, split_doc()))
        cfg = parse_scenario(path)
        files = []
        for cpus in (1, 2):
            monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            run_scenario(cfg, str(out))
            assert sorted(p.name for p in out.iterdir()) == [
                "coefficients.csv", "energy.csv", "summary.json"]
            files.append([(out / name).read_bytes()
                          for name in ("coefficients.csv", "energy.csv")])
        slices = formatted_here[0]
        assert formatted_here == [slices, slices // 2]
        assert files[0] == files[1]
        rows_written = files[0][0].count(b"\n") - 1
        assert rows_written > scenario_mod._SPLIT_ROWS
        if not bundled:
            assert slices % 2 == 1 and rows_written % BLOCK != 0

    @pytest.mark.parametrize("where", ["worker", "parent", "worker_exit", "parent_interrupt",
                                       "parent_type_error"])
    def test_failure_is_an_engine_failure(self, where, tmp_path, capfd, monkeypatch):
        # whatever fails, or interrupts, on either side, no file is left behind
        parent = os.getpid()
        rows = scenario_mod._coefficient_rows

        def failing(reports):
            if os.getpid() == parent and where == "parent":
                raise RuntimeError("in the parent")
            if os.getpid() == parent and where == "parent_interrupt":
                raise KeyboardInterrupt
            if os.getpid() == parent and where == "parent_type_error":
                raise TypeError("a type error")
            if os.getpid() != parent and where == "worker":
                raise RuntimeError("in the worker")
            if os.getpid() != parent and where == "worker_exit":
                os._exit(3)
            return rows(reports)

        monkeypatch.setattr(scenario_mod, "_coefficient_rows", failing)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        out = tmp_path / "out"
        path = write_scenario(tmp_path, split_doc())
        if where == "parent_interrupt":
            with pytest.raises(KeyboardInterrupt):
                run_scenario(parse_scenario(path), str(out))
        else:
            assert cli_main(["run", path, "--out", str(out)]) == 2
            message = {"worker": "in the worker", "parent": "in the parent",
                       "parent_type_error": "a type error",
                       "worker_exit": "coefficients.csv worker exited with code 3"}[where]
            assert capfd.readouterr() == ("", "engine failure: %s\n" % message)
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_spill_has_no_name(self, tmp_path, monkeypatch):
        # the worker's rows go to an unnamed file: while it formats, the
        # output folder holds only the files the run writes
        parent = os.getpid()
        rows = scenario_mod._coefficient_rows
        out = tmp_path / "out"

        def listing(reports):
            if os.getpid() != parent:
                (tmp_path / "seen").write_text(json.dumps(os.listdir(out)))
            return rows(reports)

        monkeypatch.setattr(scenario_mod, "_coefficient_rows", listing)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        run_scenario(parse_scenario(write_scenario(tmp_path, split_doc())), str(out))
        seen = json.loads((tmp_path / "seen").read_text())
        assert "coefficients.csv" in seen and set(seen) <= {"coefficients.csv", "energy.csv"}
        assert sorted(os.listdir(out)) == ["coefficients.csv", "energy.csv", "summary.json"]

    def test_worker_leaves_the_parents_cpu(self, tmp_path, monkeypatch):
        allowed = os.sched_getaffinity(0)
        assert scenario_mod._current_cpu() in allowed
        cpu = min(allowed)
        parent = os.getpid()
        rows = scenario_mod._coefficient_rows

        def recorded(reports):
            if os.getpid() != parent:
                (tmp_path / "worker_cpus").write_text(json.dumps(sorted(os.sched_getaffinity(0))))
            return rows(reports)

        monkeypatch.setattr(scenario_mod, "_coefficient_rows", recorded)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        monkeypatch.setattr(scenario_mod, "_current_cpu", lambda: cpu)
        run_scenario(parse_scenario(write_scenario(tmp_path, split_doc())), str(tmp_path / "out"))
        # exactly one CPU, not this process's; with one CPU allowed it stays on it
        worker_cpus = json.loads((tmp_path / "worker_cpus").read_text())
        assert len(worker_cpus) == 1 and worker_cpus[0] in (allowed - {cpu} or allowed)
        assert os.sched_getaffinity(0) == allowed

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch, formatted_here):
        # 200 000 rows: 3125 slices of 64 states, the rows of 1563 of them
        # formatted by the worker and appended here
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        c = np.linspace(-1.0, 1.0, 64) * (1.0 - 0.5j)
        reports = [ProjectionStepReport(j, 0.1 * j, c / (j + 1), 1.0, 0.5, False)
                   for j in range(3125)]
        with scenario_mod._output_files(str(tmp_path)) as create:
            tracemalloc.start()
            try:
                scenario_mod._write_slice_files(create, ("coefficients",), reports)
                assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
            finally:
                tracemalloc.stop()
        assert formatted_here == [1562]
        assert os.listdir(tmp_path) == ["coefficients.csv"]
        with open(tmp_path / "coefficients.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 200_001


class TestRun:
    def test_quench_energy_ratio(self, tmp_path):
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc()))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        # E / E0 -> (1 + eta) / 2 = 0.625 for the sudden quench
        assert summary.final_energy_ratio == pytest.approx(0.625, abs=1e-3)
        assert summary.final_norm == pytest.approx(1.0, abs=1e-9)

    def test_quench_truncated_to_seven_states(self, tmp_path):
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc(truncation=7)))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        assert summary.final_energy_ratio == pytest.approx(0.6246, abs=5e-4)

    def test_stationary_run(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("stationary"))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        energy = np.loadtxt(tmp_path / "out" / "energy.csv",
                            delimiter=",", skiprows=1)
        assert np.abs(energy[:, 2] - 1.0).max() < 1e-9
        assert np.ptp(energy[:, 1]) < 1e-9
        assert summary.final_norm == pytest.approx(1.0, abs=1e-9)

    def test_pulse_revival_phase(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("pulse_eta4"))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        # predicted relative phase 2*pi/sqrt(4) = pi, compared circularly
        wrapped = abs(abs(summary.phase_vs_reference) - math.pi)
        assert wrapped < 1e-2
        assert summary.final_norm == pytest.approx(1.0, abs=1e-6)

    def test_pulse_eta081_phase(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("pulse_eta081"))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        predicted = 2.0 * math.pi / 0.9 - 2.0 * math.pi  # reduced to (-pi, pi]
        assert summary.phase_vs_reference == pytest.approx(predicted, abs=1e-2)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc()))
        run_scenario(cfg, str(tmp_path / "a"))
        run_scenario(cfg, str(tmp_path / "b"))
        for name in ("energy.csv", "summary.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            # summary.json differs only in its wall-clock fields
            if name == "summary.json":
                a = json.loads(first)
                b = json.loads(second)
                for doc in (a, b):
                    doc.pop("wall_time_s")
                    assert set(doc.pop("timings")) == {"evolve_s", "eigensolve_s", "project_s",
                                                       "coefficients_s", "output_s"}
                assert a == b
            else:
                assert first == second

    def test_summary_matches_files(self, tmp_path):
        doc = quench_doc()
        doc["outputs"]["emit"] = ["energy", "coefficients", "summary"]
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        summary = run_scenario(cfg, str(tmp_path / "out"))
        doc_out = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc_out["scenario_hash"] == cfg.scenario_hash
        assert doc_out["final_norm"] == pytest.approx(summary.final_norm, rel=1e-15)
        coeffs = np.array([row[1] + 1j * row[2]
                           for row in doc_out["final_coefficients"]])
        assert np.abs(coeffs - summary.final_coefficients).max() < 1e-12

    def test_summary_is_the_record_then_timings(self, tmp_path):
        # quench_doc emits no coefficients.csv, so no time goes to it
        run_scenario(parse_scenario(write_scenario(tmp_path, quench_doc())),
                     str(tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert list(doc) == [f.name for f in dataclasses.fields(RunSummary)] + ["timings"]
        assert list(doc["timings"]) == ["evolve_s", "eigensolve_s", "project_s",
                                        "coefficients_s", "output_s"]
        assert doc["timings"]["coefficients_s"] == 0.0

    def test_amplitude_file_read_at_parse_time(self, tmp_path):
        g = np.linspace(-12.0, 12.0, 64)
        amps = np.exp(-g**2 / 2) / math.pi**0.25
        lines = ["re,im"] + ["%r,%r" % (a, 0.5 * a) for a in amps.tolist()]
        (tmp_path / "amps.csv").write_text("\n".join(lines) + "\n")
        doc = with_change(quench_doc(points=64), ("initial_state",),
                          {"amplitude_file": "amps.csv"})
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        (tmp_path / "amps.csv").unlink()
        assert np.array_equal(cfg.amplitudes, amps + 0.5j * amps)
        run_scenario(cfg, str(tmp_path / "out"))

    def test_eigensolve_counts_in_summary(self, tmp_path):
        doc = smooth_ramp_doc()
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        run_scenario(cfg, str(tmp_path / "out"))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        counts = summary["eigensolves"]
        assert sorted(counts) == ["fallbacks", "lapack", "refined", "reused"]
        assert summary["parity"] == "even"
        assert counts["reused"] + counts["refined"] + counts["lapack"] == 8
        assert counts["refined"] > 0 and counts["fallbacks"] <= counts["lapack"]
        timings = summary["timings"]
        assert 0.0 < timings["eigensolve_s"] <= timings["evolve_s"]
        assert 0.0 < timings["project_s"] <= timings["evolve_s"] - timings["eigensolve_s"]

    @pytest.mark.parametrize("n", [0, 3])
    def test_initial_eigenstate_is_exactly_of_one_parity(self, tmp_path, n):
        doc = with_change(quench_doc(points=256, truncation=8), ("initial_state",),
                          {"eigenstate": n})
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        a = scenario_mod._initial_state(cfg).amplitudes
        parity = -1.0 if n % 2 else 1.0
        assert np.array_equal(a[:128], parity * a[128:][::-1])
        whole = eigendecompose(discretize(cfg.hamiltonian, cfg.grid, 0.0), cfg.grid, n + 1)
        assert np.abs(a - whole.vectors[:, n]).max() <= 1e-12
        assert scenario_mod.evolution_sector(scenario_mod._initial_state(cfg),
                                             cfg.hamiltonian) == Sector(cfg.grid, parity)

    def test_initial_state_solved_once_with_reference(self, tmp_path, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            solves.append(args[2])
            return eigendecompose(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "eigendecompose", counted)
        cfg = parse_scenario(bundled_scenario_path("pulse_eta4"))
        assert cfg.reference
        summary = run_scenario(cfg, str(tmp_path / "out"))
        assert solves == [1]
        assert summary.phase_vs_reference is not None

    def test_out_of_memory_is_an_engine_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scenario_mod, "evolve", exhausted)
        out = tmp_path / "out"
        assert cli_main(["run", write_scenario(tmp_path, quench_doc(points=64)),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "engine failure: MemoryError\n"
        assert list(out.iterdir()) == []

    def test_output_path_taken_by_directory(self, tmp_path, capsys):
        doc = quench_doc(points=256, truncation=24)
        doc["outputs"]["emit"] = ["energy", "coefficients", "summary"]
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert cli_main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("engine failure:") and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["summary.json"]


class TestConverge:
    def test_doublings_validated(self, tmp_path):
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc()))
        with pytest.raises(ScenarioError, match="doublings"):
            converge_scenario(cfg, 1, str(tmp_path / "out"))

    def test_step_profile_is_flat(self, tmp_path):
        # piecewise-constant profiles are integrated exactly at any slicing
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc(points=512)))
        rungs = converge_scenario(cfg, 2, str(tmp_path / "out"))
        assert all(err < 1e-9 for _, err in rungs)

    def test_smooth_ramp_second_order(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        rungs = converge_scenario(cfg, 3, str(tmp_path / "out"))
        errors = [err for _, err in rungs]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        order = math.log2(errors[-2] / errors[-1])
        assert order == pytest.approx(2.0, abs=0.5)
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert rows[0] == "slices,l2_error,observed_order"
        assert len(rows) == len(rungs) + 1

    def test_cfm4_reference_agrees_with_finer_averaged_reference(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        rungs = converge_scenario(cfg, 2, str(tmp_path / "out"))
        finest_slices, finest_err = rungs[-1]
        psi0 = scenario_mod._initial_state(cfg)

        def final(n, scheme):
            return evolve(psi0, cfg.hamiltonian, cfg.t0, cfg.t1, n, cfg.truncation,
                          scheme=scheme).final_state.amplitudes

        def distance(a, b):
            return math.sqrt(cfg.grid.dx * np.vdot(a - b, a - b).real)

        ref = final(finest_slices // 4, "cfm4")
        # the old reference: averaged slices at 4x the finest rung
        assert distance(final(4 * finest_slices, "average"), ref) <= finest_err / 8
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())
        assert doc["reference_scheme"] == "cfm4"
        assert doc["reference_slices"] == finest_slices // 4 == cfg.slices
        assert doc["reference_error_estimate"] == pytest.approx(
            distance(ref, final(cfg.slices // 2, "cfm4")), rel=1e-12)

    def test_smooth_ramp_eigensolve_counts(self, tmp_path):
        # every run of `converge smooth_ramp --doublings 4`, in job order: the
        # warm start is rejected twice on the 8-slice rung and nowhere else.
        # V changes on every slice, but the ramp is symmetric about t = 1, so
        # the two middle slices of the 8-, 64- and 128-slice averages round
        # to the same S-bar and the second reuses the first's basis; no
        # other factor has its predecessor's matrix
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        converge_scenario(cfg, 4, str(tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())

        def run(slices, scheme, refined, lapack, reused=0, fallbacks=0):
            return {"scheme": scheme, "slices": slices,
                    "counts": {"reused": reused, "refined": refined, "lapack": lapack,
                               "fallbacks": fallbacks},
                    "parity": "even"}

        assert doc["eigensolves"] == [
            run(32, "cfm4", 63, 1),
            run(16, "cfm4", 31, 1),
            run(8, "average", 4, 3, reused=1, fallbacks=2),
            run(16, "average", 15, 1),
            run(32, "average", 31, 1),
            run(64, "average", 62, 1, reused=1),
            run(128, "average", 126, 1, reused=1),
        ]

    def test_rungs_report_the_slices_they_ran(self, tmp_path, monkeypatch):
        # evolve also cuts at the step at 0.7, which no uniform boundary hits
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 1)
        doc = quench_doc(points=256, truncation=24)
        doc["potential"]["scale"]["t_on"] = 0.7
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        rungs = converge_scenario(cfg, 2, str(tmp_path / "out"))
        assert [n for n, _ in rungs] == [5, 9, 17]
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [5, 9, 17]
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())
        assert doc["reference_slices"] == 5
        # a run's counts add up to its slices, a cfm4 slice counting twice
        assert [(run["scheme"], run["slices"], sum(run["counts"][k] for k in
                                                   ("reused", "refined", "lapack")))
                for run in doc["eigensolves"]] == [
            ("cfm4", 5, 10), ("cfm4", 3, 6), ("average", 5, 5), ("average", 9, 9),
            ("average", 17, 17)]

    def test_one_slice_reference_has_no_error_estimate(self, tmp_path):
        doc = quench_doc(slices=1, points=256, truncation=24)
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        converge_scenario(cfg, 2, str(tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())
        # after the quench V is constant, so every slice reuses one basis
        assert doc == {"reference_scheme": "cfm4", "reference_slices": 1,
                       "reference_error_estimate": None,
                       "eigensolves": [
                           {"scheme": scheme, "slices": slices,
                            "counts": {"reused": slices * factors - 1, "refined": 0,
                                       "lapack": 1, "fallbacks": 0},
                            "parity": "even"}
                           for scheme, slices, factors in [
                               ("cfm4", 1, 2), ("average", 1, 1), ("average", 2, 1),
                               ("average", 4, 1)]]}

    @pytest.mark.parametrize("where", ["worker", "worker_exit", "worker_type_error"])
    def test_worker_failure_is_an_engine_failure(self, where, tmp_path, capsys, monkeypatch):
        # any exception in a worker, whatever its type, ends as its message
        parent = os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() != parent and where == "worker_exit":
                os._exit(3)
            if os.getpid() != parent and where == "worker_type_error":
                raise TypeError("a type error")
            raise RuntimeError("in a worker" if os.getpid() != parent else "in the parent")

        monkeypatch.setattr(scenario_mod, "evolve", failing)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        path = write_scenario(tmp_path, quench_doc(points=256, truncation=24))
        out = tmp_path / "out"
        assert cli_main(["converge", path, "--doublings", "2", "--out", str(out)]) == 2
        message = {"worker": "in a worker", "worker_type_error": "a type error",
                   "worker_exit": "converge worker exited with code 3"}[where]
        err = capsys.readouterr().err
        assert err.endswith("\nengine failure: %s\n" % message) and "Traceback" not in err
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing_run", [(16, "average"), (4, "cfm4")],
                             ids=["first_worker", "second_worker"])
    def test_failure_ends_the_other_workers(self, failing_run, tmp_path, capsys,
                                            monkeypatch):
        # one worker fails on its first run while the other sleeps in its
        # first; the command ends at once, not a minute later.  Longest
        # processing time first gives the first worker the 16-slice rung and
        # then the 2-slice cfm4 run, and the second the 4-slice cfm4 reference
        # and then the 8- and 4-slice rungs
        parent = os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() != parent and (args[4], kwargs["scheme"]) == failing_run:
                raise RuntimeError("in a worker")
            time.sleep(60)

        monkeypatch.setattr(scenario_mod, "evolve", failing)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        path = write_scenario(tmp_path, quench_doc(points=256, truncation=24))
        start = time.perf_counter()
        assert cli_main(["converge", path, "--doublings", "2",
                         "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 30
        assert capsys.readouterr().err.endswith("\nengine failure: in a worker\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_workers_take_one_cpu_each_and_balanced_shares(self, tmp_path, monkeypatch):
        # `converge smooth_ramp --doublings 4`: 7 runs of 344 factors in all
        # (64 + 32 for the cfm4 runs, 8 + 16 + ... + 128 for the rungs); longest
        # processing time first gives one worker 128 + 32 + 16 and the other
        # 64 + 64 + 32 + 8
        def recorded(*args, **kwargs):
            with open(tmp_path / ("worker_%d" % os.getpid()), "a", encoding="utf-8") as fh:
                fh.write(json.dumps([sorted(os.sched_getaffinity(0)), args[4],
                                     kwargs["scheme"]]) + "\n")
            return evolve(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "evolve", recorded)
        monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: 2)
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        converge_scenario(cfg, 4, str(tmp_path / "out"))
        workers = [[json.loads(line) for line in path.read_text().splitlines()]
                   for path in sorted(tmp_path.glob("worker_*"))]
        assert len(workers) == 2 and not (tmp_path / ("worker_%d" % os.getpid())).exists()
        cpus = [cpu for runs in workers for cpu in {tuple(c) for c, _, _ in runs}]
        assert all(len(cpu) == 1 for cpu in cpus) and len(set(cpus)) == 2
        loads = sorted(sum(n * (2 if scheme == "cfm4" else 1) for _, n, scheme in runs)
                       for runs in workers)
        assert loads == [168, 176]

    def test_in_process_path_writes_the_pool_path_files(self, tmp_path, monkeypatch):
        # a run that goes through `evolve` in this process is recorded here;
        # one on a forked worker is not
        pids = []

        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return evolve(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "evolve", recorded)
        doc = quench_doc(points=256, truncation=24, slices=2)
        ts = [0.25 * i for i in range(9)]
        doc["potential"]["scale"] = {"kind": "sampled", "times": ts,
                                     "values": [1 + 0.5 * math.sin(0.5 * math.pi * t) ** 2
                                                for t in ts]}
        cfg = parse_scenario(write_scenario(tmp_path, doc))
        files = []
        for cpus in (1, 2):
            monkeypatch.setattr(scenario_mod, "_available_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            converge_scenario(cfg, 2, str(out))
            files.append([(out / f).read_bytes()
                          for f in ("convergence.csv", "convergence.json")])
        # reference, estimate and three rungs, all run here when one CPU is free
        assert pids == [os.getpid()] * 5
        assert files[0] == files[1]


class TestCompareDirac:
    def test_requires_dirac_section(self, tmp_path):
        cfg = parse_scenario(write_scenario(tmp_path, quench_doc()))
        with pytest.raises(ScenarioError, match="dirac"):
            compare_dirac_scenario(cfg, str(tmp_path / "out"))

    def test_weak_pulse_three_way_agreement(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("dirac_weak"))
        report = compare_dirac_scenario(cfg, str(tmp_path / "out"))
        assert report.max_norm == pytest.approx(1.0, abs=1e-6)
        rows = np.loadtxt(tmp_path / "out" / "dirac_compare.csv",
                          delimiter=",", skiprows=1, ndmin=2)
        m, a_mp, a_rk, a_fo = rows[0][:4]
        assert int(m) == 2
        assert abs(a_mp - a_rk) / a_rk < 0.05
        assert abs(a_mp - a_fo) / a_fo < 0.05
        doc = json.loads((tmp_path / "out" / "divergence_report.json").read_text())
        assert list(doc) == ([f.name for f in dataclasses.fields(DivergenceReport)]
                             + ["rk4_dt", "max_phase_per_step"])
        assert doc["rk4_dt"] == 1.0 / 400
        assert doc["max_phase_per_step"] == pytest.approx(47.0 / 400, rel=1e-2)

    def test_strong_quench_reports_divergence(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("quench_eta025"))
        report = compare_dirac_scenario(cfg, str(tmp_path / "out"))
        assert report.max_norm > 1e6
        assert report.first_exceedance_time is not None
        doc = json.loads((tmp_path / "out" / "divergence_report.json").read_text())
        assert doc["max_norm"] == report.max_norm
        # 16 states with w_k ~ k + 1/2 and dt = 30/60, far past RK4's bound of ~2.8
        assert doc["rk4_dt"] == 0.5
        assert doc["max_phase_per_step"] == pytest.approx(7.5, rel=1e-2)

    @staticmethod
    def strict_json(path):
        def refuse(token):
            raise ValueError("%s is not strict JSON" % token)
        return json.loads(path.read_text(), parse_constant=refuse)

    def test_blow_up_reports_its_finite_steps(self, tmp_path, capsys):
        # RK4 at dt = 100 stops at step 27; the norm passed 1.1 at step 1
        doc = with_change(quench_doc(), ("dirac",),
                          {"states": 48, "rk4_steps": 30, "t1": 3000.0, "targets": [2]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["compare-dirac", write_scenario(tmp_path, doc),
                             "--out", str(tmp_path / "out")]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == ["amplitude-equation norm: max inf, final inf",
                                    "norm first exceeded 1.1 at t = 100"]
        report = self.strict_json(tmp_path / "out" / "divergence_report.json")
        assert report["first_exceedance_time"] == 100.0
        assert report["max_norm"] is None and report["final_norm"] is None
        norms = np.loadtxt(tmp_path / "out" / "norm_history.csv", delimiter=",",
                           skiprows=1)
        assert norms[:, 0].tolist() == [100.0 * i for i in range(28)]
        assert norms[1, 1] > 1e13 and norms[-1, 1] == math.inf

    def test_norm_overflow_is_null_without_a_warning(self, tmp_path, capsys):
        # the amplitudes stay finite (|C_2| about 8e183), but |C|^2 overflows
        doc = with_change(quench_doc(), ("dirac",),
                          {"states": 32, "rk4_steps": 30, "t1": 200.0, "targets": [2]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["compare-dirac", write_scenario(tmp_path, doc),
                             "--out", str(tmp_path / "out")]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("amplitude-equation norm: max inf, final inf\n")
        report = self.strict_json(tmp_path / "out" / "divergence_report.json")
        assert report["max_norm"] is None and report["final_norm"] is None
        rows = np.loadtxt(tmp_path / "out" / "dirac_compare.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert np.isfinite(rows[0, 2]) and rows[0, 2] > 1e180

    def test_rk4_dt_is_the_largest_step(self, tmp_path):
        # the pulse's edges cut [0, 1] into 0.25, 0.25 and 0.5, which take
        # 3, 3 and 4 of the 10 steps
        doc = with_change(dirac_weak_doc(), ("potential", "scale"),
                          {"kind": "pulse", "eta": 1.001, "t_on": 0.25, "t_off": 0.5})
        doc["dirac"]["rk4_steps"] = 10
        compare_dirac_scenario(parse_scenario(write_scenario(tmp_path, doc)),
                               str(tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "divergence_report.json").read_text())
        assert report["rk4_dt"] == 0.125
        assert report["max_phase_per_step"] == pytest.approx(47.0 * 0.125, rel=1e-2)
        times = np.loadtxt(tmp_path / "out" / "norm_history.csv", delimiter=",",
                           skiprows=1)[:, 0]
        assert times.size == 11 and {0.25, 0.5} <= set(times.tolist())
        assert np.diff(times).max() == pytest.approx(0.125, rel=1e-15)

    def test_tabulated_copy_matches_scaled_harmonic(self, tmp_path):
        doc = dirac_weak_doc()
        x = np.linspace(-10.0, 10.0, 400)
        # the pulse is 1.001 on (0, 1) and 1 at both ends; the ramps of the
        # copy are far shorter than any RK4 or quadrature step
        t_samples = [0.0, 1e-9, 1.0 - 1e-9, 1.0]
        rows = [(s * 0.5 * x**2).tolist() for s in (1.0, 1.001, 1.001, 1.0)]
        table = with_change(doc, ("potential",), {
            "kind": "tabulated", "x_samples": x.tolist(), "t_samples": t_samples,
            "v_samples": rows})
        tables = []
        for name, scenario in (("scaled", doc), ("tabulated", table)):
            cfg = parse_scenario(write_scenario(tmp_path, scenario, name + ".json"))
            compare_dirac_scenario(cfg, str(tmp_path / name))
            tables.append(np.loadtxt(tmp_path / name / "dirac_compare.csv",
                                     delimiter=",", skiprows=1, ndmin=2))
        assert np.abs(tables[1] - tables[0]).max() < 1e-10

    def test_initial_basis_solved_once(self, tmp_path, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            solves.append(args[2])
            return eigendecompose(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "eigendecompose", counted)
        cfg = parse_scenario(bundled_scenario_path("dirac_weak"))
        compare_dirac_scenario(cfg, str(tmp_path / "out"))
        assert solves == [cfg.dirac["states"]]

    def test_potential_evaluations_do_not_depend_on_rk4_steps(self, tmp_path, monkeypatch):
        calls = []
        on_grid = HamiltonianSpec.potential_on_grid

        def counted(self, grid, t):
            calls.append(t)
            return on_grid(self, grid, t)

        monkeypatch.setattr(HamiltonianSpec, "potential_on_grid", counted)
        counts = []
        for steps in (100, 1500):
            doc = with_change(dirac_weak_doc(), ("dirac", "rk4_steps"), steps)
            cfg = parse_scenario(write_scenario(tmp_path, doc))
            calls.clear()
            compare_dirac_scenario(cfg, str(tmp_path / str(steps)))
            counts.append(len(calls))
        assert counts[0] == counts[1]


    def test_output_path_taken_by_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "divergence_report.json").mkdir(parents=True)
        code = cli_main(["compare-dirac", bundled_scenario_path("dirac_weak"),
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("engine failure:") and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["divergence_report.json"]

    def test_time_shift_leaves_comparison_unchanged(self, tmp_path):
        doc = json.loads(Path(bundled_scenario_path("dirac_weak")).read_text())
        shifted = copy.deepcopy(doc)
        shifted["schedule"]["t0"] += 5.0
        shifted["schedule"]["t1"] += 5.0
        shifted["potential"]["scale"]["t_on"] += 5.0
        shifted["potential"]["scale"]["t_off"] += 5.0
        tables = []
        for name, scenario in (("plain", doc), ("shifted", shifted)):
            cfg = parse_scenario(write_scenario(tmp_path, scenario, name + ".json"))
            compare_dirac_scenario(cfg, str(tmp_path / name))
            tables.append(np.loadtxt(tmp_path / name / "dirac_compare.csv",
                                     delimiter=",", skiprows=1, ndmin=2))
        assert tables[0][0, 3] > 1e-4  # abs_b_first_order of the unshifted pulse
        assert np.allclose(tables[1], tables[0], rtol=1e-12, atol=1e-12)


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli_main(["validate", bundled_scenario_path("quench_eta025")]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        doc = quench_doc()
        doc["schedule"]["slices"] = 0
        path = write_scenario(tmp_path, doc)
        assert cli_main(["validate", path]) == 1
        assert "slices" in capsys.readouterr().err

    def test_run_exit_code_and_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, quench_doc(points=256, truncation=24))
        assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "final energy ratio" in capsys.readouterr().out
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path, quench_doc(points=64))
        assert cli_main(["run", path, "--out", path]) == 2
        assert capsys.readouterr().err.startswith("engine failure:")

    def test_converge_writes_deterministic_files(self, tmp_path, capsys):
        doc = quench_doc(points=256, truncation=24, slices=2)
        ts = [0.25 * i for i in range(9)]
        doc["potential"]["scale"] = {"kind": "sampled", "times": ts,
                                     "values": [1 + 0.5 * math.sin(0.5 * math.pi * t) ** 2
                                                for t in ts]}
        path = write_scenario(tmp_path, doc)
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["converge", path, "--doublings", "2", "--out", str(out)]) == 0
            runs.append([(out / f).read_bytes()
                         for f in ("convergence.csv", "convergence.json")])
        assert runs[0] == runs[1]
        assert "l2 error" in capsys.readouterr().out

    def test_converge_requires_two_doublings(self, tmp_path, capsys):
        path = write_scenario(tmp_path, quench_doc(points=256, truncation=24))
        code = cli_main(["converge", path, "--doublings", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "doublings >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("doublings", [16, 17, 40, 10**9])
    def test_converge_doublings_bounded_above(self, tmp_path, capsys, monkeypatch,
                                              doublings):
        # 4 slices x 2**16 is MAX_SLICES, so 16 is admitted; a larger request is
        # refused before the initial state is solved, a worker starts or a file
        # is written
        class Started(BaseException):  # not an Exception, so not an EngineError
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(scenario_mod, "_initial_state", started)
        monkeypatch.setattr(scenario_mod, "_run_jobs", started)
        path = write_scenario(tmp_path, quench_doc(points=256, truncation=24))
        out = tmp_path / "out"
        if doublings == 16:
            with pytest.raises(Started):
                cli_main(["converge", path, "--doublings", str(doublings), "--out", str(out)])
            return
        assert cli_main(["converge", path, "--doublings", str(doublings),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "invalid scenario: converge requires doublings >= 2 and slices x 2**doublings "
            "<= %d (here 4 x 2**%d)\n" % (MAX_SLICES, doublings))
        assert multiprocessing.active_children() == [] and not out.exists()

    @pytest.mark.parametrize("doublings", [15, 16])
    def test_converge_coefficient_history_bounded(self, tmp_path, capsys, monkeypatch,
                                                   doublings):
        # the finest rung keeps 4 x 2**doublings slices of 1024 complex
        # coefficients: 2 GiB at 15 doublings, so 16 is refused before the
        # initial state is solved, a worker starts or a file is written
        class Started(BaseException):  # not an Exception, so not an EngineError
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(scenario_mod, "_initial_state", started)
        monkeypatch.setattr(scenario_mod, "_run_jobs", started)
        path = write_scenario(tmp_path, quench_doc(truncation=None))
        out = tmp_path / "out"
        argv = ["converge", path, "--doublings", str(doublings), "--out", str(out)]
        if doublings == 15:
            with pytest.raises(Started):
                cli_main(argv)
            return
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            "invalid scenario: converge: a %d x 1024 per-slice coefficient history takes %d "
            "bytes, more than %d\n" % (MAX_SLICES, MAX_SLICES * 1024 * 16, MAX_BASIS_BYTES))
        assert multiprocessing.active_children() == [] and not out.exists()

    def test_converge_finest_rung_narrower_than_rounding(self, tmp_path, capsys):
        # one slice of [1, 1 + 4e-15] is valid, but 32 slices of it round onto one
        # another: refused before any run starts, as `validate` refuses a run
        doc = quench_doc(points=256, truncation=24, slices=1)
        doc["schedule"].update(t0=1.0, t1=1.0 + 4e-15)
        path = write_scenario(tmp_path, doc)
        assert cli_main(["validate", path]) == 0
        out = tmp_path / "out"
        assert cli_main(["converge", path, "--doublings", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "invalid scenario: schedule: slice boundaries must be strictly increasing: "
            "32 slices do not fit in [1.0, 1.000000000000004]")
        assert not out.exists()

    @pytest.mark.parametrize("doc, flat", [
        (tabulated_ramp_doc(), False),
        (smooth_ramp_doc(), False),
        (json.loads(Path(bundled_scenario_path("quench_eta025")).read_text()), True),
    ], ids=["tabulated_ramp", "smooth_ramp", "quench_eta025"])
    def test_converge_flat_warning_follows_the_potential(self, tmp_path, capsys, doc, flat):
        path = write_scenario(tmp_path, doc)
        assert cli_main(["converge", path, "--doublings", "2",
                         "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert ("convergence trivially flat" in captured.err) == flat
        errors = [float(line.split()[-1]) for line in captured.out.splitlines()]
        assert (max(errors) < 1e-9) == flat

    def test_missing_file_exit_code(self, capsys):
        assert cli_main(["validate", "/nonexistent/scn.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: ") and "/nonexistent/scn.json" in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_an_engine_failure(self, tmp_path, unbuffered):
        # the run completes, then its reader has gone: a buffered stdout
        # fails at the final flush, an unbuffered one at the first print
        path = write_scenario(tmp_path, quench_doc(points=64))
        src = os.path.dirname(os.path.dirname(os.path.abspath(scenario_mod.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, *(["-u"] if unbuffered else []), "-m", "mpsolve.cli",
                 "run", path, "--out", str(tmp_path / "out")],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == "engine failure: [Errno %d] %s\n" % (
            errno.EPIPE, os.strerror(errno.EPIPE))
        assert (tmp_path / "out" / "summary.json").exists()
