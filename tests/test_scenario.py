"""Tests for scenario parsing, the run/converge/compare drivers, and the CLI."""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsolve.cli import main as cli_main
from mpsolve.scenario import (
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
        assert cfg.profile(1.0) == 0.25
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


def tabulated_doc(t_samples=(0.0, 2.0), x_samples=None):
    xs = np.linspace(-2.0, 2.0, 9) if x_samples is None else np.asarray(x_samples)
    return {
        "grid": {"x_min": -2.0, "x_max": 2.0, "points": 9},
        "potential": {"kind": "tabulated", "x_samples": xs.tolist(),
                      "t_samples": list(t_samples),
                      "v_samples": [(0.5 * xs**2).tolist()] * len(t_samples)},
        "schedule": {"t0": 0.0, "t1": 2.0, "slices": 4},
        "basis": {"truncation": 4},
    }


def smooth_ramp_doc():
    with open(bundled_scenario_path("smooth_ramp"), encoding="utf-8") as fh:
        return json.load(fh)


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
         "schedule.averaging: must be one of integral/midpoint_endpoint_mean"),
    ])
    def test_bad_shapes_and_indices(self, tmp_path, path, value, violation):
        doc = with_change(quench_doc(), path, value)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(write_scenario(tmp_path, doc))
        assert violation in excinfo.value.violations

    @pytest.mark.parametrize("text, violation", [
        ("re\n1.0\n", "needs 're' and 'im' columns"),
        ("real,imag\n1.0,0.0\n", "needs 're' and 'im' columns"),
        ("re,im\n1.0,abc\n", "every 're' and 'im' value must be a number"),
        ("re,im\n1.0\n", "every 're' and 'im' value must be a number"),
        ("re,im\nnan,0.0\n", "every 're' and 'im' value must be finite"),
        ("re,im\n1e400,0.0\n", "every 're' and 'im' value must be finite"),
        ("re,im\n1.0,0.0\n", "1 rows, but grid.points is 64"),
    ], ids=["no_im", "wrong_names", "non_numeric", "short_row", "nan", "overflow",
            "wrong_length"])
    def test_bad_amplitude_file(self, tmp_path, capsys, text, violation):
        (tmp_path / "amps.csv").write_text(text)
        doc = with_change(quench_doc(points=64), ("initial_state",),
                          {"amplitude_file": "amps.csv"})
        assert cli_main(["run", write_scenario(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == 1
        assert ("invalid scenario: initial_state.amplitude_file: " + violation
                in capsys.readouterr().err.splitlines())

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
            # summary.json differs only in wall_time_s
            if name == "summary.json":
                a = json.loads(first)
                b = json.loads(second)
                a.pop("wall_time_s")
                b.pop("wall_time_s")
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

    def test_output_path_taken_by_directory(self, tmp_path, capsys):
        doc = quench_doc(points=256)
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

    def test_strong_quench_reports_divergence(self, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("quench_eta025"))
        report = compare_dirac_scenario(cfg, str(tmp_path / "out"))
        assert report.max_norm > 1e6
        assert report.first_exceedance_time is not None
        doc = json.loads((tmp_path / "out" / "divergence_report.json").read_text())
        assert doc["max_norm"] == report.max_norm


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
        path = write_scenario(tmp_path, quench_doc(points=256))
        assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "final energy ratio" in capsys.readouterr().out
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path, quench_doc(points=64))
        assert cli_main(["run", path, "--out", path]) == 2
        assert capsys.readouterr().err.startswith("engine failure:")

    def test_converge_requires_two_doublings(self, tmp_path, capsys):
        path = write_scenario(tmp_path, quench_doc(points=256))
        code = cli_main(["converge", path, "--doublings", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "doublings >= 2" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert cli_main(["validate", "/nonexistent/scn.json"]) == 1
