"""Acceptance suite: the ten headline criteria, one test and one printed
pass/fail line each.  Tolerances and runtime budgets are asserted, not just
reported."""

import json
import math
import time

import numpy as np
import pytest

from mpsolve.core import Grid, HamiltonianSpec, PotentialSpec, ScaleProfile
from mpsolve.dirac import (
    first_order_amplitude,
    integrate_amplitudes,
    perturbation_elements,
)
from mpsolve.eigensolver import discretize, eigendecompose, residual
from mpsolve.oscillator import OscillatorParams, sudden_quench_coefficients
from mpsolve.projection import evolve, project, reconstruct
from mpsolve.scenario import (
    bundled_scenario_path,
    compare_dirac_scenario,
    converge_scenario,
    parse_scenario,
    run_scenario,
)

DEFAULT_GRID = Grid(-12.0, 12.0, 1024)
BUNDLED = ("quench_eta025", "quench_eta081", "quench_eta121", "pulse_eta4",
           "pulse_eta081", "stationary", "smooth_ramp", "dirac_weak")


@pytest.fixture
def announce(request, capsys):
    """Emit one uncapturable pass/fail line per criterion."""
    t_start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t_start
    rep = getattr(request.node, "rep_call", None)
    status = "FAIL" if (rep is None or rep.failed) else "PASS"
    label = request.node.name.removeprefix("test_")
    with capsys.disabled():
        print("ACCEPTANCE %-28s %s (%.1f s)" % (label, status, elapsed))


def hamiltonian(profile=None, k=1.0):
    pot = (PotentialSpec.scaled_harmonic(k, profile) if profile is not None
           else PotentialSpec.harmonic(k))
    return HamiltonianSpec(1.0, 1.0, pot)


def quench_run(eta, t1=2.0, slices=4, truncation=64, grid=DEFAULT_GRID):
    h = hamiltonian(ScaleProfile.step(eta, 0.0))
    basis0 = eigendecompose(discretize(h, grid, -1.0), grid, max(truncation or 1, 1))
    psi0 = basis0.state(0)
    return evolve(psi0, h, 0.0, t1, slices, truncation)


class TestAcceptance:
    def test_1_quench_coefficients(self, announce):
        t0 = time.perf_counter()
        eta = 0.25
        paper = {0: 0.9710, 2: -0.2289, 4: 0.0661, 6: -0.0201}
        oracle = sudden_quench_coefficients(eta, 6, OscillatorParams(1.0, 1.0))

        h = hamiltonian(ScaleProfile.step(eta, 0.0))
        basis0 = eigendecompose(discretize(h, DEFAULT_GRID, -1.0), DEFAULT_GRID, 1)
        quenched = eigendecompose(discretize(h, DEFAULT_GRID, 1.0), DEFAULT_GRID, 8)
        grid_coeffs = project(basis0.state(0), quenched).real

        for n, expect in paper.items():
            assert oracle.coefficients[n] == pytest.approx(expect, abs=1e-3)
            assert grid_coeffs[n] == pytest.approx(expect, abs=1e-3)
            assert grid_coeffs[n] == pytest.approx(oracle.coefficients[n], abs=1e-3)
        assert time.perf_counter() - t0 < 5.0

    def test_2_quench_energies(self, announce):
        t0 = time.perf_counter()
        for eta, truncated_expect in ((0.25, 0.6246), (0.81, 0.9050), (1.21, 1.1050)):
            res = quench_run(eta, truncation=7)
            ratio = res.reports[-1].energy / 0.5
            assert ratio == pytest.approx(truncated_expect, abs=5e-4)

            res = quench_run(eta, truncation=64)
            ratio = res.reports[-1].energy / 0.5
            assert ratio == pytest.approx((1.0 + eta) / 2.0, abs=1e-3)
        assert time.perf_counter() - t0 < 10.0

    def test_3_pulse_phase(self, announce):
        t0 = time.perf_counter()
        for eta, expect in ((4.0, math.pi), (0.81, 0.6981)):
            big_t = 4.0 * math.pi / math.sqrt(eta)
            profile = ScaleProfile.pulse(eta, 0.0, big_t)
            h = hamiltonian(profile)
            basis0 = eigendecompose(discretize(h, DEFAULT_GRID, -1.0),
                                    DEFAULT_GRID, 64)
            psi0 = basis0.state(0)
            res = evolve(psi0, h, 0.0, big_t, 8, 64)
            overlap = complex(np.sum(
                DEFAULT_GRID.weights * np.conj(psi0.amplitudes)
                * res.final_state.amplitudes))
            free_phase = -0.5 * big_t  # e^{-i E0 T} of the unperturbed run
            relative = np.angle(overlap * np.exp(-1j * free_phase))
            assert abs(overlap) == pytest.approx(1.0, abs=1e-4)
            circ = min(abs(relative - expect), abs(abs(relative) - expect))
            assert circ < 1e-2
        assert time.perf_counter() - t0 < 10.0

    def test_4_stationarity(self, announce):
        h = hamiltonian()
        basis = eigendecompose(discretize(h, DEFAULT_GRID, 0.0), DEFAULT_GRID, 64)
        psi0 = basis.state(0)
        res = evolve(psi0, h, 0.0, 10.0, 1000, 64)
        c0_abs = np.array([abs(r.coefficients[0]) for r in res.reports])
        norms = np.array([r.norm_squared for r in res.reports])
        assert np.abs(c0_abs - 1.0).max() <= 1e-8
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_5_unitarity_completeness(self, announce):
        grid = Grid(-10.0, 10.0, 256)
        h = hamiltonian()
        basis = eigendecompose(discretize(h, grid, 0.0), grid)
        x = grid.x
        from mpsolve.core import WaveFunction
        psi = WaveFunction(grid, np.exp(-0.5 * (x - 1.0) ** 2)
                           * np.exp(0.3j * x))
        rebuilt = reconstruct(project(psi, basis), basis)
        assert np.abs(rebuilt.amplitudes - psi.amplitudes).max() <= 1e-9

        res = evolve(basis.state(0), h, 0.0, 20.0, 2000, truncation=None)
        norms = np.array([r.norm_squared for r in res.reports])
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_6_first_order_consistency(self, announce):
        t0 = time.perf_counter()
        grid = Grid(-10.0, 10.0, 400)
        big_t, n_states = 1.0, 48

        def mutual_discrepancy(eps):
            profile = ScaleProfile.pulse(1.0 + eps, 0.0, big_t)
            h = hamiltonian(profile)
            basis0 = eigendecompose(discretize(h, grid, -1.0), grid, n_states)
            psi0 = basis0.state(0)
            res = evolve(psi0, h, 0.0, big_t, 4, n_states)
            c_mp = project(res.final_state, basis0)[2]

            omegas = basis0.energies
            v = perturbation_elements(h, basis0, 0.5 * big_t, -1.0)
            c0 = np.zeros(n_states, dtype=complex)
            c0[0] = project(psi0, basis0)[0]
            traj = integrate_amplitudes(lambda t: v, omegas, c0,
                                        (0.0, big_t), 400)
            c_rk4 = traj.amplitudes[-1][2] * np.exp(-1j * omegas[2] * big_t)
            b_fo = first_order_amplitude(lambda t: v[2, 0], 0, 2, omegas, big_t)
            return max(abs(c_mp - c_rk4), abs(c_mp - b_fo), abs(c_rk4 - b_fo))

        eps = 2e-2
        d_full = mutual_discrepancy(eps)
        d_half = mutual_discrepancy(eps / 2.0)
        assert 3.0 <= d_full / d_half <= 5.0
        assert time.perf_counter() - t0 < 30.0

    def test_7_eigensolver_quality(self, announce):
        h = hamiltonian()
        matrix = discretize(h, DEFAULT_GRID, 0.0)
        basis = eigendecompose(matrix, DEFAULT_GRID, 11)
        expect = np.arange(11) + 0.5
        assert np.abs(basis.energies / expect - 1.0).max() < 1e-3
        w = DEFAULT_GRID.weights
        gram = basis.vectors.T @ (w[:, None] * basis.vectors)
        assert np.abs(gram - np.eye(11)).max() < 1e-10
        assert residual(matrix, basis).max() < 1e-8

    def test_8_convergence_ladder(self, announce, tmp_path):
        t0 = time.perf_counter()
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        rungs = converge_scenario(cfg, 5, str(tmp_path))
        errors = [err for _, err in rungs]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        order = math.log2(errors[-2] / errors[-1])
        assert order >= 1.5
        assert time.perf_counter() - t0 < 60.0

    def test_9_divergence_diagnostic(self, announce, tmp_path):
        cfg = parse_scenario(bundled_scenario_path("quench_eta025"))
        report = compare_dirac_scenario(cfg, str(tmp_path))
        assert report.max_norm > 1.0
        doc = json.loads((tmp_path / "divergence_report.json").read_text())
        assert doc["max_norm"] == report.max_norm
        norms = np.loadtxt(tmp_path / "norm_history.csv",
                           delimiter=",", skiprows=1)
        assert norms[:, 1].max() > 1.0

    def test_10_determinism(self, announce, tmp_path):
        for name in BUNDLED:
            cfg = parse_scenario(bundled_scenario_path(name))
            a = tmp_path / name / "a"
            b = tmp_path / name / "b"
            if cfg.dirac is not None and name == "dirac_weak":
                compare_dirac_scenario(cfg, str(a))
                compare_dirac_scenario(cfg, str(b))
                files = ["dirac_compare.csv", "norm_history.csv"]
            else:
                run_scenario(cfg, str(a))
                run_scenario(cfg, str(b))
                files = [f for f in ("energy.csv", "coefficients.csv")
                         if (a / f).exists()]
            assert files, "scenario %s produced no CSV output" % name
            for f in files:
                assert (a / f).read_bytes() == (b / f).read_bytes(), \
                    "%s/%s not byte-identical" % (name, f)
