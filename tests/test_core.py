import math

import numpy as np
import pytest

from mpsolve import (
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    ScaleProfile,
    WaveFunction,
    hermite_eigenfunction,
    inner_product,
    norm_squared,
)
from mpsolve.oscillator import OscillatorParams

GRID = Grid(-12.0, 12.0, 1024)


def osc_state(n, grid=GRID, params=OscillatorParams()):
    return WaveFunction(grid, hermite_eigenfunction(params, n, grid.x).astype(complex))


class TestGrid:
    def test_nodes_computed_from_index(self):
        g = Grid(-1.0, 2.0, 7)
        assert g.dx == pytest.approx(0.5)
        assert np.allclose(g.x, -1.0 + 0.5 * np.arange(7))
        assert g.x[0] == -1.0 and g.x[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    def test_weights_are_uniform(self):
        g = Grid(0.0, 1.0, 5)
        assert np.array_equal(g.weights, [0.25] * 5)


class TestInnerProduct:
    def test_normalized_ground_state(self):
        psi = osc_state(0)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-10)

    def test_opposite_parity_orthogonal(self):
        assert abs(inner_product(osc_state(0), osc_state(1))) < 1e-8

    def test_gaussian_against_closed_form(self):
        # oracle: int exp(-x^2) dx = sqrt(pi), so this state has unit norm
        psi = WaveFunction(GRID, np.exp(-GRID.x**2 / 2) / math.pi**0.25)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-9)

    def test_grid_mismatch(self):
        other = WaveFunction(Grid(-12.0, 12.0, 512), np.zeros(512))
        with pytest.raises(ValueError, match="incompatible grids"):
            inner_product(osc_state(0), other)

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(7)
        g = Grid(-1.0, 1.0, 33)
        for _ in range(20):
            a = WaveFunction(g, rng.normal(size=33) + 1j * rng.normal(size=33))
            b = WaveFunction(g, rng.normal(size=33) + 1j * rng.normal(size=33))
            c = WaveFunction(g, rng.normal(size=33) + 1j * rng.normal(size=33))
            z = complex(rng.normal(), rng.normal())
            assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
            lhs = inner_product(a, WaveFunction(g, z * b.amplitudes + c.amplitudes))
            assert lhs == pytest.approx(z * inner_product(a, b) + inner_product(a, c))
            lhs = inner_product(WaveFunction(g, z * a.amplitudes), b)
            assert lhs == pytest.approx(np.conj(z) * inner_product(a, b))

    def test_analytic_eigenfunctions_orthonormal(self):
        states = [osc_state(n) for n in range(11)]
        for i in range(11):
            for j in range(11):
                expect = 1.0 if i == j else 0.0
                assert abs(inner_product(states[i], states[j]) - expect) < 1e-6


class TestNormSquared:
    def test_zero_vector(self):
        assert norm_squared(WaveFunction(GRID, np.zeros(1024))) == 0.0

    def test_normalized_state(self):
        assert norm_squared(osc_state(0)) == pytest.approx(1.0, abs=1e-10)

    def test_scaling_is_quadratic(self):
        psi = osc_state(2)
        doubled = WaveFunction(GRID, 2.0 * psi.amplitudes)
        assert norm_squared(doubled) == pytest.approx(4.0 * norm_squared(psi))


class TestScaleProfile:
    def test_step_branch_convention(self):
        s = ScaleProfile.step(0.25, t_on=0.0)
        assert s(0.0) == 1.0  # closed-left branch
        assert s(-1.0) == 1.0
        assert s(1e-12) == 0.25

    def test_pulse_branches(self):
        s = ScaleProfile.pulse(0.81, 0.0, 2.0)
        assert s(0.0) == 1.0
        assert s(1.0) == 0.81
        assert s(2.0) == 1.0
        assert s(3.0) == 1.0

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaleProfile.step(-1.0)

    def test_sampled_interpolates_and_rejects_out_of_range(self):
        s = ScaleProfile.sampled([0.0, 1.0], [1.0, 2.0])
        assert s(0.5) == pytest.approx(1.5)
        with pytest.raises(ValueError, match="time out of range"):
            s(2.0)


class TestEvaluatePotential:
    def test_harmonic(self):
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))
        assert h.potential.evaluate(2.0, 17.0) == pytest.approx(2.0)

    def test_scaled_harmonic_step(self):
        prof = ScaleProfile.step(0.25, t_on=0.0)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
        assert h.potential.evaluate(2.0, 1.0) == pytest.approx(0.5)

    def test_scaled_harmonic_pulse_after_t_off(self):
        prof = ScaleProfile.pulse(0.81, 0.0, 1.0)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
        assert h.potential.evaluate(2.0, 5.0) == pytest.approx(2.0)

    def test_scaled_harmonic_with_unit_profile_matches_harmonic(self):
        plain = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(2.0))
        scaled = HamiltonianSpec(
            1.0, 1.0, PotentialSpec.scaled_harmonic(2.0, ScaleProfile.constant(1.0)))
        x = np.linspace(-3, 3, 17)
        for t in (0.0, 1.5):
            assert np.array_equal(plain.potential.evaluate(x, t),
                                  scaled.potential.evaluate(x, t))

    def test_tabulated_time_range_and_interpolation(self):
        g = Grid(-1.0, 1.0, 5)
        v0 = np.zeros(5)
        v1 = g.x**2
        pot = PotentialSpec.tabulated(g.x, [0.0, 1.0], [v0, v1])
        h = HamiltonianSpec(1.0, 1.0, pot)
        assert np.allclose(h.potential_on_grid(g, 0.5), 0.5 * g.x**2)
        assert h.potential.evaluate(1.0, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="time out of range"):
            h.potential.evaluate(0.0, 2.0)
