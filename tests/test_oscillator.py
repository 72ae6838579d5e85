import math

import numpy as np
import pytest

from mpsolve import (
    OscillatorParams,
    hermite_eigenfunction,
    pulse_phase_prediction,
    sudden_quench_coefficients,
    truncated_quench_energy,
)


class TestParams:
    def test_derived_quantities(self):
        p = OscillatorParams(mass=2.0, hbar=0.5, k=8.0)
        assert p.omega == pytest.approx(2.0)
        assert p.alpha**4 * p.hbar**2 == pytest.approx(p.mass * p.k, rel=1e-12)

    def test_quenched_partner(self):
        p = OscillatorParams()
        q = p.quenched(0.25)
        assert q.omega == pytest.approx(0.5 * p.omega)
        assert q.alpha == pytest.approx(0.25**0.25 * p.alpha)


class TestHermiteEigenfunction:
    def test_ground_state_at_origin(self):
        assert hermite_eigenfunction(OscillatorParams(), 0, 0.0) == pytest.approx(
            math.pi**-0.25)

    def test_odd_state_vanishes_at_origin(self):
        for alpha_scale in (0.5, 1.0, 2.3):
            p = OscillatorParams(k=alpha_scale)
            assert hermite_eigenfunction(p, 1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_high_order_normalization(self):
        p = OscillatorParams()
        x = np.linspace(-15, 15, 20001)
        phi = hermite_eigenfunction(p, 10, x)
        assert np.trapezoid(phi**2, x) == pytest.approx(1.0, abs=1e-8)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order too large"):
            hermite_eigenfunction(OscillatorParams(), 61, 0.0)

    def test_no_overflow_at_cap(self):
        phi = hermite_eigenfunction(OscillatorParams(), 60, np.linspace(-12, 12, 101))
        assert np.all(np.isfinite(phi))


class TestQuenchCoefficients:
    def test_eta_one_is_identity(self):
        c = sudden_quench_coefficients(1.0, 8).coefficients
        assert c[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(c[1:]).max() < 1e-10

    def test_paper_values_eta_025(self):
        c = sudden_quench_coefficients(0.25, 6).coefficients
        assert c[0] == pytest.approx(0.9710, abs=5e-4)
        assert c[2] == pytest.approx(-0.2289, abs=5e-4)
        assert c[4] == pytest.approx(0.0661, abs=5e-4)
        assert c[6] == pytest.approx(-0.0201, abs=5e-4)

    def test_closed_forms_eta_025(self):
        c = sudden_quench_coefficients(0.25, 2).coefficients
        assert c[0] == pytest.approx((8.0 / 9.0) ** 0.25, abs=1e-9)
        assert c[2] == pytest.approx(-(2.0 / 3.0) * (1.0 / 72.0) ** 0.25, abs=1e-9)
        # the C0 closed form is the Gaussian overlap sqrt(2 a a'/(a^2+a'^2))
        a, ap = 1.0, 0.25**0.25
        assert math.sqrt(2 * a * ap / (a**2 + ap**2)) == pytest.approx(
            (8.0 / 9.0) ** 0.25)

    def test_odd_coefficients_exactly_zero(self):
        for eta in (0.25, 0.81, 3.7):
            c = sudden_quench_coefficients(eta, 9).coefficients
            assert np.abs(c[1::2]).max() <= 1e-12

    def test_completeness(self):
        for eta in (0.1, 0.25, 1.21, 4.0, 10.0):
            c = sudden_quench_coefficients(eta, 40)
            assert c.completeness >= 1.0 - 1e-8

    def test_inverse_eta_symmetry_in_magnitude(self):
        # overlaps for eta and 1/eta agree in magnitude; entries with
        # n = 2 mod 4 flip sign because the squeeze parameter changes sign
        for eta in (0.25, 0.49):
            c = sudden_quench_coefficients(eta, 8).coefficients
            c_inv = sudden_quench_coefficients(1.0 / eta, 8).coefficients
            assert np.abs(np.abs(c) - np.abs(c_inv)).max() < 1e-10

    @pytest.mark.parametrize("params", [OscillatorParams(),
                                        OscillatorParams(mass=2.0, hbar=0.5, k=8.0)])
    @pytest.mark.parametrize("eta", [0.25, 0.81, 1.21, 4.0])
    def test_recurrence_matches_direct_overlap(self, eta, params):
        quenched = params.quenched(eta)
        half_width = 12.0 / min(params.alpha, quenched.alpha)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        x, w = half_width * nodes, half_width * weights
        ground = hermite_eigenfunction(params, 0, x)
        direct = [np.sum(w * ground * hermite_eigenfunction(quenched, n, x))
                  for n in range(61)]
        c = sudden_quench_coefficients(eta, 60, params).coefficients
        assert np.abs(c - direct).max() <= 1e-12

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            sudden_quench_coefficients(-0.5, 4)


class TestQuenchEnergy:
    def test_paper_truncated_value(self):
        assert truncated_quench_energy(0.25, 6) == pytest.approx(0.6246, abs=5e-4)

    def test_paper_eta_081_and_121(self):
        assert truncated_quench_energy(0.81, 40) == pytest.approx(0.9050, abs=5e-4)
        assert truncated_quench_energy(1.21, 40) == pytest.approx(1.1050, abs=5e-4)

    def test_limit_is_exact_sudden_value(self):
        for eta in (0.25, 0.81, 1.21, 4.0):
            assert truncated_quench_energy(eta, 40) == pytest.approx(
                (1 + eta) / 2, abs=1e-6)


class TestPulsePhase:
    def test_eta_4(self):
        assert pulse_phase_prediction(4.0) == pytest.approx(math.pi)

    def test_eta_025_wraps_to_zero(self):
        assert pulse_phase_prediction(0.25) == pytest.approx(0.0, abs=1e-12)

    def test_eta_081(self):
        expected = 2 * math.pi / 0.9 - 2 * math.pi
        assert pulse_phase_prediction(0.81) == pytest.approx(expected, abs=1e-12)
        assert pulse_phase_prediction(0.81) == pytest.approx(0.6981, abs=1e-4)
