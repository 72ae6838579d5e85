"""Tests for the coupled-amplitude comparator and first-order formulas."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from mpsolve.core import Grid, HamiltonianSpec, PotentialSpec, ScaleProfile, piece_cuts
from mpsolve.dirac import (
    _SERIES_BELOW,
    divergence_diagnostic,
    first_order_amplitude,
    integrate_amplitudes,
    perturbation_elements,
    perturbation_operator,
    rk4_pieces,
)
from mpsolve.eigensolver import discretize, eigendecompose
from mpsolve.scenario import bundled_scenario_path, parse_scenario


GRID = Grid(-10.0, 10.0, 400)


def oscillator_basis(truncation=16):
    h = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))
    return h, eigendecompose(discretize(h, GRID, 0.0), GRID, truncation)


def quench_hamiltonian(eta, t_on=0.0):
    profile = ScaleProfile.step(eta, t_on)
    return HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, profile))


class TestPerturbationElements:
    def test_zero_at_reference_time(self):
        h = quench_hamiltonian(0.25, t_on=1.0)
        _, basis = oscillator_basis(8)
        v = perturbation_elements(h, basis, 0.5, t0=0.0)
        assert np.abs(v).max() == 0.0

    def test_quench_diagonal_element(self):
        # V(t>t_on) - V(0) = (eta - 1) * x^2 / 2 and <0|x^2|0> = 1/2,
        # so V_00 = (eta - 1) / 4.
        eta = 0.25
        h = quench_hamiltonian(eta, t_on=0.0)
        _, basis = oscillator_basis(8)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        assert v[0, 0] == pytest.approx((eta - 1.0) / 4.0, abs=1e-3)

    def test_parity_selection_rule(self):
        h = quench_hamiltonian(4.0, t_on=0.0)
        _, basis = oscillator_basis(8)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        # x^2 couples only states of equal parity.
        assert abs(v[0, 1]) < 1e-12
        assert abs(v[1, 2]) < 1e-12
        assert abs(v[0, 2]) > 1e-3

    def test_symmetry(self):
        h = quench_hamiltonian(4.0, t_on=0.0)
        _, basis = oscillator_basis(12)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        assert np.abs(v - v.T).max() < 1e-14


def direct_elements(h, basis, t, t0):
    """B^T diag(w (V(t) - V(t0))) B straight from the potential on the grid."""
    grid = basis.source_grid
    dv = h.potential_on_grid(grid, t) - h.potential_on_grid(grid, t0)
    return basis.vectors.T @ (basis.vectors * (grid.weights * dv)[:, None])


def scaled(profile):
    return HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.3, profile))


def tabulated(t_samples):
    """Spatial shape and strength both change from sample to sample."""
    rows = [(1.0 + 0.3 * np.sin(t)) * 0.5 * GRID.x**2 + 0.2 * np.cos(2 * t) * GRID.x
            for t in t_samples]
    return HamiltonianSpec(1.0, 1.0, PotentialSpec.tabulated(GRID.x, t_samples, rows))


def around(breakpoints, t_min, t_max):
    """Each breakpoint, points just either side of it, and the ends."""
    ts = [t_min, t_max]
    for b in breakpoints:
        ts += [b - 1e-9, b, b + 1e-9, b - 0.3, b + 0.3]
    return [t for t in ts if t_min <= t <= t_max]


class TestPerturbationOperator:
    @pytest.mark.parametrize("h, t0, times", [
        (scaled(ScaleProfile.step(0.25, 0.5)), 0.0, around([0.5], 0.0, 3.0)),
        (scaled(ScaleProfile.pulse(4.0, 0.5, 1.5)), -1.0, around([0.5, 1.5], -1.0, 3.0)),
        (scaled(ScaleProfile.pulse(4.0, 0.5, 1.5)), 1.0, around([0.5, 1.5], -1.0, 3.0)),
        (scaled(ScaleProfile.sampled([0.0, 0.7, 1.1, 2.0], [1.0, 1.8, 0.6, 1.2])), 0.9,
         around([0.0, 0.7, 1.1, 2.0], 0.0, 2.0)),
        (tabulated(np.linspace(0.0, 3.0, 7)), 1.25, around(np.linspace(0.0, 3.0, 7), 0.0, 3.0)),
    ], ids=["step", "pulse", "pulse_t0_inside", "sampled", "tabulated"])
    def test_matches_direct_projection(self, h, t0, times):
        _, basis = oscillator_basis(24)
        op = perturbation_operator(h, basis, t0)
        for t in times:
            want = direct_elements(h, basis, t, t0)
            # V(t) - V(t0) cancels, so its rounding is relative to |V(t)| + |V(t0)|
            size = np.abs(h.potential_on_grid(GRID, t)) + np.abs(h.potential_on_grid(GRID, t0))
            scale = np.linalg.norm(basis.vectors.T @ (
                basis.vectors * (GRID.weights * size)[:, None]))
            assert np.linalg.norm(op(t) - want) <= 1e-13 * scale, t
            assert np.array_equal(perturbation_elements(h, basis, t, t0), op(t))
        assert np.abs(op(t0)).max() == 0.0

    def test_scaled_matrix_is_shared_and_read_only(self):
        _, basis = oscillator_basis(8)
        op = perturbation_operator(scaled(ScaleProfile.pulse(2.0, 0.5, 1.5)), basis, 0.0)
        inside = op(0.7)
        assert inside.dtype == complex and not inside.flags.writeable
        assert op(1.2) is inside  # the same S(t)
        outside = op(1.7)
        assert outside is not inside and op(1.8) is outside
        assert op(0.9) is not inside and np.array_equal(op(0.9), inside)

    def test_tabulated_matrix_is_new_and_complex(self):
        _, basis = oscillator_basis(8)
        op = perturbation_operator(tabulated(np.linspace(0.0, 3.0, 7)), basis, 0.0)
        first, again = op(1.2), op(1.2)
        assert first.dtype == complex and first.flags.writeable
        assert again is not first and np.array_equal(again, first)
        assert not np.shares_memory(again, first)
        assert np.abs(first.imag).max() == 0.0

    def test_harmonic_is_zero(self):
        h, basis = oscillator_basis(16)
        op = perturbation_operator(h, basis, 0.0)
        for t in (-3.0, 0.0, 2.5):
            assert op(t).shape == (16, 16)
            assert np.abs(op(t)).max() == 0.0
            assert np.abs(direct_elements(h, basis, t, 0.0)).max() == 0.0

    def test_tabulated_memory_does_not_grow_with_samples(self):
        _, basis = oscillator_basis(16)
        t_samples = np.linspace(0.0, 10.0, 401)
        op = perturbation_operator(tabulated(t_samples), basis, 0.0)
        mids = 0.5 * (t_samples[1:] + t_samples[:-1])
        op(mids[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in mids:
                op(t)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # keeping every projected row would hold 400 * 16 * 16 doubles (819 kB)
        assert grown < 4 * 16 * 16 * 8

    def test_errors_of_the_potential_are_kept(self):
        _, basis = oscillator_basis(8)
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        rows = [0.5 * GRID.x**2] * 3 + [np.full(GRID.points, np.nan)]
        bad_row = HamiltonianSpec(1.0, 1.0, PotentialSpec.tabulated(GRID.x, ts, rows))
        op = perturbation_operator(bad_row, basis, 0.0)
        op(1.5)
        with pytest.raises(ValueError, match="non-finite"):
            op(2.5)
        with pytest.raises(ValueError, match="non-finite"):
            direct_elements(bad_row, basis, 2.5, 0.0)
        with pytest.raises(ValueError, match="time out of range"):
            op(3.5)
        with pytest.raises(ValueError, match="time out of range"):
            perturbation_operator(tabulated(ts), basis, -0.1)
        huge = scaled(ScaleProfile.step(1e307, 1.0))
        op = perturbation_operator(huge, basis, 0.0)
        op(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            op(1.5)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            direct_elements(huge, basis, 1.5, 0.0)


class TestIntegrateAmplitudes:
    def test_zero_potential_is_inert(self):
        n = 6
        omegas = np.arange(n) + 0.5
        c0 = np.zeros(n, dtype=complex)
        c0[0] = 1.0
        traj = integrate_amplitudes(lambda t: np.zeros((n, n)), omegas, c0,
                                    (0.0, 5.0), 200)
        assert np.abs(traj.amplitudes - c0).max() < 1e-12

    def test_step_count_validated(self):
        with pytest.raises(ValueError, match="steps"):
            integrate_amplitudes(lambda t: np.zeros((2, 2)),
                                 np.array([0.5, 1.5]),
                                 np.array([1.0, 0.0]), (0.0, 1.0), 0)

    def test_factored_phase_matches_full_coupling_matrix(self):
        # reference: the RK4 step with the M x M coupling exp(i (w_k - w_m) t) V_km
        h = scaled(ScaleProfile.sampled([0.0, 1.0, 3.0], [1.0, 1.5, 0.8]))
        _, basis = oscillator_basis(12)
        op = perturbation_operator(h, basis, 0.0)
        omegas = basis.energies
        c = np.zeros(12, dtype=complex)
        c[0], c[2] = 0.8, 0.6j
        traj = integrate_amplitudes(op, omegas, c, (0.0, 3.0), 90)

        def rhs(t, amps):
            d_omega = omegas[:, None] - omegas[None, :]
            return -1j * ((np.exp(1j * d_omega * t) * op(t)) @ amps)

        dt = 3.0 / 90
        for i in range(90):
            t = i * dt
            k1 = rhs(t, c)
            k2 = rhs(t + 0.5 * dt, c + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, c + 0.5 * dt * k2)
            k4 = rhs(t + dt, c + dt * k3)
            c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.abs(traj.amplitudes[i + 1] - c).max() < 1e-13

    def test_rk4_fourth_order_convergence(self):
        h = quench_hamiltonian(1.2, t_on=0.0)
        _, basis = oscillator_basis(10)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        omegas = basis.energies
        c0 = np.zeros(10, dtype=complex)
        c0[0] = 1.0

        def final(steps):
            traj = integrate_amplitudes(lambda t: v, omegas, c0,
                                        (0.0, 2.0), steps)
            return traj.amplitudes[-1]

        ref = final(640)
        err_coarse = np.abs(final(40) - ref).max()
        err_fine = np.abs(final(80) - ref).max()
        assert err_coarse / err_fine >= 12.0

    def test_norm_conserved_for_weak_coupling(self):
        eps = 1e-3
        h = quench_hamiltonian(1.0 + eps, t_on=0.0)
        _, basis = oscillator_basis(16)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        omegas = basis.energies
        c0 = np.zeros(16, dtype=complex)
        c0[0] = 1.0
        traj = integrate_amplitudes(lambda t: v, omegas, c0, (0.0, 10.0), 400)
        assert np.abs(traj.norm_history - 1.0).max() < 1e-8


def reference_rk4(v_of_t, omegas, c0, t_span, steps, breakpoints=(), hbar=1.0):
    """RK4 as a plain step-by-step loop: the phases and two V calls per step,
    V cast to complex inside each product, finiteness checked after every
    step.  integrate_amplitudes must give these bits."""
    omegas = np.asarray(omegas, dtype=float)
    c = np.asarray(c0, dtype=complex).copy()
    cuts, counts = rk4_pieces(breakpoints, t_span, steps)

    def phases(t):
        p = np.exp(1j * np.multiply.outer(t, omegas))
        return (-1j / hbar) * p, p.conj()

    times = np.empty(steps + 1)
    history = np.empty((steps + 1, c.size), dtype=complex)
    history[0] = c
    row = 0
    for a, b, n in zip(cuts[:-1].tolist(), cuts[1:].tolist(), counts.tolist()):
        dt = (b - a) / n
        grid = a + np.arange(n + 1) * dt
        grid[-1] = b
        times[row:row + n + 1] = grid
        lo, hi = np.nextafter(a, b), np.nextafter(b, a)

        def v_inside(t):
            return v_of_t(min(max(t, lo), hi))

        v1, (q1, pc1) = v_inside(a), phases(a)
        for t, t_next in zip(grid[:-1].tolist(), grid[1:].tolist()):
            (q_mid, q_next), (pc_mid, pc_next) = phases((t + 0.5 * dt, t_next))
            v_mid, v_next = v_inside(t + 0.5 * dt), v_inside(t_next)
            k1 = q1 * (v1 @ (c * pc1))
            k2 = q_mid * (v_mid @ ((c + 0.5 * dt * k1) * pc_mid))
            k3 = q_mid * (v_mid @ ((c + 0.5 * dt * k2) * pc_mid))
            k4 = q_next * (v_next @ ((c + dt * k3) * pc_next))
            c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            row += 1
            if not np.all(np.isfinite(c)):
                raise RuntimeError("non-finite amplitude at step %d" % row)
            history[row] = c
            v1, q1, pc1 = v_next, q_next, pc_next
    return times, history


COUPLING = 0.3 * np.array([[1.0, 0.5, 0.2, 0.0, 0.1],
                           [0.5, -1.0, 0.4, 0.3, 0.0],
                           [0.2, 0.4, 0.7, -0.2, 0.6],
                           [0.0, 0.3, -0.2, 0.4, 0.5],
                           [0.1, 0.0, 0.6, 0.5, -0.8]])
FIVE_LEVELS = np.array([0.5, 1.5, 2.5, 3.7, 4.1])


def bundled_case(name):
    """compare-dirac's RK4 inputs for a bundled scenario."""
    cfg = parse_scenario(bundled_scenario_path(name))
    h = cfg.hamiltonian
    basis = eigendecompose(discretize(h, cfg.grid, cfg.t0), cfg.grid, cfg.dirac["states"])
    c0 = np.eye(basis.truncation, dtype=complex)[cfg.eigenstate]
    t1 = float(cfg.dirac.get("t1", cfg.t1))
    return (lambda: perturbation_operator(h, basis, cfg.t0), basis.energies / h.hbar, c0,
            (cfg.t0, t1), int(cfg.dirac["rk4_steps"]), h.potential.breakpoints(), h.hbar)


def operator_case(h, truncation, t_span, steps, hbar=1.0):
    _, basis = oscillator_basis(truncation)
    c0 = np.zeros(truncation, dtype=complex)
    c0[0], c0[1] = 0.8, 0.6j
    return (lambda: perturbation_operator(h, basis, t_span[0]), basis.energies, c0,
            t_span, steps, h.potential.breakpoints(), hbar)


def fresh_arrays():
    return lambda t: np.cos(t) * COUPLING


def one_buffer():
    buffer = np.empty_like(COUPLING)

    def v_of_t(t):
        np.multiply(np.cos(t), COUPLING, out=buffer)
        return buffer
    return v_of_t


class TestBitIdentity:
    CASES = {
        "dirac_weak": lambda: bundled_case("dirac_weak"),
        "quench_eta025": lambda: bundled_case("quench_eta025"),
        # an odd M and hbar != 1, across block boundaries
        "sampled_ramp": lambda: operator_case(
            scaled(ScaleProfile.sampled([0.0, 1.0, 3.0], [1.0, 1.5, 0.8])), 7, (0.0, 3.0),
            300, hbar=0.7),
        "tabulated": lambda: operator_case(tabulated(np.linspace(0.0, 2.0, 5)), 9,
                                           (0.0, 2.0), 150),
        "pulse_pieces": lambda: operator_case(scaled(ScaleProfile.pulse(1.8, 0.5, 1.3)), 8,
                                              (0.0, 2.0), 400),
        "fresh_arrays": lambda: (fresh_arrays, FIVE_LEVELS, np.eye(5)[0], (0.0, 6.0), 300,
                                 (), 1.0),
        "one_buffer": lambda: (one_buffer, FIVE_LEVELS, np.eye(5)[0], (0.0, 6.0), 300,
                               (), 1.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_step_by_step_loop(self, name):
        make_v, omegas, c0, t_span, steps, knots, hbar = self.CASES[name]()
        times, history = reference_rk4(make_v(), omegas, c0, t_span, steps, knots, hbar)
        traj = integrate_amplitudes(make_v(), omegas, c0, t_span, steps, knots, hbar)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.amplitudes, history)
        if name == "quench_eta025":  # blows up, yet every amplitude stays finite
            assert traj.norm_history.max() > 1e80

    def test_blow_up_stops_at_the_same_step(self):
        strong = 150.0 * COUPLING
        strong.flags.writeable = False
        args = (lambda t: strong, FIVE_LEVELS, np.eye(5)[0], (0.0, 30.0), 300)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as want:
            reference_rk4(*args)
        message = str(want.value)
        # a step inside the second block, so the block check has to find it
        assert message == "non-finite amplitude at step 173"
        with pytest.raises(RuntimeError) as got:
            integrate_amplitudes(*args)
        assert str(got.value) == message

    def test_memory_does_not_grow_with_steps(self):
        coupling = COUPLING.copy()
        coupling.flags.writeable = False

        def extra(steps):
            tracemalloc.start()
            try:
                traj = integrate_amplitudes(lambda t: coupling, FIVE_LEVELS, np.eye(5)[0],
                                            (0.0, 1.0), steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - traj.times.nbytes - traj.amplitudes.nbytes

        # a phase table for every step would hold 40 000 * 2 * 5 complex (6.4 MB)
        assert abs(extra(40_000) - extra(400)) < 4096


class TestBreakpoints:
    def test_pieces_share_the_steps(self):
        cuts, counts = rk4_pieces([0.5, 0.75, 0.75, 3.0], (0.0, 1.0), 10)
        assert cuts.tolist() == [0.0, 0.5, 0.75, 1.0]
        # one step each, and 7 more shared 3.5 : 1.75 : 1.75 along the running total
        assert counts.tolist() == [5, 2, 3]
        assert rk4_pieces([0.5, 0.75], (0.0, 1.0), 3)[1].tolist() == [1, 1, 1]
        with pytest.raises(ValueError, match="into 3 pieces .* at least 3 steps, not 2"):
            rk4_pieces([0.5, 0.75], (0.0, 1.0), 2)
        # knots at or beyond the window ends cut nothing
        cuts, counts = rk4_pieces([-1.0, 0.0, 1.0, 2.0], (0.0, 1.0), 7)
        assert cuts.tolist() == [0.0, 1.0] and counts.tolist() == [7]
        # a piece far shorter than a step still takes one
        assert rk4_pieces([1e-9, 1.0 - 1e-9], (0.0, 1.0), 400)[1].tolist() == [1, 398, 1]
        for span in ((1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError, match="t_span must increase"):
                rk4_pieces([], span, 3)

    @pytest.mark.parametrize("profile", [ScaleProfile.step(0.6, 0.0),
                                         ScaleProfile.pulse(1.8, 0.5, 1.3)],
                             ids=["step_at_t0", "pulse_inside"])
    def test_fourth_order_against_exact_solution(self, profile):
        # where V is constant on each piece, one eigh per piece solves the
        # truncated equations i a' = (diag w + V) a exactly (Schrodinger
        # picture, a = C exp(-i w (t - t0)))
        h = scaled(profile)
        _, basis = oscillator_basis(8)
        t0, t1 = 0.0, 2.0
        op = perturbation_operator(h, basis, t0)
        omegas = basis.energies
        c0 = np.zeros(8, dtype=complex)
        c0[0] = 1.0
        knots = h.potential.breakpoints()
        exact = c0.copy()
        cuts = piece_cuts(knots, t0, t1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            lam, u = np.linalg.eigh(np.diag(omegas) + op(0.5 * (a + b)))
            exact = u @ (np.exp(-1j * lam * (b - a)) * (u.T @ exact))

        def error(steps):
            traj = integrate_amplitudes(op, omegas, c0, (t0, t1), steps, knots)
            return np.abs(traj.amplitudes[-1] * np.exp(-1j * omegas * (t1 - t0)) - exact).max()

        coarse, fine = error(40), error(80)
        assert 1e-12 < fine < 1e-6  # far above rounding, so the ratio is RK4's
        assert math.log2(coarse / fine) >= 3.5

    def test_v_never_taken_at_a_breakpoint(self):
        # near 2**40 an ulp of t is 2**-12, so a phase taken at a time moved
        # off a breakpoint would show; the phases must keep the true times
        t0 = 2.0**40
        t_on, t_off, t1 = t0 + 1.0, t0 + 2.0, t0 + 3.0
        omegas = np.array([0.5, 1.5, 2.5])
        coupling = 0.3 * np.array([[1.0, 0.5, 0.2], [0.5, -1.0, 0.4], [0.2, 0.4, 0.7]])
        seen = []

        def v_of_t(t):
            seen.append(t)
            return coupling if t_on < t < t_off else np.zeros((3, 3))

        c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        traj = integrate_amplitudes(v_of_t, omegas, c0, (t0, t1), 12, [t_on, t_off])
        assert seen and not {t0, t_on, t_off, t1} & set(seen)
        assert all(t0 < t < t1 for t in seen)

        # the same RK4 with each piece's V and the phases at the true times
        def rhs(t, v, amps):
            p = np.exp(1j * omegas * t)
            return -1j * p * (v @ (amps * p.conj()))

        c, want, dt = c0, [c0], 0.25
        for a, v in ((t0, 0 * coupling), (t_on, coupling), (t_off, 0 * coupling)):
            for i in range(4):
                t = a + i * dt
                k1 = rhs(t, v, c)
                k2 = rhs(t + 0.5 * dt, v, c + 0.5 * dt * k1)
                k3 = rhs(t + 0.5 * dt, v, c + 0.5 * dt * k2)
                k4 = rhs(t + dt, v, c + dt * k3)
                c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                want.append(c)
        # the pulse moves amplitude, so the comparison is not vacuous
        assert np.abs(np.diff(np.abs(traj.amplitudes[:, 1]))).max() > 1e-3
        assert np.abs(traj.amplitudes - np.array(want)).max() < 1e-13

    def test_one_piece_window_keeps_the_step_grid(self):
        t0, t1, steps = 0.1, 0.7, 30
        dt = (t1 - t0) / steps
        grid = t0 + np.arange(steps + 1) * dt
        assert grid[-1] == t1
        n = 4
        traj = integrate_amplitudes(lambda t: np.eye(n), np.arange(n) + 0.5,
                                    np.eye(n)[0], (t0, t1), steps, [t0, t1, 2.0])
        assert np.array_equal(traj.times, grid)


class TestFirstOrderAmplitude:
    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            first_order_amplitude(lambda t: 0.0, 1, 1,
                                  np.array([0.5, 1.5]), 1.0)

    def test_constant_coupling_closed_form(self):
        omegas = np.array([0.5, 2.5])
        eps, big_t = 1e-3, 3.0
        b = first_order_amplitude(lambda t: eps, 0, 1, omegas, big_t)
        d_omega = omegas[0] - omegas[1]
        expect = (-1j * eps * np.exp(-1j * omegas[1] * big_t)
                  * (np.exp(-1j * d_omega * big_t) - 1.0) / (-1j * d_omega))
        assert abs(b - expect) < 1e-15

    @pytest.mark.parametrize("h, t0, big_t", [
        (scaled(ScaleProfile.step(0.25, 0.0)), 0.0, 5.0),
        (scaled(ScaleProfile.step(4.0, 1.3)), 0.0, 5.0),
        (scaled(ScaleProfile.pulse(4.0, 0.5, 1.5)), -1.0, 4.0),
        (scaled(ScaleProfile.sampled([0.0, 0.7, 1.1, 2.0, 3.0], [1.0, 1.8, 0.6, 1.2, 0.9])),
         0.4, 2.6),
        (tabulated(np.linspace(0.0, 3.0, 7)), 0.25, 2.75),
    ], ids=["step_on_window_start", "step", "pulse", "sampled", "tabulated"])
    def test_matches_quad(self, h, t0, big_t):
        _, basis = oscillator_basis(12)
        op = perturbation_operator(h, basis, t0)
        omegas = basis.energies
        knots = h.potential.breakpoints() - t0
        inside = [t for t in knots if 0 < t < big_t] or None
        for n, m in ((0, 2), (2, 6), (0, 1)):
            def integrand(t, part):
                return part(op(t0 + t)[m, n] * np.exp(-1j * (omegas[n] - omegas[m]) * t))
            re, im = (quad(integrand, 0.0, big_t, args=(part,), points=inside, limit=200,
                           epsabs=1e-13, epsrel=1e-13)[0] for part in (np.real, np.imag))
            want = -1j * np.exp(-1j * omegas[m] * big_t) * (re + 1j * im)
            got = first_order_amplitude(lambda t: op(t0 + t)[m, n], n, m, omegas, big_t, knots)
            assert abs(got - want) <= 1e-10, (n, m)

    @pytest.mark.parametrize("x", [1e-6, _SERIES_BELOW * (1 - 1e-9), _SERIES_BELOW * (1 + 1e-9)])
    def test_near_degenerate_levels(self, x):
        # one piece of half-width 1, so x = (w_n - w_m) * 1 picks the series
        # or the closed form; a slope makes sin x - x cos x count
        big_t = 2.0
        omegas = np.array([1.5 + x, 1.5])

        def v(t):
            return 1e-3 * (0.3 + 1.7 * t)

        re, im = (quad(lambda t: part(v(t) * np.exp(-1j * x * t)), 0.0, big_t,
                       epsabs=1e-16, epsrel=1e-14)[0] for part in (np.real, np.imag))
        want = -1j * np.exp(-1j * omegas[1] * big_t) * (re + 1j * im)
        b = first_order_amplitude(v, 0, 1, omegas, big_t)
        assert abs(b - want) <= 1e-12 * abs(want)

    def test_resonant_coupling_grows_linearly(self):
        # Degenerate levels: the secular term -(i/hbar) eps T e^{-i w T}.
        omegas = np.array([1.5, 1.5])
        eps, big_t = 2e-3, 4.0
        b = first_order_amplitude(lambda t: eps, 0, 1, omegas, big_t)
        expect = -1j * eps * big_t * np.exp(-1j * omegas[1] * big_t)
        assert abs(b - expect) < 1e-10

    def test_weak_quench_matches_rk4(self):
        eps = 1e-3
        h = quench_hamiltonian(1.0 + eps, t_on=0.0)
        _, basis = oscillator_basis(16)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        omegas = basis.energies
        c0 = np.zeros(16, dtype=complex)
        c0[0] = 1.0
        big_t = 3.0
        traj = integrate_amplitudes(lambda t: v, omegas, c0,
                                    (0.0, big_t), 600)
        c2_rk4 = traj.amplitudes[-1][2] * np.exp(-1j * omegas[2] * big_t)
        b2 = first_order_amplitude(lambda t: v[2, 0], 0, 2, omegas, big_t)
        assert abs(c2_rk4 - b2) / abs(b2) < 0.05

    def test_residual_scales_quadratically(self):
        # |C_rk4 - b_first_order| should drop by ~4x when eps is halved.
        _, basis = oscillator_basis(16)
        omegas = basis.energies
        c0 = np.zeros(16, dtype=complex)
        c0[0] = 1.0
        big_t = 3.0

        def residual(eps):
            h = quench_hamiltonian(1.0 + eps, t_on=0.0)
            v = perturbation_elements(h, basis, 1.0, t0=-1.0)
            traj = integrate_amplitudes(lambda t: v, omegas, c0,
                                        (0.0, big_t), 600)
            c2 = traj.amplitudes[-1][2] * np.exp(-1j * omegas[2] * big_t)
            b2 = first_order_amplitude(lambda t: v[2, 0], 0, 2,
                                       omegas, big_t)
            return abs(c2 - b2)

        ratio = residual(4e-3) / residual(2e-3)
        assert 3.0 <= ratio <= 5.0


class TestDivergenceDiagnostic:
    def test_bounded_trajectory_has_no_exceedance(self):
        n = 4
        omegas = np.arange(n) + 0.5
        c0 = np.zeros(n, dtype=complex)
        c0[0] = 1.0
        traj = integrate_amplitudes(lambda t: np.zeros((n, n)), omegas, c0,
                                    (0.0, 1.0), 50)
        rep = divergence_diagnostic(traj)
        assert rep.first_exceedance_time is None
        assert rep.max_norm == pytest.approx(1.0, abs=1e-12)

    def test_truncated_strong_quench_diverges(self):
        # Strong quench, truncated basis, coarse RK4: the long-time norm
        # blows up instead of staying near 1.
        h = quench_hamiltonian(0.25, t_on=0.0)
        _, basis = oscillator_basis(16)
        v = perturbation_elements(h, basis, 1.0, t0=-1.0)
        omegas = basis.energies
        c0 = np.zeros(16, dtype=complex)
        c0[0] = 1.0
        traj = integrate_amplitudes(lambda t: v, omegas, c0, (0.0, 30.0), 60)
        rep = divergence_diagnostic(traj)
        assert rep.max_norm > 1e6
        assert rep.first_exceedance_time is not None
        assert rep.first_exceedance_time < 30.0
