import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mpsolve import (
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    ScaleProfile,
    WaveFunction,
    build_schedule,
    discretize,
    eigendecompose,
    evolve,
    inner_product,
    intermediate_energy,
    norm_squared,
    project,
    reconstruct,
    stepwise_hamiltonian,
)
from mpsolve.projection import SliceSchedule

GRID = Grid(-12.0, 12.0, 1024)
HARMONIC = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))
SMALL = Grid(-2.0, 2.0, 9)


def smooth_ramp_hamiltonian():
    ts = np.linspace(0.0, 2.0, 801)
    prof = ScaleProfile.sampled(ts, 1 + 0.5 * np.sin(np.pi * ts / 2.0) ** 2)
    return HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))


@st.composite
def averaging_cases(draw):
    """(kind, times, values, t_a, t_b): a step, pulse, sampled or tabulated
    potential on SMALL and a slice t_a < t_b inside its time range."""
    kind = draw(st.sampled_from(("step", "pulse", "sampled", "tabulated")))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    times = np.cumsum([draw(st.floats(-1.0, 1.0))] + gaps).tolist()
    scale = st.floats(0.1, 5.0)
    if kind in ("step", "pulse"):
        times = times[:1] if kind == "step" else times[:2]
        values = [draw(scale)]
        lo, hi = -3.0, 4.0
    else:
        row = (scale if kind == "sampled" else
               st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9))
        values = draw(st.lists(row, min_size=len(times), max_size=len(times)))
        lo, hi = times[0], times[-1]
    t_a, t_b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
    assume(t_a < t_b)
    return kind, times, values, t_a, t_b


def reference_potential(kind, times, values, t):
    """V(x, t) on SMALL, written independently of PotentialSpec."""
    if kind == "tabulated":
        return np.array([np.interp(t, times, col) for col in np.array(values).T])
    if kind == "sampled":
        s = np.interp(t, times, values)
    elif kind == "step":
        s = values[0] if t > times[0] else 1.0
    else:
        s = values[0] if times[0] < t < times[1] else 1.0
    return 0.5 * s * SMALL.x**2


def quench_hamiltonian(eta):
    return HamiltonianSpec(
        1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, ScaleProfile.step(eta, 0.0)))


@pytest.fixture(scope="module")
def basis64():
    return eigendecompose(discretize(HARMONIC, GRID, 0.0), GRID, 64)


@pytest.fixture(scope="module")
def ground(basis64):
    return basis64.state(0)


class TestBuildSchedule:
    def test_uniform(self):
        s = build_schedule(0.0, 1.0, 4, ScaleProfile.constant())
        assert np.allclose(s.boundaries, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_pulse_discontinuity_inserted(self):
        prof = ScaleProfile.pulse(2.0, 0.0, 0.6)
        s = build_schedule(0.0, 1.0, 4, prof)
        assert np.allclose(s.boundaries, [0.0, 0.25, 0.5, 0.6, 0.75, 1.0])

    def test_no_duplicate_for_existing_boundary(self):
        prof = ScaleProfile.step(2.0, t_on=0.0)
        s = build_schedule(0.0, 1.0, 4, prof)
        assert s.boundaries.size == 5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_schedule(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            build_schedule(0.0, 1.0, 0)


class TestStepwiseHamiltonian:
    def test_time_independent_matches_discretize(self):
        frozen = discretize(HARMONIC, GRID, 0.3)
        for mode in ("integral", "midpoint_endpoint_mean"):
            m = stepwise_hamiltonian(HARMONIC, GRID, 0.0, 1.0, mode)
            assert np.array_equal(m.diagonal, frozen.diagonal)
            assert np.array_equal(m.off_diagonal, frozen.off_diagonal)

    def test_linear_ramp_averages_to_half(self):
        # V(x, t) = t x^2 over [0, 1] averages to x^2 / 2 in both modes
        g = Grid(-2.0, 2.0, 9)
        pot = PotentialSpec.tabulated(g.x, [0.0, 1.0], [np.zeros(9), g.x**2])
        h = HamiltonianSpec(1.0, 1.0, pot)
        kin = 1.0 / g.dx**2
        for mode in ("integral", "midpoint_endpoint_mean"):
            m = stepwise_hamiltonian(h, g, 0.0, 1.0, mode)
            assert np.allclose(m.diagonal - kin, 0.5 * g.x**2, atol=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(averaging_cases())
    @example(("step", [1.0], [0.5], 0.0, 2.0))      # S-bar 0.75
    @example(("pulse", [1.0, 3.0], [2.0], 0.0, 4.0))  # S-bar 1.5
    @example(("pulse", [1.0, 3.0], [2.0], 1.0, 3.0))  # S-bar 2.0
    def test_integral_average_is_exact(self, case):
        kind, times, values, t_a, t_b = case
        if kind == "tabulated":
            pot = PotentialSpec.tabulated(SMALL.x, times, values)
        elif kind == "sampled":
            pot = PotentialSpec.scaled_harmonic(1.0, ScaleProfile.sampled(times, values))
        else:
            switch = ScaleProfile.step if kind == "step" else ScaleProfile.pulse
            pot = PotentialSpec.scaled_harmonic(1.0, switch(values[0], *times))
        got = (stepwise_hamiltonian(HamiltonianSpec(1.0, 1.0, pot), SMALL, t_a, t_b)
               .diagonal - 1.0 / SMALL.dx**2)
        inside = [t for t in times if t_a < t < t_b] or None
        want = np.array([
            quad(lambda t: reference_potential(kind, times, values, t)[i], t_a, t_b,
                 points=inside, limit=100, epsabs=5e-13 * (t_b - t_a), epsrel=1e-13)[0]
            for i in range(SMALL.points)]) / (t_b - t_a)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_step_slice_after_switch_is_exactly_quenched(self):
        h = quench_hamiltonian(0.25)
        m = stepwise_hamiltonian(h, GRID, 0.5, 1.0, "integral")
        frozen = discretize(HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(0.25)),
                            GRID, 0.0)
        assert np.array_equal(m.diagonal, frozen.diagonal)


class TestProjectReconstruct:
    def test_basis_state_projects_to_unit_vector(self, basis64):
        c = project(basis64.state(0), basis64)
        assert abs(c[0] - 1.0) < 1e-10
        assert np.abs(c[1:]).max() < 1e-10

    def test_quench_coefficients_match_paper(self, ground):
        hq = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(0.25))
        bq = eigendecompose(discretize(hq, GRID, 0.0), GRID, 8)
        c = np.real(project(ground, bq))
        assert c[0] == pytest.approx(0.9710, abs=1e-3)
        assert c[1] == pytest.approx(0.0, abs=1e-10)
        assert c[2] == pytest.approx(-0.2289, abs=1e-3)
        assert c[4] == pytest.approx(0.0661, abs=1e-3)
        assert c[6] == pytest.approx(-0.0201, abs=1e-3)
        assert np.sum(np.abs(c[:7]) ** 2) == pytest.approx(1.0, abs=3e-3)

    def test_project_reconstruct_is_identity_with_full_basis(self):
        g = Grid(-12.0, 12.0, 512)
        full = eigendecompose(discretize(HARMONIC, g, 0.0), g)
        rng = np.random.default_rng(3)
        psi = WaveFunction(g, np.exp(-g.x**2 / 2) / math.pi**0.25
                           + 0.1j * np.exp(-((g.x - 1) ** 2)))
        back = reconstruct(project(psi, full), full)
        err = math.sqrt(norm_squared(WaveFunction(g, back.amplitudes - psi.amplitudes)))
        assert err < 1e-9

    def test_full_basis_is_orthonormal_and_round_trips_at_the_walls(self):
        g = Grid(-12.0, 12.0, 256)
        full = eigendecompose(discretize(HARMONIC, g, 0.0), g)
        gram = full.vectors.T @ (g.weights[:, None] * full.vectors)
        assert np.abs(gram - np.eye(g.points)).max() < 1e-12
        rng = np.random.default_rng(11)
        psi = WaveFunction(g, rng.normal(size=g.points) + 1j * rng.normal(size=g.points))
        assert min(abs(psi.amplitudes[0]), abs(psi.amplitudes[-1])) > 0.1
        back = reconstruct(project(psi, full), full)
        diff = WaveFunction(g, back.amplitudes - psi.amplitudes)
        assert math.sqrt(norm_squared(diff) / norm_squared(psi)) < 1e-12

    def test_single_coefficient(self, basis64):
        c = np.zeros(64, dtype=complex)
        c[0] = 1.0
        psi = reconstruct(c, basis64)
        assert np.allclose(psi.amplitudes, basis64.vectors[:, 0])

    def test_phases_reproduce_stationary_evolution(self, basis64, ground):
        dt = 0.7
        c = project(ground, basis64)
        phases = np.exp(-1j * basis64.energies * dt)
        psi = reconstruct(c, basis64, phases)
        exact = ground.amplitudes * np.exp(-1j * basis64.energies[0] * dt)
        assert np.abs(psi.amplitudes - exact).max() < 1e-9

    def test_length_mismatch(self, basis64):
        with pytest.raises(ValueError):
            reconstruct(np.ones(3), basis64)


class TestIntermediateEnergy:
    def test_eigenstate(self, basis64):
        m = discretize(HARMONIC, GRID, 0.0)
        for k in (0, 3, 7):
            assert intermediate_energy(basis64.state(k), m) == pytest.approx(
                basis64.energies[k], abs=1e-9)

    def test_quench_energy_eta_081(self, ground):
        m = discretize(HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(0.81)),
                       GRID, 0.0)
        assert intermediate_energy(ground, m) / 0.5 == pytest.approx(0.9050, abs=1e-3 / 0.5)

    def test_quench_energy_eta_121(self, ground):
        m = discretize(HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.21)),
                       GRID, 0.0)
        assert intermediate_energy(ground, m) / 0.5 == pytest.approx(1.1050, abs=1e-3 / 0.5)

    def test_zero_norm_rejected(self):
        m = discretize(HARMONIC, GRID, 0.0)
        with pytest.raises(ValueError):
            intermediate_energy(WaveFunction(GRID, np.zeros(1024)), m)


class TestEvolve:
    def test_stationary_state(self, basis64, ground):
        schedule = build_schedule(0.0, 0.02, 5)
        res = evolve(ground, HARMONIC, schedule, truncation=64, final_basis=basis64)
        c = res.final_coefficients
        assert abs(abs(c[0]) - 1.0) < 1e-8
        assert np.abs(c[1:]).max() < 1e-8
        # phase agrees with exp(-i 0.5 t) for short evolutions
        assert abs(np.angle(c[0]) - (-0.5 * 0.02)) < 1e-6

    def test_sudden_quench_energy(self, ground):
        h = quench_hamiltonian(0.25)
        schedule = build_schedule(0.0, 2.0, 4, h.potential.profile)
        res = evolve(ground, h, schedule, truncation=64)
        assert res.reports[-1].energy / 0.5 == pytest.approx(0.625, abs=1e-3)
        res7 = evolve(ground, h, schedule, truncation=7)
        assert res7.reports[-1].energy / 0.5 == pytest.approx(0.6246, abs=1e-3)

    def test_pulse_revival_and_phase(self, ground):
        eta = 4.0
        big_t = 4 * math.pi / math.sqrt(eta)
        prof = ScaleProfile.pulse(eta, 0.0, big_t)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
        res = evolve(ground, h, build_schedule(0.0, big_t, 8, prof), truncation=64)
        ref = evolve(ground, HARMONIC, build_schedule(0.0, big_t, 1), truncation=64)
        overlap = inner_product(ground, res.final_state)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-4)
        rel_phase = np.angle(inner_product(ref.final_state, res.final_state))
        circular = abs((rel_phase - math.pi + math.pi) % (2 * math.pi) - math.pi)
        assert circular < 1e-2

    def test_unitarity_long_run(self):
        g = Grid(-10.0, 10.0, 256)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))
        basis = eigendecompose(discretize(h, g, 0.0), g)
        psi0 = basis.state(0)
        res = evolve(psi0, h, build_schedule(0.0, 20.0, 10_000), truncation=None)
        norms = np.array([r.norm_squared for r in res.reports])
        assert np.abs(norms - 1.0).max() <= 1e-9
        assert abs(norms[-1] - 1.0) <= 1e-6

    def test_truncation_never_increases_norm(self, ground):
        h = quench_hamiltonian(0.25)
        schedule = build_schedule(0.0, 3.0, 6, h.potential.profile)
        res = evolve(ground, h, schedule, truncation=5)
        norms = [norm_squared(ground)] + [r.norm_squared for r in res.reports]
        for before, after in zip(norms[:-1], norms[1:]):
            assert after <= before + 1e-12

    def test_basis_reuse_matches_fresh_solves(self, ground):
        h = quench_hamiltonian(0.81)
        schedule = build_schedule(0.0, 2.0, 8, h.potential.profile)
        whole = evolve(ground, h, schedule, truncation=32)
        assert [r.basis_refreshed for r in whole.reports] == [True] + [False] * 7
        psi = ground
        for j in range(schedule.slices):
            one = evolve(psi, h, SliceSchedule(schedule.boundaries[j:j + 2]),
                         truncation=32)
            assert one.reports[0].basis_refreshed
            assert np.array_equal(one.reports[0].coefficients,
                                  whole.reports[j].coefficients)
            psi = one.final_state
        assert np.array_equal(psi.amplitudes, whole.final_state.amplitudes)

    def test_memory_bounded_in_slice_count(self):
        g = Grid(-12.0, 12.0, 512)
        h = smooth_ramp_hamiltonian()
        psi0 = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)

        def peak(n):
            tracemalloc.start()
            try:
                evolve(psi0, h, build_schedule(0.0, 2.0, n), truncation=48)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) < 1.5 * peak(64)

    def test_slice_refinement_second_order(self):
        g = Grid(-12.0, 12.0, 512)
        h = smooth_ramp_hamiltonian()
        psi0 = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)
        ref = evolve(psi0, h, build_schedule(0.0, 2.0, 256), truncation=48).final_state

        def err(n):
            fin = evolve(psi0, h, build_schedule(0.0, 2.0, n), truncation=48).final_state
            return math.sqrt(norm_squared(
                WaveFunction(g, fin.amplitudes - ref.amplitudes)))

        e16, e32, e64 = err(16), err(32), err(64)
        assert e16 / e32 >= 3.0
        assert e32 / e64 >= 3.0

    def test_sudden_quench_slice_independence(self, ground):
        h = quench_hamiltonian(0.25)
        bq = eigendecompose(
            discretize(HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(0.25)),
                       GRID, 0.0), GRID, 32)
        res1 = evolve(ground, h, build_schedule(0.0, 2.0, 1, h.potential.profile),
                      truncation=32, final_basis=bq)
        res100 = evolve(ground, h, build_schedule(0.0, 2.0, 100, h.potential.profile),
                        truncation=32, final_basis=bq)
        assert np.abs(res1.final_coefficients - res100.final_coefficients).max() < 1e-9

    def test_nonfinite_initial_state_rejected(self):
        bad = WaveFunction(GRID, np.full(1024, np.nan, dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            evolve(bad, HARMONIC, build_schedule(0.0, 1.0, 2))
