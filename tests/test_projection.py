import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mpsolve import (
    EigenBasis,
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    ScaleProfile,
    WaveFunction,
    discretize,
    eigendecompose,
    evolve,
    inner_product,
    intermediate_energy,
    norm_squared,
    project,
    reconstruct,
    slice_boundaries,
)
from mpsolve import projection
from mpsolve.core import gauss_pieces
from mpsolve.projection import SCHEMES, _slice_factors

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


def case_potential(kind, times, values):
    """The PotentialSpec of an `averaging_cases` case."""
    if kind == "tabulated":
        return PotentialSpec.tabulated(SMALL.x, times, values)
    if kind == "sampled":
        return PotentialSpec.scaled_harmonic(1.0, ScaleProfile.sampled(times, values))
    switch = ScaleProfile.step if kind == "step" else ScaleProfile.pulse
    return PotentialSpec.scaled_harmonic(1.0, switch(values[0], *times))


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


def average_matrix(h, grid, t_a, t_b):
    """The one factor of an "average" slice: H frozen to its time average."""
    [(matrix, share)] = _slice_factors(h, grid, t_a, t_b, "average")
    return matrix


def quench_hamiltonian(eta):
    return HamiltonianSpec(
        1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, ScaleProfile.step(eta, 0.0)))


@pytest.fixture(scope="module")
def basis64():
    return eigendecompose(discretize(HARMONIC, GRID, 0.0), GRID, 64)


@pytest.fixture(scope="module")
def ground(basis64):
    return basis64.state(0)


@st.composite
def kernel_cases(draw):
    """(basis, amplitudes, coefficients): an orthonormal basis in C or
    Fortran order, and inputs that are contiguous complex, strided complex
    (every other entry of a longer array) or real."""
    n = draw(st.integers(3, 160))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid(-3.0, 3.0, n)
    q = np.linalg.qr(rng.normal(size=(n, m)))[0] / np.sqrt(g.dx)
    if draw(st.booleans()):
        q = np.asfortranarray(q)
    layout = draw(st.sampled_from(("contiguous", "strided", "real")))

    def vector(size):
        z = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        if layout == "strided":
            return z[::2]
        return (z.real if layout == "real" else z)[:size].copy()

    return EigenBasis(np.arange(m, dtype=float), q, g), vector(n), vector(m)


def round_trip_evolve(psi0, h, t0, t1, slices, truncation, scheme):
    """Reference for `evolve`: every factor goes through the grid (project,
    phase, reconstruct) and every slice reports `intermediate_energy` and
    `norm_squared` of the rebuilt state.  Returns (final state, energies,
    norms)."""
    grid, bounds = psi0.grid, slice_boundaries(h.potential, t0, t1, slices)
    state, diagonal, basis = psi0, None, None
    energies, norms = [], []
    for j in range(bounds.size - 1):
        for matrix, share in _slice_factors(h, grid, bounds[j], bounds[j + 1], scheme):
            dt = share * (bounds[j + 1] - bounds[j])
            if diagonal is None or not np.array_equal(matrix.diagonal, diagonal):
                basis = eigendecompose(matrix, grid, truncation, guess=basis)
                diagonal = matrix.diagonal
            coeffs = project(state, basis) * np.exp(-1j * basis.energies * dt / h.hbar)
            state = reconstruct(coeffs, basis)
        energies.append(intermediate_energy(state, matrix))
        norms.append(norm_squared(state))
    return state, np.array(energies), np.array(norms)


@st.composite
def evolve_cases(draw):
    """(psi0, h, slices, truncation, scheme) on [0, 2]: a normalized moving
    Gaussian on at most 128 nodes under a constant, step, pulse or sampled
    scale profile, with a truncated or the full basis."""
    g = Grid(-8.0, 8.0, draw(st.integers(16, 128)))
    kind = draw(st.sampled_from(("constant", "step", "pulse", "sampled")))
    scale = st.floats(0.25, 4.0)
    if kind == "constant":
        prof = ScaleProfile.constant(draw(scale))
    elif kind == "step":
        prof = ScaleProfile.step(draw(scale), draw(st.floats(0.0, 1.0)))
    elif kind == "pulse":
        t_on = draw(st.floats(0.0, 0.5))
        prof = ScaleProfile.pulse(draw(scale), t_on, t_on + draw(st.floats(0.1, 1.0)))
    else:
        values = draw(st.lists(scale, min_size=2, max_size=9))
        prof = ScaleProfile.sampled(np.linspace(0.0, 2.0, len(values)), values)
    h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
    x0, p = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    amps = np.exp(-(g.x - x0) ** 2 / 2 + 1j * p * g.x)
    psi0 = WaveFunction(g, amps / math.sqrt(norm_squared(WaveFunction(g, amps))))
    truncation = draw(st.none() | st.integers(1, min(g.points, 24)))
    return psi0, h, draw(st.integers(1, 16)), truncation, draw(st.sampled_from(SCHEMES))


def potential(prof):
    return PotentialSpec.scaled_harmonic(1.0, prof)


class TestBuildSchedule:
    """The slices `evolve` runs over, from `slice_boundaries`."""

    def test_uniform(self):
        b = slice_boundaries(potential(ScaleProfile.constant()), 0.0, 1.0, 4)
        assert np.allclose(b, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_pulse_discontinuity_inserted(self):
        b = slice_boundaries(potential(ScaleProfile.pulse(2.0, 0.0, 0.6)), 0.0, 1.0, 4)
        assert np.allclose(b, [0.0, 0.25, 0.5, 0.6, 0.75, 1.0])

    def test_no_duplicate_for_existing_boundary(self):
        prof = ScaleProfile.step(2.0, t_on=0.0)
        assert slice_boundaries(potential(prof), 0.0, 1.0, 4).size == 5
        # within 1e-12 of a boundary, or of the other jump, counts as on it
        prof = ScaleProfile.pulse(2.0, 0.5 + 5e-13, 0.7)
        assert np.array_equal(slice_boundaries(potential(prof), 0.0, 1.0, 4),
                              [0.0, 0.25, 0.5, 0.7, 0.75, 1.0])
        prof = ScaleProfile.pulse(2.0, 0.6, 0.6 + 5e-13)
        assert np.array_equal(slice_boundaries(potential(prof), 0.0, 1.0, 4),
                              [0.0, 0.25, 0.5, 0.6, 0.75, 1.0])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            slice_boundaries(HARMONIC.potential, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            slice_boundaries(HARMONIC.potential, 0.0, 1.0, 0)

    def test_slices_narrower_than_rounding_rejected(self, ground):
        with pytest.raises(ValueError, match="strictly increasing"):
            slice_boundaries(HARMONIC.potential, 1.0, 1.0 + 1e-15, 10)
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve(ground, HARMONIC, 1.0, 1.0 + 1e-15, 10)
        assert slice_boundaries(HARMONIC.potential, 1.0, 1.0 + 1e-15, 4).size == 5

    def test_evolve_reports_every_slice(self, ground):
        prof = ScaleProfile.pulse(0.25, 0.3, 0.9)
        h = HamiltonianSpec(1.0, 1.0, potential(prof))
        res = evolve(ground, h, 0.0, 2.0, 4, truncation=8)
        assert [r.t_end for r in res.reports] == slice_boundaries(h.potential, 0.0, 2.0,
                                                                  4)[1:].tolist()
        assert [r.t_end for r in res.reports] == [0.3, 0.5, 0.9, 1.0, 1.5, 2.0]


class TestStepwiseHamiltonian:
    """The frozen slice Hamiltonian: the moments m0 and d of V that every
    slice factor is built from."""

    def test_time_independent_matches_discretize(self):
        frozen = discretize(HARMONIC, GRID, 0.3)
        m = average_matrix(HARMONIC, GRID, 0.0, 1.0)
        assert np.array_equal(m.diagonal, frozen.diagonal)
        assert np.array_equal(m.off_diagonal, frozen.off_diagonal)

    def test_linear_ramp_averages_to_half(self):
        # V(x, t) = t x^2 over [0, 1] averages to x^2 / 2
        g = Grid(-2.0, 2.0, 9)
        pot = PotentialSpec.tabulated(g.x, [0.0, 1.0], [np.zeros(9), g.x**2])
        h = HamiltonianSpec(1.0, 1.0, pot)
        kin = 1.0 / g.dx**2
        m = average_matrix(h, g, 0.0, 1.0)
        assert np.allclose(m.diagonal - kin, 0.5 * g.x**2, atol=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(averaging_cases())
    @example(("step", [1.0], [0.5], 0.0, 2.0))      # S-bar 0.75
    @example(("pulse", [1.0, 3.0], [2.0], 0.0, 4.0))  # S-bar 1.5
    @example(("pulse", [1.0, 3.0], [2.0], 1.0, 3.0))  # S-bar 2.0
    def test_integral_average_is_exact(self, case):
        # m0 = (1/dt) int V and d = (4/dt^2) int (t - t_mid) V, both exact
        kind, times, values, t_a, t_b = case
        h = HamiltonianSpec(1.0, 1.0, case_potential(kind, times, values))
        m0, d = h.potential.moments(SMALL.x, t_a, t_b)
        assert np.array_equal(average_matrix(h, SMALL, t_a, t_b).diagonal,
                              1.0 / SMALL.dx**2 + m0)
        # (1/dt) int f(t) V(t) dt as int_0^1 f V du with t = t_a + u dt
        dt = t_b - t_a
        inside = [(t - t_a) / dt for t in times if t_a < t < t_b] or None

        def integral(f):
            return np.array([
                quad(lambda u: f(u) * reference_potential(kind, times, values,
                                                          t_a + u * dt)[i],
                     0.0, 1.0, points=inside, limit=100, epsabs=5e-13, epsrel=1e-13)[0]
                for i in range(SMALL.points)])

        for moment, want in ((m0, integral(lambda u: 1.0)),
                             (d, 4.0 * integral(lambda u: u - 0.5))):
            np.testing.assert_allclose(moment, want, rtol=1e-12,
                                       atol=1e-12 * max(1.0, np.abs(want).max()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(("step", "pulse")),
           st.lists(st.floats(-3.0, 4.0), min_size=4, max_size=4, unique=True))
    def test_constant_slice_moments_are_exact(self, kind, ts):
        # a slice inside one piece of a step or pulse: m0 is V bit for bit
        # and d is exactly 0, so the two cfm4 factors share one basis
        knots = sorted(ts[:1] if kind == "step" else ts[:2])
        t_a, t_b = sorted(ts[2:])
        assume(not any(t_a < t < t_b for t in knots))
        h = HamiltonianSpec(1.0, 1.0, case_potential(kind, knots, [2.5]))
        m0, d = h.potential.moments(SMALL.x, t_a, t_b)
        assert np.array_equal(m0, h.potential_on_grid(SMALL, 0.5 * (t_a + t_b)))
        assert np.all(d == 0.0)

    @pytest.mark.parametrize("kind", ["sampled", "tabulated"])
    @pytest.mark.parametrize("t_b, pieces", [(0.005, 1), (0.255, 26), (2.0, 200)])
    def test_moments_memory_does_not_grow_with_the_pieces(self, kind, t_b, pieces):
        # smooth_ramp's 201 knots at 2**14 points: V is never formed at the
        # Gauss times, so the moments hold a few grid vectors (x, x^2 or the
        # row weights, m0 and d) however many pieces the slice has
        g = Grid(-12.0, 12.0, 2**14)
        ts = np.linspace(0.0, 2.0, 201)
        scale = 1 + 0.5 * np.sin(np.pi * ts / 2.0) ** 2
        pot = case_potential(kind, ts, scale) if kind == "sampled" else (
            PotentialSpec.tabulated(g.x, ts, np.outer(scale, 0.5 * g.x**2)))
        assert gauss_pieces(pot.breakpoints(), 0.0, t_b)[0].size == pieces
        pot.moments(g.x, 0.0, t_b)
        tracemalloc.start()
        try:
            pot.moments(g.x, 0.0, t_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * g.points

    def test_step_slice_after_switch_is_exactly_quenched(self):
        h = quench_hamiltonian(0.25)
        m = average_matrix(h, GRID, 0.5, 1.0)
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
        psi = reconstruct(c * phases, basis64)
        exact = ground.amplitudes * np.exp(-1j * basis64.energies[0] * dt)
        assert np.abs(psi.amplitudes - exact).max() < 1e-9

    def test_length_mismatch(self, basis64):
        with pytest.raises(ValueError):
            reconstruct(np.ones(3), basis64)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_real_kernel_matches_complex_products(self, case):
        basis, amps, coeffs = case
        v, dx = basis.vectors, basis.source_grid.dx
        # relative to the sum of |terms|, the scale of any rounding error
        got = project(WaveFunction(basis.source_grid, amps), basis)
        want = v.T @ (dx * np.asarray(amps, dtype=complex))
        assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(v).T @ np.abs(dx * amps)))
        got = reconstruct(coeffs, basis).amplitudes
        want = v @ np.asarray(coeffs, dtype=complex)
        assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(v) @ np.abs(coeffs)))
        back = project(reconstruct(coeffs, basis), basis)
        assert np.abs(back - coeffs).max() <= 1e-13 * np.abs(coeffs).max()

    def test_no_complex_copy_of_the_basis(self, basis64, ground):
        # a complex copy of the 1024 x 64 basis alone takes 1 MiB
        c = project(ground, basis64)
        for call in (lambda: project(ground, basis64), lambda: reconstruct(c, basis64)):
            tracemalloc.start()
            try:
                call()
                assert tracemalloc.get_traced_memory()[1] < 0.5 * 2**20
            finally:
                tracemalloc.stop()


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
        res = evolve(ground, HARMONIC, 0.0, 0.02, 5, truncation=64)
        c = project(res.final_state, basis64)
        assert abs(abs(c[0]) - 1.0) < 1e-8
        assert np.abs(c[1:]).max() < 1e-8
        # phase agrees with exp(-i 0.5 t) for short evolutions
        assert abs(np.angle(c[0]) - (-0.5 * 0.02)) < 1e-6

    def test_sudden_quench_energy(self, ground):
        h = quench_hamiltonian(0.25)
        res = evolve(ground, h, 0.0, 2.0, 4, truncation=64)
        assert res.reports[-1].energy / 0.5 == pytest.approx(0.625, abs=1e-3)
        res7 = evolve(ground, h, 0.0, 2.0, 4, truncation=7)
        assert res7.reports[-1].energy / 0.5 == pytest.approx(0.6246, abs=1e-3)

    def test_pulse_revival_and_phase(self, ground):
        eta = 4.0
        big_t = 4 * math.pi / math.sqrt(eta)
        prof = ScaleProfile.pulse(eta, 0.0, big_t)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
        res = evolve(ground, h, 0.0, big_t, 8, truncation=64)
        ref = evolve(ground, HARMONIC, 0.0, big_t, 1, truncation=64)
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
        res = evolve(psi0, h, 0.0, 20.0, 10_000, truncation=None)
        norms = np.array([r.norm_squared for r in res.reports])
        assert np.abs(norms - 1.0).max() <= 1e-9
        assert abs(norms[-1] - 1.0) <= 1e-6

    def test_truncation_never_increases_norm(self, ground):
        h = quench_hamiltonian(0.25)
        res = evolve(ground, h, 0.0, 3.0, 6, truncation=5)
        norms = [norm_squared(ground)] + [r.norm_squared for r in res.reports]
        for before, after in zip(norms[:-1], norms[1:]):
            assert after <= before + 1e-12

    def test_basis_reuse_matches_fresh_solves(self, ground):
        h = quench_hamiltonian(0.81)
        bounds = slice_boundaries(h.potential, 0.0, 2.0, 8)
        whole = evolve(ground, h, 0.0, 2.0, 8, truncation=32)
        assert [r.basis_refreshed for r in whole.reports] == [True] + [False] * 7
        # a reused slice multiplies the coefficients by its phases, nothing else
        basis = eigendecompose(average_matrix(h, GRID, bounds[0], bounds[1]), GRID, 32)
        for j in range(1, 8):
            dt = bounds[j + 1] - bounds[j]
            assert np.array_equal(
                whole.reports[j].coefficients,
                whole.reports[j - 1].coefficients
                * np.exp(-1j * basis.energies * dt / h.hbar))
        assert np.array_equal(whole.final_state.amplitudes,
                              reconstruct(whole.reports[-1].coefficients, basis).amplitudes)
        # one-slice restarts go through the grid on every slice and agree
        # with the whole run to rounding
        psi = ground
        for j in range(8):
            one = evolve(psi, h, bounds[j], bounds[j + 1], 1, truncation=32)
            assert one.reports[0].basis_refreshed
            assert np.abs(one.reports[0].coefficients
                          - whole.reports[j].coefficients).max() <= 1e-14
            psi = one.final_state
        assert np.abs(psi.amplitudes - whole.final_state.amplitudes).max() <= 1e-14

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(evolve_cases())
    def test_matches_grid_round_trip_on_every_factor(self, case):
        psi0, h, slices, truncation, scheme = case
        res = evolve(psi0, h, 0.0, 2.0, slices, truncation, scheme=scheme)
        state, energies, norms = round_trip_evolve(psi0, h, 0.0, 2.0, slices, truncation,
                                                   scheme)
        np.testing.assert_allclose([r.energy for r in res.reports], energies,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose([r.norm_squared for r in res.reports], norms,
                                   rtol=0.0, atol=1e-13)
        assert np.abs(res.final_state.amplitudes - state.amplitudes).max() <= 1e-13

    def test_reused_basis_never_goes_through_the_grid(self, monkeypatch):
        calls = dict.fromkeys(("project", "reconstruct", "_slice_factors"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(projection, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(projection, name, counted)
        g = Grid(-8.0, 8.0, 64)
        psi0 = eigendecompose(discretize(HARMONIC, g, 0.0), g, 1).state(0)
        res = evolve(psi0, HARMONIC, 0.0, 10.0, 1000, truncation=16)
        assert res.eigensolves["reused"] == 999
        assert calls == {"project": 1, "reconstruct": 1, "_slice_factors": 1}

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_time_independent_potential_builds_its_factors_once(self, ground, scheme):
        # a flat sampled profile has breakpoints, so its factors are built
        # on every slice; they are the harmonic potential's, bit for bit
        flat = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(
            1.0, ScaleProfile.sampled([0.0, 1.0], [1.0, 1.0])))
        once = evolve(ground, HARMONIC, 0.0, 1.0, 7, truncation=16, scheme=scheme)
        every = evolve(ground, flat, 0.0, 1.0, 7, truncation=16, scheme=scheme)
        assert once.eigensolves == every.eigensolves
        for a, b in zip(once.reports, every.reports):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert (a.energy, a.norm_squared) == (b.energy, b.norm_squared)
        assert np.array_equal(once.final_state.amplitudes, every.final_state.amplitudes)

    def test_warm_started_ramp_matches_cold_solves(self):
        g = Grid(-12.0, 12.0, 512)
        h = smooth_ramp_hamiltonian()
        psi = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)
        bounds = slice_boundaries(h.potential, 0.0, 2.0, 128)
        whole = evolve(psi, h, 0.0, 2.0, 128, truncation=48)
        counts = whole.eigensolves
        assert counts["refined"] >= 120
        assert counts["reused"] + counts["refined"] + counts["lapack"] == 128
        for j in range(128):
            one = evolve(psi, h, bounds[j], bounds[j + 1], 1, truncation=48)
            assert one.eigensolves == {"reused": 0, "refined": 0, "lapack": 1,
                                       "fallbacks": 0}
            assert np.abs(one.reports[0].coefficients
                          - whole.reports[j].coefficients).max() < 1e-11
            psi = one.final_state
        assert np.abs(psi.amplitudes - whole.final_state.amplitudes).max() < 1e-11

    def test_memory_bounded_in_slice_count(self):
        g = Grid(-12.0, 12.0, 512)
        h = smooth_ramp_hamiltonian()
        psi0 = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)

        def peak(n):
            tracemalloc.start()
            try:
                evolve(psi0, h, 0.0, 2.0, n, truncation=48)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) < 1.5 * peak(64)

    def test_slice_refinement_second_order(self):
        g = Grid(-12.0, 12.0, 512)
        h = smooth_ramp_hamiltonian()
        psi0 = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)
        ref = evolve(psi0, h, 0.0, 2.0, 256, truncation=48).final_state

        def err(n):
            fin = evolve(psi0, h, 0.0, 2.0, n, truncation=48).final_state
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
        res1 = evolve(ground, h, 0.0, 2.0, 1, truncation=32)
        res100 = evolve(ground, h, 0.0, 2.0, 100, truncation=32)
        c1, c100 = (project(r.final_state, bq) for r in (res1, res100))
        assert np.abs(c1 - c100).max() < 1e-9

    def test_nonfinite_initial_state_rejected(self):
        bad = WaveFunction(GRID, np.full(1024, np.nan, dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            evolve(bad, HARMONIC, 0.0, 1.0, 2)


class TestCfm4:
    @pytest.mark.parametrize("knots", [9, 201], ids=["knot_aligned", "kinked"])
    def test_fourth_order_on_sampled_profile(self, knots):
        # knots every 0.25 fall on the boundaries of 8, 16, 32 and 128 slices,
        # so V is linear in t across every slice; knots every 0.01 also fall
        # inside them, where V kinks and only exact moments keep the order
        g = Grid(-8.0, 8.0, 256)
        ts = np.linspace(0.0, 2.0, knots)
        prof = ScaleProfile.sampled(ts, 1 + 0.5 * np.sin(np.pi * ts / 2) ** 2)
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, prof))
        psi0 = eigendecompose(discretize(h, g, 0.0), g, 1).state(0)

        def final(n):
            return evolve(psi0, h, 0.0, 2.0, n, truncation=24,
                          scheme="cfm4").final_state.amplitudes

        ref = final(128)
        errors = [math.sqrt(norm_squared(WaveFunction(g, final(n) - ref)))
                  for n in (8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            assert math.log2(coarse / fine) >= 3.8

    @pytest.mark.parametrize("profile", [ScaleProfile.step(0.25, 0.7),
                                         ScaleProfile.pulse(4.0, 0.5, 1.5)],
                             ids=["step", "pulse"])
    def test_matches_average_on_piecewise_constant_profiles(self, ground, profile):
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.scaled_harmonic(1.0, profile))
        avg = evolve(ground, h, 0.0, 2.0, 6, truncation=32)
        cfm4 = evolve(ground, h, 0.0, 2.0, 6, truncation=32, scheme="cfm4")
        assert np.abs(cfm4.final_state.amplitudes - avg.final_state.amplitudes).max() < 1e-12
        for a, c in zip(avg.reports, cfm4.reports):
            assert np.abs(c.coefficients - a.coefficients).max() < 1e-12
            assert c.energy == pytest.approx(a.energy, rel=1e-12)
            assert c.basis_refreshed == a.basis_refreshed
        # each slice's second factor reuses the first factor's basis
        assert cfm4.eigensolves == {**avg.eigensolves,
                                    "reused": avg.eigensolves["reused"] + len(avg.reports)}

    def test_unknown_scheme_rejected(self, ground):
        with pytest.raises(ValueError, match="scheme"):
            evolve(ground, HARMONIC, 0.0, 1.0, 2, scheme="rk4")
