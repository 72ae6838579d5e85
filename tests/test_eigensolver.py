import importlib.machinery

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import lapack as scipy_lapack
from scipy.linalg.lapack import dgtsv, dstein

from mpsolve import (
    EigenBasis,
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    SymTridiagonal,
    discretize,
    eigendecompose,
    inner_product,
    residual,
)
from mpsolve import eigensolver
from mpsolve.eigensolver import (
    _RESIDUAL_TOL,
    Sector,
    _count_below,
    _finish,
    _norm_bound,
    _orthonormal_and_lowest,
    _shifted_solve,
)
from mpsolve.projection import evolve
from mpsolve.scenario import _initial_state, bundled_scenario_path, parse_scenario

GRID = Grid(-12.0, 12.0, 1024)
HARMONIC = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))


def harmonic_matrix(k, grid):
    return discretize(HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(k)), grid, 0.0)


@pytest.fixture(scope="module")
def harmonic_basis():
    return eigendecompose(discretize(HARMONIC, GRID, 0.0), GRID, 11)


class TestDiscretize:
    def test_free_particle_stencil(self):
        g = Grid(0.0, 4.0, 5)  # dx = 1
        pot = PotentialSpec.tabulated(g.x, [0.0, 1.0], np.zeros((2, 5)))
        m = discretize(HamiltonianSpec(1.0, 1.0, pot), g, 0.0)
        assert np.allclose(m.diagonal, 1.0)
        assert np.allclose(m.off_diagonal, -0.5)

    def test_harmonic_center_node(self):
        m = discretize(HARMONIC, GRID, 0.0)
        # grid has odd spacing count, so x = 0 is not a node here; use a
        # grid that contains it
        g = Grid(-2.0, 2.0, 5)
        m = discretize(HARMONIC, g, 0.0)
        kin = 1.0 / g.dx**2
        assert m.diagonal[2] == pytest.approx(kin)  # V(0) = 0

    def test_ground_energy(self):
        basis = eigendecompose(discretize(HARMONIC, GRID, 0.0), GRID, 1)
        assert basis.energies[0] == pytest.approx(0.5, abs=5e-4)


class TestEigendecompose:
    def test_diagonal_two_by_two(self):
        g = Grid(0.0, 1.0, 3)
        m = SymTridiagonal([1.0, 2.0, 3.0], [0.0, 0.0])
        basis = eigendecompose(m, g)
        assert np.allclose(basis.energies, [1.0, 2.0, 3.0])
        # states are the standard basis vectors up to the sqrt(dx) rescale
        dense = basis.vectors * np.sqrt(g.weights)[:, None]
        assert np.allclose(np.abs(dense), np.eye(3), atol=1e-14)

    def test_harmonic_spectrum(self, harmonic_basis):
        expected = np.arange(11) + 0.5
        assert np.all(np.abs(harmonic_basis.energies - expected) / expected < 1e-3)

    def test_quenched_spectrum(self):
        h = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(0.25))
        basis = eigendecompose(discretize(h, GRID, 0.0), GRID, 5)
        assert basis.energies[0] == pytest.approx(0.25, abs=5e-4)
        assert np.allclose(basis.energies, 0.5 * (np.arange(5) + 0.5), atol=3e-3)

    def test_orthonormality(self, harmonic_basis):
        gram = np.array([
            [inner_product(harmonic_basis.state(i), harmonic_basis.state(j))
             for j in range(11)] for i in range(11)])
        assert np.abs(gram - np.eye(11)).max() < 1e-10

    def test_sign_fix_matches_per_column_loop(self):
        g = Grid(0.0, 1.0, 6)
        vectors = np.random.default_rng(2).normal(size=(6, 5))
        vectors[:2, 1] = [-1e-9, 1e-9]  # leading components below the threshold
        vectors[:, 3] *= 1e-9  # no component above it: the largest decides
        vectors[:, 4] = [1e-10, -3e-9, 0.0, 2e-9, 0.0, -1e-10]
        expected = vectors / np.sqrt(g.dx)
        for k in range(5):
            col = expected[:, k]
            sig = np.nonzero(np.abs(col) > 1e-8)[0]
            lead = col[sig[0]] if sig.size else col[np.argmax(np.abs(col))]
            if lead < 0:
                expected[:, k] = -col
        basis = _finish(np.arange(5.0), vectors, g, "lapack")
        assert np.array_equal(basis.vectors, expected)
        assert np.array_equal(np.signbit(basis.vectors), np.signbit(expected))

    def test_sign_convention(self, harmonic_basis):
        for k in range(11):
            col = harmonic_basis.vectors[:, k]
            lead = col[np.abs(col) > 1e-8][0]
            assert lead > 0

    def test_parity(self, harmonic_basis):
        for k in range(11):
            col = harmonic_basis.vectors[:, k]
            assert np.abs(col - (-1) ** k * col[::-1]).max() < 1e-8

    def test_truncation_bounds(self):
        g = Grid(0.0, 1.0, 3)
        m = SymTridiagonal([1.0, 2.0, 3.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            eigendecompose(m, g, 0)

    def test_spectrum_second_order_in_dx(self):
        coarse = Grid(-12.0, 12.0, 512)
        fine = Grid(-12.0, 12.0, 1023)  # exactly half the spacing
        e_coarse = eigendecompose(discretize(HARMONIC, coarse, 0.0), coarse, 1).energies[0]
        e_fine = eigendecompose(discretize(HARMONIC, fine, 0.0), fine, 1).energies[0]
        assert abs(e_coarse - 0.5) / abs(e_fine - 0.5) >= 3.5


class TestMatvec:
    def test_columns_match_single_vectors(self):
        m = harmonic_matrix(1.0, Grid(-3.0, 3.0, 17))
        v = np.random.default_rng(3).normal(size=(17, 4))
        cols = np.stack([m.matvec(v[:, k]) for k in range(4)], axis=1)
        assert np.array_equal(m.matvec(v), cols)


class TestWarmStart:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(64, 600), m=st.integers(4, 48),
           k=st.floats(0.25, 4.0), step=st.floats(1e-5, 1e-2))
    def test_matches_cold_solve(self, n, m, k, step):
        g = Grid(-12.0, 12.0, n)
        guess = eigendecompose(harmonic_matrix(k, g), g, m)
        matrix = harmonic_matrix(k * (1.0 + step), g)
        warm = eigendecompose(matrix, g, m, guess=guess)
        cold = eigendecompose(matrix, g, m)
        h_norm = np.abs(matrix.diagonal).max() + 2 * np.abs(matrix.off_diagonal).max()
        assert np.abs(warm.energies - cold.energies).max() <= 1e-11 * h_norm
        # Coarse grids split the upper states into near-degenerate pairs, whose
        # vectors are only defined to about residual / gap (Davis-Kahan): allow
        # that much when it exceeds 1e-9.
        full = eigendecompose(matrix, g, m + 1).energies
        gaps = np.minimum(np.diff(full, prepend=-np.inf)[:m], np.diff(full)[:m])
        with np.errstate(divide="ignore"):  # an exactly degenerate pair
            bound = 128 * np.finfo(float).eps * h_norm / gaps / np.sqrt(g.dx)
        assert np.all(np.abs(warm.vectors - cold.vectors).max(axis=0)
                      <= np.maximum(1e-9, bound))

    def test_third_sweep_when_two_fall_short(self):
        # from a 10% weaker spring two sweeps leave a residual of 1e-10 ||H||
        g = Grid(-12.0, 12.0, 512)
        matrix = harmonic_matrix(1.0, g)
        guess = eigendecompose(harmonic_matrix(1.1, g), g, 24)
        warm = eigendecompose(matrix, g, 24, guess=guess)
        cold = eigendecompose(matrix, g, 24)
        assert warm.origin == "refined"
        assert np.abs(warm.energies - cold.energies).max() < 1e-12
        assert np.abs(warm.vectors - cold.vectors).max() < 1e-9

    # 1.3: three sweeps leave a residual of 5e-11 ||H||, while the Sturm count
    # and orthonormality pass; 4.0: the refined states are not the lowest
    @pytest.mark.parametrize("guess_k, guess_m", [(1.3, 24), (4.0, 24), (1.0, 23)],
                             ids=["unconverged", "far_hamiltonian", "wrong_truncation"])
    def test_unusable_guess_falls_back_bit_identically(self, guess_k, guess_m):
        g = Grid(-12.0, 12.0, 512)
        matrix = harmonic_matrix(1.0, g)
        guess = eigendecompose(harmonic_matrix(guess_k, g), g, guess_m)
        warm = eigendecompose(matrix, g, 24, guess=guess)
        cold = eigendecompose(matrix, g, 24)
        assert warm.origin == "fallback" and cold.origin == "lapack"
        assert np.array_equal(warm.energies, cold.energies)
        assert np.array_equal(warm.vectors, cold.vectors)

    def test_guess_missing_the_ground_state_falls_back(self):
        # states 1..24 refine to exact eigenpairs; only the Sturm count sees
        # that the lowest one is missing
        g = Grid(-12.0, 12.0, 512)
        matrix = harmonic_matrix(1.0, g)
        above = eigendecompose(matrix, g, 25)
        guess = EigenBasis(above.energies[1:], above.vectors[:, 1:], g)
        warm = eigendecompose(matrix, g, 24, guess=guess)
        assert warm.origin == "fallback"
        assert np.array_equal(warm.vectors, eigendecompose(matrix, g, 24).vectors)

    def test_singular_shift_falls_back(self):
        # the guess's Rayleigh quotients are exact eigenvalues, so H - s is singular
        g = Grid(0.0, 3.0, 4)
        m = SymTridiagonal([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0])
        guess = eigendecompose(m, g, 2)
        warm = eigendecompose(m, g, 2, guess=guess)
        assert warm.origin == "fallback"
        assert np.array_equal(warm.vectors, guess.vectors)

    def test_full_basis_is_never_refined(self):
        g = Grid(-3.0, 3.0, 33)
        guess = eigendecompose(harmonic_matrix(1.0, g), g)
        full = eigendecompose(harmonic_matrix(1.001, g), g, guess=guess)
        assert full.origin == "lapack"

    def test_sturm_count(self):
        g = Grid(-6.0, 6.0, 101)
        matrix = harmonic_matrix(1.0, g)
        energies = eigendecompose(matrix, g).energies
        for s in (-1.0, energies[0] + 1e-9, 0.5 * (energies[9] + energies[10]),
                  energies[-1] + 1.0):
            assert _count_below(matrix, s) == np.count_nonzero(energies < s)

    def test_sturm_count_over_blocks_and_with_limit(self):
        # 10000 rows; the discrete Laplacian's spectrum is known
        n = 10000
        matrix = SymTridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0))
        energies = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        for s in (-1.0, 1e-6, 0.5, 1.0, 3.0, 5.0):
            assert _count_below(matrix, s) == np.count_nonzero(energies < s)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           split=st.floats(0.0, 0.5), tiny=st.sampled_from([0.0, 1e-300, 1e-12]),
           k=st.integers(0, 299))
    def test_sturm_count_matches_dense_spectrum(self, n, seed, split, tiny, k):
        # exactly zero and tiny off-diagonals split the matrix into blocks
        rng = np.random.default_rng(seed)
        d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        e = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 3)
        e[rng.random(n - 1) < split] = 0.0
        e[rng.random(n - 1) < split] = tiny
        matrix = SymTridiagonal(d, e)
        w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        h_norm = np.abs(d).max() + 2 * np.abs(e).max(initial=0.0)
        k = min(k, n - 1)
        shifts = [w[0] - 1e-9 * h_norm, w[-1] + 1e-9 * h_norm,
                  w[k] - 1e-9 * h_norm, w[k] + 1e-9 * h_norm]
        if k + 1 < n:
            shifts.append(0.5 * (w[k] + w[k + 1]))
        for s in shifts:
            if np.abs(w - s).min() > 1e-12 * h_norm:  # not within rounding of a root
                assert _count_below(matrix, s) == np.count_nonzero(w < s)

    def test_block_solve_matches_one_call_per_shift(self):
        g = Grid(-12.0, 12.0, 200)
        matrix = harmonic_matrix(1.0, g)
        rng = np.random.default_rng(5)
        shifts = rng.uniform(0.0, 20.0, size=6)
        rows = rng.normal(size=(6, 200))
        block = _shifted_solve(matrix, shifts, rows)
        for k in range(6):
            *_, y, info = dgtsv(matrix.off_diagonal, matrix.diagonal - shifts[k],
                                matrix.off_diagonal, rows[k])
            assert info == 0 and np.array_equal(block[k], y)

    def test_block_solve_singular_shift(self):
        m = SymTridiagonal([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0])
        assert _shifted_solve(m, np.array([1.5, 2.0]), np.ones((2, 4))) is None

    @pytest.mark.parametrize("origin", ["lapack", "refined"])
    def test_guess_is_never_written_to(self, origin):
        # a LAPACK basis is Fortran-ordered, so its transpose is C-contiguous
        # and could be handed to dgtsv as a buffer to overwrite
        g = Grid(-12.0, 12.0, 512)
        guess = eigendecompose(harmonic_matrix(1.0, g), g, 24)
        if origin == "refined":
            guess = eigendecompose(harmonic_matrix(1.001, g), g, 24, guess=guess)
        assert guess.origin == origin
        vectors, energies = guess.vectors.copy(), guess.energies.copy()
        warm = eigendecompose(harmonic_matrix(1.002, g), g, 24, guess=guess)
        assert warm.origin == "refined"
        assert np.array_equal(guess.vectors, vectors)
        assert np.array_equal(guess.energies, energies)


def solve_widths(monkeypatch) -> list:
    """The row count of every `_shifted_solve` call made from now on."""
    widths, solve = [], eigensolver._shifted_solve

    def counted(m, shifts, rows):
        widths.append(rows.shape[1])
        return solve(m, shifts, rows)

    monkeypatch.setattr(eigensolver, "_shifted_solve", counted)
    return widths


def whole_grid_refine(m, grid, guess):
    """The warm refine on the whole grid, its residual taken on the finished
    basis: the reference that a matrix which is not mirror-symmetric must
    match bit for bit."""
    h_norm = _norm_bound(m)
    v = guess.vectors.T
    theta = np.einsum("ij,ji->i", v, m.matvec(v.T)) / np.einsum("ij,ij->i", v, v)
    for sweep in range(eigensolver._SWEEPS + 1):
        y = _shifted_solve(m, theta, v)
        scale = 1.0 / np.linalg.norm(y, axis=1)[:, None]
        y *= scale
        hy = v * scale
        if sweep == 0:
            theta, v = theta + np.einsum("ij,ij->i", y, hy), y
            continue
        gram = y @ y.T
        ritz = y @ hy.T + gram * theta
        l_inv = np.linalg.inv(np.linalg.cholesky(gram))
        theta, z = np.linalg.eigh(l_inv @ (0.5 * (ritz + ritz.T)) @ l_inv.T)
        v = (l_inv.T @ z).T @ y
        basis = _finish(theta, v.T, grid, "refined")
        if residual(m, basis).max() * np.sqrt(grid.dx) <= _RESIDUAL_TOL * h_norm:
            return basis
    return None


class TestParitySectors:
    # a coarse box for the small grids, where the refine then succeeds on
    # both routes (on [-12, 12] some of them fall back to the cold path)
    @pytest.mark.parametrize("n, m", [(4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 5),
                                      (64, 1), (64, 8), (64, 9), (512, 48), (1024, 64)])
    @pytest.mark.parametrize("off_sign", [1.0, -1.0], ids=["negative_off", "positive_off"])
    def test_sector_route_passes_the_full_guards(self, n, m, off_sign, monkeypatch):
        # with a positive off-diagonal the ground state is odd: the sectors
        # swap, and the spectrum is the same
        g = Grid(-3.0, 3.0, n) if n < 64 else Grid(-12.0, 12.0, n)

        def matrix(k):
            h = harmonic_matrix(k, g)
            return SymTridiagonal(h.diagonal, off_sign * h.off_diagonal)

        guess, target = eigendecompose(matrix(1.0), g, m), matrix(1.01)
        widths = solve_widths(monkeypatch)
        sectors = eigendecompose(target, g, m, guess=guess)
        assert sectors.origin == "refined" and set(widths) == {n // 2}
        h_norm = _norm_bound(target)
        assert residual(target, sectors).max() * np.sqrt(g.dx) <= _RESIDUAL_TOL * h_norm
        assert _orthonormal_and_lowest(target, sectors, h_norm)
        assert np.all(np.diff(sectors.energies) > 0)
        monkeypatch.setattr(eigensolver, "_parity_sectors", lambda *args: None)
        widths.clear()
        whole = eigendecompose(target, g, m, guess=guess)
        assert whole.origin == "refined" and set(widths) == {n}
        assert np.abs(sectors.energies - whole.energies).max() <= 1e-12
        assert np.abs(sectors.vectors - whole.vectors).max() <= 1e-12

    @pytest.mark.parametrize("excess, taken", [(0.5, True), (2.0, False)])
    def test_selection_rule(self, excess, taken, monkeypatch):
        # one diagonal entry moved off the mirror by `excess` times the
        # largest asymmetry the sectors take; the guards are those of H itself
        g = Grid(-12.0, 12.0, 512)
        guess = eigendecompose(harmonic_matrix(1.0, g), g, 48)
        base = harmonic_matrix(1.01, g)
        d = 0.5 * (base.diagonal + base.diagonal[::-1])
        h_norm = _norm_bound(base)
        d[100] += excess * eigensolver._MIRROR_TOL * h_norm
        target = SymTridiagonal(d, base.off_diagonal)
        assert _norm_bound(target) == h_norm
        widths = solve_widths(monkeypatch)
        basis = eigendecompose(target, g, 48, guess=guess)
        assert basis.origin == "refined"
        assert set(widths) == {256 if taken else 512}
        assert residual(target, basis).max() * np.sqrt(g.dx) <= _RESIDUAL_TOL * h_norm
        assert _orthonormal_and_lowest(target, basis, h_norm)

    @pytest.mark.parametrize("case", ["shifted_grid", "odd_term", "odd_points",
                                      "off_diagonal"])
    def test_asymmetric_matrix_refines_on_the_whole_grid(self, case, monkeypatch):
        g = Grid(-11.9, 12.1, 512) if case == "shifted_grid" else Grid(
            -12.0, 12.0, 513 if case == "odd_points" else 512)
        if case == "odd_term":
            samples = np.array([0.5 * g.x**2 + 0.05 * g.x, 0.505 * g.x**2 + 0.05 * g.x])
            h = HamiltonianSpec(1.0, 1.0, PotentialSpec.tabulated(g.x, [0.0, 1.0], samples))
            start, target = discretize(h, g, 0.0), discretize(h, g, 1.0)
        else:
            start, target = harmonic_matrix(1.0, g), harmonic_matrix(1.01, g)
        if case == "off_diagonal":
            e = target.off_diagonal.copy()
            e[0] *= 1.0 + 1e-15
            target = SymTridiagonal(target.diagonal, e)
        guess = eigendecompose(start, g, 48)
        assert eigensolver._parity_sectors(target, _norm_bound(target)) is None
        widths = solve_widths(monkeypatch)
        basis = eigendecompose(target, g, 48, guess=guess)
        assert basis.origin == "refined" and set(widths) == {g.points}
        expected = whole_grid_refine(target, g, guess)
        assert np.array_equal(basis.energies, expected.energies)
        assert np.array_equal(basis.vectors, expected.vectors)

    def test_sector_guess_missing_the_ground_state_falls_back(self, monkeypatch):
        # states 2, 1, 4, 3, ..., 24, 23: each has the parity of its column,
        # so each sector refines its states to exact eigenpairs, and only the
        # sectors' Sturm counts see that the lowest state is missing
        g = Grid(-12.0, 12.0, 512)
        matrix = harmonic_matrix(1.0, g)
        above = eigendecompose(matrix, g, 25)
        order = (np.arange(24) ^ 1) + 1
        guess = EigenBasis(above.energies[order], above.vectors[:, order], g)
        widths = solve_widths(monkeypatch)
        warm = eigendecompose(matrix, g, 24, guess=guess)
        assert warm.origin == "fallback" and widths[0] == 256
        assert np.array_equal(warm.vectors, eigendecompose(matrix, g, 24).vectors)

    def test_singular_solve_after_convergence_keeps_the_sector_pairs(self, monkeypatch):
        # RQI takes the lower sector's shifts so close to its eigenvalues that
        # the next solve meets an exactly zero pivot (dgtsv info 3); the pairs
        # already pass the residual guard and are kept, on N/2 rows
        g = Grid(-1.0, 1.0, 6)
        guess = eigendecompose(harmonic_matrix(1.0, g), g, 3)
        matrix = harmonic_matrix(1.001, g)
        widths = solve_widths(monkeypatch)
        warm = eigendecompose(matrix, g, 3, guess=guess)
        assert warm.origin == "refined" and widths == [3] * 4
        cold = eigendecompose(matrix, g, 3)
        assert np.abs(warm.vectors - cold.vectors).max() < 1e-13
        assert np.abs(warm.energies - cold.energies).max() < 1e-13

    def test_bundled_smooth_ramp_refines_every_factor_on_half_the_grid(self, monkeypatch):
        cfg = parse_scenario(bundled_scenario_path("smooth_ramp"))
        psi0 = _initial_state(cfg)
        widths = solve_widths(monkeypatch)
        result = evolve(psi0, cfg.hamiltonian, cfg.t0, cfg.t1, 64, truncation=cfg.truncation)
        # the ramp is symmetric about t = 1, so slice 32 rounds to slice 31's
        # average and reuses its basis; every other factor is refined
        assert result.eigensolves == {"reused": 1, "refined": 62, "lapack": 1, "fallbacks": 0}
        # the even ground state is carried on the even sector alone: one
        # sector per factor, with an RQI and a Rayleigh-Ritz sweep
        assert result.parity == "even"
        assert widths == [cfg.grid.points // 2] * (2 * 62)


class TestSector:
    GRID = Grid(-12.0, 12.0, 512)

    @pytest.mark.parametrize("parity", [1.0, -1.0])
    def test_fold_and_unfold_are_exact(self, parity):
        rng = np.random.default_rng(5)
        sector, other = Sector(self.GRID, parity), Sector(self.GRID, -parity)
        half = rng.normal(size=256) + 1j * rng.normal(size=256)
        v = sector.unfold(half)
        assert np.array_equal(v[:256], parity * v[256:][::-1])
        assert np.array_equal(0.5 * sector.fold(v), half)
        assert not np.any(other.fold(v))
        assert sector.points == 256 and sector.dx == 2 * self.GRID.dx

    @pytest.mark.parametrize("truncation", [1, 2, 7, 48])
    def test_sector_bases_are_the_whole_grids_parity_states(self, truncation):
        # the lowest M states of an even H take ceil(M/2) even and floor(M/2)
        # odd ones; each sector's cold solve, unfolded, is the whole grid's,
        # sign included
        matrix = harmonic_matrix(1.0, self.GRID)
        whole = eigendecompose(matrix, self.GRID, truncation)
        for first, parity in enumerate((1.0, -1.0)):
            sector = Sector(self.GRID, parity)
            states = sector.states(truncation)
            assert states == whole.energies[first::2].size
            if states == 0:
                continue
            basis = eigendecompose(sector.matrix(matrix), sector, states)
            assert basis.source_grid is sector
            assert np.abs(basis.energies - whole.energies[first::2]).max() <= 1e-12
            unfolded = sector.unfold(basis.vectors.T).T
            assert np.abs(unfolded - whole.vectors[:, first::2]).max() <= 1e-12
            gram = self.GRID.dx * unfolded.T @ unfolded
            assert np.abs(gram - np.eye(states)).max() <= 1e-13

    def test_sector_of_an_odd_grid_is_refused(self):
        with pytest.raises(ValueError, match="even number"):
            Sector(Grid(-1.0, 1.0, 5), 1.0)


def _bit_matrices() -> dict:
    """The matrices the fallback must solve bit-identically to scipy: the
    N=512 harmonic one, a random one, and an integer-entry one whose zero
    off-diagonals split it into blocks with exactly degenerate eigenvalues."""
    rng = np.random.default_rng(11)
    integer_e = rng.integers(-2, 3, size=63).astype(float)
    integer_e[::9] = 0.0
    return {
        "harmonic512": harmonic_matrix(1.0, Grid(-12.0, 12.0, 512)),
        "random64": SymTridiagonal(rng.normal(size=64), rng.normal(size=63)),
        "integer64": SymTridiagonal(rng.integers(-3, 4, size=64).astype(float), integer_e),
    }


BIT_MATRICES = _bit_matrices()


def sturm_bisection_longdouble(matrix, count):
    """Lowest `count` eigenvalues of a double-precision matrix, bisected in
    numpy longdouble from its Gershgorin interval: the reference for the
    solver's accuracy.  The Sturm count of shift s is the number of negative
    pivots q_i = (d_i - s) - e_{i-1}^2 / q_{i-1}, for every shift at once."""
    d = matrix.diagonal.astype(np.longdouble)
    e2 = matrix.off_diagonal.astype(np.longdouble) ** 2
    h_norm = np.longdouble(_norm_bound(matrix))
    tiny = np.finfo(np.longdouble).tiny
    index = np.arange(count)
    lo = np.full(count, -h_norm - 1)
    hi = np.full(count, h_norm + 1)
    while np.any(hi - lo > 8 * np.finfo(np.longdouble).eps * h_norm):
        mid = 0.5 * (lo + hi)
        q = d[0] - mid
        below = (q < 0).astype(int)
        for i in range(1, d.size):
            q = (d[i] - mid) - e2[i - 1] / np.where(q == 0, -tiny, q)
            below += q < 0
        lo, hi = np.where(below > index, lo, mid), np.where(below > index, mid, hi)
    return 0.5 * (lo + hi)


class TestColdSolve:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble is no more precise than double here")
    @pytest.mark.parametrize("k", [1.0, 0.25], ids=["harmonic", "eta025"])
    def test_energies_match_longdouble_bisection(self, k):
        # eigh_tridiagonal's bisection to full accuracy is 2.7e-13 (harmonic)
        # and 3.4e-13 (eta025) off; Rayleigh-Ritz gets within 7.3e-14 and 4.7e-14
        matrix = harmonic_matrix(k, GRID)
        basis = eigendecompose(matrix, GRID, 64)
        reference = sturm_bisection_longdouble(matrix, 64)
        assert np.abs(basis.energies - reference).max() <= 1e-13

    @pytest.mark.parametrize("failure", ["dstein", "residual"])
    def test_failure_falls_back_to_eigh_tridiagonal_bit_identically(self, failure,
                                                                    monkeypatch):
        g = Grid(-12.0, 12.0, 512)
        matrix = harmonic_matrix(1.0, g)
        lapack = _finish(*eigh_tridiagonal(matrix.diagonal, matrix.off_diagonal,
                                           select="i", select_range=(0, 47)), g, "lapack")
        assert not np.array_equal(eigendecompose(matrix, g, 48).vectors, lapack.vectors)
        if failure == "dstein":
            # the cold path's call reports one vector unconverged; the
            # full-accuracy fallback calls dstein again and must succeed
            calls = []

            def dstein_failing_once(*args):
                calls.append(None)
                z, info = dstein(*args)
                return z, 1 if len(calls) == 1 else info

            monkeypatch.setattr(eigensolver, "dstein", dstein_failing_once)
        else:
            # shifts this coarse leave a residual of 5e-11 ||H||
            monkeypatch.setattr(eigensolver, "_BISECTION_TOL", 1e-6)
        basis = eigendecompose(matrix, g, 48)
        assert basis.origin == "lapack"
        assert np.array_equal(basis.energies, lapack.energies)
        assert np.array_equal(basis.vectors, lapack.vectors)
        if failure == "dstein":
            assert len(calls) == 2

    @pytest.mark.parametrize("name", sorted(BIT_MATRICES))
    @pytest.mark.parametrize("states", ["full", "partial"])
    def test_bit_identical_to_eigh_tridiagonal(self, name, states, monkeypatch):
        # the full basis, and the partial one where the cold path fails,
        # make the LAPACK calls eigh_tridiagonal makes
        matrix = BIT_MATRICES[name]
        g = Grid(0.0, 1.0, matrix.size)
        if states == "full":
            m, select = None, {}
        else:
            m, select = 24, {"select": "i", "select_range": (0, 23)}
            monkeypatch.setattr(eigensolver, "_cold", lambda *args: None)
        expected = _finish(*eigh_tridiagonal(matrix.diagonal, matrix.off_diagonal, **select),
                           g, "lapack")
        basis = eigendecompose(matrix, g, m)
        assert basis.origin == "lapack"
        assert np.array_equal(basis.energies, expected.energies)
        assert np.array_equal(basis.vectors, expected.vectors)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
           integer=st.booleans(), split=st.floats(0.0, 0.5), m=st.integers(1, 39))
    def test_matches_eigh_tridiagonal(self, n, seed, integer, split, m):
        # integer entries and zero off-diagonals give exactly degenerate
        # spectra; whichever path serves, the pairs are the lowest m
        rng = np.random.default_rng(seed)
        if integer:
            d = rng.integers(-3, 4, size=n).astype(float)
            e = rng.integers(-2, 3, size=n - 1).astype(float)
        else:
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            e = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 3)
        e[rng.random(n - 1) < split] = 0.0
        matrix, g, m = SymTridiagonal(d, e), Grid(0.0, 1.0, n), min(m, n - 1)
        basis = eigendecompose(matrix, g, m)
        expected = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                    select_range=(0, m - 1))
        assert (np.abs(basis.energies - expected).max()
                <= 64 * np.finfo(float).eps * _norm_bound(matrix))
        gram = g.dx * (basis.vectors.T @ basis.vectors)
        assert np.abs(gram - np.eye(m)).max() <= 1e-12


class TestLapackLoad:
    @pytest.mark.parametrize("name", ["dgtsv", "dstebz", "dstein", "dstevd"])
    def test_routines_are_scipys(self, name):
        assert getattr(eigensolver, name) is getattr(scipy_lapack, name)

    def test_failed_direct_load_falls_back_to_scipy_linalg(self, monkeypatch):
        # with no extension suffix the lookup finds no file
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        with pytest.raises(ImportError):
            eigensolver._load_flapack()
        dstebz, dstevd = eigensolver._lapack_routines("dstebz", "dstevd")
        assert dstebz is scipy_lapack.dstebz and dstevd is scipy_lapack.dstevd


class TestResidual:
    def test_exact_small_case(self):
        g = Grid(0.0, 1.0, 3)
        m = SymTridiagonal([1.0, 2.0, 3.0], [0.0, 0.0])
        basis = eigendecompose(m, g)
        assert residual(m, basis).max() <= 1e-14

    def test_matches_per_pair_loop(self, harmonic_basis):
        m = discretize(HARMONIC, GRID, 0.0)
        v, e = harmonic_basis.vectors, harmonic_basis.energies
        loop = [np.linalg.norm(m.matvec(v[:, k]) - e[k] * v[:, k]) for k in range(11)]
        # only the summation order of the norm differs
        assert np.allclose(residual(m, harmonic_basis), loop, rtol=1e-12, atol=0)

    def test_default_basis_within_contract(self, harmonic_basis):
        m = discretize(HARMONIC, GRID, 0.0)
        res = residual(m, harmonic_basis)
        bound = 1e-8 * np.maximum(1.0, np.abs(harmonic_basis.energies))
        assert np.all(res <= bound)

    def test_perturbed_state_detected(self, harmonic_basis):
        m = discretize(HARMONIC, GRID, 0.0)
        rng = np.random.default_rng(0)
        vectors = harmonic_basis.vectors.copy()
        vectors[:, 3] += 1e-3 * rng.normal(size=GRID.points)
        noisy = type(harmonic_basis)(harmonic_basis.energies, vectors, GRID)
        assert residual(m, noisy)[3] > 1e-4
