import numpy as np
import pytest

from mpsolve import (
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    SymTridiagonal,
    discretize,
    eigendecompose,
    inner_product,
    residual,
)

GRID = Grid(-12.0, 12.0, 1024)
HARMONIC = HamiltonianSpec(1.0, 1.0, PotentialSpec.harmonic(1.0))


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


class TestResidual:
    def test_exact_small_case(self):
        g = Grid(0.0, 1.0, 3)
        m = SymTridiagonal([1.0, 2.0, 3.0], [0.0, 0.0])
        basis = eigendecompose(m, g)
        assert residual(m, basis).max() <= 1e-14

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
