"""Finite-difference discretization of a time-frozen Hamiltonian and its
orthonormal eigenpairs.

The kinetic term uses the standard 3-point stencil on the uniform grid, so
the matrix is real symmetric tridiagonal.  Wavefunctions are implicitly zero
outside the box (hard walls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import Grid, HamiltonianSpec, WaveFunction

__all__ = ["SymTridiagonal", "EigenBasis", "discretize", "eigendecompose", "residual"]

# first eigenvector component larger than this fixes the overall sign
_SIGN_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SymTridiagonal:
    """Real symmetric tridiagonal matrix (diagonal + one off-diagonal)."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if e.shape != (d.size - 1,):
            raise ValueError("off-diagonal must have length N-1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


@dataclass(frozen=True)
class EigenBasis:
    """Lowest-M eigenpairs of one frozen Hamiltonian.

    `vectors` has shape (N, M), one state per column, orthonormal in the
    package metric (dx * sum v_j v_k = delta_jk) and sign-fixed so the first
    component above 1e-8 in magnitude is positive.
    """

    energies: np.ndarray
    vectors: np.ndarray
    source_grid: Grid

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        if vec.shape != (self.source_grid.points, en.size):
            raise ValueError("vectors must have shape (grid points, n states)")
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "vectors", vec)

    @property
    def truncation(self) -> int:
        return self.energies.size

    def frequencies(self, hbar: float) -> np.ndarray:
        return self.energies / hbar

    def state(self, k: int) -> WaveFunction:
        return WaveFunction(self.source_grid, self.vectors[:, k].astype(complex))


def discretize(h: HamiltonianSpec, grid: Grid, t_freeze: float) -> SymTridiagonal:
    """Grid representation of H frozen at t_freeze."""
    return tridiagonal_hamiltonian(h, grid, h.potential_on_grid(grid, t_freeze))


def tridiagonal_hamiltonian(h: HamiltonianSpec, grid: Grid,
                            v: np.ndarray) -> SymTridiagonal:
    """p^2/2m + v on the grid for potential samples v:
    diagonal_i = hbar^2/(m dx^2) + v_i, off-diagonal = -hbar^2/(2 m dx^2)."""
    kin = h.hbar**2 / (h.mass * grid.dx**2)
    off = np.full(grid.points - 1, -0.5 * kin)
    return SymTridiagonal(kin + np.asarray(v, float), off)


def eigendecompose(m: SymTridiagonal, grid: Grid,
                   truncation: int | None = None) -> EigenBasis:
    """Lowest `truncation` eigenpairs (all of them when None).

    Eigenvectors come out l2-normalized from LAPACK and are divided by
    sqrt(dx) so the package inner product gives 1, then sign-fixed for
    reproducibility.
    """
    if grid.points != m.size:
        raise ValueError("grid does not match matrix dimension")
    n = m.size
    if truncation is None or truncation >= n:
        truncation = n
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    try:
        if truncation == n:
            energies, vectors = eigh_tridiagonal(m.diagonal, m.off_diagonal)
        else:
            energies, vectors = eigh_tridiagonal(
                m.diagonal, m.off_diagonal,
                select="i", select_range=(0, truncation - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise RuntimeError("eigensolver did not converge") from exc

    vectors = vectors / np.sqrt(grid.dx)

    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        sig = np.nonzero(np.abs(col) > _SIGN_THRESHOLD)[0]
        lead = col[sig[0]] if sig.size else col[np.argmax(np.abs(col))]
        if lead < 0:
            vectors[:, k] = -col
    return EigenBasis(energies, vectors, grid)


def residual(m: SymTridiagonal, basis: EigenBasis) -> np.ndarray:
    """Per-pair l2 residual ||H v_k - E_k v_k||."""
    if basis.source_grid.points != m.size:
        raise ValueError("basis does not match matrix dimension")
    out = np.empty(basis.truncation)
    for k in range(basis.truncation):
        v = basis.vectors[:, k]
        out[k] = np.linalg.norm(m.matvec(v) - basis.energies[k] * v)
    return out
