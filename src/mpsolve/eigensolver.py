"""Finite-difference discretization of a time-frozen Hamiltonian and its
orthonormal eigenpairs.

The kinetic term uses the standard 3-point stencil on the uniform grid, so
the matrix is real symmetric tridiagonal.  Wavefunctions are implicitly zero
outside the box (hard walls).

A partial basis (truncation < N) comes from one of two paths (Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998).  When the caller passes the
eigenpairs of a nearby matrix, shifted inverse iteration and Rayleigh-Ritz
start there (`_refine`).  Without a usable guess, the cold path (`_cold`)
bisects (LAPACK `dstebz`) only to _BISECTION_TOL = 1e-8 times ||H||,
computes the vectors at those shifts by inverse iteration (`dstein`) and
takes one Rayleigh-Ritz step, which rotates them and supplies the
energies.  The tolerance is no coarser because inverse iteration must
still converge from those shifts: at 1e-6 the residual of an N=512 basis
is 5e-11 ||H||, which fails the residual guard.  Either basis is kept only
if its residual, orthonormality and a Sturm count pass.  If a guard fails
or `dstein` does not converge, full-accuracy `dstebz` bisection and then
`dstein` serve; a full basis comes from `dstevd`.  These are the calls scipy's
`eigh_tridiagonal` makes, so the results are bit-identical to it.

`Sector` is the one parity split of the package: the initial eigenstate
of a run and the sector route of `projection.evolve` use it, on a matrix
that `mirror_symmetric` accepts.  A sector stands in for its grid, with
N/2 points and twice its dx, so `eigendecompose` solves, refines and
guards a sector's matrix as it does any other, and `_finish` fixes each
vector's sign as that of its unfolded state on the whole grid.

The LAPACK routines come from scipy's compiled module
`scipy.linalg._flapack`, loaded from its file at import time.  Importing
the `scipy.linalg` package would also load numpy.f2py, numpy.testing and
more through its array-API layer, which more than doubles the start-up
time of every command.  Where the direct load fails, the same functions
come from `scipy.linalg.lapack`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .core import Grid, HamiltonianSpec, WaveFunction

__all__ = ["SymTridiagonal", "Sector", "EigenBasis", "discretize", "eigendecompose",
           "mirror_symmetric", "residual"]

# first eigenvector component larger than this fixes the overall sign
_SIGN_THRESHOLD = 1e-8

# Guards on a refined or cold partial basis.  Relative to ||H||: the largest
# residual of a unit eigenvector (LAPACK's own is about 2e-13 at
# ||H|| = 1e3), and how far above the highest eigenvalue the Sturm count is
# taken, well above that residual and well below the level spacing.
_RESIDUAL_TOL = 64 * np.finfo(float).eps
# largest asymmetry max |d_i - d_{N-1-i}| of the diagonal, relative to
# ||H||, at which `mirror_symmetric` accepts a matrix
_MIRROR_TOL = _RESIDUAL_TOL / 16
_STURM_MARGIN = 1e-9
_ORTHONORMAL_TOL = 1e-12
# refinement sweeps; one more runs only if the residual guard fails
_SWEEPS = 2
# cold-path bisection tolerance, relative to ||H|| (see the module docstring)
_BISECTION_TOL = 1e-8

_LAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's LAPACK extension module, loaded from its file under its own
    name.  That registers it in sys.modules, so `scipy.linalg`, if imported
    later, takes this module and exports the same function objects.  Raises
    ImportError if the file is not where scipy keeps it."""
    spec = importlib.util.find_spec("scipy")  # imports neither scipy nor scipy.linalg
    folders = spec.submodule_search_locations if spec is not None else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_LAPACK, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_LAPACK, path, loader=loader))
                loader.exec_module(module)
                return module
    raise ImportError("no file for %s" % _LAPACK)


def _lapack_routines(*names: str) -> list:
    """The named double-precision LAPACK wrappers: the very objects
    `scipy.linalg.lapack` exports, from the directly loaded module or, where
    that load fails, from `scipy.linalg.lapack` itself."""
    try:
        module = _load_flapack()
    except ImportError:
        from scipy.linalg import lapack as module
    return [getattr(module, name) for name in names]


dgtsv, dstebz, dstein, dstevd = _lapack_routines("dgtsv", "dstebz", "dstein", "dstevd")


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
        """H v for one vector of shape (N,) or one per column of (N, M)."""
        d, e = self.diagonal, self.off_diagonal
        if np.ndim(v) == 2:
            d, e = d[:, None], e[:, None]
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out


@dataclass(frozen=True)
class Sector:
    """The states v of one parity on a grid of even size N, with h = N/2:
    v[h-1-i] = parity * v[h+i], parity 1.0 (even) or -1.0 (odd).

    With J the reversal of the grid, JHJ = H makes a mirror-symmetric H
    block-diagonal in the even and odd states, two tridiagonal sectors of
    size N/2 (Cantoni and Butler, Linear Algebra Appl. 13:275, 1976): half
    the rows to solve, and a quarter of the Rayleigh-Ritz work.  The
    nodes' rounding leaves the diagonal of an even potential on a
    symmetric grid symmetric only to about 1e-16 ||H||, so a sector's
    matrix is that of the symmetrized diagonal (`matrix`).

    Such a state is carried as its right half v[h:], the centre row first
    and the wall row last: with the centre last, 2 of the 124 shifted
    solves that smooth_ramp's 62 warm refines over 64 slices make meet an
    exactly zero pivot in `dgtsv` at the same shifts, and a refine that
    meets one before its pairs converge falls back to the cold path.
    `dx` is twice the grid's, so the package metric on the half equals the
    grid's on the whole state.  With `points` and `dx` a sector stands in
    for its grid in `eigendecompose`, `EigenBasis`, `WaveFunction` and
    `project`.
    """

    grid: Grid
    parity: float

    def __post_init__(self):
        if self.grid.points % 2:
            raise ValueError("parity sectors need an even number of grid points")

    @property
    def points(self) -> int:
        return self.grid.points // 2

    @property
    def dx(self) -> float:
        return 2.0 * self.grid.dx

    @property
    def name(self) -> str:
        return "even" if self.parity > 0 else "odd"

    def states(self, retained: int) -> int:
        """How many of the lowest `retained` states of a mirror-symmetric
        Hamiltonian with a negative off-diagonal e, as every one of
        `tridiagonal_hamiltonian` has, lie in this sector.  The odd
        sector's matrix is the even one's plus the positive rank-one term
        -2 e[h-1] in its first entry (see `matrix`), so their eigenvalues
        interlace, even_0 <= odd_0 <= even_1 <= ..., and the even sector
        holds ceil(M/2)."""
        return (retained + 1) // 2 if self.parity > 0 else retained // 2

    def fold(self, v: np.ndarray) -> np.ndarray:
        """v[..., h:] + parity * v[..., h-1::-1], along the last axis: twice
        the right half of a state of this parity, and zero for one of the
        other."""
        h = self.points
        return v[..., h:] + self.parity * v[..., h - 1::-1]

    def unfold(self, u: np.ndarray) -> np.ndarray:
        """The whole-grid states whose right halves are u, along the last
        axis, exactly."""
        return np.concatenate((self.parity * u[..., ::-1], u), axis=-1)

    def matrix(self, m: SymTridiagonal) -> SymTridiagonal:
        """The sector's part of the mirror-symmetric part of m: h x h, the
        symmetrized diagonal's right half d_s with d_s[0] + parity * e[h-1]
        in its first entry, and the off-diagonal e[h:]."""
        h = self.points
        d, e = m.diagonal, m.off_diagonal
        diagonal = 0.5 * (d[h:] + d[h - 1::-1])
        diagonal[0] += self.parity * e[h - 1]
        return SymTridiagonal(diagonal, e[h:])


@dataclass(frozen=True)
class EigenBasis:
    """Lowest-M eigenpairs of one frozen Hamiltonian.

    `vectors` has shape (N, M), one state per column, orthonormal in the
    package metric (dx * sum v_j v_k = delta_jk) and sign-fixed so the first
    component above 1e-8 in magnitude is positive.  `origin` says how the
    pairs were obtained (see `eigendecompose`).
    """

    energies: np.ndarray
    vectors: np.ndarray
    source_grid: Grid | Sector
    origin: str = "lapack"

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


def eigendecompose(m: SymTridiagonal, grid: Grid | Sector, truncation: int | None = None,
                   guess: EigenBasis | None = None) -> EigenBasis:
    """Lowest `truncation` eigenpairs (all of them when None).

    Eigenvectors come out l2-normalized and are divided by sqrt(dx) so the
    package inner product gives 1, then sign-fixed for reproducibility.
    `grid` may be a `Sector`, for a matrix that `Sector.matrix` gave.

    `guess`, the eigenpairs of a nearby matrix with the same truncation on
    the same grid or sector, is refined when truncation < N (see
    `_refine`).  The basis records how it was obtained in `origin`:
    "refined", "fallback" (every refinement failed a guard or the guess
    has the wrong shape; the cold result, bit-identical to a call without
    guess) or "lapack" (no guess, or the full basis).  A cold partial basis
    comes from `_cold`, or where that fails from bisection to full accuracy
    and `dstein`; the full basis from `dstevd`.
    """
    if grid.points != m.size:
        raise ValueError("grid does not match matrix dimension")
    n = m.size
    if truncation is None or truncation >= n:
        truncation = n
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    origin = "lapack"
    if truncation == n:
        energies, vectors, info = dstevd(m.diagonal, m.off_diagonal, compute_v=1)
        if info != 0:
            vectors = None
    else:
        if guess is not None:
            refined = _refine(m, grid, guess, truncation)
            if refined is not None:
                return refined
            origin = "fallback"
        cold = _cold(m, grid, truncation, origin)
        if cold is not None:
            return cold
        energies, vectors = _bisect_and_invert(m, truncation, 0.0)
        if vectors is not None:
            order = np.argsort(energies)
            energies, vectors = energies[order], vectors[:, order]
    if vectors is None:  # pragma: no cover - LAPACK failure is exotic
        raise RuntimeError("eigensolver did not converge")
    return _finish(energies, vectors, grid, origin)


def _finish(energies: np.ndarray, vectors: np.ndarray, grid: Grid | Sector,
            origin: str) -> EigenBasis:
    """Basis from l2-normalized eigenvectors: rescaled to the package
    metric, and each column negated if its first component above
    _SIGN_THRESHOLD (its largest one if none is) is negative.  The
    components are counted from the grid's left wall, so on a sector, whose
    rows mirror the left half, from its last row, times its parity."""
    vectors = vectors / np.sqrt(grid.dx)
    view, parity = (vectors[::-1], grid.parity) if isinstance(grid, Sector) else (vectors, 1)
    big = np.abs(view) > _SIGN_THRESHOLD
    lead = np.where(big.any(axis=0), big.argmax(axis=0), np.abs(view).argmax(axis=0))
    vectors *= np.where(parity * view[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return EigenBasis(energies, vectors, grid, origin)


def _refine(m: SymTridiagonal, grid: Grid | Sector, guess: EigenBasis,
            truncation: int) -> EigenBasis | None:
    """Lowest `truncation` eigenpairs of m refined from `guess` by `_sweeps`
    on all of m's rows, or None.

    The result is kept only if every residual is <= _RESIDUAL_TOL * ||H||,
    the vectors are orthonormal to _ORTHONORMAL_TOL and exactly
    `truncation` eigenvalues lie below the highest refined one plus
    _STURM_MARGIN * ||H||.
    """
    if guess.vectors.shape != (m.size, truncation):
        return None
    h_norm = _norm_bound(m)
    refined = _sweeps(m, guess.vectors.T, _RESIDUAL_TOL * h_norm)
    if refined is None:
        return None
    basis = _finish(refined[0], refined[1].T, grid, "refined")
    return basis if _orthonormal_and_lowest(m, basis, h_norm) else None


def _sweeps(m: SymTridiagonal, v: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs (theta, rows) of m refined from the rows of v, with unit
    rows, or None if a solve fails or a residual stays above `tol`.

    Each sweep solves (H - s_k) y_k = v_k for all rows in one
    `_shifted_solve`, with s_k the current Rayleigh quotient (v's, with this
    H, at the start).  As H y_k = v_k + s_k y_k, the Rayleigh quotients and
    the Ritz matrix Y H Y^T need no matvec.  The first sweep is
    Rayleigh-quotient iteration; the later ones do Rayleigh-Ritz on the span
    of the y_k, and one more than _SWEEPS runs only if the residual
    ||H v_k - theta_k v_k|| exceeds `tol`.  A shift that has converged to an
    eigenvalue can make a later solve singular; the pairs are then kept if
    their residual already passes `tol`.
    """
    theta = np.einsum("ij,ji->i", v, m.matvec(v.T)) / np.einsum("ij,ij->i", v, v)
    for sweep in range(_SWEEPS + 1):
        y = _shifted_solve(m, theta, v)
        if y is None:
            return (theta, v) if sweep and _passes(m, theta, v, tol) else None
        scale = 1.0 / np.linalg.norm(y, axis=1)[:, None]
        y *= scale
        hy = v * scale  # H y_k - s_k y_k
        if sweep == 0:
            theta, v = theta + np.einsum("ij,ij->i", y, hy), y
            continue
        # Rayleigh-Ritz, eigh(Y H Y^T, Y Y^T) by Cholesky reduction.  numpy
        # only: scipy's LAPACK runs on a second OpenBLAS thread pool, and
        # alternating between two multi-threaded pools triples the cost.
        gram = y @ y.T
        ritz = y @ hy.T + gram * theta
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            return None
        theta, z = np.linalg.eigh(l_inv @ (0.5 * (ritz + ritz.T)) @ l_inv.T)
        v = (l_inv.T @ z).T @ y
        if _passes(m, theta, v, tol):
            return theta, v
    return None


def _passes(m: SymTridiagonal, theta: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """Whether every residual ||H v_k - theta_k v_k|| is <= tol."""
    return np.linalg.norm(m.matvec(v.T) - v.T * theta, axis=0).max() <= tol


def mirror_symmetric(m: SymTridiagonal) -> bool:
    """Whether m splits into the two parity sectors of `Sector`: N is even,
    the off-diagonal is exactly mirror-symmetric and the diagonal's
    asymmetry max |d_i - d_{N-1-i}| is at most _MIRROR_TOL * ||H||."""
    d, e = m.diagonal, m.off_diagonal
    return bool(m.size % 2 == 0 and np.array_equal(e, e[::-1])
                and np.abs(d - d[::-1]).max() <= _MIRROR_TOL * _norm_bound(m))


def _cold(m: SymTridiagonal, grid: Grid | Sector, truncation: int,
          origin: str) -> EigenBasis | None:
    """Lowest `truncation` eigenpairs of m without a guess, or None.

    `dstebz` brackets the eigenvalues to _BISECTION_TOL * ||H||, `dstein`
    computes unit vectors Z at those shifts, and the Rayleigh-Ritz step
    eigh(Z^T H Z) = Q diag(theta) Q^T gives the pairs (theta, Z Q).  The
    residual (H Z) Q - Z Q diag(theta) reuses H Z.  The basis is kept under
    the same guards as `_refine`'s.
    """
    h_norm = _norm_bound(m)
    _, z = _bisect_and_invert(m, truncation, _BISECTION_TOL * h_norm)
    if z is None or not np.all(np.isfinite(z)):
        return None
    hz = m.matvec(z)
    ritz = z.T @ hz
    theta, q = np.linalg.eigh(0.5 * (ritz + ritz.T))
    # Z Q as (Q^T Z^T)^T keeps dstein's Fortran order, along which _finish
    # reduces each column without a copy; with each N x M array rebound as
    # soon as it is replaced, at most three are alive, as on the
    # full-accuracy path
    z = (q.T @ z.T).T
    hz = (q.T @ hz.T).T
    hz -= z * theta
    if np.einsum("ij,ij->j", hz, hz).max() > (_RESIDUAL_TOL * h_norm) ** 2:
        return None
    del hz
    basis = _finish(theta, z, grid, origin)
    return basis if _orthonormal_and_lowest(m, basis, h_norm) else None


def _bisect_and_invert(m: SymTridiagonal, truncation: int,
                       tol: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The lowest `truncation` eigenvalues of m, bisected by `dstebz` to the
    absolute tolerance `tol` (0: full accuracy) in block order, and unit
    eigenvectors at them by `dstein`, or None for the vectors if either
    routine fails."""
    d, e = m.diagonal, m.off_diagonal
    count, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, 1, truncation, tol, "B")
    w = w[:count]
    if info != 0 or count != truncation:
        return w, None
    z, info = dstein(d, e, w, block, split)
    return w, (z if info == 0 else None)


def _orthonormal_and_lowest(m: SymTridiagonal, basis: EigenBasis, h_norm: float) -> bool:
    """Whether a basis passes the guards `_refine` and `_cold` share: its
    vectors are orthonormal to _ORTHONORMAL_TOL, and exactly
    `basis.truncation` eigenvalues of m lie below its highest energy plus
    _STURM_MARGIN * ||H||."""
    gram = basis.source_grid.dx * (basis.vectors.T @ basis.vectors)
    if np.abs(gram - np.eye(basis.truncation)).max() > _ORTHONORMAL_TOL:
        return False
    return _count_below(m, basis.energies[-1] + _STURM_MARGIN * h_norm) == basis.truncation


def _norm_bound(m: SymTridiagonal) -> float:
    """max |d| + 2 max |e|, an upper bound on ||H||_2."""
    return np.abs(m.diagonal).max() + 2 * np.abs(m.off_diagonal).max(initial=0.0)


def _shifted_solve(m: SymTridiagonal, shifts: np.ndarray,
                   rows: np.ndarray) -> np.ndarray | None:
    """Rows y_k solving (H - shifts[k]) y_k = rows[k], or None if a system is
    singular or a result not finite.  All of them are one dgtsv call on the
    block-diagonal matrix diag(H - shifts[0], H - shifts[1], ...): the zero
    off-diagonal between blocks makes each block's result bit-identical to
    its own call.  dgtsv overwrites only copies."""
    k, n = rows.shape
    off = np.zeros((k, n))
    off[:, :-1] = m.off_diagonal
    off = off.ravel()[:-1]
    diag = (m.diagonal - shifts[:, None]).ravel()
    _, _, _, y, info = dgtsv(off, diag, off, rows.reshape(-1, 1), overwrite_d=1)
    if info != 0 or not np.all(np.isfinite(y)):
        return None
    return y.reshape(k, n)


def _count_below(m: SymTridiagonal, s: float) -> int:
    """Number of eigenvalues below s (Sturm count): one LAPACK dstebz call
    on (-2 ||H|| - 1, s], with a tolerance as wide as that interval because
    only the count is wanted, not the eigenvalues."""
    lo = -1.0 - 2.0 * _norm_bound(m)
    if not s > lo:
        return 0
    e = m.off_diagonal if m.size > 1 else np.zeros(1)  # the wrapper wants >= 1
    count, *_ = dstebz(m.diagonal, e, 1, lo, s, 0, 0, s - lo, "B")
    return count


def residual(m: SymTridiagonal, basis: EigenBasis) -> np.ndarray:
    """Per-pair l2 residual ||H v_k - E_k v_k||."""
    if basis.source_grid.points != m.size:
        raise ValueError("basis does not match matrix dimension")
    return np.linalg.norm(m.matvec(basis.vectors) - basis.vectors * basis.energies, axis=0)
