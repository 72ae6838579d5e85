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

A warm refine of a mirror-symmetric matrix runs on half the grid.  With J
the reversal of the grid, JHJ = H makes H block-diagonal in the even and
odd vectors, two tridiagonal sectors of size N/2 (Cantoni and Butler,
Linear Algebra Appl. 13:275, 1976): half the rows to solve, and a quarter
of the Rayleigh-Ritz work.  Every bundled potential is even in x on a
symmetric grid, but the nodes' rounding leaves the diagonal symmetric only
to about 1e-16 ||H||, so the sectors (`_parity_sectors`) are those of the
symmetrized diagonal, and are taken when N is even, the off-diagonal is
exactly mirror-symmetric and the diagonal's asymmetry is at most
_MIRROR_TOL = _RESIDUAL_TOL / 16 times ||H||.  Each sector holds its
centre row first and its wall row last: with the centre last, 4 of the
63 warm refines of smooth_ramp over 64 slices met an exactly zero pivot
in `dgtsv` and were redone on the whole grid.
The two sectors' eigenvalues interlace, so the lowest M states take
ceil(M/2) from the lower one and floor(M/2) from the other
(`_refine_sectors`).  The sector guards bound the whole-grid ones: the
residual tolerance is reduced by the asymmetry's norm bound, and unfolding
to the full grid keeps orthonormality and Sturm counts.  A matrix that is
not mirror-symmetric, or whose sectors fail a guard, is refined on the
whole grid as before.

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

__all__ = ["SymTridiagonal", "EigenBasis", "discretize", "eigendecompose", "residual"]

# first eigenvector component larger than this fixes the overall sign
_SIGN_THRESHOLD = 1e-8

# Guards on a refined or cold partial basis.  Relative to ||H||: the largest
# residual of a unit eigenvector (LAPACK's own is about 2e-13 at
# ||H|| = 1e3), and how far above the highest eigenvalue the Sturm count is
# taken, well above that residual and well below the level spacing.
_RESIDUAL_TOL = 64 * np.finfo(float).eps
# largest asymmetry max |d_i - d_{N-1-i}| of the diagonal, relative to
# ||H||, at which a warm refine runs on the two parity sectors
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
class EigenBasis:
    """Lowest-M eigenpairs of one frozen Hamiltonian.

    `vectors` has shape (N, M), one state per column, orthonormal in the
    package metric (dx * sum v_j v_k = delta_jk) and sign-fixed so the first
    component above 1e-8 in magnitude is positive.  `origin` says how the
    pairs were obtained (see `eigendecompose`).
    """

    energies: np.ndarray
    vectors: np.ndarray
    source_grid: Grid
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


def eigendecompose(m: SymTridiagonal, grid: Grid, truncation: int | None = None,
                   guess: EigenBasis | None = None) -> EigenBasis:
    """Lowest `truncation` eigenpairs (all of them when None).

    Eigenvectors come out l2-normalized and are divided by sqrt(dx) so the
    package inner product gives 1, then sign-fixed for reproducibility.

    `guess`, the eigenpairs of a nearby matrix with the same truncation, is
    refined when truncation < N (see `_refine`): on the matrix's two
    parity sectors of size N/2 when N is even and the matrix is
    mirror-symmetric to within _MIRROR_TOL * ||H|| (see the module
    docstring), and on the whole grid otherwise or if that fails.  The
    sector route keeps the whole grid's guards, the sign convention and
    the energy order.  The basis records how it was obtained in `origin`:
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


def _finish(energies: np.ndarray, vectors: np.ndarray, grid: Grid,
            origin: str) -> EigenBasis:
    """Basis from l2-normalized eigenvectors: rescaled to the package
    metric, and each column negated if its first component above
    _SIGN_THRESHOLD (its largest one if none is) is negative."""
    vectors = vectors / np.sqrt(grid.dx)
    big = np.abs(vectors) > _SIGN_THRESHOLD
    lead = np.where(big.any(axis=0), big.argmax(axis=0), np.abs(vectors).argmax(axis=0))
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return EigenBasis(energies, vectors, grid, origin)


def _refine(m: SymTridiagonal, grid: Grid, guess: EigenBasis,
            truncation: int) -> EigenBasis | None:
    """Lowest `truncation` eigenpairs of m refined from `guess`, or None.

    A mirror-symmetric m is refined on its two parity sectors first
    (`_refine_sectors`); if m is not mirror-symmetric or that fails a guard,
    the guess is refined on the whole grid by `_sweeps`.  The result is kept
    only if every residual is <= _RESIDUAL_TOL * ||H||, the vectors are
    orthonormal to _ORTHONORMAL_TOL and exactly `truncation` eigenvalues lie
    below the highest refined one plus _STURM_MARGIN * ||H||.
    """
    if guess.vectors.shape != (m.size, truncation):
        return None
    h_norm = _norm_bound(m)
    basis = _refine_sectors(m, grid, guess.vectors.T, h_norm)
    if basis is not None:
        return basis
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


def _parity_sectors(m: SymTridiagonal, h_norm: float
                    ) -> tuple[SymTridiagonal, SymTridiagonal, float, float] | None:
    """The parity sectors of a mirror-symmetric m, or None if N is odd, the
    off-diagonal is not exactly mirror-symmetric or the diagonal's asymmetry
    max |d_i - d_{N-1-i}| exceeds _MIRROR_TOL * ||H||.

    Returns (lower, upper, sign, asym).  With h = N/2 and the symmetrized
    diagonal's right half d_s, both sectors are h x h with off-diagonal
    e[h:], the centre row first and the wall last; `lower` holds vectors
    u = v[h:] + sign * v[h-1::-1] and has d_s[0] + sign * e[h-1] in its
    first entry, `upper` the other parity and d_s[0] - sign * e[h-1].  The
    sign makes `lower` the sector with the smaller first entry: `upper` is
    `lower` plus a positive rank-one term, so their eigenvalues interlace,
    l_0 <= u_0 <= l_1 <= u_1 <= ..., and the lowest M states of m take
    ceil(M/2) from `lower` and floor(M/2) from `upper`.
    """
    n = m.size
    if n % 2:
        return None
    h = n // 2
    d, e = m.diagonal, m.off_diagonal
    asym = np.abs(d - d[::-1]).max()
    if asym > _MIRROR_TOL * h_norm or not np.array_equal(e, e[::-1]):
        return None
    sign = 1.0 if e[h - 1] <= 0 else -1.0
    half = 0.5 * (d[h:] + d[h - 1::-1])
    lower, upper = half.copy(), half
    lower[0] += sign * e[h - 1]
    upper[0] -= sign * e[h - 1]
    return SymTridiagonal(lower, e[h:]), SymTridiagonal(upper, e[h:]), sign, asym


def _refine_sectors(m: SymTridiagonal, grid: Grid, v: np.ndarray,
                    h_norm: float) -> EigenBasis | None:
    """The lowest states of m, one per row of the guess v, refined on the
    parity sectors that `_parity_sectors` gives, or None if m has none or a
    sector fails its guards.

    The guess's rows 0, 2, ... fold into `lower` and rows 1, 3, ... into
    `upper`, and `_sweeps` refines each sector on N/2 rows.  The sectors are
    those of the mirror-symmetric part H_s of H, and ||H - H_s|| <= asym/2,
    so a sector residual below _RESIDUAL_TOL * ||H|| - asym/2 keeps the
    residual with H itself below _RESIDUAL_TOL * ||H||.  Unfolding is
    orthogonal, so each sector's rows must be orthonormal to
    _ORTHONORMAL_TOL; and each sector's Sturm count at the highest refined
    energy of both plus _STURM_MARGIN * ||H|| must equal its number of
    states, so the two together are H_s's lowest.  H's eigenvalues lie
    within asym/2 of H_s's, far inside that margin.  The unfolded states
    alternate between the sectors, which keeps them in ascending order
    because the sectors' eigenvalues interlace.
    """
    sectors = _parity_sectors(m, h_norm)
    if sectors is None:
        return None
    lower, upper, sign, asym = sectors
    n = m.size
    h = n // 2
    tol = _RESIDUAL_TOL * h_norm - 0.5 * asym
    refined = []
    for sector, rows, fold in ((lower, v[0::2], sign), (upper, v[1::2], -sign)):
        if rows.shape[0] == 0:  # one state: the upper sector holds none
            refined.append((np.empty(0), np.empty((0, h))))
            continue
        pairs = _sweeps(sector, rows[:, h:] + fold * rows[:, h - 1::-1], tol)
        if pairs is None:
            return None
        refined.append(pairs)
    shift = max(theta.max(initial=-np.inf) for theta, _ in refined) + _STURM_MARGIN * h_norm
    for sector, (theta, u) in zip((lower, upper), refined):
        if (np.abs(u @ u.T - np.eye(theta.size)).max(initial=0.0) > _ORTHONORMAL_TOL
                or _count_below(sector, shift) != theta.size):
            return None
    (theta_l, u_l), (theta_u, u_u) = refined
    energies = np.empty(v.shape[0])
    energies[0::2], energies[1::2] = theta_l, theta_u
    unfolded = np.empty((v.shape[0], n))
    unfolded[0::2, h:], unfolded[0::2, :h] = u_l, sign * u_l[:, ::-1]
    unfolded[1::2, h:], unfolded[1::2, :h] = u_u, -sign * u_u[:, ::-1]
    unfolded *= np.sqrt(0.5)
    return _finish(energies, unfolded.T, grid, "refined")


def _cold(m: SymTridiagonal, grid: Grid, truncation: int,
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
