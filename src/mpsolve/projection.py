"""Piecewise-constant time evolution by projection between intermediate
eigenbases.

Each time slice is applied as one or more frozen-Hamiltonian factors.  In
a factor's eigenbasis exp(-i H dt / hbar) only multiplies every component
by the phase exp(-i E_k dt / hbar), so the state is carried as its
coefficients in the current basis: a factor that reuses the basis applies
the phases and nothing else, and only a change of basis rebuilds the state
on the grid and projects it onto the new basis.  With the full basis this
is an exact application of exp(-i H dt / hbar) for the discretized system;
truncation silently drops population at each change of basis (reported
through the per-slice norm, never renormalized).  The norm and the energy
of each slice come from the coefficients: sum |C_k|^2 and
sum E_k |C_k|^2 / sum |C_k|^2.

Two schemes choose the factors, both from the first two Legendre moments
of V over the slice, m0 = (1/dt) int V and d = (4/dt^2) int (t - t_mid) V.
Every supported V is linear in t between its breakpoints, so two-point
Gauss-Legendre on each piece between them gives both exactly;
`PotentialSpec.moments` takes them from V's own form (S's moments times
k x^2 / 2, or weighted sums of sample rows) without forming V on the grid
at the Gauss times.  "average"
(the paper's step) freezes H to m0, its exact time average over the slice:
the exponential midpoint rule, second order in the slice width.  "cfm4" is
the fourth-order commutator-free Magnus scheme (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470:151, 2009; Alvermann & Fehske, J. Comput. Phys. 230:5930,
2011): two half-width factors with potentials m0 - d and m0 + d.

A state of one parity stays in it under a mirror-symmetric H, so `evolve`
carries it on half the grid.  The route is taken once per run, when one
parity part of psi0 is exactly zero and V is mirror-symmetric on the grid
at every t, judged from V's form by the rule the warm refine applies to a
matrix (`evolution_sector`).  The state then lives in the parity sector of
N/2 rows, with ceil(M/2) even or floor(M/2) odd states, and the other
parity's coefficients are exactly 0.0.  The sector evolves the symmetrized
diagonal, within asym/2, about 1e-16 ||H||, of H itself.  Every bundled
`run` and `converge` starts in an eigenstate solved on its sector, and so
takes the route.  compare-dirac does not: its initial state is a column of
the whole grid's basis that also builds the amplitude equations, and its
odd part, about 1e-15, is not zero.  It stays there on purpose: its
multi-projection and RK4 amplitudes agree to rounding (5.15e-15 on
dirac_weak), and the benchmark reads that rounding as its accuracy with a
relative bound only, which a sector route moved to 1.57e-14.  It can move
once that metric has an absolute floor (ROADMAP.md, item 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (Grid, HamiltonianSpec, PotentialSpec, WaveFunction, inner_product,
                   norm_squared)
from .eigensolver import (EigenBasis, Sector, SymTridiagonal, eigendecompose, mirror_symmetric,
                          tridiagonal_hamiltonian)

__all__ = [
    "ProjectionStepReport",
    "EvolutionResult",
    "slice_boundaries",
    "project",
    "reconstruct",
    "intermediate_energy",
    "evolution_sector",
    "evolve",
]

SCHEMES = ("average", "cfm4")


@dataclass(frozen=True)
class ProjectionStepReport:
    slice_index: int
    t_end: float
    coefficients: np.ndarray
    norm_squared: float
    energy: float
    basis_refreshed: bool


@dataclass(frozen=True)
class EvolutionResult:
    """`eigensolves` counts how each factor (one per slice under "average",
    two under "cfm4") got its basis: "reused" (same matrix as the factor
    before), "refined" (warm start accepted) or "lapack" (cold solve or
    fallback); "fallbacks" counts the rejected warm starts among the
    "lapack" ones.  `eigensolve_s` is the wall time spent in those
    `eigendecompose` calls, and `project_s` the wall time spent carrying the
    state into each new basis and back onto the grid (`project` and
    `_rebuild`).  `parity` names the sector the state was carried on,
    "even" or "odd", or is None where it was carried on the whole grid (see
    `evolve`)."""

    final_state: WaveFunction
    reports: tuple[ProjectionStepReport, ...]
    eigensolves: dict[str, int] = field(default_factory=dict)
    eigensolve_s: float = 0.0
    project_s: float = 0.0
    parity: str | None = None


def slice_boundaries(potential: PotentialSpec, t0: float, t1: float,
                     slices: int) -> np.ndarray:
    """The boundaries `evolve` cuts [t0, t1] into: `slices` uniform slices,
    plus every jump of the potential's scale profile strictly inside
    (t0, t1) that is more than 1e-12 from every boundary already there.  A
    frozen slice is exact only where V does not jump inside it.  ValueError
    unless the boundaries strictly increase."""
    if slices < 1:
        raise ValueError("need at least one slice")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    bounds = np.linspace(t0, t1, slices + 1)
    for tc in potential.profile.discontinuities():
        if t0 < tc < t1 and not np.any(np.abs(bounds - tc) <= 1e-12):
            bounds = np.append(bounds, tc)
    bounds.sort()
    if np.any(np.diff(bounds) <= 0):
        raise ValueError("slice boundaries must be strictly increasing: %d slices "
                         "do not fit in [%r, %r]" % (slices, t0, t1))
    return bounds


def project(psi: WaveFunction, basis: EigenBasis) -> np.ndarray:
    """Coefficients C_k = <k|psi> in the package inner product.

    The basis is real, so this is dx * (V^T @ a2) with a2 the amplitudes
    viewed as a real (N, 2) array of (re, im): one real matrix product, no
    complex copy of V."""
    if psi.grid != basis.source_grid:
        raise ValueError("incompatible grids")
    pairs = psi.grid.dx * (basis.vectors.T @ _as_pairs(psi.amplitudes))
    return pairs.view(complex)[:, 0]


def reconstruct(coefficients: np.ndarray, basis: EigenBasis) -> WaveFunction:
    """Sum_k C_k |k> back on the grid, computed as V @ c2 with c2 the
    coefficients viewed as a real (M, 2) array of (re, im)."""
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (basis.truncation,):
        raise ValueError("coefficient vector does not match basis size")
    pairs = basis.vectors @ _as_pairs(c)
    return WaveFunction(basis.source_grid, pairs.view(complex)[:, 0])


def _as_pairs(z: np.ndarray) -> np.ndarray:
    """A complex vector as a real (n, 2) array of (re, im), copied only if
    it is not contiguous."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(z.size, 2)


def intermediate_energy(psi: WaveFunction, m: SymTridiagonal) -> float:
    """<psi|H|psi> / <psi|psi> in the package inner product."""
    if psi.grid.points != m.size:
        raise ValueError("state does not match matrix dimension")
    nsq = norm_squared(psi)
    if nsq == 0.0:
        raise ValueError("zero-norm state has no energy expectation")
    h_psi = WaveFunction(psi.grid, m.matvec(psi.amplitudes))
    return inner_product(psi, h_psi).real / nsq


def _slice_factors(h: HamiltonianSpec, grid: Grid, t_a: float, t_b: float,
                   scheme: str) -> list[tuple[SymTridiagonal, float]]:
    """The (matrix, share of the slice width) factors that carry a state
    across [t_a, t_b], in the order they are applied: m0 under "average",
    m0 - d and m0 + d under "cfm4".  Where V is constant over the slice
    d == 0, so both cfm4 factors share one basis."""
    m0, d = h.potential.moments(grid.x, t_a, t_b)
    if scheme == "average":
        return [(tridiagonal_hamiltonian(h, grid, m0), 1.0)]
    return [(tridiagonal_hamiltonian(h, grid, m0 - d), 0.5),
            (tridiagonal_hamiltonian(h, grid, m0 + d), 0.5)]


def evolution_sector(psi0: WaveFunction, h: HamiltonianSpec) -> Sector | None:
    """The parity sector `evolve` carries psi0 on, or None for the whole
    grid.

    A sector is taken when one parity part of psi0 is exactly zero (so the
    grid has an even number of points) and every one of V's
    `PotentialSpec.extremes`, the rows whose convex combinations give V at
    every t, makes a matrix that `mirror_symmetric` accepts.  The asymmetry
    of a convex combination is at most the larger of its two rows', so V is
    then mirror-symmetric on the grid at every t.
    """
    grid = psi0.grid
    if grid.points % 2:
        return None
    for parity in (1.0, -1.0):
        if not np.any(Sector(grid, -parity).fold(psi0.amplitudes)):
            break
    else:
        return None
    if all(mirror_symmetric(tridiagonal_hamiltonian(h, grid, v))
           for v in h.potential.extremes(grid.x)):
        return Sector(grid, parity)
    return None


def evolve(psi0: WaveFunction, h: HamiltonianSpec, t0: float, t1: float, slices: int,
           truncation: int | None = None,
           scheme: str = "average") -> EvolutionResult:
    """Run the projection cascade from t0 to t1 over the slices that
    `slice_boundaries` gives: `slices` uniform ones, cut again at every jump
    of V.

    `scheme` "average" applies each slice as one factor, the Hamiltonian's
    exact time average over the slice; "cfm4" applies it as two half-width
    factors built from the slice's exact first two moments of V.  A factor whose matrix
    equals the previous factor's reuses its eigenpairs and only multiplies
    the coefficients by its phases, computed once per step width in each
    basis; any other factor is solved anew,
    warm-started from the previous factor's eigenpairs, and the state is
    rebuilt on the grid in the old basis and projected onto the new one, so
    at most two bases are held.  `project` runs once per change of basis and
    `reconstruct` once per change of basis after the first and once for the
    final state.  A potential without breakpoints does not depend on t, so
    its factors are built once for the whole run.

    Where `evolution_sector` finds one, the state is carried on its parity
    sector: psi0 is folded once onto its right half, N/2 rows, and each
    factor's matrix onto the sector (`Sector.matrix`), whose lowest
    ceil(M/2) even or floor(M/2) odd states are the ones of the lowest M of
    the whole grid's that psi0 can reach (`Sector.states`).  The same loop
    then solves, refines, projects and applies phases on the sector, and
    only the final state is unfolded onto the grid, exactly mirror-symmetric
    or antisymmetric.  The sector's matrix has the symmetrized diagonal,
    within asym/2 of H, about 1e-16 ||H|| on every bundled potential.  The
    reports still hold M coefficients in the whole grid's order, the
    sector's at every second index from 0 (even) or 1 (odd) and exactly 0.0
    at the others.  ValueError if the sector holds none of the M states
    (an odd psi0 with M = 1).
    Any other psi0, compare-dirac's among them (see the module docstring),
    is carried on the whole grid.

    Returns per-slice reports with the coefficients (phases applied), the
    norm sum |C_k|^2 and the energy sum E_k |C_k|^2 / sum |C_k|^2 at the
    end of the slice.  For the rebuilt state psi = V C these equal <psi|psi>
    and <psi|H|psi> / <psi|psi> to within the eigensolver's residual and
    orthonormality guards.  A cfm4 slice reports the coefficients in its
    last factor's basis and the energy under its last factor's matrix, and
    counts as refreshed if either factor was solved anew.
    """
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme %r" % scheme)
    grid = psi0.grid
    state = psi0
    if not np.all(np.isfinite(state.amplitudes)):
        raise ValueError("non-finite state")
    sector = evolution_sector(psi0, h)
    if sector is not None:
        retained = grid.points if truncation is None else min(truncation, grid.points)
        truncation = sector.states(retained)
        if truncation == 0 and retained > 0:  # below 1, eigendecompose says so
            raise ValueError("zero-norm state: psi0 is odd and the one retained state "
                             "even")
        state = WaveFunction(sector, 0.5 * sector.fold(psi0.amplitudes))
        full = np.zeros(retained, dtype=complex)
        first = 0 if sector.parity > 0 else 1

    def factors(t_a: float, t_b: float) -> list[tuple[SymTridiagonal, float]]:
        pairs = _slice_factors(h, grid, t_a, t_b, scheme)
        return pairs if sector is None else [(sector.matrix(m), w) for m, w in pairs]

    diagonal = basis = coeffs = None
    phases = {}  # step width -> exp(-i E dt / hbar) in the current basis
    counts = dict.fromkeys(("reused", "refined", "lapack", "fallbacks"), 0)
    eigensolve_s = project_s = 0.0
    reports = []
    bounds = slice_boundaries(h.potential, t0, t1, slices)
    # V without breakpoints does not depend on t (every kind that does has
    # some), so every slice has the first slice's factors
    static = factors(bounds[0], bounds[1]) if h.potential.breakpoints().size == 0 else None
    for j in range(bounds.size - 1):
        refreshed = False
        width = bounds[j + 1] - bounds[j]
        for matrix, share in static or factors(bounds[j], bounds[j + 1]):
            dt = share * width
            # only the diagonal depends on the time; a static V's factors
            # hold the very diagonal already solved
            if diagonal is None or (matrix.diagonal is not diagonal
                                    and not np.array_equal(matrix.diagonal, diagonal)):
                tick = time.perf_counter()
                if basis is not None:
                    state = _rebuild(coeffs, basis, j)
                project_s += time.perf_counter() - tick
                tick = time.perf_counter()
                try:
                    basis = eigendecompose(matrix, state.grid, truncation, guess=basis)
                except RuntimeError as exc:
                    raise RuntimeError("eigensolver failed at slice %d" % j) from exc
                eigensolve_s += time.perf_counter() - tick
                diagonal = matrix.diagonal
                phases.clear()
                refreshed = True
                counts["refined" if basis.origin == "refined" else "lapack"] += 1
                counts["fallbacks"] += basis.origin == "fallback"
                tick = time.perf_counter()
                coeffs = project(state, basis)
                project_s += time.perf_counter() - tick
            else:
                counts["reused"] += 1
            phase = phases.get(dt)
            if phase is None:
                phase = phases[dt] = np.exp(-1j * basis.energies * dt / h.hbar)
            coeffs = coeffs * phase
            if not np.all(np.isfinite(coeffs)):
                raise RuntimeError("non-finite state at slice %d" % j)

        weights = coeffs.real ** 2 + coeffs.imag ** 2
        nsq = float(weights.sum())
        if nsq == 0.0:
            raise ValueError("zero-norm state has no energy expectation")
        if sector is not None:
            full[first::2] = coeffs
        reports.append(ProjectionStepReport(
            slice_index=j,
            t_end=float(bounds[j + 1]),
            coefficients=coeffs if sector is None else full.copy(),
            norm_squared=nsq,
            energy=float(basis.energies @ weights) / nsq,
            basis_refreshed=refreshed,
        ))

    tick = time.perf_counter()
    state = _rebuild(coeffs, basis, bounds.size - 2)
    if sector is not None:
        state = WaveFunction(grid, sector.unfold(state.amplitudes))
    project_s += time.perf_counter() - tick
    return EvolutionResult(final_state=state, reports=tuple(reports),
                           eigensolves=counts, eigensolve_s=eigensolve_s,
                           project_s=project_s,
                           parity=None if sector is None else sector.name)


def _rebuild(coeffs: np.ndarray, basis: EigenBasis, j: int) -> WaveFunction:
    """The state V C on the grid, checked to be finite; j is the slice a
    failure is reported at."""
    state = reconstruct(coeffs, basis)
    if not np.all(np.isfinite(state.amplitudes)):
        raise RuntimeError("non-finite state at slice %d" % j)
    return state
