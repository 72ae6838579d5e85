"""Piecewise-constant time evolution by projection between intermediate
eigenbases.

Each time slice freezes the Hamiltonian to its time average, the state is
projected onto that Hamiltonian's eigenbasis, every component picks up the
phase exp(-i E_k dt / hbar), and the state is rebuilt on the grid.  With the
full basis this is an exact application of exp(-i H dt / hbar) for the
discretized system; truncation silently drops population (reported through
the per-slice norm, never renormalized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, HamiltonianSpec, ScaleProfile, WaveFunction, inner_product, norm_squared
from .eigensolver import EigenBasis, SymTridiagonal, eigendecompose, tridiagonal_hamiltonian

__all__ = [
    "SliceSchedule",
    "ProjectionStepReport",
    "EvolutionResult",
    "build_schedule",
    "stepwise_hamiltonian",
    "project",
    "reconstruct",
    "intermediate_energy",
    "evolve",
]

AVERAGING_MODES = ("integral", "midpoint_endpoint_mean")


@dataclass(frozen=True)
class SliceSchedule:
    """Partition of [t0, t1] into slices, plus the averaging mode used to
    freeze the Hamiltonian on each slice."""

    boundaries: np.ndarray
    averaging: str = "integral"

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("schedule needs at least two boundaries")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if self.averaging not in AVERAGING_MODES:
            raise ValueError("unknown averaging mode %r" % self.averaging)
        object.__setattr__(self, "boundaries", b)

    @property
    def t0(self) -> float:
        return float(self.boundaries[0])

    @property
    def t1(self) -> float:
        return float(self.boundaries[-1])

    @property
    def slices(self) -> int:
        return self.boundaries.size - 1


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
    final_state: WaveFunction
    reports: tuple[ProjectionStepReport, ...]
    final_basis: EigenBasis | None = None
    final_coefficients: np.ndarray | None = None


def build_schedule(t0: float, t1: float, slices: int,
                   profile: ScaleProfile | None = None,
                   averaging: str = "integral") -> SliceSchedule:
    """Uniform boundaries with every profile discontinuity in (t0, t1)
    inserted as an extra boundary (no duplicates)."""
    if slices < 1:
        raise ValueError("need at least one slice")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    bounds = list(np.linspace(t0, t1, slices + 1))
    if profile is not None:
        for tc in profile.discontinuities():
            if t0 < tc < t1 and not any(abs(tc - b) <= 1e-12 for b in bounds):
                bounds.append(tc)
    return SliceSchedule(np.array(sorted(bounds)), averaging)


def stepwise_hamiltonian(h: HamiltonianSpec, grid: Grid, t_a: float, t_b: float,
                         averaging: str = "integral") -> SymTridiagonal:
    """Tridiagonal matrix of the Hamiltonian time-averaged over [t_a, t_b].

    midpoint_endpoint_mean: arithmetic mean of the two endpoint potentials.
    integral: the slice is cut at the potential's breakpoints inside it and
    each piece contributes its midpoint value weighted by its length.  Every
    supported potential is linear in t between breakpoints, so this is the
    exact time average; a slice without breakpoints gets weight exactly 1.
    """
    if not t_a < t_b:
        raise ValueError("slice requires t_a < t_b")
    if averaging not in AVERAGING_MODES:
        raise ValueError("unknown averaging mode %r" % averaging)
    if averaging == "midpoint_endpoint_mean":
        v = 0.5 * (h.potential_on_grid(grid, t_a) + h.potential_on_grid(grid, t_b))
    else:
        knots = h.potential.breakpoints()
        cuts = np.concatenate(([t_a], knots[(knots > t_a) & (knots < t_b)], [t_b]))
        v = sum((hi - lo) / (t_b - t_a) * h.potential_on_grid(grid, 0.5 * (lo + hi))
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    return tridiagonal_hamiltonian(h, grid, v)


def project(psi: WaveFunction, basis: EigenBasis) -> np.ndarray:
    """Coefficients C_k = <k|psi> in the package inner product."""
    if psi.grid != basis.source_grid:
        raise ValueError("incompatible grids")
    return basis.vectors.T @ (psi.grid.weights * psi.amplitudes)


def reconstruct(coefficients: np.ndarray, basis: EigenBasis,
                phases: np.ndarray | None = None) -> WaveFunction:
    """Sum_k C_k phase_k |k> back on the grid (phases default to ones)."""
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (basis.truncation,):
        raise ValueError("coefficient vector does not match basis size")
    if phases is not None:
        phases = np.asarray(phases, dtype=complex)
        if phases.shape != c.shape:
            raise ValueError("phase vector does not match basis size")
        c = c * phases
    return WaveFunction(basis.source_grid, basis.vectors @ c)


def intermediate_energy(psi: WaveFunction, m: SymTridiagonal) -> float:
    """<psi|H|psi> / <psi|psi> in the package inner product."""
    if psi.grid.points != m.size:
        raise ValueError("state does not match matrix dimension")
    nsq = norm_squared(psi)
    if nsq == 0.0:
        raise ValueError("zero-norm state has no energy expectation")
    h_psi = WaveFunction(psi.grid, m.matvec(psi.amplitudes))
    return inner_product(psi, h_psi).real / nsq


def evolve(psi0: WaveFunction, h: HamiltonianSpec, schedule: SliceSchedule,
           truncation: int | None = None,
           final_basis: EigenBasis | None = None) -> EvolutionResult:
    """Run the projection cascade over every slice of the schedule.

    A slice whose matrix equals the previous slice's reuses its eigenpairs,
    which are bit-identical to a fresh solve; any other slice is solved
    anew, so at most one basis is held.  Returns per-slice reports with
    coefficients (phases applied), norm and the intermediate-energy
    expectation of the slice just completed.
    """
    grid = psi0.grid
    state = psi0
    if not np.all(np.isfinite(state.amplitudes)):
        raise ValueError("non-finite state")

    diagonal = None
    reports = []
    bounds = schedule.boundaries
    for j in range(schedule.slices):
        t_a, t_b = bounds[j], bounds[j + 1]
        dt = t_b - t_a
        matrix = stepwise_hamiltonian(h, grid, t_a, t_b, schedule.averaging)
        # only the diagonal depends on the slice
        refreshed = diagonal is None or not np.array_equal(matrix.diagonal, diagonal)
        if refreshed:
            try:
                basis = eigendecompose(matrix, grid, truncation)
            except RuntimeError as exc:
                raise RuntimeError("eigensolver failed at slice %d" % j) from exc
            diagonal = matrix.diagonal

        coeffs = project(state, basis) * np.exp(-1j * basis.energies * dt / h.hbar)
        state = reconstruct(coeffs, basis)
        if not np.all(np.isfinite(state.amplitudes)):
            raise RuntimeError("non-finite state at slice %d" % j)

        reports.append(ProjectionStepReport(
            slice_index=j,
            t_end=float(t_b),
            coefficients=coeffs,
            norm_squared=norm_squared(state),
            energy=intermediate_energy(state, matrix),
            basis_refreshed=refreshed,
        ))

    final_coeffs = project(state, final_basis) if final_basis is not None else None
    return EvolutionResult(final_state=state, reports=tuple(reports),
                           final_basis=final_basis, final_coefficients=final_coeffs)
