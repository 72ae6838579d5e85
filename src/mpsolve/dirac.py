"""Baseline comparator: expansion in the initial eigenbasis with coupled
amplitude ODEs, the first-order transition amplitude, and a divergence
diagnostic for the truncated strong-coupling regime.

Amplitudes follow i hbar dC_k/dt = sum_m C_m exp(i (w_k - w_m) t) V_km with
V(t) = H(t) - H(t0); with a complete basis and exact integration this flow
is norm-preserving, so any observed norm drift is integrator error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import HamiltonianSpec
from .eigensolver import EigenBasis

__all__ = [
    "AmplitudeTrajectory",
    "DivergenceReport",
    "perturbation_elements",
    "integrate_amplitudes",
    "first_order_amplitude",
    "divergence_diagnostic",
]


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled interaction-picture amplitudes C_k(t): one row per time."""

    times: np.ndarray
    amplitudes: np.ndarray

    @property
    def norm_history(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


@dataclass(frozen=True)
class DivergenceReport:
    """Observational summary of sum_k |C_k|^2 along a trajectory."""

    max_norm: float
    final_norm: float
    first_exceedance_time: float | None


def perturbation_elements(h: HamiltonianSpec, basis: EigenBasis, t: float,
                          t0: float = 0.0) -> np.ndarray:
    """Matrix elements V_km(t) = <k| V(x,t) - V(x,t0) |m> over the retained
    basis in the package inner product (weights `grid.weights`).  Real
    symmetric for scalar potentials."""
    grid = basis.source_grid
    dv = h.potential_on_grid(grid, t) - h.potential_on_grid(grid, t0)
    weighted = basis.vectors * (grid.weights * dv)[:, None]
    return basis.vectors.T @ weighted


def integrate_amplitudes(v_of_t: Callable[[float], np.ndarray],
                         omegas: np.ndarray, c0: np.ndarray,
                         t_span: tuple[float, float], steps: int,
                         hbar: float = 1.0) -> AmplitudeTrajectory:
    """Fixed-step classical RK4 on the coupled amplitude equations.

    Aborts with the step index if an amplitude goes non-finite, which is a
    reportable outcome under strong coupling, not a bug.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    omegas = np.asarray(omegas, dtype=float)
    c = np.asarray(c0, dtype=complex).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError("initial amplitudes must be finite")
    t_start, t_end = t_span
    dt = (t_end - t_start) / steps
    d_omega = omegas[:, None] - omegas[None, :]

    def rhs(t, amps):
        coupling = np.exp(1j * d_omega * t) * v_of_t(t)
        return (-1j / hbar) * (coupling @ amps)

    times = np.empty(steps + 1)
    history = np.empty((steps + 1, c.size), dtype=complex)
    times[0] = t_start
    history[0] = c
    for i in range(steps):
        t = t_start + i * dt
        k1 = rhs(t, c)
        k2 = rhs(t + 0.5 * dt, c + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, c + 0.5 * dt * k2)
        k4 = rhs(t + dt, c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(c)):
            raise RuntimeError("non-finite amplitude at step %d" % (i + 1))
        times[i + 1] = t + dt
        history[i + 1] = c
    return AmplitudeTrajectory(times=times, amplitudes=history)


def first_order_amplitude(v_mn: Callable[[float], complex], n: int, m: int,
                          omegas: np.ndarray, big_t: float,
                          quadrature_steps: int = 2000,
                          hbar: float = 1.0) -> complex:
    """First-order transition amplitude from state n to state m over [0, T]:

        b_m = -(i/hbar) exp(-i w_m T) int_0^T V_mn(t) exp(-i (w_n - w_m) t) dt

    including the leading exp(-i w_m T) phase, so b_m is directly the
    coefficient of state m in the final wavefunction (not the interaction
    picture).  The integral is evaluated by the trapezoidal rule.
    """
    if m == n:
        raise ValueError("diagonal amplitude undefined at first order")
    ts = np.linspace(0.0, big_t, quadrature_steps + 1)
    vals = np.array([v_mn(t) for t in ts], dtype=complex)
    integrand = vals * np.exp(-1j * (omegas[n] - omegas[m]) * ts)
    integral = np.trapezoid(integrand, ts)
    return complex(-1j / hbar * np.exp(-1j * omegas[m] * big_t) * integral)


def divergence_diagnostic(traj: AmplitudeTrajectory,
                          threshold: float = 1.1) -> DivergenceReport:
    """Max and final values of sum |C_k|^2 plus the first time it exceeds
    the threshold (None if it never does).  Purely observational."""
    norms = traj.norm_history
    exceed = np.nonzero(norms > threshold)[0]
    first = float(traj.times[exceed[0]]) if exceed.size else None
    return DivergenceReport(max_norm=float(norms.max()),
                            final_norm=float(norms[-1]),
                            first_exceedance_time=first)
