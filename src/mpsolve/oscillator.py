"""Closed-form harmonic-oscillator machinery: Hermite-function eigenstates,
sudden-quench overlap coefficients, truncated energy sums and the pulse
revival phase.

Everything here is a closed form or a stable recurrence, independent of the
grid engine, so it can serve as an oracle for the projection method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OscillatorParams",
    "QuenchCoefficients",
    "hermite_eigenfunction",
    "sudden_quench_coefficients",
    "truncated_quench_energy",
    "pulse_phase_prediction",
]

MAX_ORDER = 60


@dataclass(frozen=True)
class OscillatorParams:
    """Harmonic oscillator m, hbar, k with derived omega = sqrt(k/m) and
    inverse length alpha = (m k / hbar^2)^(1/4)."""

    mass: float = 1.0
    hbar: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if min(self.mass, self.hbar, self.k) <= 0:
            raise ValueError("oscillator parameters must be positive")

    @property
    def omega(self) -> float:
        return math.sqrt(self.k / self.mass)

    @property
    def alpha(self) -> float:
        return (self.mass * self.k / self.hbar**2) ** 0.25

    def quenched(self, eta: float) -> "OscillatorParams":
        """Partner oscillator with spring constant scaled by eta, so
        alpha' = eta^(1/4) alpha and omega' = sqrt(eta) omega."""
        if not eta > 0:
            raise ValueError("eta must be positive")
        return OscillatorParams(self.mass, self.hbar, eta * self.k)


@dataclass(frozen=True)
class QuenchCoefficients:
    """Real overlap coefficients C_n of the pre-quench ground state in the
    post-quench eigenbasis, n = 0..n_max.  Odd entries vanish by parity."""

    eta: float
    coefficients: np.ndarray

    @property
    def completeness(self) -> float:
        return float(np.sum(self.coefficients**2))


def hermite_eigenfunction(params: OscillatorParams, n: int, x):
    """Normalized oscillator eigenfunction phi_n(x).

    Uses the three-term recurrence on the already-normalized functions
    (phi_{n+1} = sqrt(2/(n+1)) xi phi_n - sqrt(n/(n+1)) phi_{n-1}); carrying
    the normalization inside the loop avoids the factorial overflow of the
    bare Hermite recurrence.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > MAX_ORDER:
        raise ValueError("order too large")
    x = np.asarray(x, dtype=float)
    xi = params.alpha * x
    phi_prev = math.sqrt(params.alpha) * math.pi**-0.25 * np.exp(-0.5 * xi**2)
    if n == 0:
        return phi_prev if phi_prev.ndim else float(phi_prev)
    phi = math.sqrt(2.0) * xi * phi_prev
    for j in range(1, n):
        phi, phi_prev = (math.sqrt(2.0 / (j + 1)) * xi * phi
                         - math.sqrt(j / (j + 1.0)) * phi_prev), phi
    return phi if phi.ndim else float(phi)


def sudden_quench_coefficients(eta: float, n_max: int,
                               params: OscillatorParams | None = None) -> QuenchCoefficients:
    """Overlap C_n = <n'|0> of the pre-quench ground state with the
    post-quench eigenstates, n = 0..n_max, from the squeezed-vacuum
    recurrence (Gerry & Knight, Introductory Quantum Optics, ch. 7):
    C_0 = sqrt(2 a a' / (a^2 + a'^2)) and C_{n+2} = r sqrt((n+1)/(n+2)) C_n
    with r = (a'^2 - a^2) / (a^2 + a'^2); odd entries are zero."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    if n_max > MAX_ORDER:
        raise ValueError("order too large")
    params = params if params is not None else OscillatorParams()
    a, ap = params.alpha, params.quenched(eta).alpha
    r = (ap**2 - a**2) / (a**2 + ap**2)
    coeffs = np.zeros(n_max + 1)
    coeffs[0] = math.sqrt(2 * a * ap / (a**2 + ap**2))
    for n in range(0, n_max - 1, 2):
        coeffs[n + 2] = r * math.sqrt((n + 1) / (n + 2)) * coeffs[n]
    return QuenchCoefficients(eta=eta, coefficients=coeffs)


def truncated_quench_energy(eta: float, n_max: int,
                            params: OscillatorParams | None = None) -> float:
    """Post-quench energy ratio <E>/E_0 = sum_n C_n^2 (n + 1/2) sqrt(eta) / (1/2),
    truncated at n_max.  Tends to the exact sudden value (1 + eta)/2 as
    n_max grows."""
    coeffs = sudden_quench_coefficients(eta, n_max, params).coefficients
    n = np.arange(coeffs.size)
    return float(np.sum(coeffs**2 * (n + 0.5)) * math.sqrt(eta) / 0.5)


def pulse_phase_prediction(eta: float) -> float:
    """Predicted relative phase of a pulsed run (S = eta over one revival
    period T = 4 pi / omega') versus the undisturbed run, reduced to
    (-pi, pi]."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    phase = 2 * math.pi / math.sqrt(eta)
    reduced = math.fmod(phase, 2 * math.pi)
    if reduced > math.pi:
        reduced -= 2 * math.pi
    elif reduced <= -math.pi:
        reduced += 2 * math.pi
    return reduced
