"""Foundational value types: spatial grid, wavefunctions, Hamiltonian
specifications, and the inner product used everywhere else in the package.

The package has one metric, <a|b> = dx * sum_i conj(a_i) b_i over the grid
nodes.  The discretized Hamiltonian is a real symmetric matrix, so it is
self-adjoint in this metric and projection between its eigenbases is
unitary; wavefunctions vanish outside the box, so the hard walls add no
endpoint correction.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "WaveFunction",
    "ScaleProfile",
    "PotentialSpec",
    "HamiltonianSpec",
    "inner_product",
    "norm_squared",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D spatial lattice on [x_min, x_max] with `points` nodes.

    Node i sits at x_min + i*dx with dx = (x_max - x_min)/(points - 1);
    positions are always recomputed from the index so no rounding
    accumulates.
    """

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if self.points < 3:
            raise ValueError("grid requires points >= 3")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + np.arange(self.points) * self.dx

    @property
    def weights(self) -> np.ndarray:
        """Weights of the package metric: dx at every node."""
        return np.full(self.points, self.dx)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes sampled on a Grid."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.points,):
            raise ValueError(
                "amplitude vector length %d does not match grid points %d"
                % (amps.size, self.grid.points)
            )
        object.__setattr__(self, "amplitudes", amps)


def inner_product(bra: WaveFunction, ket: WaveFunction) -> complex:
    """Discrete <bra|ket> = dx * sum conj(bra) ket, with the conjugate on
    the first argument."""
    if bra.grid != ket.grid:
        raise ValueError("incompatible grids")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes) * bra.grid.dx)


def norm_squared(psi: WaveFunction) -> float:
    """<psi|psi> = dx * sum |psi|^2, real and non-negative by construction."""
    return float(np.vdot(psi.amplitudes, psi.amplitudes).real * psi.grid.dx)


@dataclass(frozen=True)
class ScaleProfile:
    """Time-dependent dimensionless scale S(t) multiplying the spring term.

    Kinds:
      constant           S(t) = value (default 1)
      step               S = 1 for t <= t_on, eta after
      pulse              S = 1 for t <= t_on, eta for t_on < t < t_off,
                         1 for t >= t_off
      sampled            linear interpolation through (times, values)

    Branch boundaries are closed on the left: S(t_on) is still the
    pre-switch value.
    """

    kind: str
    eta: float = 1.0
    t_on: float = 0.0
    t_off: float = 0.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "step", "pulse", "sampled"):
            raise ValueError("unknown scale profile kind %r" % self.kind)
        if self.kind in ("step", "pulse") and not self.eta > 0:
            raise ValueError("scale profile requires eta > 0")
        if self.kind == "pulse" and not self.t_on < self.t_off:
            raise ValueError("pulse requires t_on < t_off")
        if self.kind == "sampled":
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ValueError("sampled profile needs matching 1-D times/values")
            if np.any(np.diff(t) <= 0):
                raise ValueError("sampled profile times must be strictly increasing")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float = 1.0) -> "ScaleProfile":
        return cls(kind="constant", eta=value)

    @classmethod
    def step(cls, eta: float, t_on: float = 0.0) -> "ScaleProfile":
        return cls(kind="step", eta=eta, t_on=t_on)

    @classmethod
    def pulse(cls, eta: float, t_on: float, t_off: float) -> "ScaleProfile":
        return cls(kind="pulse", eta=eta, t_on=t_on, t_off=t_off)

    @classmethod
    def sampled(cls, times, values) -> "ScaleProfile":
        return cls(kind="sampled", times=np.asarray(times, float),
                   values=np.asarray(values, float))

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.eta
        if self.kind == "step":
            return 1.0 if t <= self.t_on else self.eta
        if self.kind == "pulse":
            return self.eta if self.t_on < t < self.t_off else 1.0
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError("time out of range")
        return float(np.interp(t, self.times, self.values))

    def discontinuities(self) -> list[float]:
        if self.kind == "step":
            return [self.t_on]
        if self.kind == "pulse":
            return [self.t_on, self.t_off]
        return []

    def is_piecewise_constant(self) -> bool:
        return self.kind in ("constant", "step", "pulse")


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential V(x, t).

    Kinds:
      harmonic           V = k x^2 / 2
      scaled_harmonic    V = S(t) k x^2 / 2
      tabulated          samples V(x_i, t_j), exact at x nodes, linear in t
    """

    kind: str
    k: float = 1.0
    profile: ScaleProfile = field(default_factory=ScaleProfile.constant)
    x_samples: np.ndarray | None = None
    t_samples: np.ndarray | None = None
    v_samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "scaled_harmonic", "tabulated"):
            raise ValueError("unknown potential kind %r" % self.kind)
        if self.kind in ("harmonic", "scaled_harmonic") and not self.k > 0:
            raise ValueError("spring constant k must be positive")
        if self.kind == "tabulated":
            x = np.asarray(self.x_samples, float)
            t = np.asarray(self.t_samples, float)
            v = np.asarray(self.v_samples, float)
            if v.shape != (t.size, x.size):
                raise ValueError("tabulated samples must have shape (n_t, n_x)")
            if np.any(np.diff(t) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            object.__setattr__(self, "x_samples", x)
            object.__setattr__(self, "t_samples", t)
            object.__setattr__(self, "v_samples", v)

    @classmethod
    def harmonic(cls, k: float = 1.0) -> "PotentialSpec":
        return cls(kind="harmonic", k=k)

    @classmethod
    def scaled_harmonic(cls, k: float, profile: ScaleProfile) -> "PotentialSpec":
        return cls(kind="scaled_harmonic", k=k, profile=profile)

    @classmethod
    def tabulated(cls, x_samples, t_samples, v_samples) -> "PotentialSpec":
        return cls(kind="tabulated",
                   x_samples=np.asarray(x_samples, float),
                   t_samples=np.asarray(t_samples, float),
                   v_samples=np.asarray(v_samples, float))

    def evaluate(self, x, t: float):
        """V(x, t) for scalar or array x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "harmonic":
            out = 0.5 * self.k * x**2
        elif self.kind == "scaled_harmonic":
            out = 0.5 * self.profile(t) * self.k * x**2
        else:
            if t < self.t_samples[0] or t > self.t_samples[-1]:
                raise ValueError("time out of range")
            j = np.searchsorted(self.t_samples, t, side="right") - 1
            j = min(max(j, 0), self.t_samples.size - 2)
            t0, t1 = self.t_samples[j], self.t_samples[j + 1]
            frac = (t - t0) / (t1 - t0)
            row = (1 - frac) * self.v_samples[j] + frac * self.v_samples[j + 1]
            if x.ndim == 0:
                idx = np.argmin(np.abs(self.x_samples - x))
                if abs(self.x_samples[idx] - float(x)) > 1e-12:
                    raise ValueError("tabulated potential is exact at x nodes only")
                out = np.asarray(row[idx])
            else:
                if x.shape != self.x_samples.shape or not np.allclose(
                    x, self.x_samples, rtol=0, atol=1e-12
                ):
                    raise ValueError("tabulated potential requires the sampled x grid")
                out = row
        if not np.all(np.isfinite(out)):
            raise ValueError("potential evaluated to a non-finite value")
        return out if out.ndim else float(out)

    def breakpoints(self) -> np.ndarray:
        """Times at which V may jump or change slope in t.  Between two
        consecutive breakpoints every supported kind is linear in t."""
        if self.kind == "tabulated":
            return self.t_samples
        if self.profile.kind == "sampled":
            return self.profile.times
        return np.asarray(self.profile.discontinuities(), dtype=float)


@dataclass(frozen=True)
class HamiltonianSpec:
    """mass, hbar and a scalar potential; H = p^2/2m + V(x, t)."""

    mass: float
    hbar: float
    potential: PotentialSpec

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    def potential_on_grid(self, grid: Grid, t: float) -> np.ndarray:
        return np.asarray(self.potential.evaluate(grid.x, t), dtype=float)

