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
    "gauss_pieces",
    "piece_cuts",
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

    def at(self, t: np.ndarray) -> np.ndarray:
        """S at each time of an array, equal to a call per time."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, self.eta)
        if self.kind == "step":
            return np.where(t <= self.t_on, 1.0, self.eta)
        if self.kind == "pulse":
            return np.where((self.t_on < t) & (t < self.t_off), self.eta, 1.0)
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise ValueError("time out of range")
        return np.interp(t, self.times, self.values)

    def extent(self) -> tuple[float, float]:
        """The least and the greatest value S takes."""
        if self.kind == "sampled":
            return float(self.values.min()), float(self.values.max())
        if self.kind == "constant":
            return self.eta, self.eta
        return min(1.0, self.eta), max(1.0, self.eta)

    def discontinuities(self) -> list[float]:
        if self.kind == "step":
            return [self.t_on]
        if self.kind == "pulse":
            return [self.t_on, self.t_off]
        return []


@dataclass(frozen=True)
class PotentialSpec:
    """Scalar potential V(x, t).

    Kinds:
      scaled_harmonic    V = S(t) k x^2 / 2; `harmonic(k)` is S = 1
      tabulated          samples V(x_i, t_j), exact at x nodes, linear in t

    `evaluate` gives V at given times, and `moments` its first two Legendre
    moments over a time interval, from S or the sample rows alone.
    """

    kind: str
    k: float = 1.0
    profile: ScaleProfile = field(default_factory=ScaleProfile.constant)
    x_samples: np.ndarray | None = None
    t_samples: np.ndarray | None = None
    v_samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("scaled_harmonic", "tabulated"):
            raise ValueError("unknown potential kind %r" % self.kind)
        if self.kind == "scaled_harmonic" and not self.k > 0:
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
        return cls.scaled_harmonic(k, ScaleProfile.constant())

    @classmethod
    def scaled_harmonic(cls, k: float, profile: ScaleProfile) -> "PotentialSpec":
        return cls(kind="scaled_harmonic", k=k, profile=profile)

    @classmethod
    def tabulated(cls, x_samples, t_samples, v_samples) -> "PotentialSpec":
        return cls(kind="tabulated",
                   x_samples=np.asarray(x_samples, float),
                   t_samples=np.asarray(t_samples, float),
                   v_samples=np.asarray(v_samples, float))

    def evaluate(self, x, t):
        """V(x, t) for scalar or array x at a time t, or one row per time
        for a 1-D array t."""
        if self.kind == "tabulated":
            j, frac = self._rows(x, t)
            out = (1 - frac) * self.v_samples[j] + frac * self.v_samples[j + 1]
        else:
            s = self.profile.at(t) if np.ndim(t) else self.profile(t)
            out = np.multiply.outer(0.5 * s * self.k, np.asarray(x, dtype=float) ** 2)
        if not np.all(np.isfinite(out)):
            raise ValueError("potential evaluated to a non-finite value")
        return out if out.ndim else float(out)

    def moments(self, x, t_a: float, t_b: float) -> tuple[np.ndarray, np.ndarray]:
        """(m0, d) at x: m0 = (1/dt) int V dt and
        d = (4/dt^2) int (t - t_mid) V dt over [t_a, t_b], exact, in memory
        proportional to len(x) whatever the number of pieces.

        Both come from two-point Gauss on each of `gauss_pieces`' pieces,
        where V is linear in t.  Per piece the sums V- + V+ and differences
        V+ - V- of the two Gauss values enter with weights divided by dt,
        never by dt^2 (which is 0 for a slice shorter than about 1e-154).
        V is never formed at the Gauss times.  For scaled_harmonic the rule
        acts on S, and the moments are (0.5 S_bar k) x^2 and (0.5 S_d k) x^2,
        in `evaluate`'s order, so a one-piece slice where S- == S+ gets
        m0 == V bit for bit and d == 0 exactly.  For tabulated each Gauss
        value is (1 - f) v[j] + f v[j + 1], so each moment is one weighted
        sum of the sample rows the slice touches.
        """
        dt = t_b - t_a
        mid, half = gauss_pieces(self.breakpoints(), t_a, t_b)
        s = half / np.sqrt(3.0)
        w = half / dt
        # d / 4 weighs the sums by p and the differences by q
        p, q = w * (mid - 0.5 * (t_a + t_b)) / dt, w * s / dt
        if self.kind == "scaled_harmonic":
            lo, hi = self.profile.at(mid - s), self.profile.at(mid + s)
            s_moments = np.array([w @ (lo + hi), 4.0 * (p @ (lo + hi) + q @ (hi - lo))])
            m0, d = np.multiply.outer(0.5 * s_moments * self.k, np.asarray(x, dtype=float) ** 2)
        else:
            j, f = self._rows(x, np.concatenate((mid - s, mid + s)))
            j, f, rows = j - j.min(), f[:, 0], self.v_samples[j.min():j.max() + 2]
            # sum_g c_g V(t_g) over the Gauss times t_g as one weighted sum of rows
            m0, d = ((np.bincount(j, c * (1 - f), len(rows))
                      + np.bincount(j + 1, c * f, len(rows))) @ rows
                     for c in (np.concatenate((w, w)), 4 * np.concatenate((p - q, p + q))))
        if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(d))):
            raise ValueError("potential evaluated to a non-finite value")
        return m0, d

    def extremes(self, x) -> np.ndarray:
        """Rows of V at x such that V(x, t) at every t is a convex
        combination of two of them: the sample rows of a tabulated
        potential, and k x^2 / 2 times the least and the greatest value of
        S."""
        if self.kind == "tabulated":
            self._rows(x, self.t_samples[:1])  # x must be the sampled grid
            return self.v_samples
        return np.multiply.outer(0.5 * np.array(self.profile.extent()) * self.k,
                                 np.asarray(x, dtype=float) ** 2)

    def _rows(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        """(j, f) with V(x, t) = (1 - f) v[j] + f v[j + 1] at each time of t
        for the tabulated kind, f with a trailing axis to broadcast over x.
        ValueError unless t lies within the sampled times and x is the
        sampled grid."""
        t = np.asarray(t, dtype=float)
        ts = self.t_samples
        if np.any(t < ts[0]) or np.any(t > ts[-1]):
            raise ValueError("time out of range")
        if np.shape(x) != self.x_samples.shape or not np.allclose(
            x, self.x_samples, rtol=0, atol=1e-12
        ):
            raise ValueError("tabulated potential requires the sampled x grid")
        j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        return j, ((t - ts[j]) / (ts[j + 1] - ts[j]))[..., None]

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

    def potential_on_grid(self, grid: Grid, t) -> np.ndarray:
        """V on the grid nodes at a time t, or one row per time for a 1-D
        array t."""
        return np.asarray(self.potential.evaluate(grid.x, t), dtype=float)


def piece_cuts(knots, t_a: float, t_b: float) -> np.ndarray:
    """The ends of the pieces that the knots strictly inside (t_a, t_b) cut
    [t_a, t_b] into: t_a, those knots in increasing order without repeats,
    and t_b."""
    knots = np.asarray(knots, dtype=float)
    return np.concatenate(([t_a], np.unique(knots[(knots > t_a) & (knots < t_b)]), [t_b]))


def gauss_pieces(knots, t_a: float, t_b: float) -> tuple[np.ndarray, np.ndarray]:
    """(mid, half): midpoints and half-widths of the `piece_cuts` pieces.  A
    V that is linear in t on every piece is integrated exactly by two-point
    Gauss-Legendre on each, at mid -+ half / sqrt(3), and never evaluated at
    a knot."""
    cuts = piece_cuts(knots, t_a, t_b)
    return 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
