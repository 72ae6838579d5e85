"""Baseline comparator: expansion in the initial eigenbasis with coupled
amplitude ODEs, the first-order transition amplitude, and a divergence
diagnostic for the truncated strong-coupling regime.

Amplitudes follow i hbar dC_k/dt = sum_m C_m exp(i (w_k - w_m) t) V_km with
V(t) = H(t) - H(t0); with a complete basis and exact integration this flow
is norm-preserving, so any observed norm drift is integrator error.

V may jump or change slope at its breakpoints, so RK4 restarts at each one
inside its window and takes V on every piece from inside that piece: a jump
then costs no order of accuracy.

An RK4 step costs little beyond its four M x M products: the phases of a
block of steps come from one exp call, `perturbation_operator` returns V
complex, a `scaled_harmonic` one as one read-only matrix per distinct S(t),
and finiteness is checked per block.  Every product keeps the operands and
order of the textbook step, so the amplitudes are bit for bit those of a
step-by-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import HamiltonianSpec, gauss_pieces, piece_cuts
from .eigensolver import EigenBasis

__all__ = [
    "AmplitudeTrajectory",
    "DivergenceReport",
    "perturbation_operator",
    "perturbation_elements",
    "rk4_pieces",
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


def perturbation_operator(h: HamiltonianSpec, basis: EigenBasis,
                          t0: float = 0.0) -> Callable[[float], np.ndarray]:
    """The map t -> V_km(t) = <k| V(x,t) - V(x,t0) |m> over the retained
    basis in the package inner product (weights `grid.weights`), as a
    complex array, since RK4 multiplies it by complex amplitudes; its
    imaginary part is zero, and it is symmetric.

    A `scaled_harmonic` potential is (S(t) - S(t0)) k x^2 / 2 apart from
    V(t0), so its one spatial profile is projected onto the basis once (an
    N x M x M product) and a call only scales an M x M matrix; `harmonic(k)`
    is the case S = 1, whose difference is zero.  The matrix is cast to
    complex once per S(t) and is read-only, and a call whose S(t) equals the
    call before's returns the same object.  A `tabulated` call evaluates
    V(t) - V(t0) on the grid and projects it into a new complex array.

    Raises ValueError where evaluating V(x, t) would: for a time outside
    the samples or a non-finite potential.
    """
    grid = basis.source_grid
    pot = h.potential
    v0 = h.potential_on_grid(grid, t0)  # raises for a bad t0, x grid or V(t0)

    def projected(v: np.ndarray) -> np.ndarray:
        return basis.vectors.T @ (basis.vectors * (grid.weights * v)[:, None])

    if pot.kind == "tabulated":
        return lambda t: projected(h.potential_on_grid(grid, t) - v0).astype(complex)

    x2 = grid.x**2
    spring = projected(0.5 * pot.k * x2)
    s0 = pot.profile(t0)
    x2_max = float(x2.max())

    last = (None, None)  # (S, V) of the last call, swapped as one pair

    def scaled(t: float) -> np.ndarray:
        nonlocal last
        s = pot.profile(t)
        held_s, held_v = last
        if s == held_s:
            return held_v
        # the node where V(x, t) is largest overflows first
        if not math.isfinite(0.5 * s * pot.k * x2_max):
            raise ValueError("potential evaluated to a non-finite value")
        v = ((s - s0) * spring).astype(complex)
        v.flags.writeable = False
        last = (s, v)
        return v
    return scaled


def perturbation_elements(h: HamiltonianSpec, basis: EigenBasis, t: float,
                          t0: float = 0.0) -> np.ndarray:
    """Matrix elements V_km(t) = <k| V(x,t) - V(x,t0) |m>; one call of
    `perturbation_operator(h, basis, t0)`."""
    return perturbation_operator(h, basis, t0)(t)


# RK4 steps whose stage phases one exp call computes: the phase tables hold
# (2 _BLOCK + 1) M complex numbers each, whatever the step count
_BLOCK = 128


def rk4_pieces(breakpoints, t_span: tuple[float, float],
               steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, counts): the `piece_cuts` of the window by V's breakpoints, and
    the RK4 steps each piece takes, `steps` in all.  Every piece takes one
    step, and the other steps - P go to the pieces in proportion to their
    length, rounded to the nearest step along the running total, so that
    the counts add up and each is within one of its share.
    A window without breakpoints inside is one piece of `steps` steps.

    ValueError unless t_span increases, or if `steps` is below the piece
    count P."""
    if not t_span[0] < t_span[1]:
        raise ValueError("t_span must increase")
    cuts = piece_cuts(breakpoints, *t_span)
    pieces = cuts.size - 1
    if steps < pieces:
        raise ValueError("V's breakpoints cut [%r, %r] into %d pieces and RK4 takes at "
                         "least one step on each, so it needs at least %d steps, not %d"
                         % (t_span[0], t_span[1], pieces, pieces, steps))
    elapsed = cuts - cuts[0]
    extra = np.rint((steps - pieces) * (elapsed / elapsed[-1]))
    return cuts, 1 + np.diff(extra).astype(int)


def integrate_amplitudes(v_of_t: Callable[[float], np.ndarray],
                         omegas: np.ndarray, c0: np.ndarray,
                         t_span: tuple[float, float], steps: int,
                         breakpoints=(), hbar: float = 1.0) -> AmplitudeTrajectory:
    """Fixed-step classical RK4 on the coupled amplitude equations, piece by
    piece between the `breakpoints` strictly inside `t_span`.

    `breakpoints` are the times at which V may jump or change slope, as
    `first_order_amplitude` takes them.  `rk4_pieces` shares the `steps`
    out among the pieces; a piece [a, b] of n steps is stepped on
    a + i (b - a)/n for i < n, and then b, so a window without breakpoints
    inside keeps the grid t0 + i dt.  The largest step, which compare-dirac
    reports as `rk4_dt`, is the largest (b - a)/n; for one piece it is
    dt = (t1 - t0)/steps.

    V is called only strictly inside the piece being stepped: a stage at a
    piece end takes V one ulp inside, which is the one-sided limit of every
    supported V, while the phases exp(i w t) keep the true stage time.  V
    is called once per distinct stage time, the midpoint and then the end
    of each step, and the step's end serves the next step's k1.  The phases
    of up to _BLOCK steps' stage times come from one exp call.  Each
    product takes V as `v_of_t` returned it, after both calls of a step: a
    complex V, as `perturbation_operator` returns, is used as it is, and a
    real one is cast to complex inside the product.

    Aborts with the index of the first step whose amplitudes are not all
    finite, a reportable outcome under strong coupling, not a bug.  The
    steps are checked a block at a time, without floating-point warnings,
    and no block after the bad one is stepped.  Memory beyond the returned
    trajectory is O(_BLOCK M) whatever `steps` is.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    omegas = np.asarray(omegas, dtype=float)
    c = np.asarray(c0, dtype=complex).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError("initial amplitudes must be finite")
    cuts, counts = rk4_pieces(breakpoints, t_span, steps)
    # exp(i (w_k - w_m) t) V_km = p_k V_km conj(p_m) with p = exp(i w t); the
    # right-hand side at t is then q * (V @ (C * conj(p))), q = -i p / hbar.
    # Each product below is one of the textbook step
    #   k1 = q1 (V1 @ (C pc1)),  k2 = q_mid (V_mid @ ((C + dt/2 k1) pc_mid)),
    #   k3 likewise from k2,     k4 = q_next (V_next @ ((C + dt k3) pc_next)),
    #   C + dt/6 (k1 + 2 k2 + 2 k3 + k4),
    # with its operands in the same order, so the bits are the same.  A
    # Python number there is a complex128 broadcast; a 0-d complex array is
    # the same operand, found faster.
    mul, add, matmul = np.multiply, np.add, np.matmul
    two = np.array(2, dtype=complex)
    times = np.empty(steps + 1)
    history = np.empty((steps + 1, c.size), dtype=complex)
    history[0] = c
    y, k1, k2, k3, k4 = np.empty((5, c.size), dtype=complex)
    row = 0
    for a, b, n in zip(cuts[:-1].tolist(), cuts[1:].tolist(), counts.tolist()):
        dt = (b - a) / n
        half = 0.5 * dt
        dt_, half_, sixth_ = (np.array(x, dtype=complex) for x in (dt, half, dt / 6.0))
        lo, hi = np.nextafter(a, b), np.nextafter(b, a)

        def v_inside(t):
            return v_of_t(min(max(t, lo), hi))

        v1 = v_inside(a)
        for first in range(0, n, _BLOCK):
            size = min(_BLOCK, n - first)
            # the grid a + i dt, ending on b, and its midpoints, interleaved
            grid = a + np.arange(first, first + size + 1) * dt
            if first + size == n:
                grid[-1] = b
            times[row:row + size + 1] = grid
            stages = np.empty(2 * size + 1)
            stages[0::2] = grid
            stages[1::2] = grid[:-1] + half
            p = 1j * np.multiply.outer(stages, omegas)
            np.exp(p, out=p)
            q = list((-1j / hbar) * p)
            pc = list(np.conjugate(p, out=p))
            block = history[row + 1:row + 1 + size]
            with np.errstate(all="ignore"):  # a blow-up is reported below
                for i, t_mid, t_next, out in zip(range(0, 2 * size, 2), stages[1::2].tolist(),
                                                 stages[2::2].tolist(), block):
                    v_mid, v_next = v_inside(t_mid), v_inside(t_next)
                    mul(q[i], matmul(v1, mul(c, pc[i], y), k1), k1)
                    add(c, mul(half_, k1, y), y)
                    mul(q[i + 1], matmul(v_mid, mul(y, pc[i + 1], y), k2), k2)
                    add(c, mul(half_, k2, y), y)
                    mul(q[i + 1], matmul(v_mid, mul(y, pc[i + 1], y), k3), k3)
                    add(c, mul(dt_, k3, y), y)
                    mul(q[i + 2], matmul(v_next, mul(y, pc[i + 2], y), k4), k4)
                    add(add(add(k1, mul(two, k2, k2), k1), mul(two, k3, k3), k1), k4, k1)
                    c = add(c, mul(sixth_, k1, k1), out)
                    v1 = v_next
            bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
            if bad.size:
                raise RuntimeError("non-finite amplitude at step %d" % (row + 1 + bad[0]))
            row += size
    return AmplitudeTrajectory(times=times, amplitudes=history)


# sinc(x) = sin(x)/x = sum_k c_k x^2k, and slope(x) = -sinc'(x) =
# (sin x - x cos x)/x^2, which cancels for small x, is x * sum_k d_k x^2k.
# Eight terms reach rounding for |x| below _SERIES_BELOW.
_SERIES_BELOW = 0.5
_SINC = np.array([(-1) ** k / math.factorial(2 * k + 1) for k in range(8)])
_SINC_SLOPE = -2 * np.arange(1, 8) * _SINC[1:]


def first_order_amplitude(v_mn: Callable[[float], complex], n: int, m: int,
                          omegas: np.ndarray, big_t: float,
                          breakpoints=(), hbar: float = 1.0) -> complex:
    """First-order transition amplitude from state n to state m over [0, T]:

        b_m = -(i/hbar) exp(-i w_m T) int_0^T V_mn(t) exp(-i (w_n - w_m) t) dt

    including the leading exp(-i w_m T) phase, so b_m is directly the
    coefficient of state m in the final wavefunction (not the interaction
    picture).

    `breakpoints` are the times at which V_mn may jump or change slope; it
    must be linear between them, as every supported potential is between
    `PotentialSpec.breakpoints()`.  On each piece of [0, T] the line through
    V_mn at the two Gauss points (never at a cut, where a jump takes one
    side's value) is integrated against the phase in closed form: exact.
    """
    if m == n:
        raise ValueError("diagonal amplitude undefined at first order")
    mid, half = gauss_pieces(breakpoints, 0.0, big_t)
    lo = np.array([v_mn(t) for t in mid - half / math.sqrt(3.0)], dtype=complex)
    hi = np.array([v_mn(t) for t in mid + half / math.sqrt(3.0)], dtype=complex)
    # about each mid V = p + q s with q h = (hi - lo) sqrt(3)/2, and
    # int_{-h}^{h} (p + q s) e^{-iws} ds = 2h (p sinc(x) - i q h slope(x)), x = w h
    w = omegas[n] - omegas[m]
    x = w * half
    small = np.abs(x) < _SERIES_BELOW
    xs = np.where(small, 1.0, x)
    sinc = np.where(small, np.polynomial.polynomial.polyval(x * x, _SINC), np.sin(xs) / xs)
    slope = np.where(small, x * np.polynomial.polynomial.polyval(x * x, _SINC_SLOPE),
                     (np.sin(xs) - xs * np.cos(xs)) / (xs * xs))
    integral = np.sum(2 * half * np.exp(-1j * w * mid)
                      * (0.5 * (hi + lo) * sinc - 0.5j * math.sqrt(3.0) * (hi - lo) * slope))
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
