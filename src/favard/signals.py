"""Finite-window signal analysis: sampled paths and almost-period scans.

:func:`scan_indices` is the one conversion of the scan's times to sample
indices: the window, the shifts and, from them, the indices the scan reads.
The pipeline sizes its sample to exactly those indices and the scenario
check validates through the same call.  The almost-period scan measures
each candidate shift coarse to fine: first on every s-th window point (s
the integer square root of the window length), then on the whole window
only for the shifts still below epsilon.  Both passes compute each point's
deviation the same way, so the listed periods are exactly those of a full
scan of every shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CoverageError
from .torus import FlowGrid, QuasiPeriodicSpec

#: Byte budget of one block of shifted windows in :func:`scan_almost_periods`.
_SCAN_BYTES = 4 << 20


@dataclass(frozen=True)
class TrajectorySample:
    """Uniformly sampled vector path on a window starting at ``t0``."""

    t0: float
    dt: float
    values: np.ndarray  # (N, d)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] == 0:
            raise ValueError("values must be nonempty")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self) - 1) * self.dt


def sample_signal(fn, t0: float, dt: float, count: int) -> TrajectorySample:
    """Sample a vectorized function of time on a uniform grid."""
    t = t0 + dt * np.arange(count)
    vals = np.asarray(fn(t), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return TrajectorySample(t0=t0, dt=dt, values=vals)


def sample_forcing(
    spec: QuasiPeriodicSpec, base_phase: np.ndarray, t0: float, dt: float, count: int
) -> TrajectorySample:
    """Sample the forcing term along the base flow at ``t0 + j*dt``, ``j < count``,
    by angle addition (:meth:`TrigPolynomial.along_flow`)."""
    grid = FlowGrid(spec, np.asarray(base_phase, dtype=float), t0, dt, count)
    return TrajectorySample(t0=t0, dt=dt, values=spec.forcing_form.along_flow(grid))


@dataclass(frozen=True)
class AlmostPeriodReport:
    """Shifts tau whose windowed translation error stays below epsilon."""

    epsilon: float
    window_halfwidth: float
    periods: np.ndarray
    max_gap: float
    scan_range: tuple[float, float]
    scan_step: float


def scan_indices(
    t0: float, dt: float, scan_range: tuple[float, float], scan_step: float, window_halfwidth: float
) -> tuple[int, int, np.ndarray]:
    """The almost-period scan's grid as indices of a sample starting at ``t0``
    with spacing ``dt``: ``(lo, hi, shifts)``.

    The window is the sample points ``lo <= i < hi`` nearest ``-L`` and ``L``;
    ``shifts`` are the whole-sample shifts ``k`` of the scan grid, every
    ``scan_step / dt``-th one in ``scan_range``.  The scan reads the indices
    ``lo + min(0, k)`` to ``hi - 1 + max(0, k)``.  The ``1e-9`` slack keeps
    a grid time that roundoff put just off its sample point on it.
    """
    step = round(scan_step / dt)
    if step < 1 or abs(step * dt - scan_step) > 1e-9 * max(1.0, scan_step):
        raise ValueError("scan_step must be a positive multiple of the sample dt")
    k_lo, k_hi = math.ceil(scan_range[0] / dt - 1e-9), math.floor(scan_range[1] / dt + 1e-9)
    L = window_halfwidth
    return round((-L - t0) / dt), round((L - t0) / dt) + 1, np.arange(k_lo, k_hi + 1, step)


def scan_almost_periods(
    traj: TrajectorySample,
    epsilon: float,
    scan_range: tuple[float, float],
    scan_step: float,
    window_halfwidth: float,
) -> AlmostPeriodReport:
    """List every grid shift tau with sup_{|t|<=L} |traj(t+tau) - traj(t)| < epsilon,
    ``|.|`` the Euclidean norm.

    The window and the shifts are snapped to the sample grid by
    :func:`scan_indices`, so the scan step must be an integer multiple of
    ``traj.dt``, and the sample must hold every index the scan reads.
    Shifts that already miss epsilon on a coarse subset of the window are
    dropped before the full window is measured (:func:`_close_shifts`).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    L = window_halfwidth
    tau_min, tau_max = scan_range
    if tau_max < tau_min:
        raise ValueError("scan range must be increasing")
    lo, hi, shifts = scan_indices(traj.t0, traj.dt, scan_range, scan_step, L)
    if lo + shifts.min(initial=0) < 0 or hi + shifts.max(initial=0) > len(traj):
        raise CoverageError(
            f"sample [{traj.t0}, {traj.t_end}] cannot support the window "
            f"[{min(0.0, tau_min) - L}, {L + tau_max}]"
        )
    periods_arr = shifts[_close_shifts(traj.values, lo, hi, shifts, epsilon)] * traj.dt
    max_gap = _max_gap(periods_arr, tau_min, tau_max)
    return AlmostPeriodReport(
        epsilon=epsilon,
        window_halfwidth=L,
        periods=periods_arr,
        max_gap=max_gap,
        scan_range=(tau_min, tau_max),
        scan_step=round(scan_step / traj.dt) * traj.dt,
    )


def _close_shifts(values: np.ndarray, lo: int, hi: int, shifts: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the ``shifts`` k with ``max_{lo <= i < hi} |values[i + k] - values[i]| < epsilon``.

    Coarse to fine: every shift is first measured on every s-th window
    point, ``s = isqrt(hi - lo)``, and only the shifts that still fall below
    ``epsilon`` there are measured on the whole window.  A maximum over a
    subset of the window cannot exceed the maximum over all of it, and each
    point's deviation is computed the same way in both passes, so the mask
    equals the one-pass mask bit for bit.
    """
    close = np.sqrt(_max_square_deviations(values, lo, hi, shifts, math.isqrt(hi - lo))) < epsilon
    survivors = np.flatnonzero(close)
    close[survivors] = np.sqrt(_max_square_deviations(values, lo, hi, shifts[survivors], 1)) < epsilon
    return close


def _max_square_deviations(values: np.ndarray, lo: int, hi: int, shifts: np.ndarray, every: int) -> np.ndarray:
    """``max |values[i + k] - values[i]|^2`` over the window points ``i = lo,
    lo + every, ... < hi`` for each ``k`` in ``shifts``.

    The sample is laid out as (n, N) rows and the shifted windows are
    gathered from strided views of it, in blocks of at most ``_SCAN_BYTES``.
    Squares are summed over the n rows in order, as ``np.linalg.norm`` sums
    fewer than eight components, so the square roots of the results equal
    the per-shift norms bit for bit when n < 8.
    """
    rows = np.ascontiguousarray(values.T)
    windows = sliding_window_view(rows, hi - lo, axis=-1)[:, :, ::every]  # (n, starts, points)
    base = windows[:, lo, None]
    per = max(1, _SCAN_BYTES // (8 * windows.shape[0] * windows.shape[2]))
    out = np.empty(len(shifts))
    for s in range(0, len(shifts), per):
        d = windows[:, lo + shifts[s : s + per]]
        np.subtract(d, base, out=d)
        np.square(d, out=d)
        out[s : s + d.shape[1]] = np.max(np.add.reduce(d, axis=0), axis=-1)
    return out


def _max_gap(periods: np.ndarray, tau_min: float, tau_max: float) -> float:
    if periods.size == 0:
        return math.inf
    edges = np.concatenate(([tau_min], periods, [tau_max]))
    return float(np.max(np.diff(edges)))
