"""Finite-window signal analysis: sampled paths and almost-period scans."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .torus import QuasiPeriodicSpec


def vector_norm(values: np.ndarray, kind: str, block: int | None = None) -> np.ndarray:
    """Norm of each row of a (..., d) array.

    ``delay_sum`` sums the Euclidean norms of consecutive blocks of size
    ``block`` (the history-segment norm for delay states).
    """
    if kind == "euclidean":
        return np.linalg.norm(values, axis=-1)
    if kind == "delay_sum":
        if block is None or values.shape[-1] % block != 0:
            raise ValueError("delay_sum norm needs a block size dividing the dimension")
        parts = values.reshape(values.shape[:-1] + (-1, block))
        return np.sum(np.linalg.norm(parts, axis=-1), axis=-1)
    raise ValueError(f"unknown norm kind {kind!r}")


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

    def index_of(self, t: float) -> int:
        """Nearest grid index for time ``t``; raises if outside the window."""
        i = round((t - self.t0) / self.dt)
        if i < 0 or i >= len(self):
            raise CoverageError(f"time {t} outside sampled window [{self.t0}, {self.t_end}]")
        return int(i)


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
    """Sample the forcing term along the base flow."""
    base_phase = np.asarray(base_phase, dtype=float)
    return sample_signal(lambda t: spec.forcing_form(spec.phase_at(base_phase, t)), t0, dt, count)


@dataclass(frozen=True)
class AlmostPeriodReport:
    """Shifts tau whose windowed translation error stays below epsilon."""

    epsilon: float
    window_halfwidth: float
    periods: np.ndarray
    max_gap: float
    scan_range: tuple[float, float]
    scan_step: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("tau,window_L,epsilon\n")
        for tau in self.periods:
            buf.write(f"{tau!r},{self.window_halfwidth!r},{self.epsilon!r}\n")
        return buf.getvalue()


def scan_almost_periods(
    traj: TrajectorySample,
    epsilon: float,
    scan_range: tuple[float, float],
    scan_step: float,
    window_halfwidth: float,
) -> AlmostPeriodReport:
    """List every grid shift tau with sup_{|t|<=L} |traj(t+tau) - traj(t)| < epsilon,
    ``|.|`` the Euclidean norm.

    Candidate shifts are snapped to the sample grid, so the scan step must be
    an integer multiple of ``traj.dt``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    L = window_halfwidth
    tau_min, tau_max = scan_range
    if tau_max < tau_min:
        raise ValueError("scan range must be increasing")
    step_idx = round(scan_step / traj.dt)
    if step_idx < 1 or abs(step_idx * traj.dt - scan_step) > 1e-9 * max(1.0, scan_step):
        raise ValueError("scan_step must be a positive multiple of the sample dt")
    if traj.t0 > -L + 1e-12 or traj.t_end < L + tau_max - 1e-12:
        raise CoverageError(
            f"sample [{traj.t0}, {traj.t_end}] cannot support the window "
            f"[-{L}, {L + tau_max}]"
        )
    i_lo = traj.index_of(-L)
    i_hi = traj.index_of(L)
    base = traj.values[i_lo : i_hi + 1]
    k_lo = int(math.ceil(tau_min / traj.dt - 1e-9))
    k_hi = int(math.floor(tau_max / traj.dt + 1e-9))
    ks = np.arange(k_lo, k_hi + 1, step_idx)
    periods = []
    for k in ks:
        shifted = traj.values[i_lo + k : i_hi + 1 + k]
        dev = float(np.max(np.linalg.norm(shifted - base, axis=-1)))
        if dev < epsilon:
            periods.append(k * traj.dt)
    periods_arr = np.array(sorted(periods), dtype=float)
    max_gap = _max_gap(periods_arr, tau_min, tau_max)
    return AlmostPeriodReport(
        epsilon=epsilon,
        window_halfwidth=L,
        periods=periods_arr,
        max_gap=max_gap,
        scan_range=(tau_min, tau_max),
        scan_step=step_idx * traj.dt,
    )


def _max_gap(periods: np.ndarray, tau_min: float, tau_max: float) -> float:
    if periods.size == 0:
        return math.inf
    edges = np.concatenate(([tau_min], periods, [tau_max]))
    return float(np.max(np.diff(edges)))
