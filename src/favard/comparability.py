"""Empirical comparability of a solution with its driving base point.

The criterion under test: for every epsilon there is a delta such that any
shift returning the base phase within delta also returns the solution state
within epsilon.  On finite data the shift range, the scan resolution and the
candidate delta grid are explicit parameters carried by every report.
The trajectory is read off the analysis's one table of affine maps, and the
worst deviation over each delta of the grid is the residual curve of the
fixed-point certificate, :func:`favard.solver.residual_curve`, read at
every epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import CocycleSystem, _as_state, check_bounded
# not called here, but the benchmark's tracer patches these names in this module
from .cocycle import affine_path, evaluate_affine  # noqa: F401
from .solver import ReturnMaps, march_maps, residual_curve

#: Geometric candidate grid pi, pi/2, ..., pi/2**20 for the modulus search.
DEFAULT_DELTA_GRID = tuple(math.pi * 0.5**k for k in range(21))


@dataclass(frozen=True)
class ComparabilityReport:
    epsilons: tuple
    deltas: tuple  # delta(epsilon) per entry; 0.0 means no admissible delta
    counts: tuple  # qualifying shifts backing each delta(epsilon)
    horizon: float
    min_tau: float
    scan_step: float

    def __post_init__(self):
        if not (len(self.epsilons) == len(self.deltas) == len(self.counts)):
            raise ValueError("epsilons, deltas and counts must have equal length")


def modulus_steps(
    sys: CocycleSystem, horizon: float, min_tau: float = 0.0, scan_step: float | None = None
) -> np.ndarray:
    """Step counts of the trajectory points the modulus reads: the tested
    point at ``min_tau`` (in whole march steps), then the shifts of the scan
    grid over ``(0, horizon - min_tau]`` after it."""
    start = sys.steps(min_tau)
    return start + np.concatenate([[0], sys.shift_grid(horizon - min_tau, scan_step)])


def estimate_modulus(
    sys: CocycleSystem,
    u,
    epsilons,
    horizon: float,
    delta_grid=DEFAULT_DELTA_GRID,
    min_tau: float = 0.0,
    scan_step: float | None = None,
    table: ReturnMaps | None = None,
) -> ComparabilityReport:
    """Modulus delta(epsilon) of the recurrence-comparability test.

    ``min_tau`` advances the tested point along its own trajectory before
    scanning, so a decaying transient can be excluded; the shift scan then
    covers (0, horizon - min_tau].  The trajectory ``Phi u + b`` is read
    from ``table`` at :func:`modulus_steps` (by default a march over those
    steps alone).  For each epsilon the reported delta is the largest grid
    value whose qualifying shifts (base quality below delta, at least one of
    them) all return the state within epsilon; a vacuously satisfied delta
    with no qualifying shift does not count.
    """
    u = _as_state(sys, u)
    steps = modulus_steps(sys, horizon, min_tau, scan_step)
    if steps.size == 1:
        raise ValueError("horizon leaves no shifts to scan")
    maps = (march_maps(sys, steps) if table is None else table).rows(steps)
    states = maps.Phi @ u + maps.b
    start, states = states[0], states[1:]
    check_bounded(float(np.max(sys.state_norm(states))), float(sys.state_norm(start)), "trajectory")
    deviations = sys.state_norm(states - start)
    taus = (steps[1:] - steps[0]) * sys.step
    qualities = sys.spec.base_return_quality(taus)

    grid = np.sort(np.asarray(delta_grid, dtype=float))
    worst, hits = residual_curve(qualities, deviations, grid)
    deltas, counts = [], []
    for eps in epsilons:
        k = max(np.flatnonzero((hits > 0) & (worst < eps)), default=-1)
        deltas.append(float(grid[k]) if k >= 0 else 0.0)
        counts.append(int(hits[k]) if k >= 0 else 0)
    return ComparabilityReport(
        epsilons=tuple(float(e) for e in epsilons),
        deltas=tuple(deltas),
        counts=tuple(counts),
        horizon=float(horizon),
        min_tau=float(min_tau),
        scan_step=float(taus[0]),
    )
