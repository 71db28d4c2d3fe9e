"""Per-layer metrics of a traced pass, plus the two kernel probes.

The traced pass gives stage times, self time per layer and work counters.
Two probes time single kernels on the pass's heaviest scenario, outside the
pipeline: one ``affine_path`` call over the modulus shift grid, and the
coefficient forms on the half-step phase grid of the longest march.
"""

from __future__ import annotations

import math
import time

import numpy as np

from favard.scenarios import build_system
from favard.solver import grid_oracle

#: Grid resolution of ``favard oracle`` at its default arguments.
ORACLE_RESOLUTION = 201
#: Half-step points per trig evaluation, as in one 200,000-step march chunk.
TRIG_CHUNK = 400_001


def oracle_gap(problem, result) -> float:
    """|solver value - grid oracle value| for hulls of dimension 1 or 2, else 0."""
    if not 1 <= result.hull_dimension <= 2:
        return 0.0
    _, value = grid_oracle(problem, resolution=ORACLE_RESOLUTION)
    return abs(result.value - value)


def _modulus_grid(sc, sys) -> np.ndarray:
    """The shift grid ``estimate_modulus`` scans for this scenario."""
    span = (sc.comparability_horizon or sc.horizon) - sc.min_tau
    if sys.continuous:
        step = max(1, round((0.01 if sc.scan_step is None else sc.scan_step) / sys.h)) * sys.h
        return step * np.arange(1, int(math.floor(span / step + 1e-9)) + 1)
    stride = 1 if sc.scan_step is None else max(1, int(round(sc.scan_step)))
    return np.arange(1, int(span) + 1, stride, dtype=float)


def _probe_system(sc):
    sys = build_system(sc)
    burn = float(sc.seed["long_run"]["burn_in"])
    return sys.shifted(burn if sys.continuous else float(round(burn)))


def _march_probe(sc) -> dict:
    from favard.cocycle import affine_path

    sys = _probe_system(sc)
    taus = _modulus_grid(sc, sys)
    h = sys.h if sys.continuous else 1.0
    steps = int(math.floor(taus[-1] / h + 1e-9))
    d = sys.state_dim + 1
    t = time.perf_counter()
    affine_path(sys, taus)
    elapsed = time.perf_counter() - t
    return {
        "cocycle.affine_path.s": (elapsed, "s"),
        "cocycle.affine_path.steps": (steps, "count"),
        "cocycle.affine_path.shifts": (taus.size, "count"),
        "cocycle.affine_path.steps_per_s": (steps / elapsed, "1/s"),
        # one (d, d) float64 propagator per step and one result per shift
        "cocycle.affine_path.bytes_computed": (8 * d * d * (steps + taus.size), "B"),
    }


def _trig_probe(g, sc) -> dict:
    sys = _probe_system(sc)
    longest = max(float(sc.seed["long_run"]["burn_in"]), 2.0 * float(g.return_taus.max()),
                  sc.comparability_horizon or sc.horizon)
    if sys.continuous:
        times = (sys.h / 2.0) * np.arange(2 * int(round(longest / sys.h)) + 1)
    else:
        times = np.arange(int(longest), dtype=float)
    spec = sys.spec
    elapsed = 0.0
    for lo in range(0, times.size, TRIG_CHUNK):
        theta = spec.phase_at(sys.base_phase, times[lo : lo + TRIG_CHUNK])
        t = time.perf_counter()
        spec.matrix_form(theta)
        spec.forcing_form(theta)
        elapsed += time.perf_counter() - t
    return {"torus.trig_eval.s": (elapsed, "s"), "torus.trig_eval.points": (times.size, "count")}


def per_layer(tracer, batch, scenarios, accuracy, traced: float, untraced: float) -> dict:
    c = tracer.counters
    stage = "cocycle.affine_path.shifts@"
    metrics = {
        "solver.solve_minmax.s": (tracer.total("solver.solve_minmax"), "s"),
        "solver.iterations": (c["solver.solve_minmax.iterations"], "count"),
        "solver.cap_hits": (c["solver.solve_minmax.cap_hits"], "count"),
        "solver.hull_dim": (accuracy["hull_dim"], "count"),
        "solver.ubar_err": (accuracy["ubar_err"], "norm"),
        "solver.anchor_dist": (accuracy["anchor_dist"], "norm"),
        "solver.oracle_gap": (accuracy["oracle_gap"], "value"),
        "solver.find_near_returns.s": (tracer.total("solver.find_near_returns"), "s"),
        "solver.returns": (c["solver.find_near_returns.returns"], "count"),
        "solver.from_returns.s": (tracer.total("solver.from_returns"), "s"),
        "solver.maps": (c["solver.from_returns.maps"], "count"),
        "solver.map_shifts": (c[stage + "solver.from_returns"], "count"),
        "solver.verify_fixed_point.s": (tracer.total("solver.verify_fixed_point"), "s"),
        "cocycle.pipeline_steps": (c["cocycle.affine_path.steps"], "count"),
        "scenarios.resolve_seed.s": (tracer.total("scenarios.resolve_seed"), "s"),
        "comparability.estimate_modulus.s": (tracer.total("comparability.estimate_modulus"), "s"),
        "comparability.shifts": (c[stage + "comparability.estimate_modulus"], "count"),
        "signals.scan_almost_periods.s": (
            tracer.total("signals.scan_almost_periods") + tracer.total("signals.sample_forcing"), "s"),
        "signals.shifts": (c["signals.scan_almost_periods.shifts"], "count"),
        "trace.traced_s": (traced, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    }
    for layer, value in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (value, "s")
    heavy = max(range(len(batch)), key=lambda i: _march_work(scenarios[i]))
    metrics.update(_march_probe(scenarios[heavy]))
    metrics.update(_trig_probe(batch[heavy], scenarios[heavy]))
    return metrics


def _march_work(sc) -> float:
    """Propagator entries of the modulus march: the probes run on the largest."""
    sys = build_system(sc)
    return float(_modulus_grid(sc, sys)[-1]) / (sys.h if sys.continuous else 1.0) * (sys.state_dim + 1) ** 2
