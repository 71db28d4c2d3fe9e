"""Scenario configurations and the end-to-end analysis pipeline.

A scenario bundles a coefficient system with every knob of the analysis:
seeding, near-return scan, min-max solve, fixed-point certificate, and
comparability modulus.  ``run_scenario`` executes the pipeline, its front
half in ``solve_scenario`` (which ``favard oracle`` also runs), and writes
a deterministic artifact directory; timestamps live in a separate
metadata file so payload files are byte-identical across reruns.  This
module alone knows the payload formats: each CSV is its header in
``EMPTY_PAYLOAD`` plus rows of plain Python numbers (:func:`_csv`).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import re
import time
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .cocycle import CocycleSystem, check_bounded, evaluate_affine
from .comparability import DEFAULT_DELTA_GRID, estimate_modulus, modulus_steps
from .errors import ConfigError
from .signals import sample_forcing, scan_almost_periods, scan_indices
from .solver import (
    FavardProblem,
    FavardResult,
    FixedPointReport,
    find_near_returns,
    march_maps,
    solve_minmax,
    verify_fixed_point,
)
from .torus import QuasiPeriodicSpec

EXIT_CERTIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
_EXIT_CODES = {"certified": EXIT_CERTIFIED, "inconclusive": EXIT_INCONCLUSIVE, "error": EXIT_ERROR}

#: The payload files of a run as they read when no stage fills them.
EMPTY_PAYLOAD = {
    "returns.csv": "tau,delta\n",
    "favard.json": "{}",
    "comparability.csv": "epsilon,delta,horizon,count\n",
    "almost_periods.csv": "tau,window_L,epsilon\n",
}

#: A name becomes a directory under the output root, so it is one safe path
#: component: letters, digits, '.', '_' and '-', not starting with '.'.
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")
_AP_REQUIRED = {"epsilon", "window_halfwidth", "scan_range"}
_AP_FIELDS = _AP_REQUIRED | {"scan_step", "sample_dt"}
#: Most shifts one scan of a scenario may cover, and most points its
#: almost-period sample may hold: ``from_dict`` rejects a scenario that asks
#: for more before any array is sized, so a run's scan memory is bounded.
_MAX_POINTS = 1_000_000
#: Most march steps a run may take, the burn-in plus the longer of the
#: near-return and comparability horizons, checked the same way: about
#: 9 s of march for a scalar continuous system on one x86-64 core.
_MAX_STEPS = 100_000_000


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Validated, serializable description of one full analysis run.

    The fields are the scenario file's fields; those without a default are
    required.
    """

    name: str
    description: str = ""
    system: dict
    base_phase: tuple
    seed: dict
    delta_cap: float
    horizon: float
    epsilons: tuple
    h: float = 1e-3
    scan_step: float | None = None
    delta_grid: tuple | None = None
    comparability_horizon: float | None = None
    min_tau: float = 0.0
    almost_periods: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "scenario must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for f in fields(cls):
            if f.default is MISSING and f.name not in doc:
                raise ConfigError(f.name, "required field is missing")
        # the defaults, then a copy of the document, its values replaced as validated
        values = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
        values |= copy.deepcopy(doc)
        if not isinstance(values["name"], str) or not _NAME.fullmatch(values["name"]):
            raise ConfigError("name", "only letters, digits, '.', '_' and '-', not starting with '.'")
        values["description"] = str(values["description"])
        system = values["system"]
        if not isinstance(system, dict):
            raise ConfigError("system", "must be a JSON object")
        try:
            spec = QuasiPeriodicSpec.from_dict(system)  # validate eagerly
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("system", str(exc)) from exc
        base_phase = values["base_phase"] = _numbers("base_phase", values["base_phase"])
        if len(base_phase) != spec.num_frequencies:
            raise ConfigError("base_phase", f"needs {spec.num_frequencies} entries, one per frequency")
        seed, burn_in = values["seed"], 0.0
        if not isinstance(seed, dict) or set(seed) not in ({"state"}, {"long_run"}):
            raise ConfigError("seed", "must contain exactly 'state' or 'long_run'")
        if "long_run" in seed:
            lr = seed["long_run"]
            if not isinstance(lr, dict) or set(lr) != {"start", "burn_in"}:
                raise ConfigError("seed.long_run", "must contain 'start' and 'burn_in'")
            burn_in = _positive("seed.long_run.burn_in", lr["burn_in"])
            state_field, state = "seed.long_run.start", lr["start"]
        else:
            state_field, state = "seed.state", seed["state"]
        if len(_numbers(state_field, state)) != spec.stacked_dimension:
            raise ConfigError(
                state_field, f"needs {spec.stacked_dimension} entries, the stacked state dimension"
            )
        ap = values["almost_periods"]
        if ap is not None:
            if not isinstance(ap, dict) or set(ap) - _AP_FIELDS:
                raise ConfigError("almost_periods", f"fields must be among {sorted(_AP_FIELDS)}")
            missing = _AP_REQUIRED - set(ap)
            if missing:
                raise ConfigError(f"almost_periods.{sorted(missing)[0]}", "required field is missing")
            _check_almost_periods(ap, spec.time_domain == "continuous")
        values["delta_cap"] = _positive("delta_cap", values["delta_cap"])
        horizon = values["horizon"] = _positive("horizon", values["horizon"])
        comp_horizon = values["comparability_horizon"]
        if comp_horizon is not None:
            comp_horizon = _positive("comparability_horizon", comp_horizon)
            values["comparability_horizon"] = comp_horizon
        min_tau = values["min_tau"] = _number("min_tau", values["min_tau"])
        if not 0 <= min_tau < (comp_horizon or horizon):
            raise ConfigError("min_tau", "must be at least 0 and below the comparability horizon")
        values["h"] = _positive("h", values["h"])
        scan_step = values["scan_step"]
        if scan_step is not None:
            scan_step = values["scan_step"] = _positive("scan_step", scan_step)
        march = CocycleSystem(spec, np.array(base_phase), values["h"])
        spacing = march.stride(scan_step) * march.step  # of the near-return and modulus scans
        span = (comp_horizon or horizon) - min_tau
        for field, length in (("horizon", horizon), ("comparability_horizon", span)):
            if length / spacing > _MAX_POINTS:
                raise ConfigError(field, f"scans more than {_MAX_POINTS} shifts")
        longest = max((burn_in, "seed.long_run.burn_in"), (horizon, "horizon"),
                      (comp_horizon or 0.0, "comparability_horizon"))
        if (burn_in + max(horizon, comp_horizon or 0.0)) / march.step > _MAX_STEPS:
            raise ConfigError(longest[1], f"marches more than {_MAX_STEPS} steps")
        if (comp_horizon is not None or min_tau > 0) and march.steps(span) < march.stride(scan_step):
            raise ConfigError("min_tau" if min_tau > 0 else "comparability_horizon",
                              "leaves a comparability scan shorter than one scan step")
        values["epsilons"] = _positive("epsilons", values["epsilons"], many=True)
        if values["delta_grid"] is not None:
            values["delta_grid"] = _positive("delta_grid", values["delta_grid"], many=True)
        return cls(**values)

    def to_dict(self) -> dict:
        """The scenario file, a copy: unset optional fields left out, tuples as lists."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else copy.deepcopy(v)
                for k, v in items if v is not None}

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(payload).hexdigest()[:8]


def _number(field: str, value) -> float:
    """``value`` as a finite float, else a :class:`ConfigError` naming ``field``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field, "must be a number") from None
    if not math.isfinite(x):
        raise ConfigError(field, "must be finite")
    return x


def _numbers(field: str, values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(field, "must be a list of numbers")
    return tuple(_number(field, v) for v in values)


def _positive(field: str, value, many: bool = False):
    """``value`` as a positive finite float, or with ``many`` a nonempty tuple
    of them; else a :class:`ConfigError` naming ``field``."""
    if many:
        values = _numbers(field, value)
        if not values or min(values) <= 0:
            raise ConfigError(field, "must be a nonempty list of positive numbers")
        return values
    x = _number(field, value)
    if x <= 0:
        raise ConfigError(field, "must be positive")
    return x


def _check_almost_periods(ap: dict, continuous: bool) -> tuple:
    """The ``almost_periods`` values ``(sample_dt, window_halfwidth, epsilon,
    scan_range, scan_step)``, defaults filled in; a :class:`ConfigError` for
    values on which the scan cannot run."""
    num = {k: _number(f"almost_periods.{k}", v) for k, v in ap.items() if k != "scan_range"}
    scan_range = _numbers("almost_periods.scan_range", ap["scan_range"])
    if len(scan_range) != 2 or not 0 <= scan_range[0] <= scan_range[1]:
        raise ConfigError("almost_periods.scan_range", "needs 2 entries, [lo, hi] with 0 <= lo <= hi")
    dt = num.setdefault("sample_dt", 0.01 if continuous else 1.0)
    num.setdefault("scan_step", dt)
    for key in ("epsilon", "window_halfwidth", "sample_dt", "scan_step"):
        if num[key] <= 0:
            raise ConfigError(f"almost_periods.{key}", "must be positive")
    L, step = num["window_halfwidth"], num["scan_step"]
    too_many = f"samples more than {_MAX_POINTS} points"
    # shifts are distinct sample points: twice the cap's worth cannot fit, and are never listed
    if scan_range[1] - scan_range[0] > 2 * _MAX_POINTS * step:
        raise ConfigError("almost_periods.sample_dt", too_many)
    try:  # the scan's own conversion of its times, so a scenario that validates runs
        _, hi, shifts = scan_indices(-L, dt, scan_range, step, L)
    except ValueError:
        raise ConfigError("almost_periods.scan_step", "must be a positive whole multiple of sample_dt") from None
    if hi + shifts.max(initial=0) > _MAX_POINTS:  # the points the run samples, from -L on
        raise ConfigError("almost_periods.sample_dt", too_many)
    return dt, L, num["epsilon"], scan_range, step


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one pipeline run, mirroring the files written to disk."""

    scenario: Scenario
    run_dir: Path
    verdict: str  # "certified", "inconclusive" or "error"
    exit_code: int
    message: str = ""
    u_bar: np.ndarray | None = None
    solve: FavardResult | None = None
    fixed_point: FixedPointReport | None = None
    comparability: object | None = None
    return_count: int = 0


# ---------------------------------------------------------------------------
# pipeline


def build_system(scenario: Scenario) -> CocycleSystem:
    spec = QuasiPeriodicSpec.from_dict(scenario.system)
    return CocycleSystem(spec=spec, base_phase=np.array(scenario.base_phase), h=scenario.h)


def resolve_seed(sys: CocycleSystem, scenario: Scenario) -> tuple[CocycleSystem, np.ndarray]:
    """Initial state, burning in and re-anchoring for long-run seeds.

    A long-run seed advances the start state for ``burn_in`` time units and
    re-anchors the base phase there, so the analysis sees the settled orbit.
    A burned-in state beyond the bounded-orbit threshold is a blow-up.
    """
    if "state" in scenario.seed:
        return sys, np.asarray(scenario.seed["state"], dtype=float)
    lr = scenario.seed["long_run"]
    start = np.asarray(lr["start"], dtype=float)
    burn = float(lr["burn_in"])
    if not sys.continuous:
        burn = float(sys.steps(burn))
    u = evaluate_affine(sys, start, burn)
    check_bounded(float(sys.state_norm(u)), float(sys.state_norm(start)), "burn-in state", t=burn)
    return sys.shifted(burn), u


def _allocate_run_dir(group: Path) -> Path:
    """Create ``run-NNN`` in ``group``, one past the highest index there.

    One directory scan, then ``mkdir`` claims the name; a concurrent run
    that claimed it first makes the next index the candidate.  Gaps left by
    deleted runs are not refilled.
    """
    group.mkdir(parents=True, exist_ok=True)
    with os.scandir(group) as entries:
        taken = [int(e.name[4:]) for e in entries
                 if e.name.startswith("run-") and e.name[4:].isdigit()]
    counter = max(taken, default=0) + 1
    while True:
        run_dir = group / f"run-{counter:03d}"
        try:
            run_dir.mkdir()
            return run_dir
        except FileExistsError:
            counter += 1


def _csv(name: str, rows) -> str:
    """The payload CSV ``name``: its ``EMPTY_PAYLOAD`` header, then one line
    per row of plain Python numbers."""
    return EMPTY_PAYLOAD[name] + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@contextmanager
def _stage(stages: dict, name: str):
    """Record the wall seconds of the block as ``stages[name]``, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - start


@np.errstate(over="ignore", invalid="ignore")
def solve_scenario(scenario: Scenario, lines: list, meta: dict) -> tuple:
    """The pipeline's front half, seed to min-max solve, appending its summary
    line to ``lines`` and its stage timings and table counters to ``meta``.

    Returns ``(system, returns, table, problem, result)``, the system
    re-anchored after any burn-in; the last three are None with no returns.
    A march that overflows prints no numpy warning: its non-finite maps meet
    :func:`check_bounded` or the finite check of :func:`evaluate_affine`.
    """
    stages = meta["stages"] = {}
    with _stage(stages, "seed"):
        sys = build_system(scenario)
        sys, u0 = resolve_seed(sys, scenario)
    with _stage(stages, "near_returns"):
        returns = find_near_returns(sys, scenario.delta_cap, scenario.horizon, scenario.scan_step)
    lines.append(f"near_returns: {len(returns)} (delta_cap {scenario.delta_cap!r})")
    if len(returns) == 0:
        return sys, returns, None, None, None

    # one march serves the return maps and the comparability scan
    span = scenario.comparability_horizon or scenario.horizon
    with _stage(stages, "table"):
        scan = modulus_steps(sys, span, scenario.min_tau, scenario.scan_step)
        table = march_maps(sys, np.concatenate([returns.steps, scan]))
    meta["table_rows"], meta["march_steps"] = len(table.steps), int(table.steps[-1])
    with _stage(stages, "solve"):
        problem = FavardProblem.from_returns(sys, u0, returns, table)
        result = solve_minmax(problem)
    return sys, returns, table, problem, result


def _analyse(scenario: Scenario, digest: str, files: dict, lines: list, meta: dict) -> dict:
    """Run the pipeline stages, filling ``files``, the summary ``lines`` and
    the stage timings and table counters of ``meta``.

    Returns the outcome's :class:`RunRecord` fields other than the scenario,
    the run directory and the exit code.
    """
    sys, returns, table, problem, result = solve_scenario(scenario, lines, meta)
    files["returns.csv"] = _csv("returns.csv", zip(returns.taus.tolist(), returns.deltas.tolist()))
    if result is None:
        return {"verdict": "inconclusive",
                "message": "no near returns below delta_cap within the horizon"}
    stages, grid = meta["stages"], scenario.delta_grid or DEFAULT_DELTA_GRID
    with _stage(stages, "certificate"):
        report = verify_fixed_point(sys, result.u_bar, problem.maps, grid)
    favard_doc = {
        "u_bar": result.u_bar.tolist(),
        "objective_value": result.value,
        "weights": result.weights.tolist(),
        "iterations": result.iterations,
        "hull_dimension": result.hull_dimension,
        "fixed_point": asdict(report),
        "provenance": {
            "scenario_digest": digest,
            "delta_cap": scenario.delta_cap,
            "horizon": scenario.horizon,
            "h": scenario.h,
            "optimizer": {
                "method": "two_stage_lp",
                "iterations": result.iterations,
                "converged": result.converged,
                "lower_bound": result.lower_bound,
            },
        },
    }
    files["favard.json"] = json.dumps(favard_doc, indent=2, sort_keys=True)
    lines.append(f"objective_value: {result.value!r}")
    lines.append(f"u_bar: {result.u_bar.tolist()!r}")
    lines.append(f"fixed_point: {report.verdict} (max residual {report.max_residual!r})")

    comp = None
    if report.verdict == "certified":
        with _stage(stages, "modulus"), np.errstate(over="ignore", invalid="ignore"):
            comp = estimate_modulus(sys, result.u_bar, scenario.epsilons,
                                    scenario.comparability_horizon or scenario.horizon,
                                    delta_grid=grid, min_tau=scenario.min_tau,
                                    scan_step=scenario.scan_step, table=table)
        rows = zip(comp.epsilons, comp.deltas, [comp.horizon] * len(comp.deltas), comp.counts)
        files["comparability.csv"] = _csv("comparability.csv", rows)
        for eps, dlt in zip(comp.epsilons, comp.deltas):
            lines.append(f"delta({eps!r}) = {dlt!r}")
    del table  # not held through the almost-period scan

    if scenario.almost_periods is not None:
        dt, L, eps, scan_range, step = _check_almost_periods(scenario.almost_periods, sys.continuous)
        with _stage(stages, "almost_periods"):
            _, end, shifts = scan_indices(-L, dt, scan_range, step, L)
            count = end + int(shifts.max(initial=0))  # the indices the scan reads, from -L on
            traj = sample_forcing(sys.spec, np.array(sys.base_phase), -L, dt, count)
            ap_report = scan_almost_periods(traj, eps, scan_range, step, L)
        rows = ((tau, L, eps) for tau in ap_report.periods.tolist())
        files["almost_periods.csv"] = _csv("almost_periods.csv", rows)
        lines.append(f"almost_periods: {ap_report.periods.size} found")

    return {
        "verdict": report.verdict,
        "u_bar": result.u_bar,
        "solve": result,
        "fixed_point": report,
        "comparability": comp,
        "return_count": len(returns),
    }


def run_scenario(
    scenario: Scenario,
    out_root: Path | str,
    quiet: bool = False,
) -> RunRecord:
    """Execute the full pipeline and write one artifact directory.

    Files written: scenario.json, returns.csv, favard.json,
    comparability.csv, almost_periods.csv, summary.txt, metadata.json.
    Exit code semantics: 0 certified, 2 inconclusive, 1 error.  Any
    exception of the pipeline is an error verdict: the payload files read
    as in ``EMPTY_PAYLOAD`` and metadata.json holds the traceback.
    metadata.json also holds the wall seconds of each stage the run reached
    (``stages``) and, once the table is built, its ``table_rows`` and the
    ``march_steps`` of its march.
    """
    digest = scenario.digest()
    run_dir = _allocate_run_dir(Path(out_root) / f"{scenario.name}-{digest}")
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": _pkg_version,
        "integrator_step": scenario.h,
    }
    files = {"scenario.json": json.dumps(scenario.to_dict(), indent=2, sort_keys=True)}
    files.update(EMPTY_PAYLOAD)
    lines = [f"scenario: {scenario.name}", f"description: {scenario.description}"]
    try:
        outcome = _analyse(scenario, digest, files, lines, meta)
    except Exception as exc:
        files.update(EMPTY_PAYLOAD)
        outcome = {"verdict": "error", "message": f"{type(exc).__name__}: {exc}"}
        meta["traceback"] = traceback.format_exc()
    record = RunRecord(
        scenario=scenario,
        run_dir=run_dir,
        exit_code=_EXIT_CODES[outcome["verdict"]],
        **outcome,
    )
    lines.append(f"verdict: {record.verdict}")
    lines.append(f"exit_code: {record.exit_code}")
    if record.message:
        lines.append(f"message: {record.message}")
    files["summary.txt"] = "\n".join(lines) + "\n"
    files["metadata.json"] = json.dumps(meta, indent=2, sort_keys=True)
    for name, text in files.items():
        (run_dir / name).write_text(text, encoding="utf-8")
    if not quiet:
        print(f"[{scenario.name}] {record.verdict} -> {run_dir}")
    return record


# ---------------------------------------------------------------------------
# bundled scenarios


def _const_matrix(value, m: int) -> list[dict]:
    return [{"k": [0] * m, "cos": value, "sin": [[0.0] * len(value[0])] * len(value)}]


def bundled_scenarios() -> dict[str, Scenario]:
    """Named example scenarios shipped with the package."""
    c1, s1 = math.cos(1.0), math.sin(1.0)
    dichotomy = {  # the two-frequency stable flow, settled by a burn-in
        "system": {
            "frequencies": [1.0, math.sqrt(2.0)],
            "matrix_terms": _const_matrix([[-1.0]], 2),
            "forcing_terms": [
                {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
                {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
            ],
            "time_domain": "continuous",
            "dimension": 1,
        },
        "base_phase": [0.0, 0.0],
        "seed": {"long_run": {"start": [0.0], "burn_in": 200.0}},
    }
    docs = [
        {
            "name": "equilibrium",
            "description": "scalar flow x' = -x + 1 relaxing onto the constant solution",
            "system": {
                "frequencies": [1.0],
                "matrix_terms": _const_matrix([[-1.0]], 1),
                "forcing_terms": [{"k": [0], "cos": [1.0], "sin": [0.0]}],
                "time_domain": "continuous",
                "dimension": 1,
            },
            "base_phase": [0.0],
            "seed": {"state": [1.0]},
            "delta_cap": 0.05,
            "horizon": 200.0,
            "epsilons": [0.1, 0.01],
        },
        dichotomy | {
            "name": "quasiperiodic-dichotomy",
            "description": "x' = -x + cos t + cos sqrt(2) t, two-frequency stable flow",
            "delta_cap": 0.05,
            "horizon": 800.0,
            "epsilons": [0.1, 0.03, 0.01],
            "almost_periods": {
                "epsilon": 1.0,
                "window_halfwidth": 20.0,
                "scan_range": [0.0, 60.0],
                "scan_step": 0.01,
                "sample_dt": 0.01,
            },
        },
        {
            "name": "telescoping-discrete",
            "description": "u(t+1) = u(t) + cos(t+1) - cos(t); returns telescope to cos tau - 1",
            "system": {
                "frequencies": [1.0],
                "matrix_terms": _const_matrix([[1.0]], 1),
                "forcing_terms": [{"k": [1], "cos": [c1 - 1.0], "sin": [-s1]}],
                "time_domain": "discrete",
                "dimension": 1,
            },
            "base_phase": [0.0],
            "seed": {"state": [1.0]},
            "delta_cap": 0.05,
            "horizon": 1000.0,
            "epsilons": [0.1, 0.01],
        },
        {
            "name": "discrete-dichotomy",
            "description": "u(t+1) = 0.5 u(t) + cos(sqrt(2) t), contracting recursion",
            "system": {
                "frequencies": [math.sqrt(2.0)],
                "matrix_terms": _const_matrix([[0.5]], 1),
                "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
                "time_domain": "discrete",
                "dimension": 1,
            },
            "base_phase": [0.0],
            "seed": {"long_run": {"start": [0.0], "burn_in": 100}},
            "delta_cap": 0.05,
            "horizon": 2000.0,
            "epsilons": [0.1, 0.01],
        },
        {
            "name": "delay-stable",
            "description": "u(t+1) = 0.3 u(t) + 0.2 u(t-1) + cos(sqrt(2) t), one-step delay",
            "system": {
                "frequencies": [math.sqrt(2.0)],
                "matrix_terms": _const_matrix([[0.3, 0.2]], 1),
                "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
                "time_domain": "discrete",
                "dimension": 1,
                "delay_order": 1,
            },
            "base_phase": [0.0],
            "seed": {"long_run": {"start": [0.0, 0.0], "burn_in": 100}},
            "delta_cap": 0.05,
            "horizon": 2000.0,
            "epsilons": [0.1, 0.01],
        },
        dichotomy | {
            "name": "dichotomy-coarse-grid",
            "description": "two-frequency stable flow on a coarse certificate grid (inconclusive)",
            "delta_cap": 0.05,
            "horizon": 500.0,
            "delta_grid": [0.05, 0.03],
            "epsilons": [0.1],
        },
        {
            "name": "unstable-blowup",
            "description": "x' = 0.1 x + cos t; the long-run seed leaves the bounded regime",
            "system": {
                "frequencies": [1.0],
                "matrix_terms": _const_matrix([[0.1]], 1),
                "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
                "time_domain": "continuous",
                "dimension": 1,
            },
            "base_phase": [0.0],
            "seed": {"long_run": {"start": [1.0], "burn_in": 220.0}},
            "delta_cap": 0.05,
            "horizon": 100.0,
            "epsilons": [0.1],
        },
    ]
    return {d["name"]: Scenario.from_dict(d) for d in docs}
