"""Scenario configurations and the end-to-end analysis pipeline.

A scenario bundles a coefficient system with every knob of the analysis:
seeding, near-return scan, min-max solve, fixed-point certificate, and
comparability modulus.  ``run_scenario`` executes the pipeline and writes
a deterministic artifact directory; timestamps live in a separate
metadata file so payload files are byte-identical across reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .cocycle import CocycleSystem, evaluate_affine
from .comparability import DEFAULT_DELTA_GRID, estimate_modulus
from .errors import BlowUpError, ConfigError, FavardError
from .signals import sample_forcing, scan_almost_periods
from .solver import (
    FavardProblem,
    FavardResult,
    FixedPointReport,
    find_near_returns,
    solve_minmax,
    verify_fixed_point,
)

EXIT_CERTIFIED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_SCENARIO_FIELDS = {
    "name",
    "description",
    "system",
    "base_phase",
    "h",
    "seed",
    "delta_cap",
    "horizon",
    "scan_step",
    "composition_depth",
    "delta_grid",
    "epsilons",
    "comparability_horizon",
    "min_tau",
    "almost_periods",
}
_SEED_FIELDS_STATE = {"state"}
_SEED_FIELDS_LONG_RUN = {"long_run"}
_LONG_RUN_FIELDS = {"start", "burn_in"}
_AP_FIELDS = {"epsilon", "window_halfwidth", "scan_range", "scan_step", "sample_dt"}

_BLOWUP_FACTOR = 1e8


@dataclass(frozen=True)
class Scenario:
    """Validated, serializable description of one full analysis run."""

    name: str
    description: str
    system: dict
    base_phase: tuple
    seed: dict
    delta_cap: float
    horizon: float
    epsilons: tuple
    h: float = 1e-3
    scan_step: float | None = None
    composition_depth: int = 1
    delta_grid: tuple | None = None
    comparability_horizon: float | None = None
    min_tau: float = 0.0
    almost_periods: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "scenario must be a JSON object")
        unknown = set(doc) - _SCENARIO_FIELDS
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for req in ("name", "system", "base_phase", "seed", "delta_cap", "horizon", "epsilons"):
            if req not in doc:
                raise ConfigError(req, "required field is missing")
        seed = doc["seed"]
        if not isinstance(seed, dict) or set(seed) not in (
            _SEED_FIELDS_STATE,
            _SEED_FIELDS_LONG_RUN,
        ):
            raise ConfigError("seed", "must contain exactly 'state' or 'long_run'")
        if "long_run" in seed:
            lr = seed["long_run"]
            if not isinstance(lr, dict) or set(lr) != _LONG_RUN_FIELDS:
                raise ConfigError("seed.long_run", "must contain 'start' and 'burn_in'")
            if float(lr["burn_in"]) <= 0:
                raise ConfigError("seed.long_run.burn_in", "must be positive")
        ap = doc.get("almost_periods")
        if ap is not None:
            if not isinstance(ap, dict) or set(ap) - _AP_FIELDS:
                raise ConfigError("almost_periods", f"fields must be among {sorted(_AP_FIELDS)}")
        if float(doc["delta_cap"]) <= 0:
            raise ConfigError("delta_cap", "must be positive")
        if float(doc["horizon"]) <= 0:
            raise ConfigError("horizon", "must be positive")
        eps = tuple(float(e) for e in doc["epsilons"])
        if not eps or any(e <= 0 for e in eps):
            raise ConfigError("epsilons", "must be a nonempty list of positive numbers")
        depth = int(doc.get("composition_depth", 1))
        if depth not in (0, 1):
            raise ConfigError("composition_depth", "must be 0 or 1")
        grid = doc.get("delta_grid")
        if grid is not None:
            grid = tuple(float(g) for g in grid)
            if not grid or any(g <= 0 for g in grid):
                raise ConfigError("delta_grid", "must be a nonempty list of positive numbers")
        try:
            system = dict(doc["system"])
            _spec_from_doc(system)  # validate eagerly
        except (KeyError, ValueError) as exc:
            raise ConfigError("system", str(exc)) from exc
        return cls(
            name=str(doc["name"]),
            description=str(doc.get("description", "")),
            system=system,
            base_phase=tuple(float(x) for x in doc["base_phase"]),
            seed=seed,
            delta_cap=float(doc["delta_cap"]),
            horizon=float(doc["horizon"]),
            epsilons=eps,
            h=float(doc.get("h", 1e-3)),
            scan_step=None if doc.get("scan_step") is None else float(doc["scan_step"]),
            composition_depth=depth,
            delta_grid=grid,
            comparability_horizon=(
                None
                if doc.get("comparability_horizon") is None
                else float(doc["comparability_horizon"])
            ),
            min_tau=float(doc.get("min_tau", 0.0)),
            almost_periods=ap,
        )

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "description": self.description,
            "system": self.system,
            "base_phase": list(self.base_phase),
            "seed": self.seed,
            "delta_cap": self.delta_cap,
            "horizon": self.horizon,
            "epsilons": list(self.epsilons),
            "h": self.h,
            "composition_depth": self.composition_depth,
            "min_tau": self.min_tau,
        }
        if self.scan_step is not None:
            doc["scan_step"] = self.scan_step
        if self.delta_grid is not None:
            doc["delta_grid"] = list(self.delta_grid)
        if self.comparability_horizon is not None:
            doc["comparability_horizon"] = self.comparability_horizon
        if self.almost_periods is not None:
            doc["almost_periods"] = self.almost_periods
        return doc

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(payload).hexdigest()[:8]


def _spec_from_doc(doc: dict):
    from .torus import QuasiPeriodicSpec

    return QuasiPeriodicSpec.from_dict(doc)


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


def build_system(scenario: Scenario, h_override: float | None = None) -> CocycleSystem:
    spec = _spec_from_doc(scenario.system)
    h = scenario.h if h_override is None else h_override
    return CocycleSystem(spec=spec, base_phase=np.array(scenario.base_phase), h=h)


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
        burn = float(round(burn))
    u = evaluate_affine(sys, start, burn)
    peak = float(sys.state_norm(u))
    if peak > _BLOWUP_FACTOR * (1.0 + float(sys.state_norm(start))):
        raise BlowUpError(
            f"burn-in state left the bounded regime (|u| = {peak:.3g})", t=burn
        )
    return sys.shifted(burn), u


def _allocate_run_dir(out_root: Path, scenario: Scenario) -> Path:
    """Create ``run-NNN`` one past the highest index in the scenario's group.

    One directory scan, then ``mkdir`` claims the name; a concurrent run
    that claimed it first makes the next index the candidate.  Gaps left by
    deleted runs are not refilled.
    """
    group = out_root / f"{scenario.name}-{scenario.digest()}"
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


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def run_scenario(
    scenario: Scenario,
    out_root: Path | str,
    h_override: float | None = None,
    quiet: bool = False,
) -> RunRecord:
    """Execute the full pipeline and write one artifact directory.

    Files written: scenario.json, returns.csv, favard.json,
    comparability.csv, almost_periods.csv, summary.txt, metadata.json.
    Exit code semantics: 0 certified, 2 inconclusive, 1 error.
    """
    run_dir = _allocate_run_dir(Path(out_root), scenario)
    _write(run_dir / "scenario.json", json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    lines = [f"scenario: {scenario.name}", f"description: {scenario.description}"]

    def finish(record: RunRecord) -> RunRecord:
        lines.append(f"verdict: {record.verdict}")
        lines.append(f"exit_code: {record.exit_code}")
        if record.message:
            lines.append(f"message: {record.message}")
        _write(run_dir / "summary.txt", "\n".join(lines) + "\n")
        meta = {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "package_version": _pkg_version,
            "integrator_step": scenario.h if h_override is None else h_override,
        }
        _write(run_dir / "metadata.json", json.dumps(meta, indent=2, sort_keys=True))
        if not quiet:
            print(f"[{scenario.name}] {record.verdict} -> {run_dir}")
        return record

    def empty_artifacts():
        _write(run_dir / "returns.csv", "tau,delta\n")
        _write(run_dir / "favard.json", json.dumps({}, sort_keys=True))
        _write(run_dir / "comparability.csv", "epsilon,delta,horizon,count\n")
        _write(run_dir / "almost_periods.csv", "tau,window_L,epsilon\n")

    try:
        sys = build_system(scenario, h_override)
        sys, u0 = resolve_seed(sys, scenario)
        returns = find_near_returns(sys, scenario.delta_cap, scenario.horizon, scenario.scan_step)
        _write(run_dir / "returns.csv", returns.to_csv())
        lines.append(f"near_returns: {len(returns)} (delta_cap {scenario.delta_cap!r})")
        if len(returns) == 0:
            _write(run_dir / "favard.json", json.dumps({}, sort_keys=True))
            _write(run_dir / "comparability.csv", "epsilon,delta,horizon,count\n")
            _write(run_dir / "almost_periods.csv", "tau,window_L,epsilon\n")
            return finish(
                RunRecord(
                    scenario=scenario,
                    run_dir=run_dir,
                    verdict="inconclusive",
                    exit_code=EXIT_INCONCLUSIVE,
                    message="no near returns below delta_cap within the horizon",
                )
            )

        problem = FavardProblem.from_returns(
            sys, u0, returns, depth=scenario.composition_depth
        )
        result = solve_minmax(problem)
        grid = scenario.delta_grid or DEFAULT_DELTA_GRID
        report = verify_fixed_point(sys, result.u_bar, problem.maps, grid)
        favard_doc = {
            "u_bar": result.u_bar.tolist(),
            "objective_value": result.value,
            "weights": result.weights.tolist(),
            "iterations": result.iterations,
            "hull_dimension": result.hull_dimension,
            "fixed_point": report.to_dict(),
            "provenance": {
                "scenario_digest": scenario.digest(),
                "delta_cap": scenario.delta_cap,
                "horizon": scenario.horizon,
                "h": scenario.h if h_override is None else h_override,
                "optimizer": {
                    "method": result.method,
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "lower_bound": result.lower_bound,
                },
            },
        }
        _write(run_dir / "favard.json", json.dumps(favard_doc, indent=2, sort_keys=True))
        lines.append(f"objective_value: {result.value!r}")
        lines.append(f"u_bar: {result.u_bar.tolist()!r}")
        lines.append(f"fixed_point: {report.verdict} (max residual {report.max_residual!r})")

        comp = None
        if report.verdict == "certified":
            comp = estimate_modulus(
                sys,
                result.u_bar,
                scenario.epsilons,
                scenario.comparability_horizon or scenario.horizon,
                delta_grid=grid,
                min_tau=scenario.min_tau,
                scan_step=scenario.scan_step,
            )
            _write(run_dir / "comparability.csv", comp.to_csv())
            for eps, dlt in zip(comp.epsilons, comp.deltas):
                lines.append(f"delta({eps!r}) = {dlt!r}")
        else:
            _write(run_dir / "comparability.csv", "epsilon,delta,horizon,count\n")

        if scenario.almost_periods is not None:
            ap = dict(scenario.almost_periods)
            dt = float(ap.get("sample_dt", 0.01 if sys.continuous else 1.0))
            L = float(ap["window_halfwidth"])
            lo, hi = (float(x) for x in ap["scan_range"])
            count = int(round((L + hi - (-L)) / dt)) + 1
            traj = sample_forcing(sys.spec, np.array(sys.base_phase), -L, dt, count)
            ap_report = scan_almost_periods(
                traj, float(ap["epsilon"]), (lo, hi), float(ap.get("scan_step", dt)), L
            )
            _write(run_dir / "almost_periods.csv", ap_report.to_csv())
            lines.append(f"almost_periods: {ap_report.periods.size} found")
        else:
            _write(run_dir / "almost_periods.csv", "tau,window_L,epsilon\n")

        certified = report.verdict == "certified"
        return finish(
            RunRecord(
                scenario=scenario,
                run_dir=run_dir,
                verdict=report.verdict,
                exit_code=EXIT_CERTIFIED if certified else EXIT_INCONCLUSIVE,
                u_bar=result.u_bar,
                solve=result,
                fixed_point=report,
                comparability=comp,
                return_count=len(returns),
            )
        )
    except FavardError as exc:
        empty_artifacts()
        return finish(
            RunRecord(
                scenario=scenario,
                run_dir=run_dir,
                verdict="error",
                exit_code=EXIT_ERROR,
                message=f"{type(exc).__name__}: {exc}",
            )
        )


# ---------------------------------------------------------------------------
# bundled scenarios


def _const_matrix(value, m: int) -> list[dict]:
    return [{"k": [0] * m, "cos": value, "sin": [[0.0] * len(value[0])] * len(value)}]


def bundled_scenarios() -> dict[str, Scenario]:
    """Named example scenarios shipped with the package."""
    c1, s1 = math.cos(1.0), math.sin(1.0)
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
        {
            "name": "quasiperiodic-dichotomy",
            "description": "x' = -x + cos t + cos sqrt(2) t, two-frequency stable flow",
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
        {
            "name": "dichotomy-coarse-grid",
            "description": "two-frequency stable flow on a coarse certificate grid (inconclusive)",
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
