"""Command-line front end: run, validate, list and oracle subcommands."""

from __future__ import annotations

import argparse
import json
import sys as _sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, FavardError
from .scenarios import (
    EXIT_CERTIFIED,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    Scenario,
    build_system,
    bundled_scenarios,
    resolve_seed,
    run_scenario,
)
from .solver import FavardProblem, find_near_returns, grid_oracle, solve_minmax


def _load_scenario(token: str) -> Scenario:
    bundled = bundled_scenarios()
    if token in bundled:
        return bundled[token]
    path = Path(token)
    if not path.exists():
        raise ConfigError("name", f"{token!r} is neither a bundled scenario nor a file")
    return Scenario.from_dict(json.loads(path.read_text(encoding="utf-8")))


def _run_one(args_tuple) -> int:
    scenario, out, quiet = args_tuple
    return run_scenario(scenario, out, quiet=quiet).exit_code


def _cmd_run(args) -> int:
    try:
        scenarios = [_load_scenario(t) for t in args.scenario]
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    jobs = [(s, args.out, args.quiet) for s in scenarios]
    if args.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            codes = list(pool.map(_run_one, jobs))
    else:
        codes = [_run_one(j) for j in jobs]
    if EXIT_ERROR in codes:
        return EXIT_ERROR
    if EXIT_INCONCLUSIVE in codes:
        return EXIT_INCONCLUSIVE
    return EXIT_CERTIFIED


def _cmd_validate(args) -> int:
    status = EXIT_CERTIFIED
    for token in args.file:
        try:
            scenario = Scenario.from_dict(json.loads(Path(token).read_text(encoding="utf-8")))
            print(f"{token}: ok ({scenario.name})")
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            print(f"{token}: invalid: {exc}")
            status = EXIT_ERROR
    return status


def _cmd_list(args) -> int:
    for name, scenario in sorted(bundled_scenarios().items()):
        print(f"{name:24s} {scenario.description}")
    return EXIT_CERTIFIED


def _cmd_oracle(args) -> int:
    """Cross-check the solver's minimizer against the brute-force grid."""
    try:
        scenario = _load_scenario(args.scenario)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    try:
        system = build_system(scenario)
        system, u0 = resolve_seed(system, scenario)
        returns = find_near_returns(
            system, scenario.delta_cap, scenario.horizon, scenario.scan_step
        )
        if len(returns) == 0:
            print("no near returns below delta_cap; nothing to cross-check")
            return EXIT_INCONCLUSIVE
        problem = FavardProblem.from_returns(system, u0, returns)
        result = solve_minmax(problem)
        u_grid, v_grid = grid_oracle(problem, resolution=args.resolution)
    except FavardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    gap = abs(result.value - v_grid)
    if not args.quiet:
        print(f"solver: value {result.value!r} at {result.u_bar.tolist()!r}")
        print(f"grid oracle: value {v_grid!r} at {np.asarray(u_grid).tolist()!r}")
        print(f"gap: {gap!r}")
    agree = gap <= 1e-6 * (1.0 + abs(v_grid)) + 1e-9
    return EXIT_CERTIFIED if agree else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favard",
        description="Distinguished bounded solutions of quasi-periodic linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more analysis scenarios")
    p_run.add_argument("scenario", nargs="+", help="bundled scenario name or JSON file")
    p_run.add_argument("--out", default="runs", help="artifact output root (default: runs)")
    p_run.add_argument("--workers", type=int, default=1, help="parallel scenario workers")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate scenario JSON files")
    p_val.add_argument("file", nargs="+")
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(fn=_cmd_list)

    p_oracle = sub.add_parser(
        "oracle", help="cross-check the solver against the brute-force grid minimizer"
    )
    p_oracle.add_argument("scenario", help="bundled scenario name or JSON file")
    p_oracle.add_argument("--resolution", type=int, default=201)
    p_oracle.add_argument("--quiet", action="store_true")
    p_oracle.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
