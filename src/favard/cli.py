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
    bundled_scenarios,
    run_scenario,
    solve_scenario,
)
from .solver import grid_oracle


def _load_scenario(token: str) -> Scenario | None:
    """The bundled scenario named ``token``, else the scenario file at that
    path; None, with the reason on one line of stderr, when it does not load."""
    bundled = bundled_scenarios()
    if token in bundled:
        return bundled[token]
    try:
        return Scenario.from_dict(json.loads(Path(token).read_text(encoding="utf-8")))
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"{token}: invalid: {exc}", file=_sys.stderr)
        return None


def _run_one(job) -> int:
    return run_scenario(*job).exit_code


def _cmd_run(args) -> int:
    scenarios = [_load_scenario(t) for t in args.scenario]
    if None in scenarios:
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
    for token in args.scenario:
        scenario = _load_scenario(token)
        if scenario is None:
            status = EXIT_ERROR
        else:
            print(f"{token}: ok ({scenario.name})")
    return status


def _cmd_list(args) -> int:
    for name, scenario in sorted(bundled_scenarios().items()):
        print(f"{name:24s} {scenario.description}")
    return EXIT_CERTIFIED


def _cmd_oracle(args) -> int:
    """Cross-check the min-max solve of ``favard run`` against the brute-force grid."""
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return EXIT_ERROR
    try:
        _, _, _, problem, result = solve_scenario(scenario, [], {})
        if result is None:
            print("no near returns below delta_cap; nothing to cross-check")
            return EXIT_INCONCLUSIVE
        u_grid, v_grid = grid_oracle(problem, resolution=args.resolution)
    except (FavardError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
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

    p_val = sub.add_parser("validate", help="validate scenarios without running them")
    p_val.add_argument("scenario", nargs="+", help="bundled scenario name or JSON file")
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
