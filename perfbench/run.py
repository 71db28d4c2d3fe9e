#!/usr/bin/env python3
"""favard benchmark: seeded closed-form scenarios through ``run_scenario``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload discrete-minmax --seed 1 --seconds 60 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
One operation is one scenario; it fails when its verdict or exit code is not
the expected one or when ``u_bar`` misses the closed-form bounded solution.

The parent process measures set-up in fresh interpreters and runs the
workload in one fresh child process, so ``peak_rss_mb`` covers that workload
only.  Children run with one BLAS thread.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402

SETUP_REPEATS = 7
#: Every child is killed once the whole run has taken this long.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# child roles: set-up probe and workload runner


def _load(workload: str, seed: int):
    """Import the program, generate one pass and validate every document."""
    from favard.scenarios import Scenario

    batch = workloads.generate(workload, seed)
    return batch, [Scenario.from_dict(g.doc) for g in batch]


def _role_setup(args) -> int:
    _load(args.workload, args.seed)
    elapsed = time.perf_counter() - _T0
    print(f"set-up {elapsed:.3f} s", file=sys.stderr)
    print(repr(elapsed))
    return 0


def _run_one(run_scenario, g, sc, out_dir, outcomes):
    """Run one scenario, check it, and return its wall time."""
    t = time.perf_counter()
    try:
        record = run_scenario(sc, out_dir, quiet=True)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        elapsed = time.perf_counter() - t
        print(f"{sc.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        outcomes.append((False, float("inf")))
        return elapsed
    elapsed = time.perf_counter() - t
    ok, err, why = workloads.check(g, record)
    print(f"{sc.name}: {elapsed:.3f} s, u_bar error {err:.2e}" + (f", failed: {why}" if why else ""),
          file=sys.stderr)
    outcomes.append((ok, err))
    return elapsed


def _untraced(args, batch, scenarios, out_dir, outcomes) -> dict:
    from favard.scenarios import run_scenario

    durations = []
    start = time.perf_counter()
    finished = start
    while True:
        for g, sc in zip(batch, scenarios):
            elapsed = finished - start
            if durations and elapsed + statistics.median(durations) > args.seconds:
                return _end_to_end(durations, finished - start)
            durations.append(_run_one(run_scenario, g, sc, out_dir, outcomes))
            finished = time.perf_counter()


def _end_to_end(durations, elapsed) -> dict:
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "scenario_s.p50": (statistics.median(durations), "s"),
        "scenarios_per_min": (60.0 * len(durations) / elapsed, "1/min"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _traced(args, batch, scenarios, out_dir, outcomes) -> dict:
    """One pass, each scenario untraced then traced, then the layer probes."""
    import numpy as np

    import favard.scenarios
    import probes
    import tracing

    tracer = tracing.Tracer(keep=("solver.from_returns", "solver.solve_minmax"))
    untraced = traced = 0.0
    accuracy = {"ubar_err": 0.0, "anchor_dist": 0.0, "oracle_gap": 0.0, "hull_dim": 0}
    for g, sc in zip(batch, scenarios):
        untraced += _run_one(favard.scenarios.run_scenario, g, sc, out_dir, outcomes)
        tracer.results.clear()
        with tracer.instrument():
            traced_call = tracer.wrap("scenarios.run_scenario", favard.scenarios.run_scenario)
            traced += _run_one(traced_call, g, sc, out_dir, outcomes)
        problem = tracer.results.get("solver.from_returns")
        result = tracer.results.get("solver.solve_minmax")
        if problem is None or result is None or not np.isfinite(outcomes[-1][1]):
            continue
        accuracy["ubar_err"] = max(accuracy["ubar_err"], outcomes[-1][1])
        accuracy["anchor_dist"] = max(
            accuracy["anchor_dist"], float(np.linalg.norm(result.u_bar - problem.anchor))
        )
        accuracy["hull_dim"] = max(accuracy["hull_dim"], result.hull_dimension)
        accuracy["oracle_gap"] = max(accuracy["oracle_gap"], probes.oracle_gap(problem, result))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    return probes.per_layer(tracer, batch, scenarios, accuracy, traced, untraced)


def _role_worker(args) -> int:
    batch, scenarios = _load(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"runs-{os.getpid()}"
    outcomes = []
    try:
        measure = _traced if args.trace else _untraced
        metrics = measure(args, batch, scenarios, out_dir, outcomes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = sum(1 for ok, _ in outcomes if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# parent


def _child(role: str, args) -> str:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = DEADLINE_S - (time.perf_counter() - _T0)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    sys.stderr.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return lines[-1]


def _parent(args) -> int:
    if not (SRC / "favard" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setup.append(float(_child("setup", args)))
        result = json.loads(_child("worker", args))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload:20s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:20s} scenarios attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASS_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    role = {"parent": _parent, "setup": _role_setup, "worker": _role_worker}[args.role]
    return role(args)


if __name__ == "__main__":
    raise SystemExit(main())
