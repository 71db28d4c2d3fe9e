"""In-memory spans around the favard package's public calls.

``Tracer.instrument`` swaps each public function listed in ``PUBLIC_CALLS``
for a wrapper that records a span (name, start, end, parent) and, where a
counter hook is given, the work the call did.  The pipeline itself is
unchanged: the traced run calls ``run_scenario`` exactly as the untraced one
does, so the difference between the two totals is the tracing overhead.
Spans stay in memory until ``Tracer.dump`` writes them at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import favard.cocycle
import favard.comparability
import favard.scenarios
import favard.solver
import favard.torus

#: Package modules measured as layers; ``cli`` wraps ``run_scenario`` only.
LAYERS = ("torus", "cocycle", "solver", "comparability", "signals", "scenarios")

#: Iteration cap of ``solve_minmax`` at its default arguments.
SOLVER_ITERATION_CAP = inspect.signature(favard.solver.solve_minmax).parameters["iterations"].default


def _march_counts(args, kwargs, result):
    sys, taus = args[0], np.atleast_1d(np.asarray(args[1], dtype=float))
    h = sys.h if sys.continuous else 1.0
    return {"steps": math.floor(float(taus.max(initial=0.0)) / h + 1e-9), "shifts": taus.size}


def _almost_period_counts(args, kwargs, result):
    traj, _, (lo, hi), step = args[:4]
    k_lo = math.ceil(lo / traj.dt - 1e-9)
    k_hi = math.floor(hi / traj.dt + 1e-9)
    return {"shifts": len(range(k_lo, k_hi + 1, round(step / traj.dt)))}


#: (owner, attribute, span name, counter hook).  Owners are the namespaces
#: the pipeline looks the names up in, so a module that imported a function
#: from another module is patched as well as the defining one.
PUBLIC_CALLS = (
    (favard.scenarios, "build_system", "scenarios.build_system", None),
    (favard.scenarios, "resolve_seed", "scenarios.resolve_seed", None),
    (favard.scenarios, "find_near_returns", "solver.find_near_returns",
     lambda a, k, r: {"returns": len(r)}),
    (favard.solver.FavardProblem, "from_returns", "solver.from_returns",
     lambda a, k, r: {"maps": len(r.maps)}),
    (favard.scenarios, "solve_minmax", "solver.solve_minmax",
     lambda a, k, r: {"iterations": r.iterations,
                      "cap_hits": int(r.iterations >= SOLVER_ITERATION_CAP)}),
    (favard.scenarios, "verify_fixed_point", "solver.verify_fixed_point", None),
    (favard.scenarios, "estimate_modulus", "comparability.estimate_modulus", None),
    (favard.scenarios, "sample_forcing", "signals.sample_forcing", None),
    (favard.scenarios, "scan_almost_periods", "signals.scan_almost_periods", _almost_period_counts),
    (favard.scenarios, "evaluate_affine", "cocycle.evaluate_affine", None),
    (favard.comparability, "evaluate_affine", "cocycle.evaluate_affine", None),
    (favard.solver, "affine_map_samples", "cocycle.affine_map_samples", None),
    (favard.cocycle, "affine_path", "cocycle.affine_path", _march_counts),
    (favard.comparability, "affine_path", "cocycle.affine_path", _march_counts),
    (favard.torus.TrigPolynomial, "__call__", "torus.trig_eval", None),
    (favard.torus.QuasiPeriodicSpec, "phase_at", "torus.phase_at", None),
    (favard.torus.QuasiPeriodicSpec, "base_return_quality", "torus.base_return_quality", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    ``results`` holds the latest return value of each span named in ``keep``.
    """

    def __init__(self, keep=()):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.results: dict[str, object] = {}
        self._keep = frozenset(keep)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _caller_stage(self) -> str:
        """Nearest open span outside the cocycle and torus layers."""
        for idx in reversed(self._stack):
            name = self.spans[idx].name
            if not name.startswith(("cocycle.", "torus.")):
                return name
        return "root"

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stage = self._caller_stage()
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in self._keep:
                self.results[name] = result
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
                    self.counters[f"{name}.{key}@{stage}"] += value
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Install the wrappers of ``PUBLIC_CALLS``; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in PUBLIC_CALLS:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    wrapped = self.wrap(name, raw, count)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their direct children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        for s, c in zip(self.spans, child):
            out[s.name.split(".", 1)[0]] += (s.end - s.start) - c
        return out

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)
