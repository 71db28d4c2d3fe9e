"""Seeded scenario generator with an independent closed-form bounded solution.

Every generated system has constant coefficients and trigonometric forcing,
so its distinguished bounded solution is a finite sum of complex exponentials:

* continuous ``x' = A x + f``: ``x*(t) = Re sum (i nu I - A)^-1 w e^{i(nu t + psi)}``;
* discrete and delay ``x(t+1) = sum_j A_j x(t-j) + f``:
  ``x*(t) = Re sum (e^{i nu} I - sum_j A_j e^{-i j nu})^-1 w e^{i(nu t + psi)}``,

one term per forcing term ``cos(k.theta) c + sin(k.theta) s`` with
``nu = k.omega``, ``psi = k.theta0`` and ``w = c - i s``.  The closed form uses
none of the package's code, so it judges the package's answer.

The structure of scenario ``i`` of a workload (delay order, dimension,
horizon) depends on ``i`` only; the seed draws coefficients, frequencies and
phases.  ``delta_cap`` is placed between the ``K``-th and ``K+1``-th best base
return on the scan grid, so every scenario of a workload has exactly ``K``
base returns and the solver's problem size does not drift with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest admissible Euclidean distance between ``u_bar`` and the stacked
#: closed-form state.  A point 0.3 off the bounded orbit must fail.
UBAR_TOLERANCE = 0.1

#: Verdict and exit code every generated scenario must produce: each system
#: is stable and its long-run seed lies on the bounded orbit.
EXPECTED_VERDICT = "certified"
EXPECTED_EXIT_CODE = 0

#: Base returns admitted per discrete scenario (see ``_cap``).
DISCRETE_RETURNS = 3
#: Delay order of discrete scenario ``i``.  Order 0 takes the solver's
#: cheaper Euclidean path (about 60% of the time of orders 1 and 2), so it is
#: one scenario in seven: the per-scenario times then form one cluster, whose
#: median does not jump with the number of order-0 scenarios a run holds.
DISCRETE_ORDERS = (1, 2, 1, 0, 2, 1, 2)
#: Continuous scenarios have their last base return in this share of the horizon.
LAST_RETURN_SHARE = 0.9
#: Frequency candidates drawn per batch while looking for such a scenario.
CANDIDATES = 32


#: Scenarios per pass.  A traced run covers exactly one pass, untraced and
#: traced, so a pass takes well under half of a 60 s run.  ``wide-state`` is
#: not in ``BENCHMARK.json``; it runs only when asked for by name.
PASS_SIZE = {"discrete-minmax": len(DISCRETE_ORDERS), "continuous-returns": 2, "wide-state": 3}


@dataclass(frozen=True)
class GeneratedScenario:
    """A scenario document plus what the benchmark knows about its answer."""

    doc: dict
    expected_state: np.ndarray  # stacked x* at the burn-in time
    return_taus: np.ndarray  # the base return shifts ``delta_cap`` admits


def _terms_matrix(value: np.ndarray, m: int) -> list[dict]:
    return [{"k": [0] * m, "cos": value.tolist(), "sin": np.zeros_like(value).tolist()}]


def _forcing_terms(rng: np.random.Generator, ks, n: int) -> list[dict]:
    return [
        {"k": list(k), "cos": rng.uniform(-1.0, 1.0, n).tolist(), "sin": rng.uniform(-1.0, 1.0, n).tolist()}
        for k in ks
    ]


def closed_form(doc: dict, t) -> np.ndarray:
    """Bounded solution ``x*(t)`` of a generated system, shape ``(len(t), n)``."""
    sysd = doc["system"]
    omega = np.asarray(sysd["frequencies"], dtype=float)
    theta0 = np.asarray(doc["base_phase"], dtype=float)
    n = int(sysd["dimension"])
    r = int(sysd.get("delay_order", 0))
    blocks = np.asarray(sysd["matrix_terms"][0]["cos"], dtype=float).reshape(n, r + 1, n)
    A = [blocks[:, j, :] for j in range(r + 1)]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.zeros((t.size, n))
    for term in sysd["forcing_terms"]:
        k = np.asarray(term["k"], dtype=float)
        nu, psi = float(k @ omega), float(k @ theta0)
        w = np.asarray(term["cos"], dtype=float) - 1j * np.asarray(term["sin"], dtype=float)
        if sysd["time_domain"] == "continuous":
            M = 1j * nu * np.eye(n) - A[0]
        else:
            M = np.exp(1j * nu) * np.eye(n) - sum(A[j] * np.exp(-1j * j * nu) for j in range(r + 1))
        amp = np.linalg.solve(M, w)
        x += np.real(np.outer(np.exp(1j * (nu * t + psi)), amp))
    return x


def stacked_closed_form(doc: dict, t: float) -> np.ndarray:
    """Stacked state ``(x*(t), x*(t-1), ..., x*(t-r))`` as the package stores it."""
    r = int(doc["system"].get("delay_order", 0))
    return closed_form(doc, t - np.arange(r + 1)).ravel()


def _angular(x: np.ndarray) -> np.ndarray:
    """Distance of each angle to 0 along the circle; a return's quality is the
    largest of these over the frequencies."""
    r = np.mod(x, 2 * math.pi)
    return np.minimum(r, 2 * math.pi - r)


def _cap(q: np.ndarray, count: int) -> np.ndarray:
    """A cap midway between the ``count``-th and next best quality (last axis)."""
    s = np.partition(q, (count - 1, count), axis=-1)
    return 0.5 * (s[..., count - 1] + s[..., count])


def _discrete(rng: np.random.Generator, i: int, label: str) -> tuple[dict, np.ndarray]:
    r = DISCRETE_ORDERS[i]
    horizon = (600.0, 1200.0, 2000.0)[i % 3]
    taus = np.arange(1.0, horizon + 1)
    # The solver's cost is proportional to the number of maps: the base
    # returns plus their distinct pairwise sums.  Returns a < b < c with
    # a + c = 2b share a sum and give one map fewer, so such a frequency is
    # drawn again and every scenario has the same number of maps.
    while True:
        nu = rng.uniform(0.5, 3.0)
        q = _angular(nu * taus)
        cap = float(_cap(q, DISCRETE_RETURNS))
        a, b, c = np.sort(taus[q < cap])
        if a + c != 2 * b:
            break
    weights = rng.dirichlet(np.ones(r + 1)) * rng.choice([-1.0, 1.0], r + 1)
    coeffs = rng.uniform(0.3, 0.7) * weights
    doc = {
        "name": f"{label}-{i}",
        "description": f"scalar discrete recursion, delay order {r}",
        "system": {
            "frequencies": [nu],
            "matrix_terms": _terms_matrix(coeffs[None, :], 1),
            "forcing_terms": _forcing_terms(rng, [[1], [2]] if i % 2 else [[1]], 1),
            "time_domain": "discrete",
            "dimension": 1,
            "delay_order": r,
        },
        "base_phase": [rng.uniform(0.0, 2 * math.pi)],
        "seed": {"long_run": {"start": [0.0] * (r + 1), "burn_in": 100}},
        "horizon": horizon,
        "epsilons": [0.1, 0.01],
    }
    doc["delta_cap"] = cap
    return doc, taus[q < cap]


def _continuous(rng: np.random.Generator, i: int, label: str, n: int, horizon: float,
                burn_in: float, scan_step: float, returns: int,
                almost_periods: bool) -> tuple[dict, np.ndarray]:
    doc = {
        "name": f"{label}-{i}",
        "description": f"stable {n}-dimensional two-frequency flow",
        "horizon": horizon,
        "scan_step": scan_step,
    }
    grid = scan_step * np.arange(1, int(math.floor(horizon / scan_step + 1e-9)) + 1)
    # The map build marches to twice the last return, so the frequency is
    # the first of a seeded batch whose last return lies in the last tenth of
    # the horizon: the march length then varies by at most 10% between seeds.
    while True:
        second = rng.uniform(1.2, 1.8, CANDIDATES)
        q = np.maximum(_angular(grid), _angular(np.multiply.outer(second, grid)))
        caps = _cap(q, returns)
        last = np.max(np.where(q < caps[:, None], grid, 0.0), axis=-1)
        good = np.flatnonzero(last >= LAST_RETURN_SHARE * horizon)
        if good.size:
            c = good[0]
            break
    doc["system"] = {"frequencies": [1.0, float(second[c])]}
    doc["delta_cap"] = float(caps[c])
    taus = grid[q[c] < caps[c]]
    lam = rng.uniform(0.5, 2.0, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    doc["system"].update({
        "matrix_terms": _terms_matrix(Q @ np.diag(-lam) @ Q.T, 2),
        "forcing_terms": _forcing_terms(rng, [[1, 0], [0, 1], [1, -1]], n),
        "time_domain": "continuous",
        "dimension": n,
    })
    doc.update({
        "base_phase": rng.uniform(0.0, 2 * math.pi, 2).tolist(),
        "seed": {"long_run": {"start": [0.0] * n, "burn_in": burn_in}},
        "epsilons": [0.1, 0.03],
    })
    if almost_periods:
        doc["almost_periods"] = {
            "epsilon": 1.0,
            "window_halfwidth": 20.0,
            "scan_range": [0.0, 60.0],
            "scan_step": 0.01,
            "sample_dt": 0.01,
        }
    return doc, taus


def generate(workload: str, seed: int) -> list[GeneratedScenario]:
    """One pass of ``workload``: the same seed gives the same documents."""
    rng = np.random.default_rng([seed, sorted(PASS_SIZE).index(workload)])
    label = f"{workload}-s{seed}"
    out = []
    for i in range(PASS_SIZE[workload]):
        if workload == "discrete-minmax":
            doc, taus = _discrete(rng, i, label)
        elif workload == "continuous-returns":
            doc, taus = _continuous(rng, i, label, n=1, horizon=300.0, burn_in=200.0,
                                    scan_step=0.01, returns=2, almost_periods=True)
        else:
            doc, taus = _continuous(rng, i, label, n=3 + i % 3, horizon=150.0, burn_in=60.0,
                                    scan_step=0.02, returns=2, almost_periods=False)
        burn = float(doc["seed"]["long_run"]["burn_in"])
        out.append(GeneratedScenario(doc, stacked_closed_form(doc, burn), taus))
    return out


def check(g: GeneratedScenario, record) -> tuple[bool, float, str]:
    """(passed, distance of ``u_bar`` to the closed form, reason) for one run."""
    if record.u_bar is None:
        return False, math.inf, f"no u_bar ({record.verdict}: {record.message})"
    err = float(np.linalg.norm(np.asarray(record.u_bar) - g.expected_state))
    if record.verdict != EXPECTED_VERDICT or record.exit_code != EXPECTED_EXIT_CODE:
        return False, err, f"verdict {record.verdict} exit {record.exit_code}"
    if not err <= UBAR_TOLERANCE:
        return False, err, f"u_bar is {err:.3g} from the closed form"
    return True, err, ""
