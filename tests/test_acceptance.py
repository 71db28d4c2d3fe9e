"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy shared computations (the two-frequency dichotomy pipeline at horizon
2000) are session-scoped fixtures reused across criteria.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from favard import (
    CocycleSystem,
    DEFAULT_DELTA_GRID,
    FavardProblem,
    QuasiPeriodicSpec,
    ReciprocalForcing,
    TrigPolynomial,
    estimate_modulus,
    evaluate_affine,
    find_near_returns,
    fundamental_matrix,
    sample_signal,
    scan_almost_periods,
    solve_minmax,
    verify_cocycle_identity,
    verify_fixed_point,
)
from favard.cli import main as cli_main
from favard.scenarios import bundled_scenarios

SQRT2 = math.sqrt(2.0)


_write_line = print


@pytest.fixture(scope="session", autouse=True)
def _route_reports_to_terminal(request):
    # bypass output capture so the PASS/FAIL lines land in the pytest log
    global _write_line
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        _write_line = reporter.write_line


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    _write_line(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))


def continuous_decay(freqs_forcing):
    terms = [{"k": k, "cos": [1.0], "sin": [0.0]} for k in freqs_forcing["terms"]]
    doc = {
        "frequencies": freqs_forcing["omega"],
        "matrix_terms": [
            {
                "k": [0] * len(freqs_forcing["omega"]),
                "cos": [[-1.0]],
                "sin": [[0.0]],
            }
        ],
        "forcing_terms": terms,
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(len(freqs_forcing["omega"])))


def one_freq_system():
    return continuous_decay({"omega": [1.0], "terms": [[1]]})


def two_freq_system():
    return continuous_decay({"omega": [1.0, SQRT2], "terms": [[1, 0], [0, 1]]})


def discrete_2d_system():
    # mildly rotating contracting 2-D recursion with quasi-periodic forcing
    c, s = 0.6 * math.cos(0.5), 0.6 * math.sin(0.5)
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [{"k": [0], "cos": [[c, -s], [s, c]], "sin": [[0.0, 0.0], [0.0, 0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0, 0.0], "sin": [0.0, 0.5]}],
        "time_domain": "discrete",
        "dimension": 2,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def delay_system():
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [{"k": [0], "cos": [[0.3, 0.2]], "sin": [[0.0, 0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "discrete",
        "dimension": 1,
        "delay_order": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def telescoping_system():
    c1, s1 = math.cos(1.0), math.sin(1.0)
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [c1 - 1.0], "sin": [-s1]}],
        "time_domain": "discrete",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


@dataclass
class DichotomyRun:
    system: CocycleSystem  # re-anchored at the settled orbit
    u0: np.ndarray  # burned-in state (long-run oracle)
    u_bar: np.ndarray
    problem: FavardProblem
    verdict: str
    residual_at_min_delta: float


@pytest.fixture(scope="session")
def dichotomy_run() -> DichotomyRun:
    """Criterion-3 pipeline, shared by criteria 3, 6 and 7."""
    sys0 = two_freq_system()
    u_a = evaluate_affine(sys0, [0.0], 200.0)
    u_b = evaluate_affine(sys0, [1.0], 200.0)
    assert abs(u_a[0] - u_b[0]) <= 1e-6, "two long-run seeds must agree"
    sys = sys0.shifted(200.0)
    returns = find_near_returns(sys, 0.05, 2000.0)
    problem = FavardProblem.from_returns(sys, u_a, returns)
    result = solve_minmax(problem)
    rep = verify_fixed_point(sys, result.u_bar, problem.maps, DEFAULT_DELTA_GRID)
    return DichotomyRun(
        system=sys,
        u0=u_a,
        u_bar=result.u_bar,
        problem=problem,
        verdict=rep.verdict,
        residual_at_min_delta=rep.residuals[-1],
    )


def test_criterion_1_cocycle_algebra():
    rng = np.random.default_rng(42)
    backends = {
        "continuous": (two_freq_system(), 1, 1e-7),
        "discrete": (discrete_2d_system(), 2, 1e-12),
        "delay": (delay_system(), 2, 1e-12),
    }
    worst = {}
    for name, (sys, dim, tol) in backends.items():
        max_identity = 0.0
        max_affine = 0.0
        for _ in range(100):
            u = rng.uniform(-2.0, 2.0, size=dim)
            v = rng.uniform(-2.0, 2.0, size=dim)
            if sys.continuous:
                t, s = rng.uniform(0.0, 10.0, size=2)
            else:
                t, s = (int(x) for x in rng.integers(0, 11, size=2))
            assert np.array_equal(evaluate_affine(sys, u, 0), u), "zero shift not exact"
            max_identity = max(max_identity, verify_cocycle_identity(sys, u, t, s))
            mid = evaluate_affine(sys, (u + v) / 2, t)
            avg = (evaluate_affine(sys, u, t) + evaluate_affine(sys, v, t)) / 2
            defect = float(sys.state_norm(mid - avg))
            bound = 1e-9 * (1 + float(sys.state_norm(u)) + float(sys.state_norm(v)))
            max_affine = max(max_affine, defect / bound)
        worst[name] = (max_identity, tol, max_affine)
    ok = all(mi <= tol and ma <= 1.0 for mi, tol, ma in worst.values())
    report(
        "criterion-1 cocycle algebra",
        ok,
        ", ".join(f"{n}: identity {mi:.2e} (tol {tol:.0e})" for n, (mi, tol, _) in worst.items()),
    )
    for name, (mi, tol, ma) in worst.items():
        assert mi <= tol, name
        assert ma <= 1.0, name


def test_criterion_2_closed_form_oracle():
    sys = one_freq_system()
    val = evaluate_affine(sys, [0.5], 2 * math.pi)[0]
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [0], "cos": [0.0], "sin": [0.0]}],
        "time_domain": "continuous",
        "dimension": 1,
    }
    hom = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
    U = fundamental_matrix(hom, 1.0)[0, 0]
    ok = abs(val - 0.5) <= 1e-6 and abs(U - math.exp(-1.0)) <= 1e-8
    report(
        "criterion-2 closed-form oracle",
        ok,
        f"periodic return |err| {abs(val - 0.5):.2e}, exp |err| {abs(U - math.exp(-1)):.2e}",
    )
    assert abs(val - 0.5) <= 1e-6
    assert abs(U - math.exp(-1.0)) <= 1e-8


def test_criterion_3_dichotomy_minimizer(dichotomy_run):
    run = dichotomy_run
    # independent closed form of the unique bounded solution at t = 200
    t = 200.0
    closed = (math.cos(t) + math.sin(t)) / 2 + (
        math.cos(SQRT2 * t) + SQRT2 * math.sin(SQRT2 * t)
    ) / 3
    err_long = abs(run.u_bar[0] - run.u0[0])
    err_closed = abs(run.u_bar[0] - closed)
    ok = (
        err_long <= 1e-4
        and err_closed <= 1e-4
        and run.verdict == "certified"
        and run.residual_at_min_delta <= 1e-5
    )
    report(
        "criterion-3 dichotomy minimizer",
        ok,
        f"|u_bar - oracle| {err_long:.2e}, verdict {run.verdict}, "
        f"r(delta_min) {run.residual_at_min_delta:.2e}",
    )
    assert err_long <= 1e-4
    assert err_closed <= 1e-4
    assert run.verdict == "certified"
    assert run.residual_at_min_delta <= 1e-5


def test_criterion_4_degenerate_discrete():
    sys = telescoping_system()
    u0 = np.array([0.0])
    details = []
    ok = True
    for cap in (0.1, 0.03, 0.01):
        returns = find_near_returns(sys, cap, 1000.0)
        assert len(returns) > 0, cap
        # closed-form telescoping oracle: the shift map adds cos(tau) - 1
        tau0 = float(returns.taus[0])
        direct = evaluate_affine(sys, u0, tau0)[0]
        assert abs(direct - (math.cos(tau0) - 1.0)) <= 1e-12
        problem = FavardProblem.from_returns(sys, u0, returns)
        result = solve_minmax(problem)
        rep = verify_fixed_point(sys, result.u_bar, problem.maps, [cap])
        drift = abs(result.u_bar[0] - u0[0])
        residual = rep.residuals[0]
        good = drift <= 2 * cap**2 and residual <= cap**2 / 2 * 1.01
        ok = ok and good
        details.append(f"cap {cap}: |u_bar-u0| {drift:.2e} (<= {2 * cap**2:.1e}), "
                       f"r {residual:.2e} (<= {cap**2 / 2 * 1.01:.1e})")
        assert drift <= 2 * cap**2, cap
        assert residual <= cap**2 / 2 * 1.01, cap
    report("criterion-4 degenerate discrete case", ok, "; ".join(details))


def test_criterion_5_near_return_discovery():
    sys = two_freq_system()
    returns = find_near_returns(sys, 0.05, 500.0, scan_step=0.01)
    has_convergent = bool(np.any(np.abs(returns.taus - 2 * math.pi * 70) < 0.05))
    # independent brute-force scan over the same grid
    taus = 0.01 * np.arange(1, 50001)
    brute = []
    for tau in taus:
        worst = 0.0
        for w in (1.0, SQRT2):
            r = (tau * w) % (2 * math.pi)
            worst = max(worst, min(r, 2 * math.pi - r))
        if worst < 0.05:
            brute.append(round(tau, 9))
    agrees = [round(t, 9) for t in returns.taus] == brute
    ok = has_convergent and agrees
    report(
        "criterion-5 near-return discovery",
        ok,
        f"{len(returns)} returns, includes 2*pi*70: {has_convergent}, brute-force match: {agrees}",
    )
    assert has_convergent
    assert agrees


def test_criterion_6_comparability_modulus(dichotomy_run):
    run = dichotomy_run
    eps = (0.1, 0.03, 0.01)
    rep = estimate_modulus(run.system, run.u_bar, eps, 2000.0)
    monotone = all(
        rep.deltas[i] >= rep.deltas[i + 1] for i in range(len(eps) - 1)
    )  # epsilons listed decreasing
    positive = all(d > 0 for d in rep.deltas)
    ok = positive and monotone
    report(
        "criterion-6 comparability modulus",
        ok,
        ", ".join(f"delta({e}) = {d:.5f}" for e, d in zip(eps, rep.deltas)),
    )
    assert positive
    assert monotone


def test_criterion_7_negative_control(dichotomy_run):
    run = dichotomy_run
    off = run.u_bar + 1.0
    strict = estimate_modulus(run.system, off, [0.01], 2000.0, min_tau=0.0)
    settled = estimate_modulus(run.system, off, [0.01], 2000.0, min_tau=50.0)
    ok = strict.deltas[0] == 0.0 and settled.deltas[0] > 0.0
    report(
        "criterion-7 negative control",
        ok,
        f"min_tau=0: delta {strict.deltas[0]}, min_tau=50: delta {settled.deltas[0]:.5f}",
    )
    assert strict.deltas[0] == 0.0
    assert settled.deltas[0] > 0.0


def test_criterion_8_reciprocal_stress_signal():
    num = TrigPolynomial.constant(np.array([1.0]), 2)
    q = TrigPolynomial.from_terms(
        [
            {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
            {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
        ]
    )
    rec = ReciprocalForcing(numerator=num, c=2.0, q=q, margin=1e-9)
    ts = np.linspace(-500.0, 500.0, 10_000)
    theta = np.stack([ts % (2 * np.pi), (SQRT2 * ts) % (2 * np.pi)], axis=-1)
    # direct formula at the same torus points (cos is exactly 2 pi periodic);
    # the signal is unbounded, so the tolerance is relative
    direct = 1.0 / (2.0 + np.cos(theta[:, 0]) + np.cos(theta[:, 1]))
    vals = rec(theta)[:, 0]
    max_err = float(np.max(np.abs(vals - direct) / np.abs(direct)))
    # unreduced arguments differ only by float argument-reduction noise,
    # amplified by the squared reciprocal near signal peaks
    unreduced = 1.0 / (2.0 + np.cos(ts) + np.cos(SQRT2 * ts))
    assert float(np.max(np.abs(vals - unreduced))) <= 1e-8

    def signal(t):
        return 1.0 / (2.0 + np.cos(t) + np.cos(SQRT2 * t))

    traj = sample_signal(signal, -50.0, 0.01, 15_001)  # covers [-50, 100]
    scan = scan_almost_periods(traj, 0.5, (0.0, 50.0), 0.01, 50.0)
    sups = []
    for L in (50.0, 500.0, 5000.0):
        t = np.arange(-L, L + 0.005, 0.01)
        sups.append(float(np.max(signal(t))))
    growing = sups[0] < sups[1] < sups[2]
    ok = max_err <= 1e-12 and scan.periods.size > 0 and growing
    report(
        "criterion-8 reciprocal stress signal",
        ok,
        f"eval rel |err| {max_err:.1e}, {scan.periods.size} periods at eps=0.5, "
        f"windowed sup {sups[0]:.0f} -> {sups[1]:.0f} -> {sups[2]:.0f} (unbounded growth)",
    )
    assert max_err <= 1e-12
    assert scan.periods.size > 0
    assert growing


def test_criterion_9_determinism(tmp_path):
    names = sorted(bundled_scenarios())
    payload = (
        "scenario.json",
        "returns.csv",
        "favard.json",
        "comparability.csv",
        "almost_periods.csv",
        "summary.txt",
    )
    code_a = cli_main(["run", *names, "--out", str(tmp_path / "w1"), "--workers", "1", "--quiet"])
    code_b = cli_main(["run", *names, "--out", str(tmp_path / "w1"), "--workers", "1", "--quiet"])
    code_c = cli_main(["run", *names, "--out", str(tmp_path / "w4"), "--workers", "4", "--quiet"])
    assert code_a == code_b == code_c == 1  # the blow-up scenario dominates
    mismatches = []
    for group in (tmp_path / "w1").iterdir():
        for name in payload:
            first = (group / "run-001" / name).read_bytes()
            second = (group / "run-002" / name).read_bytes()
            other = (tmp_path / "w4" / group.name / "run-001" / name).read_bytes()
            if not (first == second == other):
                mismatches.append(f"{group.name}/{name}")
    ok = not mismatches
    report(
        "criterion-9 determinism",
        ok,
        f"{len(names)} scenarios x 3 runs byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert not mismatches
