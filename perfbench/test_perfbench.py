"""Tests of the benchmark's own generator, closed form and correctness check."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from favard import Scenario, build_system, evaluate_affine, find_near_returns


@pytest.mark.parametrize("workload", sorted(workloads.PASS_SIZE))
def test_generator_is_deterministic_per_seed(workload):
    def docs(seed):
        return json.dumps([g.doc for g in workloads.generate(workload, seed)], sort_keys=True)

    assert docs(3) == docs(3)
    assert docs(3) != docs(4)


@pytest.mark.parametrize("workload", sorted(workloads.PASS_SIZE))
def test_closed_form_is_carried_by_the_cocycle(workload):
    for g in workloads.generate(workload, 5):
        sc = Scenario.from_dict(g.doc)
        sys = build_system(sc)
        T = 5.0 if sys.continuous else 50.0
        x_T = evaluate_affine(sys, workloads.stacked_closed_form(g.doc, 0.0), T)
        expected = workloads.stacked_closed_form(g.doc, T)
        # RK4 at h = 1e-3 is accurate to ~1e-12 per unit time; discrete steps are exact
        tol = 1e-8 if sys.continuous else 1e-11
        assert np.linalg.norm(x_T - expected) <= tol * (1.0 + np.linalg.norm(expected))
        returns = find_near_returns(sys, sc.delta_cap, sc.horizon, sc.scan_step)
        np.testing.assert_allclose(returns.taus, g.return_taus)


def test_check_rejects_a_shifted_ubar_and_a_wrong_verdict():
    g = workloads.generate("discrete-minmax", 1)[0]

    def record(u_bar, verdict="certified", exit_code=0):
        return SimpleNamespace(u_bar=u_bar, verdict=verdict, exit_code=exit_code, message="")

    assert workloads.check(g, record(g.expected_state))[0]
    assert not workloads.check(g, record(g.expected_state + 0.3))[0]
    assert not workloads.check(g, record(g.expected_state, "inconclusive", 2))[0]
    assert not workloads.check(g, record(None, "error", 1))[0]


def test_discrete_returns_have_distinct_pairwise_sums():
    # 3 base returns and 6 distinct sums: every solve has the same 9 maps
    for seed in range(1, 11):
        for g in workloads.generate("discrete-minmax", seed):
            taus = g.return_taus
            assert len(taus) == workloads.DISCRETE_RETURNS
            assert len({a + b for a in taus for b in taus}) == 6
