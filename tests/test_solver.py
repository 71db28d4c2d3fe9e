import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from favard import (
    AffineMapSample,
    CocycleSystem,
    FavardProblem,
    QuasiPeriodicSpec,
    SolverError,
    UncertifiedError,
    comparability_from_fixed_point,
    compose_returns,
    default_certificate_tolerance,
    find_near_returns,
    grid_oracle,
    project_simplex,
    solve_minmax,
    verify_fixed_point,
)
from favard.solver import TIE_BREAK_SLACK

SQRT2 = math.sqrt(2.0)


def telescoping_system():
    """u(t+1) = u(t) + (cos(t+1) - cos t): shifts act as u -> u + cos tau - 1."""
    c1, s1 = math.cos(1.0), math.sin(1.0)
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [c1 - 1.0], "sin": [-s1]}],
        "time_domain": "discrete",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def discrete_system(dimension: int, delay_order: int = 0):
    """Contracting constant recursion; only its state norm matters below."""
    n, cols = dimension, dimension * (delay_order + 1)
    A = np.zeros((n, cols))
    A[:, :n] = 0.5 * np.eye(n)
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": A.tolist(), "sin": np.zeros_like(A).tolist()}],
        "forcing_terms": [{"k": [0], "cos": [0.0] * n, "sin": [0.0] * n}],
        "time_domain": "discrete",
        "dimension": n,
        "delay_order": delay_order,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def random_problem(sys, rng, K: int, M: int, phi_scale: float = 1.0) -> FavardProblem:
    """K hull points and M affine maps with Gaussian entries in the state space."""
    N = sys.state_dim
    maps = tuple(
        AffineMapSample(
            tau=float(k + 1), Phi=phi_scale * rng.normal(size=(N, N)),
            b=rng.normal(size=N), delta=0.0,
        )
        for k in range(M)
    )
    return FavardProblem(
        system=sys, anchor=rng.normal(size=N), maps=maps, hull_points=rng.normal(size=(K, N))
    )


def two_freq_system():
    doc = {
        "frequencies": [1.0, SQRT2],
        "matrix_terms": [{"k": [0, 0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [
            {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
            {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
        ],
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(2))


class TestSimplexProjection:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_lands_on_simplex(self, vals):
        lam = project_simplex(np.array(vals))
        assert np.all(lam >= 0)
        assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10))
    def test_fixes_simplex_points(self, vals):
        v = np.array(vals)
        v = v / v.sum()
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        st.integers(0, 10_000),
    )
    def test_is_nearest_point(self, vals, seed):
        v = np.array(vals)
        p = project_simplex(v)
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(v.size))
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


class TestNearReturns:
    def test_two_frequency_return_times(self):
        sys = two_freq_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        # 2 pi * 70 is a simultaneous near-return of both phases
        assert np.any(np.abs(rets.taus - 439.82) < 0.05)
        i = int(np.argmin(np.abs(rets.taus - 439.82)))
        assert rets.deltas[i] < 0.05

    def test_agrees_with_brute_force(self):
        sys = two_freq_system()
        rets = find_near_returns(sys, 0.05, 500.0, scan_step=0.01)
        # independent brute-force oracle over the same scan grid
        taus = 0.01 * np.arange(1, 50001)
        listed = []
        for tau in taus:
            worst = 0.0
            for w in (1.0, SQRT2):
                r = (tau * w) % (2 * math.pi)
                worst = max(worst, min(r, 2 * math.pi - r))
            if worst < 0.05:
                listed.append(round(tau, 9))
        assert [round(t, 9) for t in rets.taus] == listed

    def test_empty_scan_is_a_report(self):
        sys = two_freq_system()
        rets = find_near_returns(sys, 1e-6, 50.0)
        assert len(rets) == 0
        assert rets.to_csv() == "tau,delta\n"

    def test_discrete_scan_uses_integers(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        assert np.all(rets.taus == np.round(rets.taus))
        assert 44.0 in rets.taus  # 44 = 7 * 2 pi + 0.0177

    def test_csv_layout(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        lines = rets.to_csv().strip().splitlines()
        assert lines[0] == "tau,delta"
        assert len(lines) == len(rets) + 1


class TestCompositions:
    def test_defect_small_for_near_returns(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        maps = compose_returns(sys, rets, depth=1)
        base = [m for m in maps if m.composition_defect == 0.0]
        comps = [m for m in maps if m.composition_defect > 0.0]
        assert len(base) == len(rets)
        assert comps, "depth-1 composition produced no summed shifts"
        # translation maps commute exactly: cos(a+b)-1 vs (cos a -1)+(cos b -1)
        # differ by O(delta^2), so defects stay tiny
        assert max(m.composition_defect for m in comps) < 1e-2

    def test_depth_zero_keeps_base_only(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        assert len(compose_returns(sys, rets, depth=0)) == len(rets)


class TestSolveMinmax:
    def test_telescoping_matches_grid_oracle(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        u_g, v_g = grid_oracle(prob, resolution=4001)
        assert res.value == pytest.approx(v_g, abs=1e-6)
        assert abs(res.u_bar[0] - u_g[0]) < 1e-4

    def test_grid_oracle_method(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob, method="grid_oracle")
        assert res.method == "grid_oracle"
        # reported weights reproduce the minimizer as a hull combination
        np.testing.assert_allclose(prob.hull_points.T @ res.weights, res.u_bar, atol=1e-8)

    def test_unknown_method_rejected(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        with pytest.raises(ValueError):
            solve_minmax(prob, method="annealing")

    def test_weights_on_simplex(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        assert np.all(res.weights >= -1e-15)
        assert np.sum(res.weights) == pytest.approx(1.0, abs=1e-9)

    def test_pivot_cap_raises(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        with pytest.raises(SolverError):
            solve_minmax(prob, iterations=1)

    @pytest.mark.parametrize("anchor", [-3.0, 0.4, 5.0])
    def test_flat_objective_takes_hull_point_nearest_anchor(self, anchor):
        # with every Phi_k = 0 the objective is the same at every hull point,
        # so the tie-break alone decides: the anchor clipped to the hull
        rng = np.random.default_rng(7)
        hull = rng.uniform(-1.0, 2.0, size=(5, 1))
        maps = tuple(
            AffineMapSample(tau=float(k + 1), Phi=np.zeros((1, 1)), b=rng.normal(size=1), delta=0.0)
            for k in range(4)
        )
        prob = FavardProblem(
            system=telescoping_system(), anchor=np.array([anchor]), maps=maps, hull_points=hull
        )
        res = solve_minmax(prob)
        assert abs(res.u_bar[0] - np.clip(anchor, hull.min(), hull.max())) <= 1e-12

    def test_euclidean_blocks_match_grid_oracle(self):
        # n = 2 takes the cutting-plane path; a 2-d hull lets the grid check it
        prob = random_problem(discrete_system(2), np.random.default_rng(3), K=3, M=5, phi_scale=0.5)
        res = solve_minmax(prob)
        _, v_grid = grid_oracle(prob, resolution=801)
        assert res.hull_dimension == 2
        assert res.converged
        assert res.lower_bound <= v_grid + 1e-12
        assert v_grid - 1e-3 <= res.value <= v_grid + TIE_BREAK_SLACK * max(1.0, v_grid)

    def test_single_return_degenerate_hull(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.02, 100.0)
        assert len(rets) == 1
        prob = FavardProblem.from_returns(sys, [1.0], rets, depth=0)
        res = solve_minmax(prob)
        assert res.hull_dimension == 0
        # sole hull point: u0 + cos(44) - 1
        assert res.u_bar[0] == pytest.approx(1.0 + math.cos(44.0) - 1.0, abs=1e-12)


class TestMinmaxProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 5), st.integers(1, 8)
    )
    def test_scalar_blocks_reach_the_lp_optimum(self, seed, delay_order, K, M):
        rng = np.random.default_rng(seed)
        prob = random_problem(discrete_system(1, delay_order), rng, K, M)
        res = solve_minmax(prob)
        # the stage-1 value bounds the objective at every hull point, and
        # stage 2 spends at most its slack on the tie-break, up to roundoff
        vals = prob.objective_batch(rng.dirichlet(np.ones(K), size=100) @ prob.hull_points)
        assert res.lower_bound <= vals.min() + 1e-12 * max(1.0, vals.min())
        slack = (TIE_BREAK_SLACK + 1e-10) * max(1.0, res.lower_bound)
        assert res.value <= res.lower_bound + slack
        if res.hull_dimension <= 2:
            _, v_grid = grid_oracle(prob, resolution=201)
            assert res.lower_bound <= v_grid + 1e-12 * max(1.0, v_grid)
            assert res.value <= v_grid + slack


class TestFixedPointCertificate:
    def test_residual_curve_nonincreasing_with_counts(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        grid = [math.pi * 0.5**k for k in range(21)]
        rep = verify_fixed_point(sys, res.u_bar, prob.maps, grid)
        rs = list(rep.residuals)
        assert rs == sorted(rs, reverse=True)
        assert list(rep.counts) == sorted(rep.counts, reverse=True)
        # empty qualifying sets report residual 0 with count 0
        for r, c in zip(rep.residuals, rep.counts):
            if c == 0:
                assert r == 0.0

    def test_exact_fixed_point_certifies(self):
        # equilibrium x' = -x + 1: u = 1 is fixed under every return map
        doc = {
            "frequencies": [1.0],
            "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [0], "cos": [1.0], "sin": [0.0]}],
            "time_domain": "continuous",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
        rets = find_near_returns(sys, 0.05, 100.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        rep = verify_fixed_point(sys, [1.0], prob.maps, [0.05, 0.01])
        assert rep.verdict == "certified"
        assert rep.max_residual <= default_certificate_tolerance(sys)

    def test_inconclusive_on_coarse_grid(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        rep = verify_fixed_point(sys, res.u_bar, prob.maps, [0.05])
        # every return qualifies at 0.05 and the residuals exceed tolerance
        assert rep.verdict == "inconclusive"

    def test_uncertified_blocks_comparability(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        rep = verify_fixed_point(sys, res.u_bar, prob.maps, [0.05])
        with pytest.raises(UncertifiedError):
            comparability_from_fixed_point(sys, res.u_bar, rep, [0.1], 100.0)
