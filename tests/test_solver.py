import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from favard import (
    CocycleSystem,
    FavardProblem,
    QuasiPeriodicSpec,
    SolverError,
    affine_map_samples,
    default_certificate_tolerance,
    estimate_modulus,
    find_near_returns,
    grid_oracle,
    solve_minmax,
    verify_fixed_point,
)
from favard.comparability import modulus_steps
from favard.scenarios import _csv
from favard.solver import TIE_BREAK_SLACK, ReturnMaps, march_maps

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
    draws = [(phi_scale * rng.normal(size=(N, N)), rng.normal(size=N)) for _ in range(M)]
    Phi, b = (np.array(x) for x in zip(*draws))
    maps = ReturnMaps(steps=np.arange(1, M + 1), Phi=Phi, b=b, delta=np.zeros(M))
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

    def test_discrete_scan_uses_integers(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        assert np.all(rets.taus == np.round(rets.taus))
        assert 44.0 in rets.taus  # 44 = 7 * 2 pi + 0.0177

    def test_csv_layout(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        rows = list(zip(rets.taus.tolist(), rets.deltas.tolist()))
        lines = _csv("returns.csv", rows).strip().splitlines()
        assert lines[0] == "tau,delta"
        assert len(lines) == len(rets) + 1
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows


class TestReturnTable:
    def test_problem_maps_are_the_return_rows(self):
        # the pipeline's table also holds the comparability scan; the
        # problem must take the return rows only, as a march over them gives
        sys = two_freq_system()
        rets = find_near_returns(sys, 0.05, 500.0)
        table = march_maps(sys, np.concatenate([rets.steps, modulus_steps(sys, 500.0)]))
        prob = FavardProblem.from_returns(sys, [0.5], rets, table)
        assert len(table) > len(rets)
        assert len(prob.maps) == len(rets)
        np.testing.assert_array_equal(prob.maps.steps, rets.steps)
        Phi, b, delta = affine_map_samples(sys, rets.taus)
        np.testing.assert_allclose(prob.maps.Phi, Phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prob.maps.b, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prob.maps.delta, delta, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=30), st.randoms(use_true_random=False))
    def test_table_steps_are_the_unique_steps(self, drawn, rnd):
        # unsorted, and the first half of the drawn steps twice
        steps = drawn + drawn[: len(drawn) // 2 + 1]
        rnd.shuffle(steps)
        sys = telescoping_system()
        table = march_maps(sys, steps)
        np.testing.assert_array_equal(table.steps, np.unique(steps))
        Phi, b, _ = affine_map_samples(sys, np.unique(steps) * sys.step)
        np.testing.assert_array_equal(table.Phi, Phi)
        np.testing.assert_array_equal(table.b, b)

    def test_missing_shift_is_rejected(self):
        table = march_maps(telescoping_system(), [0, 2, 4])
        with pytest.raises(ValueError, match="missing"):
            table.rows([2, 3])
        with pytest.raises(ValueError, match="missing"):
            table.rows([5])


class TestSolveMinmax:
    def test_telescoping_matches_grid_oracle(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        u_g, v_g = grid_oracle(prob, resolution=4001)
        assert res.value == pytest.approx(v_g, abs=1e-6)
        assert abs(res.u_bar[0] - u_g[0]) < 1e-4

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
        maps = ReturnMaps(
            steps=np.arange(1, 5), Phi=np.zeros((4, 1, 1)), b=rng.normal(size=(4, 1)),
            delta=np.zeros(4),
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
        prob = FavardProblem.from_returns(sys, [1.0], rets)
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

    def test_counts_only_base_returns(self):
        # the table also holds a comparability scan twice as long as the
        # return scan, with more shifts below the cap; only the returns count
        doc = {
            "frequencies": [1.0],
            "matrix_terms": [{"k": [0], "cos": [[0.5]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [0], "cos": [1.0], "sin": [0.0]}],
            "time_domain": "discrete",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
        rets = find_near_returns(sys, 0.05, 500.0)
        table = march_maps(sys, np.concatenate([rets.steps, modulus_steps(sys, 1000.0)]))
        prob = FavardProblem.from_returns(sys, [2.0], rets, table)
        assert np.count_nonzero(table.delta < 0.05) > len(rets)
        rep = verify_fixed_point(sys, [2.0], prob.maps, [0.05])
        assert max(rep.counts) == len(rets)

    def test_inconclusive_on_coarse_grid(self):
        sys = telescoping_system()
        rets = find_near_returns(sys, 0.05, 1000.0)
        prob = FavardProblem.from_returns(sys, [1.0], rets)
        res = solve_minmax(prob)
        rep = verify_fixed_point(sys, res.u_bar, prob.maps, [0.05])
        # every return qualifies at 0.05 and the residuals exceed tolerance
        assert rep.verdict == "inconclusive"


#: Multiples of 1/8, so a deviation |x| recomputed as a norm is x exactly.
EIGHTHS = [k / 8 for k in range(25)]
GRID_VALUES = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def scored_shifts(draw, min_size=0):
    """Grid, per-shift qualities and residuals, and epsilons, with qualities
    on grid values, duplicates, empty bins and epsilons equal to residuals."""
    grid = draw(st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=5))
    size = draw(st.integers(min_size, 12))
    quality = st.one_of(st.sampled_from(grid), st.sampled_from(EIGHTHS), st.floats(0.0, 4.0))
    qualities = np.array(draw(st.lists(quality, min_size=size, max_size=size)), dtype=float)
    residuals = np.array(draw(st.lists(st.sampled_from(EIGHTHS), min_size=size, max_size=size)))
    eps = st.sampled_from(residuals.tolist() + EIGHTHS)
    return grid, qualities, residuals, draw(st.lists(eps, min_size=1, max_size=4))


class TestResidualCurve:
    """The certificate and the modulus read one residual curve; each must
    match the nested loop over the delta grid that it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(scored_shifts())
    def test_certificate_matches_the_nested_loop(self, case):
        grid, qualities, residuals, _ = case
        curve, counts = [], []
        for g in sorted(grid, reverse=True):
            mask = qualities < g
            counts.append(int(np.count_nonzero(mask)))
            curve.append(float(residuals[mask].max()) if counts[-1] else 0.0)
        # Phi = 0 and u = 0 make each residual |b_k| exactly
        K = qualities.size
        maps = ReturnMaps(steps=np.arange(1, K + 1), Phi=np.zeros((K, 1, 1)),
                          b=residuals[:, None], delta=qualities)
        rep = verify_fixed_point(telescoping_system(), [0.0], maps, grid)
        assert rep.residuals == tuple(curve)
        assert rep.counts == tuple(counts)

    @settings(max_examples=200, deadline=None)
    @given(scored_shifts(min_size=1))
    def test_modulus_matches_the_nested_loop(self, case):
        grid, qualities, deviations, epsilons = case
        deltas, counts = [], []
        for eps in epsilons:
            best, best_count = 0.0, 0
            for g in sorted(grid):
                mask = qualities < g
                hits = int(np.count_nonzero(mask))
                if hits and bool(np.all(deviations[mask] < eps)):
                    best, best_count = g, hits
            deltas.append(best)
            counts.append(best_count)
        # the scan of shifts 1..K reads the drawn deviations from the table
        # (Phi = 0, the tested point 0 at step 0) and sees the drawn qualities
        K = qualities.size
        table = ReturnMaps(steps=np.arange(K + 1), Phi=np.zeros((K + 1, 1, 1)),
                           b=np.append(0.0, deviations)[:, None], delta=np.zeros(K + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(QuasiPeriodicSpec, "base_return_quality", lambda spec, taus: qualities)
            rep = estimate_modulus(telescoping_system(), [0.0], epsilons, float(K),
                                   delta_grid=grid, table=table)
        assert rep.deltas == tuple(deltas)
        assert rep.counts == tuple(counts)
