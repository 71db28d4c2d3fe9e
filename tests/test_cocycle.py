import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import favard.cocycle
from favard import (
    BlowUpError,
    CocycleSystem,
    QuasiPeriodicSpec,
    affine_map_samples,
    affine_path,
    estimate_bound_constant,
    evaluate_affine,
    fundamental_matrix,
    verify_cocycle_identity,
)

SQRT2 = math.sqrt(2.0)


def decay_system(h=1e-3):
    """Scalar x' = -x + cos t."""
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1), h=h)


def rotation_system():
    """Planar x' = [[0, 1], [-1, 0]] x, norm-preserving."""
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [
            {"k": [0], "cos": [[0.0, 1.0], [-1.0, 0.0]], "sin": [[0.0, 0.0], [0.0, 0.0]]}
        ],
        "forcing_terms": [{"k": [0], "cos": [0.0, 0.0], "sin": [0.0, 0.0]}],
        "time_domain": "continuous",
        "dimension": 2,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def discrete_system():
    """Scalar u(t+1) = 0.5 u(t) + cos(sqrt(2) t)."""
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [{"k": [0], "cos": [[0.5]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "discrete",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def delay_system():
    """u(t+1) = 0.3 u(t) + 0.2 u(t-1) + cos(sqrt(2) t), stacked to first order."""
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [{"k": [0], "cos": [[0.3, 0.2]], "sin": [[0.0, 0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "discrete",
        "dimension": 1,
        "delay_order": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


class TestContinuousOracles:
    def test_exponential_decay_matrix(self):
        doc = {
            "frequencies": [1.0],
            "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [0], "cos": [0.0], "sin": [0.0]}],
            "time_domain": "continuous",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
        U = fundamental_matrix(sys, 1.0)
        assert U[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_periodic_bounded_solution(self):
        # x(t) = (cos t + sin t)/2 solves x' = -x + cos t; x(0) = 1/2 and
        # the solution is 2 pi periodic
        sys = decay_system()
        out = evaluate_affine(sys, [0.5], 2 * math.pi)
        assert out[0] == pytest.approx(0.5, abs=1e-6)

    def test_midpoint_of_period(self):
        sys = decay_system()
        t = 1.7
        expected = (math.cos(t) + math.sin(t)) / 2
        out = evaluate_affine(sys, [0.5], t)
        assert out[0] == pytest.approx(expected, abs=1e-6)

    def test_rotation_preserves_norm(self):
        sys = rotation_system()
        L = estimate_bound_constant(sys, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 10.0)
        assert L == pytest.approx(1.0, abs=1e-6)

    def test_rk4_error_scales_fourth_order(self):
        t = 1.0
        exact = (math.cos(t) + math.sin(t)) / 2
        errs = []
        for h in (2e-2, 1e-2):
            sys = decay_system(h=h)
            errs.append(abs(evaluate_affine(sys, [0.5], t)[0] - exact))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 22.0  # nominal 16 for a fourth-order scheme

    def test_negative_time_is_rejected(self):
        sys = decay_system()
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate_affine(sys, [0.73], -2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            fundamental_matrix(sys, -2.0)

    def test_non_grid_shift_partial_step(self):
        sys = decay_system()
        t = 0.0005  # half an integrator step
        expected = (math.cos(t) + math.sin(t)) / 2
        assert evaluate_affine(sys, [0.5], t)[0] == pytest.approx(expected, abs=1e-10)


class TestStepConversion:
    #: the first step counts k whose time k * h an absolute 1e-9 step slack reads as k - 1
    FIRST_SHORT = {1e-3: 32_768_005, 1e-4: 20_480_004}

    @pytest.mark.parametrize("h", [1e-3, 1e-4, 0.01])
    def test_every_product_of_a_step_count_is_that_count(self, h):
        k = np.random.default_rng(7).integers(1, 10**8, 100_000)
        k = np.concatenate([k, [1, 10**8], list(self.FIRST_SHORT.values())])
        sys = decay_system(h=h)
        np.testing.assert_array_equal(sys.steps(k * sys.step), k)
        # a time between two steps rounds down
        np.testing.assert_array_equal(sys.steps((k + 0.5) * sys.step), k)

    @pytest.mark.parametrize("h", sorted(FIRST_SHORT))
    def test_a_grid_shift_takes_no_partial_step(self, h, monkeypatch):
        # the march itself is stubbed: only the split of each shift is checked
        k = self.FIRST_SHORT[h]
        ends = []

        def prefix_products(build, steps, n):
            ends.append(steps.tolist())
            return np.tile(np.eye(n, n + 1), (steps.size, 1, 1))

        def partial_step(*args):
            raise AssertionError("partial RK4 step on a grid shift")

        monkeypatch.setattr(favard.cocycle, "_prefix_products", prefix_products)
        monkeypatch.setattr(favard.cocycle, "_continuous_propagators", partial_step)
        sys = decay_system(h=h)
        affine_path(sys, np.array([k, 10**8]) * sys.step)
        assert ends == [[k, 10**8]]


def zero_system(n, r):
    """u(t+1) = 0 with state dimension n and delay order r, for the state norm."""
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [{"k": [0], "cos": np.zeros((n, n * (r + 1))).tolist(),
                          "sin": np.zeros((n, n * (r + 1))).tolist()}],
        "forcing_terms": [{"k": [0], "cos": [0.0] * n, "sin": [0.0] * n}],
        "time_domain": "discrete",
        "dimension": n,
        "delay_order": r,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


class TestStateNorm:
    @pytest.mark.parametrize("n", [1, 3])
    def test_euclidean_without_delay(self, n):
        v = np.random.default_rng(n).normal(size=(4, 6, n))
        sys = zero_system(n, 0)
        assert np.array_equal(sys.state_norm(v), np.linalg.norm(v, axis=-1))
        assert np.array_equal(sys.state_norm(v[1, 2]), np.linalg.norm(v[1, 2]))

    @pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_delay_sums_the_block_norms(self, n, r):
        v = np.random.default_rng(10 * n + r).normal(size=(5, n * (r + 1)))
        blocks = sum(np.linalg.norm(v[:, j * n : (j + 1) * n], axis=-1) for j in range(r + 1))
        np.testing.assert_array_equal(zero_system(n, r).state_norm(v), blocks)
        # two blocks of size 2: |(3,4)| + |(0,5)| = 10
        assert zero_system(2, 1).state_norm([3.0, 4.0, 0.0, 5.0]) == 10.0

    @pytest.mark.parametrize("n, r", [(1, 0), (3, 0), (2, 1), (1, 2)])
    def test_zero_rows(self, n, r):
        assert zero_system(n, r).state_norm(np.zeros((0, n * (r + 1)))).shape == (0,)

    @pytest.mark.parametrize("n, r, size", [(3, 0, 4), (2, 1, 3), (1, 1, 3), (1, 2, 2)])
    def test_wrongly_sized_state_raises(self, n, r, size):
        with pytest.raises(ValueError):
            zero_system(n, r).state_norm(np.ones(size))


class TestDiscreteAndDelay:
    def test_discrete_matches_loop(self):
        sys = discrete_system()
        u = 0.3
        for t in range(60):
            u = 0.5 * u + math.cos((SQRT2 * t) % (2 * math.pi))
        out = evaluate_affine(sys, [0.3], 60)
        assert out[0] == pytest.approx(u, abs=1e-12)

    def test_discrete_rejects_fractional_shift(self):
        with pytest.raises(ValueError):
            affine_path(discrete_system(), [1.5])

    def test_delay_matches_loop(self):
        sys = delay_system()
        hist = [0.4, -0.2]  # (u(0), u(-1))
        u_curr, u_prev = hist
        for t in range(40):
            u_next = 0.3 * u_curr + 0.2 * u_prev + math.cos((SQRT2 * t) % (2 * math.pi))
            u_prev, u_curr = u_curr, u_next
        out = evaluate_affine(sys, hist, 40)
        assert out[0] == pytest.approx(u_curr, abs=1e-12)
        assert out[1] == pytest.approx(u_prev, abs=1e-12)

    def test_delay_norm_kind(self):
        sys = delay_system()
        assert sys.state_norm(np.array([3.0, 4.0])) == pytest.approx(7.0)


class TestCocycleAlgebra:
    def test_zero_shift_is_identity(self):
        for sys, u in (
            (decay_system(), np.array([0.37])),
            (discrete_system(), np.array([-1.2])),
            (delay_system(), np.array([0.5, -0.5])),
        ):
            np.testing.assert_array_equal(evaluate_affine(sys, u, 0), u)

    def test_identity_residual_continuous(self):
        sys = decay_system()
        res = verify_cocycle_identity(sys, [0.8], 3.0, 5.0)
        assert res <= 1e-7

    def test_identity_residual_discrete(self):
        res = verify_cocycle_identity(discrete_system(), [0.8], 7, 11)
        assert res <= 1e-12

    def test_affineness_is_exact(self):
        sys = decay_system()
        u, v = np.array([0.2]), np.array([-1.4])
        mid = evaluate_affine(sys, (u + v) / 2, 4.0)
        avg = (evaluate_affine(sys, u, 4.0) + evaluate_affine(sys, v, 4.0)) / 2
        assert abs(mid[0] - avg[0]) <= 1e-9 * (1 + abs(u[0]) + abs(v[0]))

    def test_batch_path_matches_singles(self):
        sys = decay_system()
        taus = np.array([0.5, 1.0, 2.5, 2.5, 7.25])
        Phi, b = affine_path(sys, taus)
        for i, tau in enumerate(taus):
            Phi1, b1 = affine_path(sys, [tau])
            np.testing.assert_allclose(Phi[i], Phi1[0], atol=1e-12)
            np.testing.assert_allclose(b[i], b1[0], atol=1e-12)

    def test_chunk_edges_match_one_chunk(self, monkeypatch):
        sys = discrete_system()
        taus = np.random.default_rng(0).permutation([0, 3, 3, 6, 7, 8, 14, 20])
        Phi, b = affine_path(sys, taus)
        monkeypatch.setattr(favard.cocycle, "_CHUNK_BYTES", 7 * 9 * 8 * 2 * 2)
        assert favard.cocycle._chunk_steps(2) == 7
        Phi7, b7 = affine_path(sys, taus)
        np.testing.assert_allclose(Phi7, Phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b7, b, rtol=0, atol=1e-12)

    def test_map_samples_carry_return_quality(self):
        sys = decay_system()
        Phi, b, delta = affine_map_samples(sys, [2 * math.pi, 1.0])
        assert Phi.shape == (2, 1, 1) and b.shape == (2, 1)
        assert delta[0] == pytest.approx(0.0, abs=1e-9)
        assert delta[1] == pytest.approx(1.0)


def forced_rotation_system():
    """Planar x' = [[0, 1], [-1, 0]] x + (cos(sqrt(2) t), 0): neither contracting nor resonant."""
    doc = {
        "frequencies": [SQRT2],
        "matrix_terms": [
            {"k": [0], "cos": [[0.0, 1.0], [-1.0, 0.0]], "sin": [[0.0, 0.0], [0.0, 0.0]]}
        ],
        "forcing_terms": [{"k": [1], "cos": [1.0, 0.0], "sin": [0.0, 0.0]}],
        "time_domain": "continuous",
        "dimension": 2,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def augmented(top):
    """The augmented (n + 1) x (n + 1) matrices of top rows [U | b]."""
    n = top.shape[-2]
    corner = np.broadcast_to(np.eye(1, n + 1, n), (*top.shape[:-2], 1, n + 1))
    return np.concatenate([top, corner], axis=-2)


def folded_path(sys, steps):
    """Reference (U, b) at whole step counts by a sequential left fold M = S[i] @ M
    of the augmented steps."""
    S = augmented(favard.cocycle._march_steps(sys, 0, max(steps)))
    M, at = np.eye(S.shape[-1]), {0: np.eye(S.shape[-1])}
    for i in range(max(steps)):
        M = S[i] @ M
        at[i + 1] = M
    n = sys.state_dim
    out = np.array([at[k] for k in steps])
    return out[:, :n, :n], out[:, :n, n]


def assert_relative(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@st.composite
def marched_systems(draw):
    """A system with n 1-3 and delay order 0-2 (delays in discrete time only),
    with a matrix term that varies along the flow."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    continuous = r == 0 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = n * (r + 1)
    scale = 1.0 if continuous else 0.6 / D
    doc = {
        "frequencies": [1.0, SQRT2],
        "matrix_terms": [
            {"k": k, "cos": (scale * rng.uniform(-1, 1, (n, D))).tolist(),
             "sin": (scale * rng.uniform(-1, 1, (n, D))).tolist()}
            for k in ([0, 0], [1, -1])
        ],
        "forcing_terms": [
            {"k": k, "cos": rng.uniform(-1, 1, n).tolist(), "sin": rng.uniform(-1, 1, n).tolist()}
            for k in ([0, 1], [2, 0])
        ],
        "time_domain": "continuous" if continuous else "discrete",
        "dimension": n,
        "delay_order": r,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), rng.uniform(0, 2 * np.pi, 2), h=0.01)


class TestProductTree:
    """The chunked product tree of ``affine_path`` against a sequential fold."""

    @settings(max_examples=60, deadline=None)
    @given(
        marched_systems(),
        st.lists(st.integers(0, 40), min_size=1, max_size=10),
        st.integers(1, 7),
        st.randoms(use_true_random=False),
    )
    def test_matches_the_augmented_fold(self, sys, drawn, chunk, rnd):
        # ends with 0 and a duplicate, in any order, across chunks of a few steps
        steps = drawn + [0, drawn[0]]
        rnd.shuffle(steps)
        d = sys.state_dim + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(favard.cocycle, "_CHUNK_BYTES", chunk * 9 * 8 * d * d)
            assert favard.cocycle._chunk_steps(d) == chunk
            Phi, b = affine_path(sys, np.array(steps) * sys.step)
        Phi_ref, b_ref = folded_path(sys, steps)
        assert_relative(Phi, Phi_ref)
        assert_relative(b, b_ref)

    def test_non_contracting_rotation(self):
        sys = forced_rotation_system()
        steps = [4000, 1, 2, 3, 1024, 1025, 2047, 3999, 0]
        Phi, b = affine_path(sys, np.array(steps) * sys.step)
        Phi_ref, b_ref = folded_path(sys, steps)
        assert_relative(Phi, Phi_ref)
        assert_relative(b, b_ref)

    def test_delay_system(self):
        sys = delay_system()
        steps = [0, 1, 5, 31, 32, 33, 64, 97, 150]
        Phi, b = affine_path(sys, steps)
        Phi_ref, b_ref = folded_path(sys, steps)
        assert_relative(Phi, Phi_ref)
        assert_relative(b, b_ref)

    def test_zero_duplicates_off_grid_and_chunk_edges(self, monkeypatch):
        sys = decay_system()
        monkeypatch.setattr(favard.cocycle, "_CHUNK_BYTES", 7 * 9 * 8 * 2 * 2)
        assert favard.cocycle._chunk_steps(2) == 7
        steps = [15, 0, 6, 7, 7, 8, 13, 14, 14, 21, 22, 30, 0]
        Phi, b = affine_path(sys, np.append(steps, 15.5) * sys.step)
        Phi_ref, b_ref = folded_path(sys, steps)
        assert_relative(Phi[:-1], Phi_ref)
        assert_relative(b[:-1], b_ref)
        half = favard.cocycle._continuous_propagators(sys, 15 * sys.h, 1, sys.h / 2)[0]
        assert_relative(Phi[-1], half[:1, :1] @ Phi_ref[0])
        assert_relative(b[-1], half[:1, :1] @ b_ref[0] + half[:1, 1])

    def test_peak_memory_is_flat_in_the_state_dimension(self):
        # n = 8 over 250 time units: the 25,000 results alone take 15.4 MiB,
        # and the chunk budget is 8 MiB.
        n = 8
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        doc = {
            "frequencies": [1.0, SQRT2],
            "matrix_terms": [{"k": [0, 0], "cos": (Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T).tolist(),
                              "sin": np.zeros((n, n)).tolist()}],
            "forcing_terms": [{"k": [1, 0], "cos": [1.0] * n, "sin": [0.0] * n}],
            "time_domain": "continuous",
            "dimension": n,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(2))
        tracemalloc.start()
        try:
            affine_path(sys, 0.01 * np.arange(1, 25_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_peak_memory_is_flat_in_the_term_count(self):
        # 200 forcing terms over 60 time units at n = 1: the chunk budget is
        # 8 MiB, and coefficient evaluation holds its phasors in 1 MiB blocks.
        rng = np.random.default_rng(1)
        doc = {
            "frequencies": [1.0, SQRT2],
            "matrix_terms": [{"k": [0, 0], "cos": [[-1.0]], "sin": [[0.0]]}],
            "forcing_terms": [
                {"k": k.tolist(), "cos": [c], "sin": [s]}
                for k, c, s in zip(rng.integers(-5, 6, (200, 2)), rng.normal(size=200), rng.normal(size=200))
            ],
            "time_domain": "continuous",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(2))
        tracemalloc.start()
        try:
            affine_path(sys, [30.0, 60.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def reciprocal_shear_system(h=1e-3):
    """Planar x' = A(theta) x + p(theta) / (2 + cos theta_1), where A has a
    k = (1, -1) term, so its values change along the flow."""
    doc = {
        "frequencies": [1.0, SQRT2],
        "matrix_terms": [
            {"k": [0, 0], "cos": [[-1.0, 0.5], [-0.3, -0.8]], "sin": [[0.0, 0.0], [0.0, 0.0]]},
            {"k": [1, -1], "cos": [[0.2, -0.1], [0.4, 0.3]], "sin": [[0.1, 0.6], [-0.2, 0.05]]},
        ],
        "forcing_terms": [{"k": [0, 1], "cos": [1.0, -0.5], "sin": [0.3, 0.7]}],
        "reciprocal": {"c": 2.0, "q_terms": [{"k": [1, 0], "cos": [1.0], "sin": [0.0]}]},
        "time_domain": "continuous",
        "dimension": 2,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.array([0.4, 2.1]), h=h)


def varying_scalar_system(h=1e-3):
    """Scalar x' = a(theta) x + cos theta_2 + 0.4 sin theta_2, where a has a
    k = (1, -1) term, so its values change along the flow."""
    doc = {
        "frequencies": [1.0, SQRT2],
        "matrix_terms": [
            {"k": [0, 0], "cos": [[-1.0]], "sin": [[0.0]]},
            {"k": [1, -1], "cos": [[0.3]], "sin": [[-0.2]]},
        ],
        "forcing_terms": [{"k": [0, 1], "cos": [1.0], "sin": [0.4]}],
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.array([0.4, 2.1]), h=h)


def augmented_rk4_steps(sys, t0, n_steps, h):
    """Reference RK4 steps of the augmented generator [[A, f], [0, 0]], with
    the coefficients evaluated pointwise on the torus, one step at a time."""
    n = sys.state_dim
    t = t0 + (h / 2) * np.arange(2 * n_steps + 1)
    theta = sys.spec.phase_at(sys.base_phase, t)
    G = np.zeros((t.size, n + 1, n + 1))
    G[:, :n, :n] = sys.spec.matrix_form(theta)
    G[:, :n, n] = sys.spec.forcing_form(theta)
    eye = np.eye(n + 1)
    steps = []
    for j in range(n_steps):
        K1 = G[2 * j]
        K2 = G[2 * j + 1] @ (eye + h / 2 * K1)
        K3 = G[2 * j + 1] @ (eye + h / 2 * K2)
        K4 = G[2 * j + 2] @ (eye + h * K3)
        steps.append(eye + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4))
    return np.array(steps)


class TestDenseEnds:
    """Ends at every step of a march against ends read one at a time."""

    @pytest.mark.parametrize("system", [decay_system, reciprocal_shear_system, delay_system])
    @pytest.mark.parametrize("chunk", [5, 13, 16])
    def test_dense_ends_are_exact(self, system, chunk, monkeypatch):
        # a march to every step reads its ends off the down-sweep of each
        # chunk's tree; one to (e, last) composes e along its binary digits.
        # Both make the same compositions in the same order.
        sys = system()
        d = sys.state_dim + 1
        monkeypatch.setattr(favard.cocycle, "_CHUNK_BYTES", chunk * 9 * 8 * d * d)
        assert favard.cocycle._chunk_steps(d) == chunk
        last = 6 * chunk + 3
        Phi, b = affine_path(sys, np.arange(last + 1) * sys.step)
        for e in range(last + 1):
            Phi_e, b_e = affine_path(sys, np.array([e, last]) * sys.step)
            assert np.array_equal(Phi_e[0], Phi[e]) and np.array_equal(b_e[0], b[e]), e
            assert np.array_equal(Phi_e[1], Phi[last]) and np.array_equal(b_e[1], b[last]), e


class TestBlockFormSteps:
    """The block-form RK4 steps against the augmented-form step, blockwise."""

    def assert_steps(self, got, ref):
        n = ref.shape[-1] - 1
        assert got.shape == (ref.shape[0], n, n + 1)
        assert_relative(got[:, :, :n], ref[:, :n, :n], rtol=1e-14)
        assert_relative(got[:, :, n], ref[:, :n, n], rtol=1e-14)

    def test_varying_matrix_and_reciprocal_forcing(self):
        sys = reciprocal_shear_system()
        got = favard.cocycle._continuous_propagators(sys, 3.7, 500, sys.h)
        self.assert_steps(got, augmented_rk4_steps(sys, 3.7, 500, sys.h))

    @pytest.mark.parametrize("system", [decay_system, varying_scalar_system])
    def test_scalar_stages_are_elementwise(self, system):
        # in dimension 1 each stage product is one multiply, with no matmul
        sys = system()
        got = favard.cocycle._continuous_propagators(sys, 3.7, 500, sys.h)
        self.assert_steps(got, augmented_rk4_steps(sys, 3.7, 500, sys.h))

    def test_trailing_half_step(self):
        sys = reciprocal_shear_system()
        t0 = 12 * sys.h
        half = favard.cocycle._continuous_propagators(sys, t0, 1, sys.h / 2)
        ref = augmented_rk4_steps(sys, t0, 1, sys.h / 2)
        self.assert_steps(half, ref)
        Phi, b = affine_path(sys, [12.5 * sys.h])
        Phi_ref, b_ref = folded_path(sys, [12])
        assert_relative(Phi[0], ref[0, :2, :2] @ Phi_ref[0], rtol=1e-14)
        assert_relative(b[0], ref[0, :2, :2] @ b_ref[0] + ref[0, :2, 2], rtol=1e-14)


def matmul_then(first, second):
    """The composition as dimension 2 and up takes it: one matmul, then the add."""
    out = np.matmul(second[..., :-1], first)
    out[..., -1] += second[..., -1]
    return out


class TestScalarComposition:
    """``_then`` in dimension 1, as elementwise column products, against the
    matmul composition.

    Values are compared, not bits: matmul sums its one product onto a zero,
    so it reads ``0 + (-0.0)`` as ``+0.0`` where the product alone keeps
    ``-0.0``.  ``np.array_equal`` holds the two zeros equal.
    """

    def maps(self, count, seed):
        maps = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 1, 2))
        maps[::5, 0, 0], maps[1::7, 0, 1] = -0.0, 0.0
        return maps

    def test_stacks(self):
        first, second = self.maps(1001, 0), self.maps(1001, 1)
        assert np.array_equal(favard.cocycle._then(first, second), matmul_then(first, second))

    def test_into_a_strided_out(self):
        # the down-sweep writes every other row of the next level's prefixes
        first, second = self.maps(500, 2), self.maps(500, 3)
        E = np.full((1001, 1, 2), np.nan)
        got = favard.cocycle._then(first, second, out=E[1::2])
        assert np.shares_memory(got, E)
        assert np.array_equal(E[1::2], matmul_then(first, second))
        assert np.isnan(E[0::2]).all()

    def test_single_maps(self):
        # the trailing partial step composes one (1, 2) map after another
        for first, second in zip(self.maps(50, 4), self.maps(50, 5)):
            got = favard.cocycle._then(first, second)
            assert got.shape == (1, 2)
            assert np.array_equal(got, matmul_then(first, second))


class TestBlowUp:
    def unstable(self):
        doc = {
            "frequencies": [1.0],
            "matrix_terms": [{"k": [0], "cos": [[1.0]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [0], "cos": [0.0], "sin": [0.0]}],
            "time_domain": "continuous",
            "dimension": 1,
        }
        return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))

    def test_bound_estimate_raises_on_growth(self):
        with pytest.raises(BlowUpError):
            estimate_bound_constant(self.unstable(), [[1.0]], 30.0)

    def test_stable_bound_is_one(self):
        sys = decay_system()
        L = estimate_bound_constant(sys, [[1.0]], 10.0)
        assert L == pytest.approx(1.0, abs=1e-9)
