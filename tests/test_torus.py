import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from favard import (
    NearSingularityError,
    QuasiPeriodicSpec,
    ReciprocalForcing,
    TrigPolynomial,
    angular_distance,
    reduce_phase,
)
import favard.torus
from favard.torus import FlowGrid

SQRT2 = math.sqrt(2.0)


def scalar_doc(time_domain="continuous"):
    return {
        "frequencies": [1.0, SQRT2],
        "matrix_terms": [{"k": [0, 0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [
            {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
            {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
        ],
        "time_domain": time_domain,
        "dimension": 1,
    }


def scalar_spec(time_domain="continuous"):
    return QuasiPeriodicSpec.from_dict(scalar_doc(time_domain))


class TestPhaseArithmetic:
    @given(st.floats(-1e6, 1e6))
    def test_reduce_phase_range(self, x):
        r = reduce_phase(np.array([x]))
        assert 0.0 <= r[0] < 2 * np.pi

    @given(st.floats(-1e3, 1e3))
    def test_angular_distance_symmetric(self, x):
        assert angular_distance(np.array([x])) == pytest.approx(
            angular_distance(np.array([-x]))[0], abs=1e-9
        )
        assert 0.0 <= angular_distance(np.array([x]))[0] <= np.pi + 1e-12

    def test_angular_distance_known(self):
        assert angular_distance(np.array([2 * np.pi]))[0] == pytest.approx(0.0, abs=1e-12)
        assert angular_distance(np.array([np.pi]))[0] == pytest.approx(np.pi)


class TestTrigPolynomial:
    def test_matches_direct_formula(self):
        # f(theta) = cos(theta1) + cos(theta2)
        p = TrigPolynomial.from_terms(
            [
                {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
                {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
            ]
        )
        theta = np.array([0.3, 1.7])
        assert p(theta)[0] == pytest.approx(math.cos(0.3) + math.cos(1.7), abs=1e-14)

    def test_batch_matches_scalar(self):
        p = TrigPolynomial.from_terms(
            [{"k": [2, -1], "cos": [0.5], "sin": [-1.25]}]
        )
        thetas = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(17, 2))
        batch = p(thetas)
        single = np.array([p(th) for th in thetas])
        np.testing.assert_allclose(batch, single, atol=1e-14)

    def test_matrix_valued(self):
        p = TrigPolynomial.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1)
        np.testing.assert_array_equal(p(np.array([2.0])), [[0.0, 1.0], [-1.0, 0.0]])


class TestQuasiPeriodicSpec:
    def test_forcing_along_flow_known_value(self):
        # two-frequency cosine forcing evaluated one full turn of the first
        # phase: 1 + cos(2 pi sqrt(2))
        spec = scalar_spec()
        f = spec.forcing_form(spec.phase_at(np.zeros(2), 2 * np.pi))
        expected = 1.0 + math.cos(2 * np.pi * SQRT2)
        assert f[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.14178, abs=1e-4)

    def test_base_return_quality(self):
        spec = scalar_spec()
        # 2 pi returns the first phase exactly; the second is off by the
        # wrap of 2 pi sqrt(2)
        q = spec.base_return_quality(2 * np.pi)
        expected = float(angular_distance(np.array([2 * np.pi * SQRT2]))[0])
        assert q == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_base_return_quality_keeps_the_shape_of_tau(self, shape):
        doc = scalar_doc() | {"frequencies": [-1.3, SQRT2]}
        spec = QuasiPeriodicSpec.from_dict(doc)
        tau = np.random.default_rng(3).uniform(-50.0, 50.0, shape)
        q = spec.base_return_quality(tau)
        assert np.shape(q) == shape
        per_frequency = [angular_distance(w * tau) for w in spec.frequencies]
        assert np.array_equal(q, np.maximum.reduce(per_frequency))

    def test_rejects_duplicate_frequencies(self):
        doc = scalar_doc()
        doc["frequencies"] = [1.0, 1.0]
        with pytest.raises(ValueError):
            QuasiPeriodicSpec.from_dict(doc)

    def test_rejects_zero_frequency(self):
        doc = scalar_doc()
        doc["frequencies"] = [0.0, SQRT2]
        with pytest.raises(ValueError):
            QuasiPeriodicSpec.from_dict(doc)

    def test_rejects_continuous_delay(self):
        doc = scalar_doc()
        doc["delay_order"] = 1
        with pytest.raises(ValueError):
            QuasiPeriodicSpec.from_dict(doc)

    def test_rejects_missing_field(self):
        doc = scalar_doc()
        del doc["matrix_terms"]
        with pytest.raises(KeyError):
            QuasiPeriodicSpec.from_dict(doc)

    def test_rejects_shape_mismatch(self):
        doc = scalar_doc()
        doc["dimension"] = 2
        with pytest.raises(ValueError):
            QuasiPeriodicSpec.from_dict(doc)


class TestReciprocalForcing:
    def reciprocal(self, margin=1e-6):
        num = TrigPolynomial.constant(np.array([1.0]), 2)
        q = TrigPolynomial.from_terms(
            [
                {"k": [1, 0], "cos": [1.0], "sin": [0.0]},
                {"k": [0, 1], "cos": [1.0], "sin": [0.0]},
            ]
        )
        return ReciprocalForcing(numerator=num, c=2.0, q=q, margin=margin)

    def test_matches_direct_formula(self):
        r = self.reciprocal()
        t = 3.7
        theta = np.array([t % (2 * np.pi), (SQRT2 * t) % (2 * np.pi)])
        direct = 1.0 / (2.0 + math.cos(t) + math.cos(SQRT2 * t))
        assert r(theta)[0] == pytest.approx(direct, abs=1e-12)

    def test_near_singularity_raises(self):
        r = self.reciprocal(margin=1e-2)
        # denominator 2 + cos(pi) + cos(pi) = 0 at theta = (pi, pi)
        with pytest.raises(NearSingularityError):
            r(np.array([np.pi, np.pi]))


def spec_over(frequencies, n=1):
    """A spec carrying only the frequency vector, for along-flow grids."""
    m = len(frequencies)
    return QuasiPeriodicSpec(
        np.asarray(frequencies, dtype=float),
        TrigPolynomial.constant(np.zeros((n, n)), m),
        TrigPolynomial.constant(np.zeros(n), m),
        dimension=n,
    )


#: Grid sizes around the stride B = 40: fewer points than one stride, a whole
#: square, one point past it, and many rows.
GRID_COUNTS = [1, 2, 3, 40 * 40, 40 * 40 + 1, 5000]


@st.composite
def flow_polynomials(draw):
    m = draw(st.integers(1, 3))
    T = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(n,), (n, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omega = rng.uniform(0.1, 2.0, m) * rng.choice([-1.0, 1.0], m)
    poly = TrigPolynomial(
        rng.integers(-4, 5, (T, m)), rng.uniform(-2, 2, (T, *shape)), rng.uniform(-2, 2, (T, *shape))
    )
    return spec_over(omega), rng.uniform(0, 2 * np.pi, m), poly


class TestAlongFlow:
    @settings(max_examples=60, deadline=None)
    @given(
        flow_polynomials(),
        st.floats(-1e3, 1e3),
        st.floats(1e-4, 1.0),
        st.sampled_from(GRID_COUNTS),
    )
    def test_matches_the_direct_route(self, drawn, t0, dt, count):
        spec, base, poly = drawn
        grid = FlowGrid(spec, base, t0, dt, count)
        direct = poly(spec.phase_at(base, t0 + dt * np.arange(count)))
        got = poly.along_flow(grid)
        assert got.shape == (count, *poly.value_shape)
        # The direct route rounds t0 + j*dt and t*omega before reducing, an
        # error of about eps |t omega_i| in each coordinate that angle
        # addition does not share; beyond it the two agree to 1e-12.
        t_max = abs(t0) + dt * count
        spread = np.max(np.abs(poly.indices) @ np.abs(spec.frequencies))
        scale = 1.0 + np.abs(poly.cos_coeffs).sum() + np.abs(poly.sin_coeffs).sum()
        tol = (1e-12 + np.finfo(float).eps * t_max * spread) * scale
        assert np.max(np.abs(got - direct)) <= tol
        # a k = 0 term gives its constant exactly: its phasors are 1 + 0i
        zero = np.zeros((1, poly.num_variables), dtype=int)
        for C, S in zip(poly.cos_coeffs, poly.sin_coeffs):
            flat = TrigPolynomial(zero, C[None], S[None])
            np.testing.assert_array_equal(flat.along_flow(grid), np.broadcast_to(C, got.shape))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_constant_polynomial(self, shape):
        # only k = 0 terms: their summed cosines, broadcast over the grid
        rng = np.random.default_rng(7)
        spec, base = spec_over([1.0, SQRT2]), np.array([0.3, 1.1])
        poly = TrigPolynomial(
            np.zeros((4, 2), dtype=int), rng.uniform(-2, 2, (4, *shape)), rng.uniform(-2, 2, (4, *shape))
        )
        tol = 4 * np.finfo(float).eps * np.abs(poly.cos_coeffs).sum()
        for count in GRID_COUNTS:
            got = poly.along_flow(FlowGrid(spec, base, -3.0, 0.01, count))
            direct = poly(spec.phase_at(base, -3.0 + 0.01 * np.arange(count)))
            assert got.shape == direct.shape == (count, *shape)
            np.testing.assert_allclose(got, direct, rtol=0, atol=tol)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-500.0, 0.0),
        st.floats(1e-4, 0.1),
        st.sampled_from(GRID_COUNTS),
        st.sampled_from([1e-9, 1e-3, 1e-2, 5e-2]),
    )
    def test_reciprocal_signal_matches_the_direct_route(self, t0, dt, count, margin):
        # criterion 8's signal 1 / (2 + cos t + cos sqrt(2) t), |t| <= 500
        rec = TestReciprocalForcing().reciprocal(margin)
        spec, base = spec_over([1.0, SQRT2]), np.zeros(2)
        try:
            direct = rec(spec.phase_at(base, t0 + dt * np.arange(count)))
        except NearSingularityError:
            direct = None
        if direct is None:
            with pytest.raises(NearSingularityError):
                rec.along_flow(FlowGrid(spec, base, t0, dt, count))
        else:
            got = rec.along_flow(FlowGrid(spec, base, t0, dt, count))
            assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-11

    def test_phasor_blocks_do_not_change_the_values(self, monkeypatch):
        # a budget of a few phasors per block gives short strides and many blocks
        spec, base = spec_over([1.0, SQRT2]), np.array([0.3, 1.1])
        poly = TrigPolynomial(
            [[1, 0], [0, 1], [2, -1]], [[1.0], [0.5], [-0.25]], [[0.0], [2.0], [0.75]]
        )
        grid = FlowGrid(spec, base, -3.0, 0.01, 1001)
        wide = poly.along_flow(grid)
        monkeypatch.setattr(favard.torus, "_PHASOR_BYTES", 32 * 3 * 7)
        narrow = poly.along_flow(grid)
        direct = poly(spec.phase_at(base, -3.0 + 0.01 * np.arange(1001)))
        np.testing.assert_allclose(narrow, direct, rtol=0, atol=1e-13)
        np.testing.assert_allclose(wide, direct, rtol=0, atol=1e-13)
