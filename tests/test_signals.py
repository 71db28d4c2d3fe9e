import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import favard.signals

from favard import (
    CoverageError,
    TrajectorySample,
    sample_signal,
    scan_almost_periods,
)
from favard.scenarios import _csv
from favard.signals import scan_indices


def make_sample(values, dt=0.1, t0=0.0):
    return TrajectorySample(t0=t0, dt=dt, values=np.asarray(values, dtype=float))


class TestAlmostPeriodScan:
    def cosine_sample(self):
        # cover [-10, 10 + 30] for L = 10, scan range [0, 30]
        return sample_signal(np.cos, -10.0, 0.01, 5001)

    def test_periodic_signal_lists_its_periods(self):
        traj = self.cosine_sample()
        report = scan_almost_periods(traj, 0.05, (0.0, 30.0), 0.01, 10.0)
        # every listed shift is near a multiple of 2 pi (or 0)
        assert report.periods.size > 0
        for tau in report.periods:
            k = round(tau / (2 * math.pi))
            assert abs(tau - 2 * math.pi * k) < 0.06
        # multiples of 2 pi themselves are present
        assert np.min(np.abs(report.periods - 2 * math.pi)) < 0.01

    def test_zero_shift_always_listed(self):
        traj = self.cosine_sample()
        report = scan_almost_periods(traj, 1e-9, (0.0, 30.0), 0.01, 10.0)
        assert 0.0 in report.periods

    def test_monotone_in_epsilon(self):
        traj = self.cosine_sample()
        small = scan_almost_periods(traj, 0.02, (0.0, 30.0), 0.01, 10.0)
        large = scan_almost_periods(traj, 0.2, (0.0, 30.0), 0.01, 10.0)
        assert set(np.round(small.periods, 9)) <= set(np.round(large.periods, 9))

    def test_max_gap_relative_density(self):
        traj = self.cosine_sample()
        report = scan_almost_periods(traj, 0.05, (0.0, 30.0), 0.01, 10.0)
        assert report.max_gap < 2 * math.pi + 0.5
        empty = scan_almost_periods(traj, 1e-9, (1.0, 30.0), 0.01, 10.0)
        assert empty.max_gap == math.inf

    def test_window_not_covered_raises(self):
        traj = sample_signal(np.cos, -1.0, 0.01, 300)
        with pytest.raises(CoverageError):
            scan_almost_periods(traj, 0.1, (0.0, 10.0), 0.01, 5.0)

    def test_times_a_roundoff_off_the_grid_give_the_grid_indices(self):
        # the window and range ends snap to the sample points they lie on
        on = scan_indices(-20.0, 1.0, (0.0, 60.0), 1.0, 20.0)
        off = scan_indices(-20.0000000002, 1.0, (0.0, 60.0000000003), 1.0000000001, 20.0000000002)
        for a, b in zip(on, off):
            np.testing.assert_array_equal(a, b)
        assert on[:2] == (0, 41) and on[2][-1] == 60

    def test_scan_step_must_match_grid(self):
        traj = self.cosine_sample()
        with pytest.raises(ValueError):
            scan_almost_periods(traj, 0.1, (0.0, 30.0), 0.005, 10.0)

    def test_csv_layout(self):
        traj = self.cosine_sample()
        report = scan_almost_periods(traj, 0.05, (0.0, 30.0), 0.01, 10.0)
        rows = [(tau, 10.0, 0.05) for tau in report.periods.tolist()]
        lines = _csv("almost_periods.csv", rows).strip().splitlines()
        assert lines[0] == "tau,window_L,epsilon"
        assert len(lines) == report.periods.size + 1
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows

    def test_negative_shifts_need_the_sample_before_the_window(self):
        values = np.random.default_rng(2).normal(size=(201, 2))
        covered = make_sample(values, dt=0.1, t0=-8.0)  # [-8, 12]
        report = scan_almost_periods(covered, 1.5, (-3.0, 4.0), 0.2, 5.0)
        expected, _ = per_shift_scan(covered, 1.5, (-3.0, 4.0), 0.2, 5.0)
        np.testing.assert_array_equal(report.periods, expected)
        with pytest.raises(CoverageError):
            scan_almost_periods(make_sample(values, dt=0.1, t0=-5.0), 1.5, (-3.0, 4.0), 0.2, 5.0)

@settings(max_examples=30)
@given(st.floats(0.01, 0.5), st.floats(0.6, 2.0))
def test_scan_epsilon_inclusion_property(eps_small, eps_big):
    traj = sample_signal(np.cos, -5.0, 0.05, 500)
    a = scan_almost_periods(traj, eps_small, (0.0, 10.0), 0.05, 5.0)
    b = scan_almost_periods(traj, eps_big, (0.0, 10.0), 0.05, 5.0)
    assert set(np.round(a.periods, 9)) <= set(np.round(b.periods, 9))


def per_shift_scan(traj, epsilon, scan_range, scan_step, L, every=1):
    """The scan as one norm per shift, over every ``every``-th window point:
    the periods and every deviation."""
    step_idx = round(scan_step / traj.dt)
    i_lo, i_hi = round((-L - traj.t0) / traj.dt), round((L - traj.t0) / traj.dt)
    base = traj.values[i_lo : i_hi + 1]
    k_lo = int(math.ceil(scan_range[0] / traj.dt - 1e-9))
    k_hi = int(math.floor(scan_range[1] / traj.dt + 1e-9))
    periods, devs = [], []
    for k in np.arange(k_lo, k_hi + 1, step_idx):
        shifted = traj.values[i_lo + k : i_hi + 1 + k]
        dev = float(np.max(np.linalg.norm((shifted - base)[::every], axis=-1)))
        devs.append(dev)
        if dev < epsilon:
            periods.append(k * traj.dt)
    return np.array(sorted(periods), dtype=float), devs


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 12),
    st.integers(-10, 10),
    st.integers(0, 15),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["a deviation", "off the coarse points", "no survivor"]),
    st.data(),
)
def test_batched_scan_equals_the_per_shift_scan(n, step_idx, half, lo, width, per_block, seed, kind, data):
    # an epsilon equal to a deviation puts that shift on the strict boundary,
    # so any roundoff in the batched deviations would show; one reached only
    # off the coarse points passes the coarse pass and must fail the full one,
    # and one at the smallest coarse deviation leaves no shift to the full pass
    dt = 0.25
    L, scan_range = half * dt, (lo * dt, (lo + width) * dt)
    window = 2 * half + 1  # odd: not a multiple of an even stride
    count = window + max(lo + width, 0) - min(lo, 0) + data.draw(st.integers(0, 3))
    values = np.random.default_rng(seed).normal(size=(count, n))
    traj = make_sample(values, dt=dt, t0=min(lo, 0) * dt - L)
    _, devs = per_shift_scan(traj, 1.0, scan_range, step_idx * dt, L)
    _, coarse = per_shift_scan(traj, 1.0, scan_range, step_idx * dt, L, every=math.isqrt(window))
    candidates = {
        "a deviation": [d for d in devs if d > 0] or [1.0],
        "off the coarse points": [d for d, c in zip(devs, coarse) if d > c],
        "no survivor": [min(coarse)] if min(coarse) > 0 else [],
    }[kind]
    assume(candidates)
    epsilon = data.draw(st.sampled_from(candidates))
    expected, _ = per_shift_scan(traj, epsilon, scan_range, step_idx * dt, L)
    with mock.patch.object(favard.signals, "_SCAN_BYTES", 8 * n * window * per_block):
        report = scan_almost_periods(traj, epsilon, scan_range, step_idx * dt, L)
    assert report.periods.dtype == expected.dtype
    np.testing.assert_array_equal(report.periods, expected)
    if kind == "no survivor":
        assert report.periods.size == 0
