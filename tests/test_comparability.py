import math

import numpy as np
import pytest

import favard.cocycle
from favard import (
    BlowUpError,
    CocycleSystem,
    QuasiPeriodicSpec,
    affine_path,
    estimate_modulus,
)
from favard.comparability import modulus_steps
from favard.scenarios import _csv
from favard.solver import march_maps

SQRT2 = math.sqrt(2.0)
GRID = [math.pi * 0.5**k for k in range(21)]


def decay_system():
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


def equilibrium_system():
    doc = {
        "frequencies": [1.0],
        "matrix_terms": [{"k": [0], "cos": [[-1.0]], "sin": [[0.0]]}],
        "forcing_terms": [{"k": [0], "cos": [1.0], "sin": [0.0]}],
        "time_domain": "continuous",
        "dimension": 1,
    }
    return CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))


class TestEstimateModulus:
    def test_equilibrium_takes_max_delta(self):
        sys = equilibrium_system()
        rep = estimate_modulus(sys, [1.0], [0.1, 0.01], 100.0, delta_grid=GRID)
        assert rep.deltas[0] == pytest.approx(max(GRID))
        assert rep.deltas[1] == pytest.approx(max(GRID))

    def test_csv_layout(self):
        sys = equilibrium_system()
        rep = estimate_modulus(sys, [1.0], [0.1, 0.01], 50.0, delta_grid=GRID)
        rows = list(zip(rep.epsilons, rep.deltas, [rep.horizon] * len(rep.deltas), rep.counts))
        lines = _csv("comparability.csv", rows).strip().splitlines()
        assert lines[0] == "epsilon,delta,horizon,count"
        assert len(lines) == 3
        assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows

    def test_periodic_solution_positive_modulus(self):
        # x(t) = (cos t + sin t)/2 returns exactly at multiples of 2 pi
        sys = decay_system()
        rep = estimate_modulus(sys, [0.5], [0.1, 0.03, 0.01], 500.0, delta_grid=GRID)
        assert all(d > 0 for d in rep.deltas)

    def test_monotone_in_epsilon(self):
        sys = decay_system()
        rep = estimate_modulus(sys, [0.5], [0.01, 0.03, 0.1], 500.0, delta_grid=GRID)
        ordered = sorted(zip(rep.epsilons, rep.deltas))
        deltas = [d for _, d in ordered]
        assert deltas == sorted(deltas)

    def test_longer_horizon_cannot_grow_witnessed_modulus(self):
        sys = decay_system()
        short = estimate_modulus(sys, [0.5], [0.05], 250.0, delta_grid=GRID)
        long = estimate_modulus(sys, [0.5], [0.05], 500.0, delta_grid=GRID)
        assert short.counts[0] > 0 and long.counts[0] > 0
        assert long.deltas[0] <= short.deltas[0]

    def test_failed_epsilon_reports_zero(self):
        # an off-solution seed decays toward the bounded solution, so its
        # early deviations violate a tight epsilon at every populated delta
        sys = decay_system()
        rep = estimate_modulus(sys, [1.5], [1e-4], 500.0, delta_grid=GRID)
        assert rep.deltas[0] == 0.0
        assert rep.counts[0] == 0

    def test_min_tau_discards_transient(self):
        sys = decay_system()
        strict = estimate_modulus(sys, [1.5], [0.05], 500.0, delta_grid=GRID, min_tau=0.0)
        settled = estimate_modulus(sys, [1.5], [0.05], 500.0, delta_grid=GRID, min_tau=50.0)
        assert settled.deltas[0] > strict.deltas[0]

    def test_blowup_seed_raises(self):
        doc = {
            "frequencies": [1.0],
            "matrix_terms": [{"k": [0], "cos": [[1.0]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [0], "cos": [0.0], "sin": [0.0]}],
            "time_domain": "continuous",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
        with pytest.raises(BlowUpError):
            estimate_modulus(sys, [1.0], [0.1], 30.0, delta_grid=GRID)

    def test_discrete_scan_step_sets_the_grid(self, monkeypatch):
        doc = {
            "frequencies": [SQRT2],
            "matrix_terms": [{"k": [0], "cos": [[0.5]], "sin": [[0.0]]}],
            "forcing_terms": [{"k": [1], "cos": [1.0], "sin": [0.0]}],
            "time_domain": "discrete",
            "dimension": 1,
        }
        sys = CocycleSystem(QuasiPeriodicSpec.from_dict(doc), np.zeros(1))
        scanned = []

        def recording_path(sys, taus):
            scanned.append(np.array(taus))
            return affine_path(sys, taus)

        monkeypatch.setattr(favard.cocycle, "affine_path", recording_path)
        rep = estimate_modulus(sys, [1.0], [0.1], 30.0, delta_grid=GRID, scan_step=3)
        # the tested point at step 0, then the scan grid
        np.testing.assert_array_equal(scanned[0], [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30])
        assert rep.scan_step == 3.0

    def test_report_carries_truncation_parameters(self):
        sys = decay_system()
        rep = estimate_modulus(sys, [0.5], [0.1], 100.0, delta_grid=GRID, min_tau=10.0)
        assert rep.horizon == 100.0
        assert rep.min_tau == 10.0
        assert rep.scan_step == pytest.approx(0.01)

    @pytest.mark.parametrize("min_tau", [0.0, 10.0])
    def test_a_shared_table_gives_the_same_report(self, min_tau):
        # the pipeline's table also holds the near returns, which reach past
        # the comparability horizon
        sys = decay_system()
        steps = modulus_steps(sys, 100.0, min_tau)
        table = march_maps(sys, np.concatenate([steps, sys.steps([150.0, 200.0])]))
        args = (sys, [0.5], [0.1, 0.03, 0.01], 100.0, GRID, min_tau)
        shared = estimate_modulus(*args, table=table)
        assert shared == estimate_modulus(*args)
        assert shared.counts[0] > 0
