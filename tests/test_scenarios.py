import functools
import json
import math

import numpy as np
import pytest

import favard.scenarios
from favard import (
    EXIT_ERROR,
    ConfigError,
    Scenario,
    build_system,
    bundled_scenarios,
    resolve_seed,
    run_scenario,
    solve_minmax,
)


def equilibrium_doc():
    return bundled_scenarios()["equilibrium"].to_dict()


class TestScenarioValidation:
    def test_roundtrip(self):
        doc = equilibrium_doc()
        again = Scenario.from_dict(doc)
        assert again.to_dict() == doc

    def test_unknown_field_rejected(self):
        doc = equilibrium_doc()
        doc["extra_knob"] = 1
        with pytest.raises(ConfigError, match="extra_knob"):
            Scenario.from_dict(doc)

    def test_missing_required_field_rejected(self):
        doc = equilibrium_doc()
        del doc["delta_cap"]
        with pytest.raises(ConfigError, match="delta_cap"):
            Scenario.from_dict(doc)

    def test_bad_seed_rejected(self):
        doc = equilibrium_doc()
        doc["seed"] = {"state": [1.0], "long_run": {"start": [0.0], "burn_in": 1.0}}
        with pytest.raises(ConfigError, match="seed"):
            Scenario.from_dict(doc)

    def test_negative_delta_cap_rejected(self):
        doc = equilibrium_doc()
        doc["delta_cap"] = -0.1
        with pytest.raises(ConfigError, match="delta_cap"):
            Scenario.from_dict(doc)

    def test_bad_system_rejected(self):
        doc = equilibrium_doc()
        doc["system"] = {"frequencies": [1.0]}
        with pytest.raises(ConfigError, match="system"):
            Scenario.from_dict(doc)

    def test_digest_stable_and_sensitive(self):
        a = Scenario.from_dict(equilibrium_doc())
        b = Scenario.from_dict(equilibrium_doc())
        assert a.digest() == b.digest()
        doc = equilibrium_doc()
        doc["horizon"] = 123.0
        assert Scenario.from_dict(doc).digest() != a.digest()


class TestSeeding:
    def test_explicit_state(self):
        scenario = bundled_scenarios()["equilibrium"]
        sys = build_system(scenario)
        sys2, u0 = resolve_seed(sys, scenario)
        assert u0.tolist() == [1.0]
        np.testing.assert_array_equal(sys2.base_phase, sys.base_phase)

    def test_long_run_advances_phase_and_state(self):
        scenario = bundled_scenarios()["discrete-dichotomy"]
        sys = build_system(scenario)
        sys2, u0 = resolve_seed(sys, scenario)
        burn = scenario.seed["long_run"]["burn_in"]
        np.testing.assert_allclose(
            sys2.base_phase, sys.spec.phase_at(sys.base_phase, burn)
        )
        # the burned-in state is settled: one more burn-in changes little
        u1 = resolve_seed(sys2, scenario)[1]
        assert abs(u1[0] - u0[0]) < 1.0  # both on the bounded orbit


class TestRunScenario:
    def test_equilibrium_artifacts(self, tmp_path):
        rec = run_scenario(bundled_scenarios()["equilibrium"], tmp_path, quiet=True)
        assert rec.verdict == "certified"
        assert rec.exit_code == 0
        for name in (
            "scenario.json",
            "returns.csv",
            "favard.json",
            "comparability.csv",
            "almost_periods.csv",
            "summary.txt",
            "metadata.json",
        ):
            assert (rec.run_dir / name).exists(), name
        doc = json.loads((rec.run_dir / "favard.json").read_text())
        assert doc["fixed_point"]["verdict"] == "certified"
        assert doc["u_bar"][0] == pytest.approx(1.0, abs=1e-6)
        assert doc["provenance"]["scenario_digest"] == rec.scenario.digest()
        assert doc["provenance"]["optimizer"]["lower_bound"] <= doc["objective_value"]
        summary = (rec.run_dir / "summary.txt").read_text()
        assert "verdict: certified" in summary

    def test_blowup_scenario_errors(self, tmp_path):
        rec = run_scenario(bundled_scenarios()["unstable-blowup"], tmp_path, quiet=True)
        assert rec.verdict == "error"
        assert rec.exit_code == 1
        assert "BlowUpError" in rec.message
        assert (rec.run_dir / "summary.txt").exists()

    def test_coarse_grid_inconclusive(self, tmp_path):
        rec = run_scenario(
            bundled_scenarios()["dichotomy-coarse-grid"], tmp_path, quiet=True
        )
        assert rec.verdict == "inconclusive"
        assert rec.exit_code == 2
        # comparability is refused without a certificate: header-only file
        assert (rec.run_dir / "comparability.csv").read_text() == "epsilon,delta,horizon,count\n"

    def test_run_counter_increments(self, tmp_path):
        scenario = bundled_scenarios()["equilibrium"]
        first = run_scenario(scenario, tmp_path, quiet=True)
        second = run_scenario(scenario, tmp_path, quiet=True)
        assert first.run_dir.name == "run-001"
        assert second.run_dir.name == "run-002"
        assert first.run_dir.parent == second.run_dir.parent

    def test_run_index_follows_the_highest(self, tmp_path):
        scenario = bundled_scenarios()["equilibrium"]
        group = tmp_path / f"{scenario.name}-{scenario.digest()}"
        for name in ("run-001", "run-005", "notes"):
            (group / name).mkdir(parents=True)
        assert favard.scenarios._allocate_run_dir(tmp_path, scenario).name == "run-006"

    def test_solver_pivot_cap_is_an_error_verdict(self, tmp_path, monkeypatch):
        capped = functools.partial(solve_minmax, iterations=1)
        monkeypatch.setattr(favard.scenarios, "solve_minmax", capped)
        rec = run_scenario(bundled_scenarios()["telescoping-discrete"], tmp_path, quiet=True)
        assert rec.verdict == "error"
        assert rec.exit_code == EXIT_ERROR
        assert "SolverError" in rec.message
        assert (rec.run_dir / "favard.json").exists()

    def test_payloads_deterministic_across_runs(self, tmp_path):
        scenario = bundled_scenarios()["telescoping-discrete"]
        a = run_scenario(scenario, tmp_path / "a", quiet=True)
        b = run_scenario(scenario, tmp_path / "b", quiet=True)
        for name in (
            "scenario.json",
            "returns.csv",
            "favard.json",
            "comparability.csv",
            "almost_periods.csv",
            "summary.txt",
        ):
            assert (a.run_dir / name).read_bytes() == (b.run_dir / name).read_bytes(), name

    def test_no_returns_is_inconclusive(self, tmp_path):
        doc = equilibrium_doc()
        doc["delta_cap"] = 1e-9
        doc["horizon"] = 10.0
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "inconclusive"
        assert rec.exit_code == 2
        assert rec.return_count == 0


class TestBundledSet:
    def test_at_least_six_scenarios(self):
        assert len(bundled_scenarios()) >= 6

    def test_all_validate_roundtrip(self):
        for name, scenario in bundled_scenarios().items():
            again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
            assert again.digest() == scenario.digest(), name

    def test_covers_all_backends(self):
        domains = set()
        for scenario in bundled_scenarios().values():
            domains.add(
                (scenario.system["time_domain"], scenario.system.get("delay_order", 0) > 0)
            )
        assert ("continuous", False) in domains
        assert ("discrete", False) in domains
        assert ("discrete", True) in domains
