import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import favard.cocycle
import favard.scenarios
from favard import (
    EXIT_ERROR,
    ConfigError,
    Scenario,
    affine_path,
    build_system,
    bundled_scenarios,
    resolve_seed,
    run_scenario,
    solve_minmax,
)


def equilibrium_doc():
    return bundled_scenarios()["equilibrium"].to_dict()


SYSTEM = equilibrium_doc()["system"]
AP = {"epsilon": 1.0, "window_halfwidth": 20.0, "scan_range": [0.0, 60.0]}
RUN_FILES = (
    "scenario.json",
    "returns.csv",
    "favard.json",
    "comparability.csv",
    "almost_periods.csv",
    "summary.txt",
    "metadata.json",
)


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

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("h", 0, "h"),
            ("h", -0.001, "h"),
            ("horizon", math.inf, "horizon"),
            ("base_phase", [0.0, 0.0], "base_phase"),
            ("seed", {"state": [1.0, 2.0]}, "seed.state"),
            ("seed", {"long_run": {"start": [], "burn_in": 5.0}}, "seed.long_run.start"),
            ("epsilons", [math.nan], "epsilons"),
            ("delta_cap", math.nan, "delta_cap"),
            ("name", "../../escaped", "name"),
            ("name", ".hidden", "name"),
            # a field that no longer exists is rejected as unknown
            ("composition_depth", "x", "composition_depth"),
            ("composition_depth", 1.5, "composition_depth"),
            ("almost_periods", {"epsilon": 1.0}, "almost_periods.scan_range"),
            ("almost_periods", AP | {"scan_range": [0.0, 30.0, 60.0]}, "almost_periods.scan_range"),
            ("system", SYSTEM | {"frequencies": [math.nan]}, "system"),
            ("system", SYSTEM | {"frequencies": [math.inf]}, "system"),
            ("system", SYSTEM | {"forcing_terms": [{"k": [0], "cos": [math.nan], "sin": [0.0]}]},
             "system"),
            ("system", SYSTEM | {"matrix_terms": [{"k": [0], "cos": [[1.0]], "sin": [[-math.inf]]}]},
             "system"),
            ("system", [1], "system"),
            ("system", SYSTEM | {"matrix_terms": 5}, "system"),
            ("almost_periods", AP | {"scan_range": [60.0, 0.0]}, "almost_periods.scan_range"),
            ("almost_periods", AP | {"scan_range": [-5.0, 60.0]}, "almost_periods.scan_range"),
            ("almost_periods", AP | {"epsilon": 0.0}, "almost_periods.epsilon"),
            ("almost_periods", AP | {"window_halfwidth": -1.0}, "almost_periods.window_halfwidth"),
            ("almost_periods", AP | {"sample_dt": 0.0}, "almost_periods.sample_dt"),
            ("almost_periods", AP | {"scan_step": 0.015}, "almost_periods.scan_step"),
            ("almost_periods", AP | {"scan_step": 0.0}, "almost_periods.scan_step"),
            ("almost_periods", AP | {"sample_dt": 0.02, "scan_step": 0.01}, "almost_periods.scan_step"),
            ("comparability_horizon", -1.0, "comparability_horizon"),
            ("comparability_horizon", 0.0, "comparability_horizon"),
            ("min_tau", -5.0, "min_tau"),
            ("min_tau", 200.0, "min_tau"),
            ("min_tau", 500.0, "min_tau"),
            ("min_tau", 199.995, "min_tau"),
            ("comparability_horizon", 0.005, "comparability_horizon"),
            ("horizon", 1e7, "horizon"),
            ("almost_periods", AP | {"sample_dt": 1e-9}, "almost_periods.sample_dt"),
            ("scan_step", -5, "scan_step"),
            ("scan_step", 0, "scan_step"),
            # 20,000 shifts, but 2e11 march steps
            ("h", 1e-9, "horizon"),
            ("seed", {"long_run": {"start": [0.0], "burn_in": 2e5}}, "seed.long_run.burn_in"),
            ("system", SYSTEM | {"reciprocal": {"c": 2.0, "q_terms": [
                {"k": [1, 0, 0], "cos": [1.0], "sin": [0.0]}]}}, "system"),
            ("system", SYSTEM | {"reciprocal": {"c": 2.0, "q_terms": [
                {"k": [1], "cos": [1.0, 1.0], "sin": [0.0, 0.0]}]}}, "system"),
            # JSON's 1e400 reads as inf; 10**30 overflows an int64 index
            ("system", SYSTEM | {"dimension": math.inf}, "system"),
            ("system", SYSTEM | {"delay_order": math.inf}, "system"),
            ("system", SYSTEM | {"forcing_terms": [{"k": [10**30], "cos": [1.0], "sin": [0.0]}]},
             "system"),
            ("system", SYSTEM | {"dimension": 1.5}, "system"),
            ("system", SYSTEM | {"delay_order": 0.5}, "system"),
            ("system", SYSTEM | {"forcing_terms": [{"k": [0.5], "cos": [1.0], "sin": [0.0]}]},
             "system"),
            pytest.param("horizon", 10**400, "horizon", id="horizon-10**400-horizon"),
            # window points 0..500,000 plus shifts up to 500,000: 1,000,001 points
            ("almost_periods", AP | {"sample_dt": 1.0, "window_halfwidth": 250000.0,
                                     "scan_range": [0.0, 500000.0]}, "almost_periods.sample_dt"),
            # one row per use of the shared positivity check that no row above pins
            ("horizon", 0, "horizon"),
            ("seed", {"long_run": {"start": [0.0], "burn_in": 0}}, "seed.long_run.burn_in"),
            ("epsilons", [], "epsilons"),
            ("delta_grid", [], "delta_grid"),
            ("delta_grid", [0.0], "delta_grid"),
        ],
    )
    def test_hostile_input_rejected(self, key, value, field):
        doc = equilibrium_doc()
        doc[key] = value
        with pytest.raises(ConfigError) as exc:
            Scenario.from_dict(doc)
        assert exc.value.field == field

    def test_whole_number_floats_are_accepted(self):
        terms = [{"k": [1.0], "cos": [1.0], "sin": [0.0]}]
        doc = equilibrium_doc()
        doc["system"] = SYSTEM | {"dimension": 1.0, "delay_order": 0.0, "forcing_terms": terms}
        spec = build_system(Scenario.from_dict(doc)).spec
        assert (spec.dimension, spec.delay_order) == (1, 0)
        assert spec.forcing_form.indices.tolist() == [[1]]

    def test_almost_period_sample_of_exactly_the_cap_is_accepted(self):
        # window points 0..500,000 plus shifts up to 499,999: the run samples 1,000,000
        ap = AP | {"sample_dt": 1.0, "window_halfwidth": 250000.0, "scan_range": [0.0, 499999.0]}
        Scenario.from_dict(equilibrium_doc() | {"almost_periods": ap})

    def test_digest_stable_and_sensitive(self):
        a = Scenario.from_dict(equilibrium_doc())
        b = Scenario.from_dict(equilibrium_doc())
        assert a.digest() == b.digest()
        doc = equilibrium_doc()
        doc["horizon"] = 123.0
        assert Scenario.from_dict(doc).digest() != a.digest()

    def test_min_tau_is_checked_against_the_comparability_horizon(self):
        doc = equilibrium_doc() | {"comparability_horizon": 50.0, "min_tau": 60.0}
        with pytest.raises(ConfigError) as exc:
            Scenario.from_dict(doc)
        assert exc.value.field == "min_tau"
        Scenario.from_dict(doc | {"min_tau": 40.0})

    def test_no_aliasing_of_caller_dicts(self):
        scenario = bundled_scenarios()["equilibrium"]
        digest = scenario.digest()
        out = scenario.to_dict()
        out["system"]["frequencies"] = [2.0]
        out["seed"]["state"] = [5.0]
        assert scenario.digest() == digest
        doc = equilibrium_doc() | {"almost_periods": json.loads(json.dumps(AP))}
        loaded = Scenario.from_dict(doc)
        before = loaded.digest()
        doc["system"]["frequencies"] = [2.0]
        doc["seed"]["state"] = [5.0]
        doc["almost_periods"]["epsilon"] = 0.5
        assert loaded.digest() == before


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


#: A scalar discrete recursion (delay order 0, nu = 2.8304) whose bounded
#: solution has a closed form; its near returns are 202, 313 and 515.
CLOSE_RETURN_DOC = {
    "name": "close-return", "description": "scalar discrete recursion, delay order 0",
    "system": {
        "frequencies": [2.8304445032954115],
        "matrix_terms": [{"k": [0], "cos": [[-0.33120273184766386]], "sin": [[0.0]]}],
        "forcing_terms": [
            {"k": [1], "cos": [-0.5472985651114961], "sin": [-0.9720362112789174]},
            {"k": [2], "cos": [0.5553968972211218], "sin": [0.0013456653656775952]},
        ],
        "time_domain": "discrete", "dimension": 1, "delay_order": 0,
    },
    "base_phase": [1.3875653788563331],
    "seed": {"long_run": {"start": [0.0], "burn_in": 100}},
    "horizon": 600.0, "epsilons": [0.1, 0.01], "delta_cap": 0.02007389724029096,
}


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

    def test_close_return_residual_is_of_lipschitz_size(self, tmp_path):
        rec = run_scenario(Scenario.from_dict(CLOSE_RETURN_DOC), tmp_path, quiet=True)
        assert rec.u_bar[0] == pytest.approx(0.4173923746797727, abs=1e-12)  # the closed form
        fixed_point = json.loads((rec.run_dir / "favard.json").read_text())["fixed_point"]
        assert fixed_point["delta_grid"][-1] < 3.0e-6 and fixed_point["counts"][-1] == 1
        assert 1e-6 < fixed_point["residuals"][-1] < 1.1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "the return at tau = 313 falls in the smallest delta bin (below 3.0e-6); its residual "
        "1.06e-6 is the expected Lipschitz size kappa * delta, but the certificate's flat "
        "tolerance is 1e-9"))
    def test_close_return_on_the_orbit_certifies(self, tmp_path):
        rec = run_scenario(Scenario.from_dict(CLOSE_RETURN_DOC), tmp_path, quiet=True)
        assert rec.verdict == "certified"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_state_seeded_blowup_is_an_error_verdict(self, tmp_path):
        # a state seed has no burn-in to catch the blow-up: the return images do
        doc = bundled_scenarios()["telescoping-discrete"].to_dict()
        doc["system"]["matrix_terms"][0]["cos"] = [[7.0]]
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "error"
        assert rec.exit_code == EXIT_ERROR
        assert "BlowUpError" in rec.message
        assert sorted(p.name for p in rec.run_dir.iterdir()) == sorted(RUN_FILES)

    @pytest.mark.xfail(strict=True, reason=(
        "SolverError: simplex lost precision to roundoff on x' = -x + 2 over its 314 grid "
        "returns, the first four at tau = 0.01-0.04 where the phase never left; one return "
        "per visit is expected to cure it"))
    def test_equilibrium_at_two_solves(self, tmp_path):
        doc = equilibrium_doc()
        doc["system"]["forcing_terms"][0]["cos"] = [2.0]
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict != "error", rec.message

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
        assert favard.scenarios._allocate_run_dir(group).name == "run-006"

    def test_solver_pivot_cap_is_an_error_verdict(self, tmp_path, monkeypatch):
        capped = functools.partial(solve_minmax, iterations=1)
        monkeypatch.setattr(favard.scenarios, "solve_minmax", capped)
        rec = run_scenario(bundled_scenarios()["telescoping-discrete"], tmp_path, quiet=True)
        assert rec.verdict == "error"
        assert rec.exit_code == EXIT_ERROR
        assert "SolverError" in rec.message
        assert (rec.run_dir / "favard.json").exists()

    def test_any_exception_is_an_error_verdict_with_every_file(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(favard.scenarios, "estimate_modulus", boom)
        rec = run_scenario(bundled_scenarios()["equilibrium"], tmp_path, quiet=True)
        assert rec.verdict == "error"
        assert rec.exit_code == EXIT_ERROR
        assert rec.message == "RuntimeError: boom"
        assert sorted(p.name for p in rec.run_dir.iterdir()) == sorted(RUN_FILES)
        for name, text in favard.scenarios.EMPTY_PAYLOAD.items():
            assert (rec.run_dir / name).read_text(encoding="utf-8") == text, name
        assert "message: RuntimeError: boom" in (rec.run_dir / "summary.txt").read_text()
        meta = json.loads((rec.run_dir / "metadata.json").read_text())
        assert "RuntimeError: boom" in meta["traceback"]

    def test_metadata_times_every_stage_and_counts_the_table(self, tmp_path):
        rec = run_scenario(bundled_scenarios()["quasiperiodic-dichotomy"], tmp_path, quiet=True)
        meta = json.loads((rec.run_dir / "metadata.json").read_text())
        assert set(meta["stages"]) == {"seed", "near_returns", "table", "solve", "certificate",
                                       "modulus", "almost_periods"}
        assert all(s >= 0 for s in meta["stages"].values())
        # horizon 800 at h = 1e-3; the returns lie on the comparability scan
        # of step 0.01, and the zero shift is one more row
        assert meta["march_steps"] == 800_000
        assert meta["table_rows"] == 80_001

    def test_error_metadata_times_the_stages_reached(self, tmp_path, monkeypatch):
        rec = run_scenario(bundled_scenarios()["unstable-blowup"], tmp_path, quiet=True)
        meta = json.loads((rec.run_dir / "metadata.json").read_text())
        assert rec.verdict == "error" and set(meta["stages"]) == {"seed"}
        assert "table_rows" not in meta and "march_steps" not in meta

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(favard.scenarios, "estimate_modulus", boom)
        rec = run_scenario(bundled_scenarios()["equilibrium"], tmp_path, quiet=True)
        meta = json.loads((rec.run_dir / "metadata.json").read_text())
        assert set(meta["stages"]) == {"seed", "near_returns", "table", "solve", "certificate",
                                       "modulus"}
        assert meta["table_rows"] > 0

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

    def test_payload_csv_cells_are_plain_numbers(self, tmp_path):
        rec = run_scenario(bundled_scenarios()["quasiperiodic-dichotomy"], tmp_path, quiet=True)
        for name in ("returns.csv", "comparability.csv", "almost_periods.csv"):
            rows = (rec.run_dir / name).read_text().splitlines()[1:]
            assert rows, name
            for row in rows:
                for cell in row.split(","):
                    float(cell)

    def test_payload_csvs_hold_their_header_and_one_row_per_entry(self, tmp_path):
        rec = run_scenario(bundled_scenarios()["quasiperiodic-dichotomy"], tmp_path, quiet=True)
        summary = (rec.run_dir / "summary.txt").read_text()
        periods = int(re.search(r"^almost_periods: (\d+) found$", summary, re.M).group(1))
        assert rec.return_count > 0 and periods > 0
        entries = {"returns.csv": rec.return_count, "comparability.csv": len(rec.scenario.epsilons),
                   "almost_periods.csv": periods}
        for name, count in entries.items():
            header, *rows = (rec.run_dir / name).read_text().splitlines()
            assert header + "\n" == favard.scenarios.EMPTY_PAYLOAD[name], name
            assert len(rows) == count, name
            assert all(row.count(",") == header.count(",") for row in rows), name

    @pytest.mark.parametrize("halfwidth, scan_hi", [
        (20.0000000002, 60.0), (20.0, 60.0000000003), (20.0000000002, 60.0000000003)])
    def test_almost_period_times_a_roundoff_off_the_sample_grid_run(self, tmp_path, halfwidth, scan_hi):
        # the scan reads whole sample points; a window or range end a
        # roundoff past one must neither leave the sample short nor fail
        ap = {"epsilon": 1, "window_halfwidth": halfwidth, "scan_range": [0, scan_hi]}
        doc = bundled_scenarios()["discrete-dichotomy"].to_dict() | {"almost_periods": ap}
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        assert len((rec.run_dir / "almost_periods.csv").read_text().splitlines()) > 1

    def test_almost_period_window_off_the_sample_grid_runs(self, tmp_path):
        # 2 * 20 + 60 is not a whole number of 0.03 steps; the sample still
        # has to cover the whole window
        doc = equilibrium_doc() | {"almost_periods": AP | {"sample_dt": 0.03, "scan_step": 0.03}}
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        rows = (rec.run_dir / "almost_periods.csv").read_text().splitlines()
        assert len(rows) > 1

    def test_constant_forcing_through_the_almost_period_scan(self, tmp_path):
        # equilibrium's forcing has only a k = 0 term: the sample and the scan
        # read it as one constant
        ap = {"epsilon": 0.1, "window_halfwidth": 5, "scan_range": [0, 3]}
        doc = equilibrium_doc() | {"almost_periods": ap}
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        _, *rows = (rec.run_dir / "almost_periods.csv").read_text().splitlines()
        assert len(rows) == 301  # every shift 0, 0.01, ..., 3 of a constant signal

    def test_constant_forcing_in_discrete_time(self, tmp_path):
        # u(t+1) = 0.5 u(t) + 1, whose bounded solution is the constant 2
        doc = bundled_scenarios()["discrete-dichotomy"].to_dict()
        doc["system"]["forcing_terms"] = [{"k": [0], "cos": [1.0], "sin": [0.0]}]
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        assert rec.u_bar.tolist() == [2.0]

    def test_one_march_after_the_burn_in(self, tmp_path, monkeypatch):
        # the return maps, the certificate and the modulus read one table
        marched = []

        def recording_path(sys, taus):
            marched.append(np.atleast_1d(taus))
            return affine_path(sys, taus)

        monkeypatch.setattr(favard.cocycle, "affine_path", recording_path)
        scenario = bundled_scenarios()["quasiperiodic-dichotomy"]
        rec = run_scenario(scenario, tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        assert len(marched) == 2
        assert marched[0].size == 1  # the burn-in
        assert marched[1].max() == pytest.approx(scenario.horizon)

    def test_discrete_fractional_min_tau_runs(self, tmp_path):
        # the tested point is taken at whole march steps, here step 2
        doc = bundled_scenarios()["discrete-dichotomy"].to_dict() | {"min_tau": 2.5}
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "certified", rec.message
        assert rec.comparability.min_tau == 2.5
        assert all(d > 0 for d in rec.comparability.deltas)

    def test_no_returns_is_inconclusive(self, tmp_path):
        doc = equilibrium_doc()
        doc["delta_cap"] = 1e-9
        doc["horizon"] = 10.0
        rec = run_scenario(Scenario.from_dict(doc), tmp_path, quiet=True)
        assert rec.verdict == "inconclusive"
        assert rec.exit_code == 2
        assert rec.return_count == 0
        assert (rec.run_dir / "returns.csv").read_text() == "tau,delta\n"


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


#: Short-horizon scenarios that still hold a near return, so a run reaches
#: the almost-period scan quickly: discrete-dichotomy returns at tau = 40,
#: equilibrium at tau = 6.28.
SHORT = {
    "discrete": bundled_scenarios()["discrete-dichotomy"].to_dict() | {"horizon": 50.0},
    "continuous": equilibrium_doc() | {"horizon": 10.0},
}
#: Relative offsets of a time from its sample grid point: on it, a roundoff
#: off it, and off it by more than the step check's 1e-9 slack.
OFF_GRID = st.sampled_from([0.0, 1e-12, -1e-12, 2e-10, -2e-10, 3e-9, -3e-9])


@st.composite
def almost_period_docs(draw):
    """A short scenario with an almost-period block whose times lie on or
    just off the sample grid."""
    kind = draw(st.sampled_from(sorted(SHORT)))
    dt = draw(st.sampled_from([0.5, 1.0, 2.0] if kind == "discrete" else [0.01, 0.02, 0.03]))

    def near(multiples):
        return draw(st.integers(*multiples)) * dt * (1.0 + draw(OFF_GRID))

    lo = near((0, 5))
    ap = {"epsilon": draw(st.sampled_from([0.1, 1.0])), "window_halfwidth": near((1, 40)),
          "scan_range": [lo, lo + near((0, 60))]}
    if draw(st.booleans()):
        ap["sample_dt"] = dt * (1.0 + draw(OFF_GRID))
    if draw(st.booleans()):
        ap["scan_step"] = near((1, 3))
    return SHORT[kind] | {"almost_periods": ap}


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(almost_period_docs())
def test_every_accepted_almost_period_block_runs(tmp_path_factory, doc):
    # validate and run convert the scan's times to sample indices by one call
    try:
        scenario = Scenario.from_dict(doc)
    except ConfigError:
        return
    rec = run_scenario(scenario, tmp_path_factory.mktemp("ap"), quiet=True)
    assert rec.verdict != "error", rec.message
    assert sorted(p.name for p in rec.run_dir.iterdir()) == sorted(RUN_FILES)
    assert "almost_periods" in json.loads((rec.run_dir / "metadata.json").read_text())["stages"]
