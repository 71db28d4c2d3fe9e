import json

import pytest

from favard.cli import main
from favard.scenarios import bundled_scenarios


def test_list_names_all_bundled(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in bundled_scenarios():
        assert name in out


def test_run_certified_scenario(tmp_path, capsys):
    code = main(["run", "equilibrium", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    groups = list(tmp_path.iterdir())
    assert len(groups) == 1
    run_dir = groups[0] / "run-001"
    assert (run_dir / "summary.txt").exists()


def test_run_exit_codes_aggregate(tmp_path):
    # inconclusive dominates certified, error dominates everything
    assert main(["run", "equilibrium", "dichotomy-coarse-grid", "--out", str(tmp_path), "--quiet"]) == 2
    assert main(["run", "equilibrium", "unstable-blowup", "--out", str(tmp_path), "--quiet"]) == 1


def test_run_scenario_file(tmp_path):
    doc = bundled_scenarios()["equilibrium"].to_dict()
    doc["name"] = "from-file"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert any(p.name.startswith("from-file-") for p in (tmp_path / "out").iterdir())


def test_run_unknown_scenario_errors(tmp_path, capsys):
    assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 1
    assert "no-such-scenario" in capsys.readouterr().err


def test_h_override_changes_artifacts(tmp_path):
    # the scenario file's own h is the integrator step
    doc = bundled_scenarios()["equilibrium"].to_dict() | {"h": 0.01}
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    base = main(["run", "equilibrium", "--out", str(tmp_path / "a"), "--quiet"])
    coarse = main(["run", str(path), "--out", str(tmp_path / "b"), "--quiet"])
    assert base == 0 and coarse == 0
    meta_a = json.loads(next((tmp_path / "a").glob("*/run-001/metadata.json")).read_text())
    meta_b = json.loads(next((tmp_path / "b").glob("*/run-001/metadata.json")).read_text())
    assert meta_a["integrator_step"] == 0.001
    assert meta_b["integrator_step"] == 0.01


def test_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(bundled_scenarios()["equilibrium"].to_dict()))
    assert main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.json"
    doc = bundled_scenarios()["equilibrium"].to_dict()
    doc["mystery"] = True
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid" in err and "mystery" in err


def test_validate_unreadable_file(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_validate_takes_bundled_names(capsys):
    # validate loads what run loads
    assert main(["validate", "equilibrium"]) == 0
    assert capsys.readouterr().out == "equilibrium: ok (equilibrium)\n"


@pytest.mark.parametrize("command", [["run", "--quiet"], ["validate"], ["oracle"]])
def test_a_directory_is_a_one_line_error(tmp_path, capsys, command):
    assert main(command[:1] + [str(tmp_path)] + command[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{tmp_path}: invalid: ") and err.count("\n") == 1


def test_oracle_cross_check_agrees(capsys):
    assert main(["oracle", "telescoping-discrete"]) == 0
    out = capsys.readouterr().out
    assert "gap" in out


def test_oracle_checks_the_problem_the_run_solved(tmp_path, capsys):
    # the run's last march chunk also covers the modulus shifts; the oracle's must too
    assert main(["run", "dichotomy-coarse-grid", "--out", str(tmp_path), "--quiet"]) == 2
    doc = json.loads(next(tmp_path.glob("*/run-001/favard.json")).read_text())
    assert main(["oracle", "dichotomy-coarse-grid"]) == 0
    solver_line = capsys.readouterr().out.splitlines()[0]
    assert solver_line == f"solver: value {doc['objective_value']!r} at {doc['u_bar']!r}"


def test_oracle_no_returns(capsys, tmp_path):
    doc = bundled_scenarios()["equilibrium"].to_dict()
    doc["delta_cap"] = 1e-9
    doc["horizon"] = 10.0
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 2
