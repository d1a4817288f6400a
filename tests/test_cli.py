"""Command-line entry points."""

from __future__ import annotations

import pytest
import yaml

from mrdeadlock import default_head_on_scenario, load_log, save_scenario
from mrdeadlock.cli import main


def test_census_command(capsys):
    assert main(["census", "--n-max", "3", "--attempts", "40"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert rows[2] == ["3", "8", "4", "4", "4"]


def test_families_two(capsys):
    assert main(["families", "two", "--alpha", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "system deadlock: True" in out
    assert "boundary membership" in out
    assert "boundedness residual" in out


def test_families_three_a(capsys):
    assert main(["families", "threeA"]) == 0
    out = capsys.readouterr().out
    assert "system deadlock: True" in out
    assert "category: A" in out


def test_families_three_b(capsys):
    assert main(["families", "threeB"]) == 0
    out = capsys.readouterr().out
    assert "category: B (center 1)" in out


def test_families_three_b_param(capsys):
    assert main(["families", "threeB-param", "--theta", "-0.25", "--alpha-angle", "1.0"]) == 0
    assert "system deadlock: True" in capsys.readouterr().out


def test_run_and_verify_round_trip(tmp_path, capsys):
    scen = default_head_on_scenario(t_max=0.5)
    spath = tmp_path / "scenario.yaml"
    save_scenario(scen, str(spath))
    lpath = tmp_path / "log.json"
    assert main(["run", str(spath), "--out", str(lpath), "--format", "json"]) == 0
    assert lpath.exists()
    assert main(["verify", str(lpath), "--kkt-stride", "20"]) == 0
    assert "audit PASSED" in capsys.readouterr().out


def test_run_csv_export(tmp_path):
    scen = default_head_on_scenario(t_max=0.2)
    spath = tmp_path / "scenario.yaml"
    save_scenario(scen, str(spath))
    cpath = tmp_path / "log.csv"
    assert main(["run", str(spath), "--out", str(cpath), "--format", "csv"]) == 0
    header = cpath.read_text().split("\n", 1)[0]
    assert header.startswith("t,robot_id,")


def test_verify_rejects_tampered_log(tmp_path, capsys):
    scen = default_head_on_scenario(t_max=0.3)
    spath = tmp_path / "scenario.yaml"
    save_scenario(scen, str(spath))
    lpath = tmp_path / "log.json"
    assert main(["run", str(spath), "--out", str(lpath)]) == 0
    log = load_log(str(lpath))
    log.h[3, 0] += 1e-6
    from mrdeadlock import export_log

    export_log(log, "json", str(lpath))
    assert main(["verify", str(lpath), "--kkt-stride", "50"]) == 1
    assert "audit FAILED" in capsys.readouterr().out


def test_aborting_run_exits_nonzero_with_diagnostic(tmp_path, capsys):
    scen = default_head_on_scenario(controller="pd-only", t_max=10.0)
    spath = tmp_path / "scenario.yaml"
    save_scenario(scen, str(spath))
    assert main(["run", str(spath)]) == 2
    assert "safety-violation" in capsys.readouterr().err


def test_bad_scenario_file_exits_nonzero(tmp_path, capsys):
    spath = tmp_path / "broken.yaml"
    spath.write_text("params: {kp: -1.0, kv: 3.0, ds: 0.5, alpha: [5.0]}\nrobots: [{p: [0,0]}]\ngoals: [[1,0]]\n")
    assert main(["run", str(spath)]) == 2
    assert capsys.readouterr().err.strip() != ""


def test_run_rejects_zero_persistence_with_one_line(tmp_path, capsys):
    # k_persist = 0 would announce a deadlock at t = 0, with the robots 4 m apart
    spath = tmp_path / "scenario.yaml"
    save_scenario(default_head_on_scenario(controller="three-phase", t_max=0.5), str(spath))
    data = yaml.safe_load(spath.read_text())
    data["resolution"] = {"k_persist": 0}
    spath.write_text(yaml.safe_dump(data))
    assert main(["run", str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "k_persist" in err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.pop("goals"), "'goals'"),
        (lambda d: d.update(resolution={"bogus": 1}), "'bogus'"),
        (lambda d: d["robots"][0].update(p=[2.0]), "robot position"),
    ],
    ids=["missing-goals", "unknown-resolution-key", "one-number-position"],
)
def test_malformed_scenario_exits_2_with_one_line(tmp_path, capsys, edit, named):
    spath = tmp_path / "scenario.yaml"
    save_scenario(default_head_on_scenario(t_max=0.5), str(spath))
    data = yaml.safe_load(spath.read_text())
    edit(data)
    spath.write_text(yaml.safe_dump(data))
    assert main(["run", str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


def test_invalid_yaml_exits_2_with_one_line(tmp_path, capsys):
    spath = tmp_path / "scenario.yaml"
    spath.write_text("params: {kp: 1.0, kv: 3.0\nrobots: []\n")
    assert main(["run", str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not valid YAML" in err
