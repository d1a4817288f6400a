"""Command-line entry points."""

from __future__ import annotations

import json

import pytest
import yaml
from audit_oracle import tampered, tamperings

from mrdeadlock import (
    GoalSpec,
    Params,
    Scenario,
    collinear_family,
    default_head_on_scenario,
    export_log,
    load_log,
    run_scenario,
    save_scenario,
)
from mrdeadlock.cli import main


def test_census_command(capsys):
    assert main(["census", "--n-max", "3", "--attempts", "40"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert rows[2] == ["3", "8", "4", "4", "4"]


@pytest.mark.parametrize(
    "args, named",
    [(["--attempts", "0"], "attempts"), (["--attempts", "-3"], "attempts"), (["--n-max", "0"], "n_max")],
    ids=["zero-attempts", "negative-attempts", "zero-n-max"],
)
def test_census_rejects_non_positive_counts_with_one_line(capsys, args, named):
    assert main(["census", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and named in captured.err


def test_census_rejects_n_max_above_the_limit_with_one_line(capsys):
    assert main(["census", "--n-max", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "n_max must be in 1..5, got 6" in captured.err


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
    assert main(["verify", str(lpath)]) == 0
    assert "audit PASSED" in capsys.readouterr().out


def test_run_without_out_prints_the_records_and_the_events(tmp_path, capsys):
    # a three-phase run from a deadlocked state announces the deadlock on its tenth step
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    scen = Scenario(params=params, initial=collinear_family(goals, params, 0.5), goals=goals,
                    controller="three-phase", t_max=0.02)
    spath = tmp_path / "scenario.yaml"
    save_scenario(scen, str(spath))
    assert main(["run", str(spath)]) == 0
    assert capsys.readouterr().out == (
        "simulated 21 records over t in [0, 0.020] s\n"
        "  event: deadlock-detected at t=0.0090\n"
        "  event: phase-2-start at t=0.0090\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.yaml"]


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
    tpath = tmp_path / "tampered.json"
    log = load_log(str(lpath))
    for edits in tamperings(log):
        export_log(tampered(log, edits), "json", str(tpath))
        assert main(["verify", str(tpath)]) == 1, edits
        assert "audit FAILED" in capsys.readouterr().out


def test_verify_counts_a_record_inside_the_margin_as_bad(tmp_path, capsys):
    # a phase-1 record whose QPs cannot be rebuilt is a bad record, not an error
    lpath = tmp_path / "log.json"
    log = run_scenario(default_head_on_scenario(t_max=0.3))
    log.pos[3, 1] = log.pos[3, 0] + (0.3, 0.0)   # 0.3 m apart, inside Ds = 0.5
    export_log(log, "json", str(lpath))
    assert main(["verify", str(lpath)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].endswith(": 1") and out[-1] == "audit FAILED"


def test_verify_prints_a_minimum_h_of_minus_inf(tmp_path, capsys):
    # closing at +-1.7e308 m/s: every logged float is finite, but dp.dv overflows
    lpath = tmp_path / "log.json"
    log = run_scenario(default_head_on_scenario(t_max=0.05))
    log.vel[3] = ((1.7e308, 0.0), (-1.7e308, 0.0))
    export_log(log, "json", str(lpath))
    assert main(["verify", str(lpath)]) == 1
    assert "min h over run: -inf\n" in capsys.readouterr().out


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
    # the persistence count is the constant K_PERSIST: a file that sets it is
    # rejected, not run with a deadlock announced at t = 0
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
        (lambda d: d.update(robots=5), "'robots'"),
        (lambda d: d["params"].update(alpha=5.0), "'alpha'"),
        (lambda d: d["params"].update(kp=None), "'kp'"),
        (lambda d: d.update(goals=7), "'goals'"),
        (lambda d: d["params"].update(kp=10**400), "'kp'"),
        (lambda d: d["robots"][0].update(p=[-(10**400), 0.0]), "robot position"),
        (lambda d: d.update(resolution={"kp2": float("inf")}), "kp2"),
        # keys of files written before they were dropped or became constants
        (lambda d: d.update(seed=0), "'seed'"),
        (lambda d: d["resolution"].update(k1=None), "'k1'"),
        (lambda d: d.update(thresholds={"eps_u": None, "eps_v": 1e-3, "eps_goal": 0.05, "eps_mu": 1e-6}),
         "'thresholds'"),
        (lambda d: d.update(resolution={"k_h": None}), "'k_h'"),
        (lambda d: d.update(resolution={"eps_theta": None}), "'eps_theta'"),
        (lambda d: d.update(resolution={"k_h": "fast"}), "'k_h'"),
        # a bool or a string where a number belongs is rejected, not coerced
        (lambda d: d["params"].update(kp=True), "'kp'"),
        (lambda d: d.update(dt="0.001"), "'dt'"),
        (lambda d: d.update(resolution={"kp2": True}), "'kp2'"),
        (lambda d: d["params"].update(alpha=[True, 5.0]), "'alpha'"),
        (lambda d: d["robots"][0].update(p=["-2.0", 0.0]), "robot position p of robot 0"),
        (lambda d: d["robots"][1].update(p=[2.0, True]), "robot position p of robot 1"),
        (lambda d: d["robots"][0].update(v=[True, 0.0]), "robot velocity v of robot 0"),
        (lambda d: d["goals"].__setitem__(0, ["2.0", 0.0]), "goal 0"),
        (lambda d: d["goals"].__setitem__(1, [True, 0.0]), "goal 1"),
    ],
    ids=[
        "missing-goals", "unknown-resolution-key", "one-number-position",
        "number-robots", "number-alpha", "null-kp", "number-goals", "401-digit-kp", "401-digit-position",
        "infinite-kp2", "old-seed", "old-k1", "null-threshold", "null-k_h", "null-eps_theta", "word-k_h",
        "bool-kp", "string-dt", "bool-kp2", "bool-alpha",
        "string-position", "bool-position", "bool-velocity", "string-goal", "bool-goal",
    ],
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


def _with_false_mu(mu):
    """mu with one multiplier, 0.0 in the run, made a JSON false."""
    assert mu[3][0][1] == 0.0
    mu[3][0][1] = False
    return mu


@pytest.mark.parametrize(
    "content, named",
    [
        (lambda log: {}, "'t'"),
        (lambda log: [1, 2], "not a mapping"),
        (lambda log: {k: v for k, v in log.items() if k != "mu"}, "'mu'"),
        (lambda log: {**log, "meta": {}}, "'scenario'"),
        (lambda log: {**log, "pos": log["pos"][:-1]}, "'pos'"),
        (lambda log: {**log, "mu": log["mu"][:-1]}, "'mu'"),
        # the two-robot scenario's log cut to robot 0
        (lambda log: {**log, "pos": [r[:1] for r in log["pos"]], "vel": [r[:1] for r in log["vel"]]}, "'pos'"),
        (lambda log: {**log, "phase": [300] * len(log["phase"])}, "'phase'"),
        (lambda log: {**log, "t": [10**400] + log["t"][1:]}, "'t'"),
        (lambda log: {**log, "events": 5}, "'events'"),
        (lambda log: {**log, "events": [1]}, "event 0"),
        (lambda log: {**log, "events": [{"name": "x"}]}, "event 0"),
        # values a cast would coerce into numbers
        (lambda log: {**log, "phase": [1.9] * len(log["phase"])}, "'phase'"),
        (lambda log: {**log, "phase": [True] * len(log["phase"])}, "'phase'"),
        (lambda log: {**log, "t": [repr(t) for t in log["t"]]}, "'t'"),
        (lambda log: {**log, "active": [[False] * len(masks) for masks in log["active"]]}, "'active'"),
        (lambda log: {**log, "phase": [True] + log["phase"][1:]}, "'phase'"),
        (lambda log: {**log, "mu": _with_false_mu(log["mu"])}, "'mu'"),
    ],
    ids=[
        "empty-mapping", "list", "log-without-mu", "meta-without-scenario",
        "pos-one-record-short", "mu-one-record-short", "one-robot-of-two",
        "phase-300", "401-digit-t", "number-events", "number-event", "event-without-t",
        "phase-1.9", "phase-true", "string-t", "false-masks", "phase-one-true", "false-mu",
    ],
)
def test_verify_non_log_exits_2_with_one_line(tmp_path, capsys, content, named):
    spath = tmp_path / "scenario.yaml"
    save_scenario(default_head_on_scenario(t_max=0.05), str(spath))
    lpath = tmp_path / "log.json"
    assert main(["run", str(spath), "--out", str(lpath)]) == 0
    lpath.write_text(json.dumps(content(json.loads(lpath.read_text()))))
    capsys.readouterr()
    assert main(["verify", str(lpath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


def test_verify_of_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    # the JSON parser recurses once per level: 100 000 levels exhaust the interpreter's recursion limit
    lpath = tmp_path / "deep.json"
    lpath.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", str(lpath)]) == 2
    err = capsys.readouterr().err
    assert err == f"ValueError: {lpath} is not a trajectory log: its JSON nests too deeply to parse\n"


def test_invalid_yaml_exits_2_with_one_line(tmp_path, capsys):
    spath = tmp_path / "scenario.yaml"
    spath.write_text("params: {kp: 1.0, kv: 3.0\nrobots: []\n")
    assert main(["run", str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not valid YAML" in err


# `mrdeadlock families <family>` with default arguments: the whole stdout.
FAMILIES_STDOUT = {
    "two": (
        "family two: 2 robots, Ds=0.5\n"
        "  robot 0: |u*|=0.00e+00 |v|=0.00e+00 goal-dist=2.0000 force-residual=0.00e+00\n"
        "           deadlocked=True active: [row0: 8.0000]\n"
        "  robot 1: |u*|=0.00e+00 |v|=0.00e+00 goal-dist=2.5000 force-residual=0.00e+00\n"
        "           deadlocked=True active: [row0: 10.0000]\n"
        "  system deadlock: True\n"
        "  boundary membership (h = 0 on active pairs): True\n"
        "  pair (0,1): distance=0.500000 h=0.00e+00\n"
        "  boundedness residual: 0.00e+00\n"
    ),
    "threeA": (
        "family threeA: 3 robots, Ds=0.5\n"
        "  robot 0: |u*|=2.57e-16 |v|=0.00e+00 goal-dist=2.2887 force-residual=3.14e-16\n"
        "           deadlocked=True active: [row0: 5.2855, row1: 5.2855]\n"
        "  robot 1: |u*|=2.22e-16 |v|=0.00e+00 goal-dist=2.2887 force-residual=2.72e-16\n"
        "           deadlocked=True active: [row0: 5.2855, row1: 5.2855]\n"
        "  robot 2: |u*|=0.00e+00 |v|=0.00e+00 goal-dist=2.2887 force-residual=6.54e-17\n"
        "           deadlocked=True active: [row0: 5.2855, row1: 5.2855]\n"
        "  system deadlock: True\n"
        "  boundary membership (h = 0 on active pairs): True\n"
        "  pair (0,1): distance=0.500000 h=0.00e+00\n"
        "  pair (0,2): distance=0.500000 h=0.00e+00\n"
        "  pair (1,2): distance=0.500000 h=0.00e+00\n"
        "  category: A\n"
    ),
    "threeB": (
        "family threeB: 3 robots, Ds=0.5\n"
        "  robot 0: |u*|=2.45e-16 |v|=0.00e+00 goal-dist=2.5000 force-residual=2.45e-16\n"
        "           deadlocked=True active: [row0: 10.0000]\n"
        "  robot 1: |u*|=0.00e+00 |v|=0.00e+00 goal-dist=2.0000 force-residual=0.00e+00\n"
        "           deadlocked=True active: [row0: 8.0000, row1: 8.0000]\n"
        "  robot 2: |u*|=8.01e-16 |v|=0.00e+00 goal-dist=2.5000 force-residual=8.01e-16\n"
        "           deadlocked=True active: [row1: 10.0000]\n"
        "  system deadlock: True\n"
        "  boundary membership (h = 0 on active pairs): True\n"
        "  pair (0,1): distance=0.500000 h=0.00e+00\n"
        "  pair (0,2): distance=0.866025 h=2.71e+00\n"
        "  pair (1,2): distance=0.500000 h=0.00e+00\n"
        "  category: B (center 1)\n"
    ),
    "threeB-param": (
        "family threeB-param: 3 robots, Ds=0.5\n"
        "  robot 0: |u*|=1.11e-16 |v|=0.00e+00 goal-dist=1.8662 force-residual=1.11e-16\n"
        "           deadlocked=True active: [row0: 7.4647]\n"
        "  robot 1: |u*|=4.97e-16 |v|=0.00e+00 goal-dist=2.1534 force-residual=5.55e-16\n"
        "           deadlocked=True active: [row0: 9.2413, row1: 3.2966]\n"
        "  robot 2: |u*|=9.93e-16 |v|=0.00e+00 goal-dist=3.2266 force-residual=9.93e-16\n"
        "           deadlocked=True active: [row1: 12.9062]\n"
        "  system deadlock: True\n"
        "  boundary membership (h = 0 on active pairs): True\n"
        "  pair (0,1): distance=0.500000 h=0.00e+00\n"
        "  pair (0,2): distance=0.825336 h=2.55e+00\n"
        "  pair (1,2): distance=0.500000 h=0.00e+00\n"
        "  category: B (center 1)\n"
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES_STDOUT))
def test_families_stdout_is_pinned(family, capsys):
    assert main(["families", family]) == 0
    assert capsys.readouterr().out == FAMILIES_STDOUT[family]
