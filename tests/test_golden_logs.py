"""Pinned sha256 of the JSON logs of the canonical runs.

A change that claims to leave results alone (a faster solver, a leaner
recorder) must leave these logs byte-identical.  The three demo scenarios
are the runs conftest.py shares with the acceptance suite; each YAML file is
checked to load to that same scenario and to save back byte for byte, so the
pin covers the demo files and the scenario writer too.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest
from conftest import HEAD_ON, THREE_ROBOT_RESOLUTION, TWO_ROBOT_RESOLUTION

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    Scenario,
    SimulationAbort,
    default_head_on_scenario,
    load_scenario,
    run_scenario,
    save_scenario,
    three_robot_cat_a_scenario,
    three_robot_family_catB,
)
from mrdeadlock.resolution import ResolutionConfig
from mrdeadlock.sim import log_to_json

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
RING32_SHA256 = "9c24e0bcc44fdea9886c9956b5ff3e8739c47f526d6198bb58ec40b0737dbf9b"


def _sha256(log) -> str:
    return hashlib.sha256(log_to_json(log).encode()).hexdigest()


@pytest.mark.parametrize(
    "yaml_name, scenario, fixture, digest",
    [
        ("head_on_cbf_only.yaml", HEAD_ON, "head_on_log",
         "6cb438bfd23a299783b6dc6a031bcdfc59915b77de21671ed970ed7b72e28519"),
        ("head_on_three_phase.yaml", TWO_ROBOT_RESOLUTION, "two_robot_resolution_log",
         "e59c949efb8dbeef24313326871f8241bd2f6e05bacdb176ed4e3d36e4d58383"),
        ("three_robot_cat_a.yaml", THREE_ROBOT_RESOLUTION, "three_robot_resolution_log",
         "ba458ea9e6d77a987061e68e9ec98bdd65cda25c4174fab54dbf1efade1575de"),
    ],
    ids=["head_on_cbf_only", "head_on_three_phase", "three_robot_cat_a"],
)
def test_demo_scenario_log_is_pinned(request, tmp_path, yaml_name, scenario, fixture, digest):
    loaded = load_scenario(str(DEMOS / yaml_name))
    assert loaded == scenario
    save_scenario(loaded, str(tmp_path / yaml_name))
    assert (tmp_path / yaml_name).read_bytes() == (DEMOS / yaml_name).read_bytes()
    log, _ = request.getfixturevalue(fixture)
    assert _sha256(log) == digest


def test_crowded_ring_log_is_pinned():
    # 32 robots at rest, neighbors 3 % outside contact, antipodal goals: every
    # QP has 31 neighbor rows, most of them implied by the acceleration box
    n, ds = 32, 0.5
    radius = ds * 1.03 / (2.0 * math.sin(math.pi / n))
    points = [
        (radius * math.cos(0.3 + 2.0 * math.pi * k / n), radius * math.sin(0.3 + 2.0 * math.pi * k / n))
        for k in range(n)
    ]
    scenario = Scenario(
        params=Params(kp=1.0, kv=3.0, ds=ds, alpha=tuple(4.5 + (7 * k % 11) / 10 for k in range(n))),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=tuple((-x, -y) for x, y in points)),
        controller="cbf-qp-only",
        t_max=12e-3,
    )
    assert _sha256(run_scenario(scenario)) == RING32_SHA256


def test_pd_only_run_to_goals_is_pinned():
    scenario = Scenario(
        params=Params(kp=4.0, kv=5.0, ds=0.5, alpha=(5.0, 5.0)),
        initial=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.0, 2.0))),
        goals=GoalSpec(pd=((3.0, 0.0), (3.0, 2.0))),
        controller="pd-only",
        t_max=20.0,
    )
    log = run_scenario(scenario)
    assert log.events == [{"name": "goals-reached", "t": 10.603999999999562}]
    assert _sha256(log) == "6d2e9d930c5c585463ec1f49cbdea37a9ca856003b68e630ec5a3aa9023b0354"


def test_cbf_qp_only_three_robot_log_is_pinned():
    log = run_scenario(three_robot_cat_a_scenario(controller="cbf-qp-only", t_max=5.0))
    assert log.events == [{"name": "deadlock-detected", "t": 0.009000000000000001}]
    assert _sha256(log) == "e4f824b5e7669a6c83c8e77e7f7b8761503c096a7b7c12a1851dd24fa3e6047a"


def test_category_b_resolution_log_is_pinned():
    # the chain opens (regularized) before the assembly rotates and releases
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    scenario = Scenario(
        params=params, initial=world.robots, goals=goals, controller="three-phase", t_max=9.5,
        resolution=ResolutionConfig(kp2=16.0, kv2=10.0), log_every=10,
    )
    log = run_scenario(scenario)
    assert log.events == [
        {"name": "deadlock-detected", "t": 0.009000000000000001},
        {"name": "phase-2-start", "t": 0.009000000000000001},
        {"name": "regularized", "t": 3.9809999999996726},
        {"name": "phase-3-start", "t": 8.503000000000727},
    ]
    assert _sha256(log) == "012d08c051bb00f9d5e627d80591df7a827a6ac49964951adb5b60ca918c0edb"


def test_pd_only_head_on_abort_is_pinned():
    # the plain PD controllers drive the head-on pair straight through the margin
    with pytest.raises(SimulationAbort) as err:
        run_scenario(default_head_on_scenario(controller="pd-only"))
    assert err.value.kind == "safety-violation"
    assert str(err.value) == "[safety-violation] pair distance 0.498384951 below margin at t=1.914000"
    assert err.value.snapshot == {
        "t": 1.9139999999999,
        "p": [(-0.24919247525405516, 0.0), (0.24919247525405516, 0.0)],
        "v": [(0.8489662165761354, 0.0), (-0.8489662165761354, 0.0)],
    }
