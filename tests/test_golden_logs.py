"""Pinned sha256 of the JSON logs of the canonical runs.

A change that claims to leave results alone (a faster solver, a leaner
recorder) must leave these logs byte-identical.  The six demo scenarios
are runs conftest.py defines, the first four shared with the acceptance
suite; each YAML file is checked to load to that same scenario and to save back byte for byte, so the
pin covers the demo files and the scenario writer too.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest
from conftest import CATEGORY_B_RESOLUTION, HEAD_ON, RING8, RING16, THREE_ROBOT_RESOLUTION, TWO_ROBOT_RESOLUTION
from oracles import log_json

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    Scenario,
    SimulationAbort,
    default_head_on_scenario,
    export_log,
    load_scenario,
    run_scenario,
    save_scenario,
    three_robot_cat_a_scenario,
)
from mrdeadlock.logio import log_to_json

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
RING32_SHA256 = "1f12fb51ad8236363c12b27ae432b476df2f42ca97c620afc20643ac0f4f74d5"


def _sha256(log) -> str:
    return hashlib.sha256(log_to_json(log).encode()).hexdigest()


@pytest.mark.parametrize(
    "yaml_name, scenario, fixture, digest",
    [
        ("head_on_cbf_only.yaml", HEAD_ON, "head_on_log",
         "73f959b373114ca4c26571bc2655a362049429cb42e0e41d2af6aeb0ff3f5ef2"),
        ("head_on_three_phase.yaml", TWO_ROBOT_RESOLUTION, "two_robot_resolution_log",
         "4b84b2bcc0c8943c822e5788b995edf722875668ba1c2a350e2217f5c60f6832"),
        ("three_robot_cat_a.yaml", THREE_ROBOT_RESOLUTION, "three_robot_resolution_log",
         "0cc35046948759b3ab18aa06ef1ea1d43b1822403b90f9eb4dee63c223a2039e"),
        ("three_robot_cat_b.yaml", CATEGORY_B_RESOLUTION, "category_b_resolution_log",
         "d2d2d7591783858a056d935cbcdf66384dc7b4d3eaf035c6c097ab6603d23951"),
        ("ring16_cbf_only.yaml", RING16, "ring16_log",
         "a080bb603fa38fc3e8c0d79798da6e85395d578ee225d2b0aad095bf25bab11b"),
        ("ring8_cbf_only.yaml", RING8, "ring8_log",
         "77ecfbe638cd918b181f4d0145abd322e172faee98103f9889f0ab53cd34c626"),
    ],
    ids=["head_on_cbf_only", "head_on_three_phase", "three_robot_cat_a", "three_robot_cat_b", "ring16_cbf_only",
         "ring8_cbf_only"],
)
def test_demo_scenario_log_is_pinned(request, tmp_path, yaml_name, scenario, fixture, digest):
    loaded = load_scenario(str(DEMOS / yaml_name))
    assert loaded == scenario
    save_scenario(loaded, str(tmp_path / yaml_name))
    assert (tmp_path / yaml_name).read_bytes() == (DEMOS / yaml_name).read_bytes()
    log, _ = request.getfixturevalue(fixture)
    assert _sha256(log) == digest
    # the file export_log writes is that text, the whole-payload json.dumps's
    export_log(log, "json", str(tmp_path / "log.json"))
    written = (tmp_path / "log.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
    assert written == log_json(log).encode()


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
    assert _sha256(log) == "0a42ae0c7a99d8f77b2b0e3ff1af3a006132710953459a3e8488a62c5f18e5da"


def test_cbf_qp_only_three_robot_log_is_pinned():
    log = run_scenario(three_robot_cat_a_scenario(controller="cbf-qp-only", t_max=5.0))
    assert log.events == [{"name": "deadlock-detected", "t": 0.009000000000000001}]
    assert _sha256(log) == "544d139161923eae697c7de0d646e13e9f717c288c87254d47ed233a3f82435d"


def test_category_b_resolution_log_is_pinned(category_b_resolution_log):
    # the chain opens (regularized) before the assembly rotates and releases
    log, _ = category_b_resolution_log
    assert log.events == [
        {"name": "deadlock-detected", "t": 0.009000000000000001},
        {"name": "phase-2-start", "t": 0.009000000000000001},
        {"name": "regularized", "t": 3.9809999999996726},
        {"name": "phase-3-start", "t": 8.503000000000727},
    ]
    assert _sha256(log) == "d2d2d7591783858a056d935cbcdf66384dc7b4d3eaf035c6c097ab6603d23951"


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
