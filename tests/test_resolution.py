"""Phase controllers, closed-form phase-3 dynamics and the supervisor."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import CATEGORY_B_RESOLUTION, HEAD_ON, THREE_ROBOT_RESOLUTION, TWO_ROBOT_RESOLUTION, supervise

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    collinear_family,
    default_head_on_scenario,
    three_robot_cat_a_scenario,
    three_robot_family_catB,
)
from mrdeadlock import resolution, sim
from mrdeadlock.core import wrap_angle
from mrdeadlock.logio import Scenario
from mrdeadlock.resolution import (
    K_PERSIST,
    NEWTON_F_TOL,
    Filtering,
    Released,
    ResolutionConfig,
    Turning,
)
from mrdeadlock.sim import integrate_step, run_scenario
from oracles import phase3_closed_form

PARAMS2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
GOALS2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))


# ---------------------------------------------------------------------------
# phase3_closed_form
# ---------------------------------------------------------------------------

def test_phase3_closed_form_initial_condition():
    p, v = phase3_closed_form(0.0, 0.5, 2.0, 1.0, 3.0)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_phase3_closed_form_limit():
    p, v = phase3_closed_form(200.0, 0.5, 2.0, 1.0, 3.0)
    assert p == pytest.approx(2.0, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_phase3_closed_form_monotone_grid():
    for tau in np.linspace(0.0, 10.0, 400):
        p, v = phase3_closed_form(float(tau), 0.5, 2.0, 1.0, 3.0)
        assert v >= -1e-15
        assert p >= 0.5 - 1e-12


def test_phase3_closed_form_preconditions():
    with pytest.raises(ValueError):
        phase3_closed_form(1.0, 0.5, 2.0, 1.0, 2.0)  # kv^2 - 4 kp = 0
    with pytest.raises(ValueError):
        phase3_closed_form(1.0, 2.0, 0.5, 1.0, 3.0)  # D_G <= Ds
    with pytest.raises(ValueError):
        phase3_closed_form(-0.1, 0.5, 2.0, 1.0, 3.0)


def test_simulated_relative_dynamics_match_closed_form(phase3_relative_run):
    (ts, ps, vs), _ = phase3_relative_run
    ts, ps, vs = ts[::5], ps[::5], vs[::5]   # every 2 500 steps
    ref = np.array([phase3_closed_form(float(t), 0.5, 2.0, 1.0, 3.0) for t in ts])
    assert np.abs(ps[:, 0] - ref[:, 0]).max() / np.abs(ref[:, 0]).max() <= 1e-4
    assert np.abs(vs[:, 0] - ref[:, 1]).max() / np.abs(ref[:, 1]).max() <= 1e-4
    assert np.abs(ps[:, 1]).max() <= 1e-14  # y stays identically zero


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

def test_supervisor_stays_in_phase_one_without_conflict():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    scen = Scenario(
        params=params,
        initial=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((5.0, 5.0))),
        goals=GoalSpec(pd=((1.0, 0.0), (6.0, 5.0))),
        controller="three-phase",
        t_max=25.0,
    )
    log = run_scenario(scen)
    assert int(log.phase.max()) == 1
    assert log.events[-1]["name"] == "goals-reached"


def test_supervisor_immediate_transition_from_thm2_state():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    scen = Scenario(
        params=PARAMS2, initial=(z1, z2), goals=GOALS2, controller="three-phase", t_max=1.0
    )
    log = run_scenario(scen)
    # the k-th consecutive detection step is the transition step itself
    k = K_PERSIST
    assert np.all(log.phase[: k - 1] == 1)
    assert log.phase[k - 1] == 2
    names = [e["name"] for e in log.events]
    assert "deadlock-detected" in names and "phase-2-start" in names


def test_supervisor_phase_monotone_and_beta_set_once():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    state = Filtering()
    dt = 1e-3
    betas = set()
    phases = []

    for _ in range(2000):
        controls, state, _ = supervise(state, world, GOALS2, PARAMS2, dt)
        world = integrate_step(world, controls, dt)
        phases.append(int(state.phase))
        if isinstance(state, Turning):
            betas.add(state.beta_ref)
    assert all(b2 >= b1 for b1, b2 in zip(phases, phases[1:]))
    assert len(betas) == 1  # beta_ref chosen once at the ONE -> TWO transition


def test_category_b_states_open_the_chain_then_rotate_then_release(monkeypatch):
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    config = ResolutionConfig(kp2=16.0, kv2=10.0)
    warm_starts = []
    pin_controls = resolution._pin_controls

    def spy(world, params, control, angles, h_ts, warm, dt):
        warm_starts.append(warm)
        return pin_controls(world, params, control, angles, h_ts, warm, dt)

    monkeypatch.setattr(resolution, "_pin_controls", spy)
    state, dt = Filtering(), 1e-3
    # each state's type and, for a Turning state, its center (None while the assembly rotates)
    kinds = [(Filtering, None)]
    for _ in range(9500):
        controls, state, info = supervise(state, world, goals, params, dt, config)
        world = integrate_step(world, controls, dt)
        if info.get("event", ("",))[0] == "regularized":
            # the rotation starts cold and pins all three pairs
            assert warm_starts[-1] == ()
            assert isinstance(state, Turning) and state.center is None and len(state.h_entry) == 3
        kind = (type(state), getattr(state, "center", None))
        if kind != kinds[-1]:
            kinds.append(kind)
        if isinstance(state, Released):
            break
    assert kinds == [(Filtering, None), (Turning, 1), (Turning, None), (Released, None)]


@pytest.mark.parametrize(
    "scenario, phases",
    [
        # each run ends past its last transition: the deadlock announcement
        # of cbf-qp-only, phase-3-start of three-phase
        (replace(TWO_ROBOT_RESOLUTION, t_max=27.0), {1, 2, 3}),
        (replace(THREE_ROBOT_RESOLUTION, t_max=22.0), {1, 2, 3}),
        (CATEGORY_B_RESOLUTION, {1, 2, 3}),
        (replace(HEAD_ON, t_max=6.0), {1}),
        (replace(HEAD_ON, controller="pd-only", t_max=1.5), {3}),
    ],
    ids=["head_on_three_phase", "cat_a_three_phase", "cat_b_three_phase", "cbf_qp_only", "pd_only"],
)
def test_every_step_returns_a_state_of_its_phase(monkeypatch, scenario, phases):
    # one state class per phase: the phase a step reports is its returned state's
    step, seen = sim.supervisor_step, []

    def checked(*args, **kwargs):
        out = step(*args, **kwargs)
        seen.append((int(out[2]["phase"]), int(out[1].phase)))
        return out

    monkeypatch.setattr(sim, "supervisor_step", checked)
    run_scenario(scenario)
    assert [s for s in seen if s[0] != s[1]] == []
    assert {s[0] for s in seen} == phases


def test_supervisor_handoff_alignment_two_robot():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    scen = Scenario(
        params=PARAMS2, initial=(z1, z2), goals=GOALS2, controller="three-phase", t_max=40.0
    )
    log = run_scenario(scen)
    # starting on the boundary, the stated phase-2 invariants hold throughout:
    # |h| <= 1e-4, distance hold to 1e-5 Ds, centroid static to 1e-6
    i2 = np.where(log.phase == 2)[0]
    d = np.hypot(log.pos[:, 0, 0] - log.pos[:, 1, 0], log.pos[:, 0, 1] - log.pos[:, 1, 1])
    assert np.abs(log.h[i2, 0]).max() <= 1e-4
    assert np.abs(d[i2] - PARAMS2.ds).max() <= 1e-5 * PARAMS2.ds
    cx = log.pos[:, :, 0].mean(axis=1)
    cy = log.pos[:, :, 1].mean(axis=1)
    assert np.hypot(cx[i2] - cx[i2[0]], cy[i2] - cy[i2[0]]).max() <= 1e-6
    k3 = int(np.argmax(log.phase == 3))
    assert log.phase[k3] == 3
    dp = log.pos[k3, 1] - log.pos[k3, 0]
    theta = math.atan2(dp[1], dp[0])
    beta = math.atan2(
        scen.goals.pd[1][1] - scen.goals.pd[0][1], scen.goals.pd[1][0] - scen.goals.pd[0][0]
    )
    assert abs(wrap_angle(theta - beta)) <= 1.1e-3
    dv = log.vel[k3, 1] - log.vel[k3, 0]
    r = math.hypot(*dp)
    assert abs(dp[0] * dv[1] - dp[1] * dv[0]) / (r * r) <= 1.1e-3


@pytest.mark.parametrize(
    "fixture, scenario",
    [
        ("two_robot_resolution_log", default_head_on_scenario(controller="three-phase", t_max=80.0)),
        ("three_robot_resolution_log", three_robot_cat_a_scenario(t_max=60.0)),
    ],
    ids=["two-robot", "category-A"],
)
def test_pinned_bearing_follows_the_discrete_second_order_law(request, fixture, scenario):
    # The bearing reference starts at the bearing of the first phase-2 record
    # and takes one semi-implicit Euler step of
    # theta'' = -kp2 (theta - beta) - kv2 theta' per step, and Newton pins
    # every later state to it.  So the logged, unwrapped bearing obeys
    # omega+ = omega + dt (-kp2 (theta - beta) - kv2 omega), theta+ = theta + dt omega+,
    # with omega = (theta - theta-) / dt.
    log, _ = request.getfixturevalue(fixture)
    dt, goals = scenario.dt, scenario.goals
    kp2, kv2 = scenario.resolution.bearing_gains(scenario.params)
    i2 = np.where(log.phase == 2)[0]
    assert i2.size > 2 and np.all(np.diff(i2) == 1)
    pos = log.pos[i2[0]: i2[-1] + 2]        # the entry state, then the pinned states
    if log.n_robots == 2:
        a, d = pos[:, 1] - pos[:, 0], np.subtract(goals.pd[1], goals.pd[0])
    else:
        a, d = pos[:, 0] - pos.mean(axis=1), np.subtract(goals.pd[0], np.mean(goals.pd, axis=0))
    theta = np.unwrap(np.arctan2(a[:, 1], a[:, 0]))
    beta = theta[0] + wrap_angle(math.atan2(d[1], d[0]) - theta[0])
    omega = np.diff(theta)[:-1] / dt
    omega_next = omega + dt * (-kp2 * (theta[1:-1] - beta) - kv2 * omega)
    err = np.abs(theta[2:] - (theta[1:-1] + dt * omega_next))
    # Newton stops once the bearing residual |a| sin(theta - theta_ref) is
    # within NEWTON_F_TOL, so each pinned theta is within NEWTON_F_TOL / |a|
    # of its reference; one check combines three of them with weights of
    # magnitude at most 1, 2 and 1.  1e-14 covers the rounding of arctan2
    # and of the check itself at |theta| < 2 pi.
    tol = 4.0 * NEWTON_F_TOL / np.hypot(a[:, 0], a[:, 1]).min() + 1e-14
    assert err.max() <= tol, (err.max(), tol)


def test_supervisor_category_b_run_is_safe_and_converges():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    scen = Scenario(
        params=params, initial=world.robots, goals=goals, controller="three-phase", t_max=80.0
    )
    log = run_scenario(scen)
    names = [e["name"] for e in log.events]
    assert "regularized" in names
    assert log.events[-1]["name"] == "goals-reached"
    # safety throughout: distances never dip below the margin
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = np.hypot(log.pos[:, i, 0] - log.pos[:, j, 0], log.pos[:, i, 1] - log.pos[:, j, 1])
        assert d.min() >= params.ds - 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [{"kp2": 0.0}, {"kp2": -3.0}, {"kv2": 0.0}, {"kv2": -1e-3}, {"kp2": math.inf}, {"kp2": math.nan},
     {"kv2": math.inf}, {"kv2": math.nan}, {"kp2": 10**400}, {"kp2": True}, {"kp2": "1"}],
)
def test_resolution_config_rejects_unreachable_thresholds(kwargs):
    # with a bearing gain <= 0 the bearing never settles within EPS_THETA and
    # EPS_OMEGA of the goal bearing, so phase 3 is never reached; an infinite
    # gain breaks the first phase-2 step, a NaN one aborts the run later.  An
    # int past the float range is infinite; a bool or a string is no gain at
    # all, and a bool would be logged as one its own log's reader rejects.
    ((name, gain),) = kwargs.items()
    reason = "a number" if isinstance(gain, (bool, str)) else "finite and > 0"
    with pytest.raises(ValueError, match=f"{name} must be {reason}"):
        ResolutionConfig(**kwargs)


def test_resolution_config_stores_gains_as_floats():
    config = ResolutionConfig(kp2=16, kv2=np.float64(10.0))
    assert type(config.kp2) is float and type(config.kv2) is float
    assert config.bearing_gains(PARAMS2) == (16.0, 10.0)


def test_resolution_config_defaults():
    cfg = ResolutionConfig()
    assert cfg.bearing_gains(PARAMS2) == (PARAMS2.kp, PARAMS2.kv)
