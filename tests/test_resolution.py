"""Phase controllers, closed-form phase-3 dynamics and the supervisor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    collinear_family,
    phase2_control_three,
    phase2_control_two,
    phase3_closed_form,
    rotate_frame,
    simulate_relative_pd,
    supervisor_step,
    three_robot_family_catA,
    three_robot_family_catB,
)
from mrdeadlock import resolution
from mrdeadlock.core import v_norm, v_sub, wrap_angle
from mrdeadlock.deadlock import DeadlockThresholds
from mrdeadlock.errors import CoincidentRobotsError
from mrdeadlock.resolution import (
    Filtering,
    Regularizing,
    Released,
    ResolutionConfig,
    Rotating,
    pair_outputs,
)
from mrdeadlock.sim import Scenario, integrate_step, run_scenario

PARAMS2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
GOALS2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))


# ---------------------------------------------------------------------------
# rotate_frame / phase3_closed_form
# ---------------------------------------------------------------------------

def test_rotate_frame_identity_at_zero():
    assert rotate_frame((0.3, -0.7), 0.0) == pytest.approx((0.3, -0.7))


def test_rotate_frame_alignment():
    beta = 0.7
    ds = 0.5
    v = (ds * math.cos(beta), ds * math.sin(beta))
    assert rotate_frame(v, beta) == pytest.approx((ds, 0.0), abs=1e-15)


def test_rotate_frame_preserves_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = tuple(rng.uniform(-3, 3, 2))
        beta = float(rng.uniform(-7, 7))
        assert math.hypot(*rotate_frame(v, beta)) == pytest.approx(math.hypot(*v), abs=1e-12)


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


def test_simulated_relative_dynamics_match_closed_form():
    dt = 2e-5
    n = int(round(10.0 / dt))
    ts, ps, vs = simulate_relative_pd((0.5, 0.0), (0.0, 0.0), (2.0, 0.0), 1.0, 3.0, dt, n, n // 200)
    ref = np.array([phase3_closed_form(float(t), 0.5, 2.0, 1.0, 3.0) for t in ts])
    assert np.abs(ps[:, 0] - ref[:, 0]).max() / np.abs(ref[:, 0]).max() <= 1e-4
    assert np.abs(vs[:, 0] - ref[:, 1]).max() / np.abs(ref[:, 1]).max() <= 1e-4
    assert np.abs(ps[:, 1]).max() <= 1e-14  # y stays identically zero


# ---------------------------------------------------------------------------
# continuous phase-2 laws
# ---------------------------------------------------------------------------

def test_phase2_two_zero_when_aligned_and_static():
    world = WorldState(
        robots=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((1.0, 0.0))), t=0.0
    )
    u1, u2 = phase2_control_two(world, PARAMS2, beta_ref=0.0, k1=10.0, kp=1.0, kv=2.0)
    assert u1 == (0.0, 0.0)
    assert u2 == (0.0, 0.0)


def test_phase2_two_hand_solved_example():
    # dp = (1,0), dv = 0, beta = pi/2, kp = 1, kv = 2, R = 1/2:
    # b = (0, pi/4), A = [[-2,0],[0,-2]]  =>  u1 = (0, -pi/8), u2 = (0, pi/8)
    world = WorldState(
        robots=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((1.0, 0.0))), t=0.0
    )
    u1, u2 = phase2_control_two(world, PARAMS2, beta_ref=math.pi / 2, k1=10.0, kp=1.0, kv=2.0)
    assert u1 == pytest.approx((0.0, -math.pi / 8), abs=1e-15)
    assert u2 == pytest.approx((0.0, math.pi / 8), abs=1e-15)


def test_phase2_two_coincident_error():
    world = WorldState(
        robots=(RobotState.at_rest((1.0, 1.0)), RobotState.at_rest((1.0, 1.0))), t=0.0
    )
    with pytest.raises(CoincidentRobotsError):
        phase2_control_two(world, PARAMS2, 0.0, 10.0, 1.0, 2.0)


def _flow(world: WorldState, controls, dt: float) -> WorldState:
    # exact constant-acceleration flow for finite-difference checks
    robots = []
    for z, u in zip(world.robots, controls):
        p = (z.p[0] + z.v[0] * dt + 0.5 * u[0] * dt * dt, z.p[1] + z.v[1] * dt + 0.5 * u[1] * dt * dt)
        v = (z.v[0] + u[0] * dt, z.v[1] + u[1] * dt)
        robots.append(RobotState(p=p, v=v))
    return WorldState(robots=tuple(robots), t=world.t + dt)


def test_phase2_two_imposed_output_dynamics_finite_difference():
    # the law imposes dy1/dt = -k1 y1 and dy2/dt = -kp (theta - beta) - kv y2
    k1, kp, kv, beta = 7.0, 1.3, 2.5, 1.1
    world = WorldState(
        robots=(
            RobotState(p=(0.1, -0.2), v=(0.05, 0.12)),
            RobotState(p=(0.55, 0.31), v=(-0.08, 0.02)),
        ),
        t=0.0,
    )
    u1, u2 = phase2_control_two(world, PARAMS2, beta, k1, kp, kv)
    out0 = pair_outputs(world.robots[0], world.robots[1])
    dt = 1e-7
    nxt = _flow(world, (u1, u2), dt)
    out1 = pair_outputs(nxt.robots[0], nxt.robots[1])
    y1_dot_fd = (out1.y_o1 - out0.y_o1) / dt
    y2_dot_fd = (out1.y_o2 - out0.y_o2) / dt
    assert y1_dot_fd == pytest.approx(-k1 * out0.y_o1, abs=1e-4)
    assert y2_dot_fd == pytest.approx(-kp * (out0.theta - beta) - kv * out0.y_o2, abs=1e-4)


def test_pair_outputs_bearing_rate_convention():
    # y_o2 is the cross product over R = r^2/2, i.e. exactly twice theta_dot
    z1 = RobotState(p=(0.0, 0.0), v=(0.0, -0.15))
    z2 = RobotState(p=(0.6, 0.0), v=(0.0, 0.25))
    out = pair_outputs(z1, z2)
    assert out.y_o2 == pytest.approx(2.0 * out.theta_dot, rel=1e-12)


def test_phase2_two_centroid_and_distance_hold_under_integration():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    beta = math.pi  # rotate half a turn
    dt = 1e-4
    c0 = (0.5 * (z1.p[0] + z2.p[0]), 0.5 * (z1.p[1] + z2.p[1]))
    r0 = v_norm(v_sub(z2.p, z1.p))
    for _ in range(5000):
        u1, u2 = phase2_control_two(world, PARAMS2, beta, 30.0, PARAMS2.kp, PARAMS2.kv)
        robots = []
        for z, u in zip(world.robots, (u1, u2)):
            v = (z.v[0] + dt * u[0], z.v[1] + dt * u[1])
            p = (z.p[0] + dt * v[0], z.p[1] + dt * v[1])
            robots.append(RobotState(p=p, v=v))
        world = WorldState(robots=tuple(robots), t=world.t + dt)
    c1 = (
        0.5 * (world.robots[0].p[0] + world.robots[1].p[0]),
        0.5 * (world.robots[0].p[1] + world.robots[1].p[1]),
    )
    r1 = v_norm(v_sub(world.robots[1].p, world.robots[0].p))
    assert math.dist(c0, c1) <= 1e-12  # u2 = -u1 keeps the centroid exactly static
    assert abs(r1 - r0) <= 1e-4        # distance drifts only at O(dt) per unit time


def test_phase2_three_zero_when_aligned_and_static():
    world, goals = three_robot_family_catA(Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3), 2.0)
    # assembly bearing of robot 0 about the centroid is pi
    us = phase2_control_three(world, Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3), math.pi, 1.0, 3.0)
    for u in us:
        assert v_norm(u) <= 1e-12


def test_phase2_three_controls_sum_to_zero():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, _ = three_robot_family_catA(params, 2.0)
    # spin the assembly: give each robot the rigid tangential velocity
    omega = 0.4
    robots = []
    for z in world.robots:
        robots.append(RobotState(p=z.p, v=(-omega * z.p[1], omega * z.p[0])))
    spinning = WorldState(robots=tuple(robots), t=0.0)
    us = phase2_control_three(spinning, params, 0.3, 1.0, 3.0)
    total = (sum(u[0] for u in us), sum(u[1] for u in us))
    assert v_norm(total) <= 1e-12


def test_phase2_three_rigid_rotation_under_integration():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, _ = three_robot_family_catA(params, 2.0)
    beta = math.pi + 0.8
    dt = 1e-4
    d0 = [
        v_norm(v_sub(world.robots[i].p, world.robots[j].p))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    c0 = tuple(np.mean([z.p for z in world.robots], axis=0))
    for _ in range(3000):
        us = phase2_control_three(world, params, beta, params.kp, params.kv)
        robots = []
        for z, u in zip(world.robots, us):
            v = (z.v[0] + dt * u[0], z.v[1] + dt * u[1])
            p = (z.p[0] + dt * v[0], z.p[1] + dt * v[1])
            robots.append(RobotState(p=p, v=v))
        world = WorldState(robots=tuple(robots), t=world.t + dt)
    d1 = [
        v_norm(v_sub(world.robots[i].p, world.robots[j].p))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    c1 = tuple(np.mean([z.p for z in world.robots], axis=0))
    assert max(abs(a - b) for a, b in zip(d0, d1)) <= 1e-4
    assert math.dist(c0, c1) <= 1e-9


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
        t_max=20.0,
        stop_goal_tol=1e-3,
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
    k = scen.resolution.k_persist
    assert np.all(log.phase[: k - 1] == 1)
    assert log.phase[k - 1] == 2
    names = [e["name"] for e in log.events]
    assert "deadlock-detected" in names and "phase-2-start" in names


def test_supervisor_phase_monotone_and_beta_set_once():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    th = DeadlockThresholds.from_params(PARAMS2)
    state = Filtering()
    dt = 1e-3
    betas = set()
    phases = []

    for _ in range(2000):
        controls, state, _ = supervisor_step(state, world, GOALS2, PARAMS2, th, dt)
        world = integrate_step(world, controls, dt)
        phases.append(int(state.phase))
        if isinstance(state, Rotating):
            betas.add(state.beta_ref)
    assert all(b2 >= b1 for b1, b2 in zip(phases, phases[1:]))
    assert len(betas) == 1  # beta_ref chosen once at the ONE -> TWO transition


def test_category_b_states_open_the_chain_then_rotate_then_release(monkeypatch):
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    th = DeadlockThresholds.from_params(params)
    config = ResolutionConfig(kp2=16.0, kv2=10.0)
    warm_starts = []
    pin_controls = resolution._pin_controls

    def spy(world, params, control, angles, h_ts, warm, dt):
        warm_starts.append(warm)
        return pin_controls(world, params, control, angles, h_ts, warm, dt)

    monkeypatch.setattr(resolution, "_pin_controls", spy)
    state, dt = Filtering(), 1e-3
    kinds = [Filtering]
    for _ in range(9500):
        controls, state, info = supervisor_step(state, world, goals, params, th, dt, config)
        world = integrate_step(world, controls, dt)
        if info.get("event", ("",))[0] == "regularized":
            # the rotation starts cold and pins all three pairs
            assert warm_starts[-1] == ()
            assert isinstance(state, Rotating) and len(state.h_entry) == 3
        if type(state) is not kinds[-1]:
            kinds.append(type(state))
        if isinstance(state, Released):
            break
    assert kinds == [Filtering, Regularizing, Rotating, Released]


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
    [{"k_persist": 0}, {"k_persist": -3}, {"k_persist": 2.5}, {"eps_theta": 0.0}, {"eps_omega": -1e-3},
     {"eps_theta": float("nan")}],
)
def test_resolution_config_rejects_unreachable_thresholds(kwargs):
    # k_persist < 1 announces a deadlock on the first step; eps <= 0 never releases
    with pytest.raises(ValueError):
        ResolutionConfig(**kwargs)


def test_resolution_config_defaults():
    cfg = ResolutionConfig()
    assert cfg.bearing_gains(PARAMS2) == (PARAMS2.kp, PARAMS2.kv)
    assert cfg.k_persist == 10
