"""Deadlock detection, set membership and the analytical families."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    DeadlockThresholds,
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    assemble_qp,
    boundedness_identity,
    catB_parametrized,
    classify_three_robot,
    collinear_family,
    detect_deadlock,
    safety_index_signed,
    solve_qp,
    system_deadlock,
    three_robot_family_catA,
    three_robot_family_catB,
    two_robot_multiplier,
    verify_boundary_membership,
)
from mrdeadlock.core import v_norm, v_sub
from mrdeadlock.errors import SafetyViolationError, ToolkitError, ZeroVectorError
from mrdeadlock.qp import QPProblem
from mrdeadlock.cbf import box_rows, ConstraintRow, NeighborKind
from test_pair_field import worlds

PARAMS2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
PARAMS3 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0, 5.0))
GOALS2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))


def solve_all(world, goals, params):
    problems = tuple(assemble_qp(i, world, goals, params) for i in range(world.n))
    return problems, tuple(solve_qp(p) for p in problems)


def test_detect_not_deadlocked_at_goal():
    world = WorldState(
        robots=(RobotState.at_rest((2.0, 0.0)), RobotState.at_rest((-2.0, 0.0))), t=0.0
    )
    th = DeadlockThresholds.from_params(PARAMS2)
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    report = detect_deadlock(0, world, GOALS2, PARAMS2, sols[0], th, problems[0])
    assert not report.verdict
    assert report.goal_dist < th.eps_goal


def test_detect_thm2_state_both_deadlocked():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    world = WorldState(robots=(z1, z2), t=0.0)
    th = DeadlockThresholds.from_params(PARAMS2)
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    for i in range(2):
        report = detect_deadlock(i, world, GOALS2, PARAMS2, sols[i], th, problems[i])
        assert report.verdict
        assert report.force_balance_residual <= 1e-8
        assert max(mu for _, mu in report.active_multipliers) > th.eps_mu


def test_detect_moving_robot_not_deadlocked():
    # tangential velocity keeps the boundary pair evaluable (dp.dv = 0)
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    moving = RobotState(p=z1.p, v=(0.0, 0.5))
    world = WorldState(robots=(moving, z2), t=0.0)
    th = DeadlockThresholds.from_params(PARAMS2)
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    assert not detect_deadlock(0, world, GOALS2, PARAMS2, sols[0], th, problems[0]).verdict


def test_system_deadlock_all_at_goals_false():
    world = WorldState(
        robots=(RobotState.at_rest((2.0, 0.0)), RobotState.at_rest((-2.0, 0.0))), t=0.0
    )
    th = DeadlockThresholds.from_params(PARAMS2)
    _, sols = solve_all(world, GOALS2, PARAMS2)
    assert not system_deadlock(world, GOALS2, PARAMS2, sols, th)


def test_system_deadlock_thm2_true():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.6)
    world = WorldState(robots=(z1, z2), t=0.0)
    th = DeadlockThresholds.from_params(PARAMS2)
    _, sols = solve_all(world, GOALS2, PARAMS2)
    assert system_deadlock(world, GOALS2, PARAMS2, sols, th)


def test_system_deadlock_requires_every_robot():
    # deadlocked pair plus a third robot still flying toward its goal
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    flier = RobotState(p=(8.0, 5.0), v=(0.5, 0.0))
    world = WorldState(robots=(z1, z2, flier), t=0.0)
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0), (10.0, 5.0)))
    th = DeadlockThresholds.from_params(PARAMS3)
    problems, sols = solve_all(world, goals, PARAMS3)
    assert detect_deadlock(0, world, goals, PARAMS3, sols[0], th, problems[0]).verdict
    assert detect_deadlock(1, world, goals, PARAMS3, sols[1], th, problems[1]).verdict
    assert not detect_deadlock(2, world, goals, PARAMS3, sols[2], th, problems[2]).verdict
    assert not system_deadlock(world, goals, PARAMS3, sols, th)


def test_two_robot_multiplier_examples():
    assert two_robot_multiplier((1.0, 0.0), (0.5, 0.0), 0.5) == 0.0
    assert two_robot_multiplier((1.0, 0.0), (1.0, 0.0), 0.5) == pytest.approx(1.0)
    with pytest.raises(ZeroVectorError):
        two_robot_multiplier((0.0, 0.0), (1.0, 0.0), 0.5)


def test_two_robot_multiplier_matches_thm2_formula():
    for alpha in (0.2, 0.5, 0.8):
        z1, z2 = collinear_family(GOALS2, PARAMS2, alpha)
        world = WorldState(robots=(z1, z2), t=0.0)
        problem = assemble_qp(0, world, GOALS2, PARAMS2)
        row = problem.rows[0]
        mu = two_robot_multiplier(row.a, problem.u_hat, row.b_hat)
        d_g = 4.0
        assert mu == pytest.approx(2.0 * PARAMS2.kp * (1 - alpha) * d_g / PARAMS2.ds, rel=1e-10)


def test_two_robot_multiplier_agrees_with_solver_dual():
    # whenever exactly one neighbor row is active and no box row
    rng = np.random.default_rng(8)
    agree = 0
    for _ in range(300):
        u_hat = tuple(rng.uniform(-3, 3, 2))
        a = tuple(rng.uniform(-2, 2, 2))
        if math.hypot(*a) < 0.3:
            continue
        b_hat = float(np.dot(a, u_hat) - rng.uniform(0.1, 1.5))
        problem = QPProblem(
            u_hat=u_hat,
            rows=(ConstraintRow(a=a, b_hat=b_hat, kind=NeighborKind(1)),) + box_rows(50.0),
        )
        sol = solve_qp(problem)
        if sol.status != "optimal" or sol.active_set != (0,):
            continue
        assert sol.mu_star[0] == pytest.approx(
            two_robot_multiplier(a, u_hat, b_hat), abs=1e-8
        )
        agree += 1
    assert agree > 250


def test_collinear_family_midpoint_example():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((-1.0, 0.0), (1.0, 0.0)))
    z1, z2 = collinear_family(goals, params, 0.5)
    assert z1.p == pytest.approx((0.0, 0.0), abs=1e-15)
    assert z2.p == pytest.approx((-0.5, 0.0), abs=1e-15)
    assert z1.v == (0.0, 0.0) and z2.v == (0.0, 0.0)


def test_collinear_family_separation_and_qp_sweep():
    for alpha in np.linspace(0.05, 0.95, 10):
        z1, z2 = collinear_family(GOALS2, PARAMS2, float(alpha))
        assert v_norm(v_sub(z1.p, z2.p)) == pytest.approx(PARAMS2.ds, abs=1e-12)
        world = WorldState(robots=(z1, z2), t=0.0)
        for i in range(2):
            sol = solve_qp(assemble_qp(i, world, GOALS2, PARAMS2))
            assert math.hypot(*sol.u_star) <= 1e-10


def test_collinear_family_alpha_range():
    with pytest.raises(ValueError):
        collinear_family(GOALS2, PARAMS2, 0.0)
    with pytest.raises(ValueError):
        collinear_family(GOALS2, PARAMS2, 1.0)


def test_collinear_family_requires_dg_above_ds():
    goals = GoalSpec(pd=((0.0, 0.0), (0.3, 0.0)))
    with pytest.raises(ValueError):
        collinear_family(goals, PARAMS2, 0.5)


def test_boundedness_identity_zero_on_family():
    for alpha in (0.25, 0.5, 0.75):
        z1, z2 = collinear_family(GOALS2, PARAMS2, alpha)
        world = WorldState(robots=(z1, z2), t=0.0)
        assert boundedness_identity(world, GOALS2, PARAMS2) <= 1e-12


def test_boundedness_identity_positive_off_family():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    off = RobotState(p=(z1.p[0], z1.p[1] + 0.1), v=(0.0, 0.0))
    world = WorldState(robots=(off, z2), t=0.0)
    assert boundedness_identity(world, GOALS2, PARAMS2) > 1e-3


def test_classify_three_robot_categories():
    tol = 1e-6 * PARAMS3.ds
    world_a, _ = three_robot_family_catA(PARAMS3, 2.0)
    assert classify_three_robot(world_a, PARAMS3, tol).category == "A"

    world_b, _ = three_robot_family_catB(PARAMS3, 2.0)
    cat = classify_three_robot(world_b, PARAMS3, tol)
    assert cat.category == "B" and cat.center == 1

    spread = WorldState(
        robots=(
            RobotState.at_rest((0.0, 0.0)),
            RobotState.at_rest((1.0, 0.0)),
            RobotState.at_rest((0.0, 1.0)),
        ),
        t=0.0,
    )
    assert classify_three_robot(spread, PARAMS3, tol).category == "none"

    too_close = WorldState(
        robots=(
            RobotState.at_rest((0.0, 0.0)),
            RobotState.at_rest((0.2, 0.0)),
            RobotState.at_rest((0.0, 1.0)),
        ),
        t=0.0,
    )
    with pytest.raises(SafetyViolationError):
        classify_three_robot(too_close, PARAMS3, tol)


def test_catA_family_geometry_and_deadlock():
    world, goals = three_robot_family_catA(PARAMS3, 2.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert v_norm(v_sub(world.robots[i].p, world.robots[j].p)) == pytest.approx(
                PARAMS3.ds, abs=1e-12
            )
    th = DeadlockThresholds.from_params(PARAMS3)
    problems, sols = solve_all(world, goals, PARAMS3)
    assert system_deadlock(world, goals, PARAMS3, sols, th)
    for i in range(3):
        assert math.hypot(*sols[i].u_star) <= 1e-10
        neighbor_mus = [mu for k, mu in enumerate(sols[i].mu_star) if problems[i].rows[k].is_neighbor]
        assert sum(mu > 1e-6 for mu in neighbor_mus) == 2
        report = detect_deadlock(i, world, goals, PARAMS3, sols[i], th, problems[i])
        assert report.force_balance_residual <= 1e-8
        # radial force balance: u_hat is collinear with the robot's position ray
        u_hat = problems[i].u_hat
        p = world.robots[i].p
        cross = u_hat[0] * p[1] - u_hat[1] * p[0]
        assert abs(cross) <= 1e-10


def test_catB_family_geometry_and_deadlock():
    world, goals = three_robot_family_catB(PARAMS3, 2.0)
    d01 = v_norm(v_sub(world.robots[0].p, world.robots[1].p))
    d12 = v_norm(v_sub(world.robots[1].p, world.robots[2].p))
    d02 = v_norm(v_sub(world.robots[0].p, world.robots[2].p))
    assert d01 == pytest.approx(PARAMS3.ds, abs=1e-12)
    assert d12 == pytest.approx(PARAMS3.ds, abs=1e-12)
    assert d02 == pytest.approx(PARAMS3.ds * math.sqrt(3.0), abs=1e-12)
    th = DeadlockThresholds.from_params(PARAMS3)
    problems, sols = solve_all(world, goals, PARAMS3)
    assert system_deadlock(world, goals, PARAMS3, sols, th)
    # the center robot holds two active rows, the outer robots one each
    n_active_neighbors = [
        sum(1 for k in sols[i].active_set if problems[i].rows[k].is_neighbor) for i in range(3)
    ]
    assert n_active_neighbors == [1, 2, 1]


def test_catB_parametrized_geometry_sweep():
    # 50 x 50 interior grid: chain links exactly Ds, outer pair strictly wider
    thetas = np.linspace(-math.pi / 6, 0.0, 52)[1:-1]
    alphas = np.linspace(math.pi / 6, math.pi / 2, 52)[1:-1]
    min_outer = math.inf
    for th_v in thetas:
        for al_v in alphas:
            world, _ = catB_parametrized(PARAMS3, 2.0, float(th_v), float(al_v))
            p1, p2, p3 = (z.p for z in world.robots)
            assert v_norm(v_sub(p1, p2)) == pytest.approx(PARAMS3.ds, abs=1e-12)
            assert v_norm(v_sub(p2, p3)) == pytest.approx(PARAMS3.ds, abs=1e-12)
            min_outer = min(min_outer, v_norm(v_sub(p1, p3)))
    assert min_outer > PARAMS3.ds


def test_catB_parametrized_deadlock_grid():
    th = DeadlockThresholds.from_params(PARAMS3)
    thetas = np.linspace(-math.pi / 6, 0.0, 7)[1:-1]
    alphas = np.linspace(math.pi / 6, math.pi / 2, 7)[1:-1]
    for th_v in thetas:
        for al_v in alphas:
            world, goals = catB_parametrized(PARAMS3, 2.0, float(th_v), float(al_v))
            _, sols = solve_all(world, goals, PARAMS3)
            assert system_deadlock(world, goals, PARAMS3, sols, th)


def test_catB_parametrized_range_checks():
    with pytest.raises(ValueError):
        catB_parametrized(PARAMS3, 2.0, 0.1, 0.9)
    with pytest.raises(ValueError):
        catB_parametrized(PARAMS3, 2.0, -0.2, 0.1)


def test_boundary_membership():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    assert verify_boundary_membership(world, GOALS2, PARAMS2, tol=1e-8)

    # robots at rest 1.5 Ds apart carry no active rows: not on the deadlock boundary
    apart = WorldState(
        robots=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.75, 0.0))), t=0.0
    )
    assert not verify_boundary_membership(apart, GOALS2, PARAMS2, tol=1e-8)

    world_a, goals_a = three_robot_family_catA(PARAMS3, 2.0)
    assert verify_boundary_membership(world_a, goals_a, PARAMS3, tol=1e-8)


def test_margin_contact_whenever_both_robots_detected():
    # contrapositive of the safety-margin theorem: along a simulated run,
    # whenever the detection conditions fire for both robots the pair
    # distance is already within 10 eps_v of the margin
    from mrdeadlock.sim import default_head_on_scenario, run_scenario

    scen = default_head_on_scenario(t_max=8.0)
    th = scen.effective_thresholds()
    log = run_scenario(scen)
    u_norm = np.hypot(log.u_star[:, :, 0], log.u_star[:, :, 1])
    v_norm_arr = np.hypot(log.vel[:, :, 0], log.vel[:, :, 1])
    goal = np.array(scen.goals.pd)
    goal_dist = np.hypot(
        log.pos[:, :, 0] - goal[None, :, 0], log.pos[:, :, 1] - goal[None, :, 1]
    )
    mu_max = log.mu[:, :, 0]  # single neighbor row per robot
    detected = (
        (u_norm <= th.eps_u)
        & (v_norm_arr <= th.eps_v)
        & (goal_dist >= th.eps_goal)
        & (mu_max > th.eps_mu)
    ).all(axis=1)
    assert detected.any()
    dist = np.hypot(log.pos[:, 0, 0] - log.pos[:, 1, 0], log.pos[:, 0, 1] - log.pos[:, 1, 1])
    assert np.abs(dist[detected] - PARAMS2.ds).max() <= 10.0 * th.eps_v


def test_thresholds_validation_and_defaults():
    th = DeadlockThresholds.from_params(PARAMS2)
    assert th.eps_u == pytest.approx(1e-3 * PARAMS2.kp * PARAMS2.ds)
    assert th.eps_goal == pytest.approx(0.1 * PARAMS2.ds)
    with pytest.raises(ValueError):
        DeadlockThresholds(eps_u=0.0, eps_v=1e-3, eps_goal=0.05, eps_mu=1e-6)


def _boundary_oracle(world, goals, params, tol=1e-8):
    """verify_boundary_membership assembled robot by robot from the scalar functions."""
    active_pairs = set()
    for i in range(world.n):
        problem = assemble_qp(i, world, goals, params)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            return False
        mine = [problem.rows[k] for k in sol.active_set if problem.rows[k].is_neighbor]
        if not mine:
            return False
        for row in mine:
            j = row.kind.j
            active_pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(active_pairs):
        if abs(safety_index_signed(world.robots[i], world.robots[j], params, i, j)) > tol:
            return False
    return True


def _same_outcome(world, goals, params):
    try:
        expected = _boundary_oracle(world, goals, params)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            verify_boundary_membership(world, goals, params)
        assert str(err.value) == str(exc)
        return
    try:
        got = verify_boundary_membership(world, goals, params)
    except ToolkitError as exc:
        # every QP is built before the first solve; the oracle stopped at an
        # earlier robot without an active neighbor row and never reached the
        # rejected pair, which building every QP rejects with the same error
        assert expected is False
        with pytest.raises(type(exc)) as err:
            [assemble_qp(i, world, goals, params) for i in range(world.n)]
        assert str(err.value) == str(exc)
    else:
        assert got is expected


def _family_members():
    members = []
    for a in (0.2, 0.5, 0.8):
        members.append((WorldState(robots=collinear_family(GOALS2, PARAMS2, a)), GOALS2, PARAMS2))
    for build in (three_robot_family_catA, three_robot_family_catB):
        members.append((*build(PARAMS3, 2.0), PARAMS3))
    for theta, angle in ((-0.1, 0.6), (-0.25, 1.0), (-0.3, 0.9), (-0.45, 1.4)):
        members.append((*catB_parametrized(PARAMS3, 2.0, theta, angle), PARAMS3))
    return members


FAMILY_MEMBERS = _family_members()


@pytest.mark.parametrize("member", range(len(FAMILY_MEMBERS)))
def test_boundary_membership_of_family_members_matches_oracle(member):
    world, goals, params = FAMILY_MEMBERS[member]
    assert verify_boundary_membership(world, goals, params)
    _same_outcome(world, goals, params)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(FAMILY_MEMBERS),
    st.integers(-12, -6).map(lambda e: 10.0 ** e),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
)
def test_boundary_membership_of_nudged_family_members_matches_oracle(member, scale, nudges):
    world, goals, params = member
    robots = tuple(
        RobotState(
            p=(z.p[0] + scale * nudges[4 * i], z.p[1] + scale * nudges[4 * i + 1]),
            v=(z.v[0] + scale * nudges[4 * i + 2], z.v[1] + scale * nudges[4 * i + 3]),
        )
        for i, z in enumerate(world.robots)
    )
    _same_outcome(WorldState(robots=robots), goals, params)


@settings(max_examples=300, deadline=None, database=None)
@given(worlds())
def test_boundary_membership_of_random_worlds_matches_oracle(case):
    _same_outcome(*case)
