"""Deadlock detection, set membership and the analytical families."""

from __future__ import annotations

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    boundedness_identity,
    catB_parametrized,
    classify_three_robot,
    collinear_family,
    detect_deadlock,
    solve_qp,
    system_deadlock,
    three_robot_family_catA,
    three_robot_family_catB,
    verify_boundary_membership,
)
from mrdeadlock.core import pd_control, v_norm, v_sub
from mrdeadlock import deadlock
from mrdeadlock.deadlock import BOUNDARY_TOL, EPS_GOAL, EPS_MU, EPS_U, EPS_V, _deadlocked
from mrdeadlock.errors import SafetyViolationError, ToolkitError, ZeroVectorError
from mrdeadlock.cbf import PairField, assemble_qp, row_neighbor, safety_index_signed
from mrdeadlock.qp import verify_kkt
from conftest import HEAD_ON, RING16
from test_pair_field import worlds
from oracles import ConstraintRow, box_rows, problem_of, rows_of, two_robot_multiplier

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
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    report = detect_deadlock(0, world, GOALS2, PARAMS2, sols[0], problems[0])
    assert not report.verdict
    assert report.goal_dist < EPS_GOAL * PARAMS2.ds


def test_detect_thm2_state_both_deadlocked():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    world = WorldState(robots=(z1, z2), t=0.0)
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    for i in range(2):
        report = detect_deadlock(i, world, GOALS2, PARAMS2, sols[i], problems[i])
        assert report.verdict
        assert report.force_balance_residual <= 1e-8
        assert max(mu for _, mu in report.active_multipliers) > EPS_MU


def test_detect_moving_robot_not_deadlocked():
    # tangential velocity keeps the boundary pair evaluable (dp.dv = 0)
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    moving = RobotState(p=z1.p, v=(0.0, 0.5))
    world = WorldState(robots=(moving, z2), t=0.0)
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    assert not detect_deadlock(0, world, GOALS2, PARAMS2, sols[0], problems[0]).verdict


def test_system_deadlock_all_at_goals_false():
    world = WorldState(
        robots=(RobotState.at_rest((2.0, 0.0)), RobotState.at_rest((-2.0, 0.0))), t=0.0
    )
    _, sols = solve_all(world, GOALS2, PARAMS2)
    assert not system_deadlock(world, GOALS2, PARAMS2, sols)


def test_system_deadlock_thm2_true():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.6)
    world = WorldState(robots=(z1, z2), t=0.0)
    _, sols = solve_all(world, GOALS2, PARAMS2)
    assert system_deadlock(world, GOALS2, PARAMS2, sols)


def test_system_deadlock_requires_every_robot():
    # deadlocked pair plus a third robot still flying toward its goal
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.4)
    flier = RobotState(p=(8.0, 5.0), v=(0.5, 0.0))
    world = WorldState(robots=(z1, z2, flier), t=0.0)
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0), (10.0, 5.0)))
    problems, sols = solve_all(world, goals, PARAMS3)
    assert detect_deadlock(0, world, goals, PARAMS3, sols[0], problems[0]).verdict
    assert detect_deadlock(1, world, goals, PARAMS3, sols[1], problems[1]).verdict
    assert not detect_deadlock(2, world, goals, PARAMS3, sols[2], problems[2]).verdict
    assert not system_deadlock(world, goals, PARAMS3, sols)


def _verdicts(world, goals, params):
    """(the verdict-only predicate, detect_deadlock's verdict) of every robot of world."""
    problems, sols = solve_all(world, goals, params)
    return [
        (_deadlocked(world.robots[i], goals.pd[i], sols[i], problems[i].m_neighbors, params),
         detect_deadlock(i, world, goals, params, sols[i], problems[i]).verdict)
        for i in range(world.n)
    ]


def _family_worlds():
    for alpha in (0.3, 0.5, 0.7):
        yield WorldState(robots=collinear_family(GOALS2, PARAMS2, alpha)), GOALS2, PARAMS2
    yield (*three_robot_family_catA(PARAMS3, 2.0), PARAMS3)
    yield (*three_robot_family_catB(PARAMS3, 2.0), PARAMS3)
    yield (*catB_parametrized(PARAMS3, 2.0, -0.3, 1.0), PARAMS3)


@pytest.mark.parametrize("fails", [None, "eps_u", "eps_v", "eps_goal", "eps_mu"])
def test_verdict_predicate_matches_detect_deadlock_on_the_families(fails, monkeypatch):
    # every family member is deadlocked.  eps_goal and eps_mu moved past every
    # measure fail their condition; eps_u and eps_v at 1e-300 test the
    # condition at a measure of (near) zero
    moved = {"eps_u": 1e-300, "eps_v": 1e-300, "eps_goal": 1e3, "eps_mu": 1e6}
    if fails is not None:
        monkeypatch.setattr(deadlock, fails.upper(), moved[fails])
    for world, goals, params in _family_worlds():
        verdicts = _verdicts(world, goals, params)
        assert all(fast == full for fast, full in verdicts), verdicts
        if fails in (None, "eps_goal", "eps_mu"):
            assert all(fast == (fails is None) for fast, _ in verdicts)


def test_verdict_predicate_matches_detect_deadlock_along_the_pinned_head_on_log(head_on_log):
    log, _ = head_on_log
    params, goals = HEAD_ON.params, HEAD_ON.goals
    seen = set()
    for k in range(0, log.n_records, 97):
        world = log.world_at(k)
        problems = PairField(world, params).problems([pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)])
        sols = [solve_qp(p) for p in problems]
        for i in range(world.n):
            fast = _deadlocked(world.robots[i], goals.pd[i], sols[i], problems[i].m_neighbors, params)
            assert fast == detect_deadlock(i, world, goals, params, sols[i], problems[i]).verdict, (k, i)
            seen.add(fast)
        assert system_deadlock(world, goals, params, tuple(sols)) == all(
            detect_deadlock(i, world, goals, params, sols[i], problems[i]).verdict for i in range(world.n))
    assert seen == {False, True}


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
        row = rows_of(problem)[0]
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
        problem = problem_of(
            u_hat=u_hat,
            rows=(ConstraintRow(a=a, b_hat=b_hat),) + box_rows(50.0),
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
    problems, sols = solve_all(world, goals, PARAMS3)
    assert system_deadlock(world, goals, PARAMS3, sols)
    for i in range(3):
        assert math.hypot(*sols[i].u_star) <= 1e-10
        neighbor_mus = sols[i].mu_star[:problems[i].m_neighbors]
        assert sum(mu > 1e-6 for mu in neighbor_mus) == 2
        report = detect_deadlock(i, world, goals, PARAMS3, sols[i], problems[i])
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
    problems, sols = solve_all(world, goals, PARAMS3)
    assert system_deadlock(world, goals, PARAMS3, sols)
    # the center robot holds two active rows, the outer robots one each
    n_active_neighbors = [
        sum(1 for k in sols[i].active_set if k < problems[i].m_neighbors) for i in range(3)
    ]
    assert n_active_neighbors == [1, 2, 1]


@pytest.mark.parametrize("case", ["threeB", "ring16"])
def test_force_balance_and_kkt_read_the_pair_pass_qps_by_row_number(case, ring16_log):
    """On a pair-pass QP, box-implied rows set aside, detect_deadlock and verify_kkt give their full-QP results."""
    if case == "threeB":
        # the category-B chain, and three robots at rest on their goals 10 m away
        chain, chain_goals = three_robot_family_catB(PARAMS3, 2.0)
        far = ((10.0, 0.0), (10.0, 2.0), (10.0, 4.0))
        world = WorldState(robots=chain.robots + tuple(RobotState.at_rest(p) for p in far), t=0.0)
        goals = GoalSpec(pd=chain_goals.pd + far)
        params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 6)
    else:
        log, _ = ring16_log
        world, goals, params = log.world_at(log.n_records - 1), RING16.goals, RING16.params
    u_hat = [pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)]
    problems = PairField(world, params).problems(u_hat)
    assert any(problem.index is not None for problem in problems)
    active = 0
    for i, problem in enumerate(problems):
        full = assemble_qp(i, world, goals, params)
        sol = solve_qp(problem)
        assert repr(sol) == repr(solve_qp(full))
        report = detect_deadlock(i, world, goals, params, sol, problem)
        assert repr(report) == repr(detect_deadlock(i, world, goals, params, sol, full))
        assert repr(verify_kkt(problem, sol)) == repr(verify_kkt(full, sol))
        active += any(k < full.m_neighbors and mu > 0.0 for k, mu in report.active_multipliers)
    assert active >= 2   # the force balances carry neighbor multipliers


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
    thetas = np.linspace(-math.pi / 6, 0.0, 7)[1:-1]
    alphas = np.linspace(math.pi / 6, math.pi / 2, 7)[1:-1]
    for th_v in thetas:
        for al_v in alphas:
            world, goals = catB_parametrized(PARAMS3, 2.0, float(th_v), float(al_v))
            _, sols = solve_all(world, goals, PARAMS3)
            assert system_deadlock(world, goals, PARAMS3, sols)


def test_catB_parametrized_range_checks():
    with pytest.raises(ValueError):
        catB_parametrized(PARAMS3, 2.0, 0.1, 0.9)
    with pytest.raises(ValueError):
        catB_parametrized(PARAMS3, 2.0, -0.2, 0.1)


@pytest.mark.parametrize(
    "family, named",
    [
        (lambda: collinear_family(GOALS2, PARAMS2, "0.5"), "alpha"),
        (lambda: catB_parametrized(PARAMS3, 2.0, "x", 0.9), "theta"),
        (lambda: catB_parametrized(PARAMS3, 2.0, -0.3, "0.9"), "alpha_angle"),
    ],
    ids=["collinear-alpha", "catB-theta", "catB-alpha_angle"],
)
def test_family_parameters_that_are_no_numbers_raise_a_value_error_naming_them(family, named):
    with pytest.raises(ValueError, match=f"^{named} must lie in"):
        family()


def _infeasible_two_robot_world() -> WorldState:
    # 1e-6 outside the margin, closing: robot 0's box cannot brake hard enough, its QP is empty
    return WorldState(robots=(RobotState(p=(0.0, 0.0), v=(0.0025, 0.0)),
                              RobotState(p=(0.5 + 1e-6, 0.0), v=(-0.0025, 0.0))), t=0.0)


def _detect_on_the_empty_qp():
    world = _infeasible_two_robot_world()
    problems, sols = solve_all(world, GOALS2, PARAMS2)
    assert sols[0].status == "infeasible"
    return detect_deadlock(0, world, GOALS2, PARAMS2, sols[0], problems[0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: collinear_family(GoalSpec(pd=((2.0, 0.0),)), PARAMS2, 0.5), "^two goals required$"),
        (lambda: boundedness_identity(*three_robot_family_catA(PARAMS3, 2.0), PARAMS3), "two-robot statement$"),
        (lambda: classify_three_robot(WorldState(robots=collinear_family(GOALS2, PARAMS2, 0.5)), PARAMS2, 0.0),
         "^three robots required$"),
        (_detect_on_the_empty_qp, "^detect_deadlock expects an optimal QP solution$"),
    ],
    ids=["collinear-one-goal", "boundedness-three-robots", "classify-two-robots", "detect-infeasible"],
)
def test_a_check_given_what_it_does_not_cover_raises_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("tol", [-1e-6, math.nan, math.inf, True, "0.01"])
def test_classify_three_robot_rejects_a_tol_that_is_no_finite_nonnegative_number(tol):
    world, _ = three_robot_family_catA(PARAMS3, 2.0)
    with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
        classify_three_robot(world, PARAMS3, tol)


@pytest.mark.parametrize(
    "family",
    [three_robot_family_catA, three_robot_family_catB, lambda params, r: catB_parametrized(params, r, -0.3, 1.0)],
    ids=["catA", "catB", "catB_parametrized"],
)
@pytest.mark.parametrize("r_goal", ["2", True, 0.0, -2.0, math.nan, math.inf])
def test_families_read_the_goal_radius_as_a_gain(family, r_goal):
    with pytest.raises(ValueError, match="^r_goal must be"):
        family(PARAMS3, r_goal)


GALLERY = Path(__file__).resolve().parent.parent / "demos" / "deadlock_family_gallery.py"


def test_gallery_demo_prints_its_pinned_output(capsys):
    spec = importlib.util.spec_from_file_location("deadlock_family_gallery", GALLERY)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fee1026a2758a5f95565fca0ac5c0384cad897f6ba0fec7ab0a1441073b9eaa8"
    )


def test_boundary_membership():
    z1, z2 = collinear_family(GOALS2, PARAMS2, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    assert verify_boundary_membership(world, GOALS2, PARAMS2)

    # robots at rest 1.5 Ds apart carry no active rows: not on the deadlock boundary
    apart = WorldState(
        robots=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.75, 0.0))), t=0.0
    )
    assert not verify_boundary_membership(apart, GOALS2, PARAMS2)

    world_a, goals_a = three_robot_family_catA(PARAMS3, 2.0)
    assert verify_boundary_membership(world_a, goals_a, PARAMS3)

    # a robot whose QP is empty has no optimum to be active at
    assert not verify_boundary_membership(_infeasible_two_robot_world(), GOALS2, PARAMS2)


def test_margin_contact_whenever_both_robots_detected():
    # contrapositive of the safety-margin theorem: along a simulated run,
    # whenever the detection conditions fire for both robots the pair
    # distance is already within 10 eps_v of the margin
    from mrdeadlock.sim import default_head_on_scenario, run_scenario

    scen = default_head_on_scenario(t_max=8.0)
    params = scen.params
    log = run_scenario(scen)
    u_norm = np.hypot(log.u_star[:, :, 0], log.u_star[:, :, 1])
    v_norm_arr = np.hypot(log.vel[:, :, 0], log.vel[:, :, 1])
    goal = np.array(scen.goals.pd)
    goal_dist = np.hypot(
        log.pos[:, :, 0] - goal[None, :, 0], log.pos[:, :, 1] - goal[None, :, 1]
    )
    mu_max = log.mu[:, :, 0]  # single neighbor row per robot
    detected = (
        (u_norm <= EPS_U * params.kp * params.ds)
        & (v_norm_arr <= EPS_V)
        & (goal_dist >= EPS_GOAL * params.ds)
        & (mu_max > EPS_MU)
    ).all(axis=1)
    assert detected.any()
    dist = np.hypot(log.pos[:, 0, 0] - log.pos[:, 1, 0], log.pos[:, 0, 1] - log.pos[:, 1, 1])
    assert np.abs(dist[detected] - PARAMS2.ds).max() <= 10.0 * EPS_V


def test_thresholds_validation_and_defaults():
    assert EPS_U * PARAMS2.kp * PARAMS2.ds == pytest.approx(1e-3 * PARAMS2.kp * PARAMS2.ds)
    assert EPS_GOAL * PARAMS2.ds == pytest.approx(0.1 * PARAMS2.ds)


def _boundary_oracle(world, goals, params):
    """verify_boundary_membership assembled robot by robot from the scalar functions."""
    active_pairs = set()
    for i in range(world.n):
        problem = assemble_qp(i, world, goals, params)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            return False
        mine = [k for k in sol.active_set if k < problem.m_neighbors]
        if not mine:
            return False
        for k in mine:
            j = row_neighbor(i, k)
            active_pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(active_pairs):
        if abs(safety_index_signed(world.robots[i], world.robots[j], params, i, j)) > BOUNDARY_TOL:
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
