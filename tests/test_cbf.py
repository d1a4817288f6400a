"""Safety index, constraint bound and QP row assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
)
from mrdeadlock.cbf import (
    assemble_qp,
    constraint_bound,
    decentralized_rows,
    pair_indices,
    row_neighbor,
    safety_index_signed,
)
from mrdeadlock.errors import (
    BoundarySingularityError,
    CoincidentRobotsError,
    SafetyViolationError,
)
from mrdeadlock.qp import BOX_NORMALS
from mrdeadlock.sim import default_head_on_scenario, run_scenario
from oracles import rows_of

P11 = Params(kp=1.0, kv=1.0, ds=1.0, alpha=(1.0, 1.0))


def pair(dp, dv):
    return RobotState(p=dp, v=dv), RobotState(p=(0.0, 0.0), v=(0.0, 0.0))


def test_safety_index_separated_at_rest():
    # sqrt(2*(1+1)*(2-1)) = 2, no velocity term
    zi, zj = pair((2.0, 0.0), (0.0, 0.0))
    assert safety_index_signed(zi, zj, P11) == pytest.approx(2.0, abs=1e-12)


def test_safety_index_boundary_rest_is_zero():
    zi, zj = pair((1.0, 0.0), (0.0, 0.0))
    assert safety_index_signed(zi, zj, P11) == 0.0


def test_safety_index_with_closing_velocity():
    # 2 + (dp.dv)/|dp| = 2 + (-2)/2 = 1
    zi, zj = pair((2.0, 0.0), (-1.0, 0.0))
    assert safety_index_signed(zi, zj, P11) == pytest.approx(1.0, abs=1e-12)


def test_safety_index_violation_error_carries_penetration():
    zi, zj = pair((0.5, 0.0), (0.0, 0.0))
    with pytest.raises(SafetyViolationError) as err:
        constraint_bound(zi, zj, P11)
    assert err.value.penetration == pytest.approx(0.5, abs=1e-12)


def test_safety_index_coincident_error():
    zi, zj = pair((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(CoincidentRobotsError):
        constraint_bound(zi, zj, P11)


def test_safety_index_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pi = rng.uniform(-3, 3, 2)
        pj = rng.uniform(-3, 3, 2)
        if math.dist(pi, pj) <= P11.ds:
            continue
        vi = rng.uniform(-1, 1, 2)
        vj = rng.uniform(-1, 1, 2)
        zi = RobotState(p=tuple(pi), v=tuple(vi))
        zj = RobotState(p=tuple(pj), v=tuple(vj))
        assert safety_index_signed(zi, zj, P11) == safety_index_signed(zj, zi, P11)
        assert constraint_bound(zi, zj, P11) == constraint_bound(zj, zi, P11)


def test_signed_index_negative_below_margin():
    zi, zj = pair((0.5, 0.0), (0.0, 0.0))
    h = safety_index_signed(zi, zj, P11)
    assert h == pytest.approx(-math.sqrt(2 * 2 * 0.5), abs=1e-12)


def test_constraint_bound_at_rest():
    # all velocity terms vanish: b = |dp| h^3 = 2 * 8 = 16
    zi, zj = pair((2.0, 0.0), (0.0, 0.0))
    assert constraint_bound(zi, zj, P11) == pytest.approx(16.0, abs=1e-12)


def test_constraint_bound_boundary_rest_is_zero():
    zi, zj = pair((1.0, 0.0), (0.0, 0.0))
    assert constraint_bound(zi, zj, P11) == 0.0


def test_constraint_bound_orthogonal_velocity():
    # b = 2*2^3 + 0 + |dv|^2 - 0 = 17
    zi, zj = pair((2.0, 0.0), (0.0, 1.0))
    assert constraint_bound(zi, zj, P11) == pytest.approx(17.0, abs=1e-12)


def test_constraint_bound_boundary_singularity():
    zi, zj = pair((1.0, 0.0), (0.5, 0.0))  # on boundary, nonzero radial velocity
    with pytest.raises(BoundarySingularityError):
        constraint_bound(zi, zj, P11)


def test_decentralized_rows_symmetric_split():
    zi, zj = pair((2.0, 0.0), (0.0, 0.0))
    b = constraint_bound(zi, zj, P11)
    (a_i, b_i), (a_j, b_j) = decentralized_rows(zi, zj, P11)
    assert b_i == pytest.approx(b / 2)
    assert b_j == pytest.approx(b / 2)
    assert b_i + b_j == pytest.approx(b, abs=1e-12)
    # a_i = -(p_i - p_j), a_j = +(p_i - p_j)
    assert a_i == (-2.0, 0.0)
    assert a_j == (2.0, 0.0)


def test_decentralized_rows_proportional_split():
    params = Params(kp=1.0, kv=1.0, ds=1.0, alpha=(2.0, 1.0))
    zi, zj = pair((2.0, 0.0), (0.0, 0.0))
    b = constraint_bound(zi, zj, params)
    (_, b_i), (_, b_j) = decentralized_rows(zi, zj, params)
    assert b_i == pytest.approx(2.0 * b / 3.0)
    assert b_j == pytest.approx(b / 3.0)
    # sanity arithmetic: shares of b = 9 split 2:1 would be (6, 3)
    assert (2.0 / 3.0) * 9.0 == pytest.approx(6.0)


def test_decentralized_rows_zero_bound_on_boundary():
    zi, zj = pair((1.0, 0.0), (0.0, 0.0))
    (_, b_i), (_, b_j) = decentralized_rows(zi, zj, P11)
    assert b_i == 0.0
    assert b_j == 0.0


def test_assemble_qp_single_robot_only_box_rows():
    params = Params(kp=1.0, kv=1.0, ds=1.0, alpha=(3.0,))
    world = WorldState(robots=(RobotState.at_rest((0.0, 0.0)),), t=0.0)
    problem = assemble_qp(0, world, GoalSpec(pd=((1.0, 0.0),)), params)
    assert len(rows_of(problem)) == 4
    assert tuple(row.a for row in rows_of(problem)) == BOX_NORMALS
    assert all(row.b_hat == 3.0 for row in rows_of(problem))


def test_assemble_qp_three_robots_row_order():
    params = Params(kp=1.0, kv=1.0, ds=1.0, alpha=(1.0, 1.0, 1.0))
    world = WorldState(
        robots=(
            RobotState.at_rest((0.0, 0.0)),
            RobotState.at_rest((3.0, 0.0)),
            RobotState.at_rest((0.0, 3.0)),
        ),
        t=0.0,
    )
    goals = GoalSpec(pd=((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)))
    problem = assemble_qp(1, world, goals, params)
    rows = rows_of(problem)
    assert len(rows) == 6
    assert [row_neighbor(1, k) for k in range(problem.m_neighbors)] == [0, 2]
    assert rows[0].a == (-3.0, 0.0)    # -(p_1 - p_0)
    assert rows[1].a == (-3.0, 3.0)    # -(p_1 - p_2)
    assert tuple(row.a for row in rows[2:]) == BOX_NORMALS


def test_assemble_qp_head_on_initial_row_matches_oracle():
    scen = default_head_on_scenario()
    world = WorldState(robots=scen.initial, t=0.0)
    problem = assemble_qp(0, world, scen.goals, scen.params)
    row = rows_of(problem)[0]
    # a = -(p_0 - p_1) = p_1 - p_0 = (4, 0)
    assert row.a == (4.0, 0.0)
    # independent recompute (velocities are zero, so b = |dp| h^3, split half)
    r = 4.0
    h = math.sqrt(2.0 * 10.0 * (r - 0.5))
    assert row.b_hat == pytest.approx(0.5 * r * h**3, rel=1e-12)
    assert row.b_hat > 0.0


def test_discrete_forward_invariance_and_hdot_bound():
    # along a CBF-QP trajectory: h stays >= -tol and dh/dt >= -h^3 - tol
    scen = default_head_on_scenario(t_max=3.0)
    log = run_scenario(scen)
    h = log.h[:, 0]
    assert h.min() >= -1e-3
    dt = scen.dt
    hdot = np.diff(h) / dt
    bound = -h[:-1] ** 3 - 5e-2  # O(dt) slack plus curvature of the early transient
    assert np.all(hdot >= bound)


def test_pair_indices_order():
    assert pair_indices(3) == ((0, 1), (0, 2), (1, 2))
    assert pair_indices(1) == ()
