"""Domain types, PD controller and bearing helpers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mrdeadlock import GoalSpec, Params, RobotState, WorldState, goal_bearing, goal_direction, pd_control
from mrdeadlock.core import goal_separation, unit_vector, wrap_angle
from mrdeadlock.errors import ZeroVectorError


def test_pd_control_at_goal_rest_is_zero():
    params = Params(kp=2.0, kv=1.0, ds=0.5, alpha=(5.0,))
    z = RobotState(p=(1.0, -2.0), v=(0.0, 0.0))
    assert pd_control(z, (1.0, -2.0), params) == (0.0, 0.0)


def test_pd_control_proportional_term():
    params = Params(kp=2.0, kv=1.0, ds=0.5, alpha=(5.0,))
    z = RobotState(p=(1.0, 0.0), v=(0.0, 0.0))
    assert pd_control(z, (0.0, 0.0), params) == (-2.0, 0.0)


def test_pd_control_combined_terms():
    # independent evaluation: -kp*(p - pd) - kv*v = -2*1 - 3*1 = -5 on x
    params = Params(kp=2.0, kv=3.0, ds=0.5, alpha=(5.0,))
    z = RobotState(p=(1.0, 0.0), v=(1.0, 0.0))
    assert pd_control(z, (0.0, 0.0), params) == (-5.0, 0.0)


def test_pd_control_linear_in_error_coordinates():
    params = Params(kp=1.7, kv=0.9, ds=0.5, alpha=(5.0,))
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = tuple(rng.uniform(-3, 3, 2))
        v = tuple(rng.uniform(-2, 2, 2))
        s = float(rng.uniform(-4, 4))
        u1 = pd_control(RobotState(p=p, v=v), (0.0, 0.0), params)
        u2 = pd_control(RobotState(p=(s * p[0], s * p[1]), v=(s * v[0], s * v[1])), (0.0, 0.0), params)
        assert math.isclose(u2[0], s * u1[0], rel_tol=0, abs_tol=1e-12)
        assert math.isclose(u2[1], s * u1[1], rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "pd_i,pd_j,expected",
    [
        ((-1.0, 0.0), (1.0, 0.0), 0.0),
        ((0.0, 0.0), (0.0, 2.0), math.pi / 2),
        ((0.0, 0.0), (-1.0, -1.0), math.atan2(-1.0, -1.0)),  # -3*pi/4 by the atan2 oracle
    ],
)
def test_goal_bearing(pd_i, pd_j, expected):
    goals = GoalSpec(pd=(pd_i, pd_j))
    assert goal_bearing(goals, 0, 1) == pytest.approx(expected, abs=1e-15)


def test_goal_bearing_minus_three_quarter_pi_value():
    goals = GoalSpec(pd=((0.0, 0.0), (-1.0, -1.0)))
    assert goal_bearing(goals, 0, 1) == pytest.approx(-3 * math.pi / 4, abs=1e-15)


def test_goal_direction_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = tuple(rng.uniform(-5, 5, 2))
        b = tuple(rng.uniform(-5, 5, 2))
        if math.dist(a, b) < 1e-6:
            continue
        e = goal_direction(GoalSpec(pd=(a, b)), 0, 1)
        assert math.hypot(*e) == pytest.approx(1.0, abs=1e-12)


def test_goal_bearing_same_goal_raises():
    goals = GoalSpec(pd=((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ZeroVectorError):
        goal_bearing(goals, 1, 1)


def test_goal_direction_same_goal_raises():
    goals = GoalSpec(pd=((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ZeroVectorError, match="^goals 0 and 0 coincide; direction undefined$"):
        goal_direction(goals, 0, 0)


def test_goal_separation():
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    assert goal_separation(goals, 0, 1) == 4.0


def test_goalspec_rejects_coincident_goals():
    with pytest.raises(ValueError):
        GoalSpec(pd=((1.0, 1.0), (1.0, 1.0)))


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    rng = np.random.default_rng(11)
    for a in rng.uniform(-50, 50, 200):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_unit_vector():
    e = unit_vector(0.7)
    assert e == (math.cos(0.7), math.sin(0.7))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(kp=0.0, kv=1.0, ds=0.5, alpha=(1.0,))
    with pytest.raises(ValueError):
        Params(kp=1.0, kv=1.0, ds=0.5, alpha=(1.0, -2.0))
    with pytest.raises(ValueError):
        Params(kp=1.0, kv=1.0, ds=0.5, alpha=())


@pytest.mark.parametrize("gain", ["kp", "kv", "ds", "alpha"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_params_reject_non_finite_gains(gain, value):
    kwargs = {"kp": 1.0, "kv": 3.0, "ds": 0.5, "alpha": (5.0,)}
    kwargs[gain] = (value,) if gain == "alpha" else value
    with pytest.raises(ValueError, match=gain):
        Params(**kwargs)


def test_params_overdamped_flag():
    assert Params(kp=1.0, kv=3.0, ds=0.5, alpha=(1.0,)).overdamped
    assert not Params(kp=1.0, kv=2.0, ds=0.5, alpha=(1.0,)).overdamped


def test_robot_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        RobotState(p=(math.nan, 0.0), v=(0.0, 0.0))
    with pytest.raises(ValueError):
        RobotState(p=(0.0, 0.0), v=(math.inf, 0.0))


@pytest.mark.parametrize("goal", [(math.nan, 0.0), (0.0, math.inf), (0.0, -math.inf)])
def test_goalspec_rejects_non_finite_goals(goal):
    with pytest.raises(ValueError, match="goal must be finite"):
        GoalSpec(pd=((1.0, 0.0), goal))


@pytest.mark.parametrize("vec", [(2.0,), (1.0, 2.0, 3.0), (None, 0.0), ("x", 0.0), 2.0])
def test_vectors_must_be_two_numbers(vec):
    with pytest.raises(ValueError, match="robot position must be two numbers"):
        RobotState(p=vec, v=(0.0, 0.0))
    with pytest.raises(ValueError, match="robot velocity must be two numbers"):
        RobotState(p=(0.0, 0.0), v=vec)
    with pytest.raises(ValueError, match="goal must be two numbers"):
        GoalSpec(pd=(vec,))


def test_types_are_immutable():
    z = RobotState(p=(0.0, 0.0), v=(0.0, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        z.p = (1.0, 1.0)  # type: ignore[misc]
    w = WorldState(robots=(z,), t=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.t = 1.0  # type: ignore[misc]


def test_world_state_requires_a_robot():
    with pytest.raises(ValueError):
        WorldState(robots=(), t=0.0)


@pytest.mark.parametrize(
    "vec", [(True, "0.5"), ("1", False), (True, 0.0), (0.0, False), ("1", 0.0), (np.bool_(True), 0.0)]
)
def test_vectors_reject_bools_and_strings(vec):
    with pytest.raises(ValueError, match="robot position must be two numbers"):
        RobotState(p=vec, v=(0, 0))
    with pytest.raises(ValueError, match="robot velocity must be two numbers"):
        RobotState(p=(0, 0), v=vec)
    with pytest.raises(ValueError, match="goal must be two numbers"):
        GoalSpec(pd=(vec,))


@pytest.mark.parametrize("gain", ["kp", "kv", "ds", "alpha"])
@pytest.mark.parametrize("value", [True, "5", None, np.bool_(True), 10**400])
def test_params_reject_bools_non_numbers_and_huge_ints(gain, value):
    kwargs = {"kp": 1.0, "kv": 3.0, "ds": 0.5, "alpha": (5.0, 5.0)}
    kwargs[gain] = (value, 5.0) if gain == "alpha" else value
    with pytest.raises(ValueError, match=gain):
        Params(**kwargs)


# a mapping once passed as its keys, and a set drops a repeated alpha
@pytest.mark.parametrize("alpha", [5.0, None, "55", {5.0: "x", 4.0: "y"}, {5.0}])
def test_params_reject_an_alpha_that_is_no_sequence_of_numbers(alpha):
    with pytest.raises(ValueError, match="alpha"):
        Params(kp=1.0, kv=3.0, ds=0.5, alpha=alpha)


def test_ints_and_numpy_scalars_pass_as_floats():
    z = RobotState(p=(1, np.float32(0.5)), v=(np.int64(-2), 0.25))
    assert z == RobotState(p=(1.0, 0.5), v=(-2.0, 0.25))
    assert all(type(c) is float for c in (*z.p, *z.v))
    assert GoalSpec(pd=((np.int64(3), 1),)).pd == ((3.0, 1.0),)
    params = Params(kp=1, kv=np.float64(3.0), ds=np.float32(0.5), alpha=(np.int64(5), 4))
    assert params == Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 4.0))
    assert all(type(x) is float for x in (params.kp, params.kv, params.ds, *params.alpha))
