"""Expensive canonical runs, shared by the acceptance criteria and the golden-log pins.

Each fixture returns (result, seconds the run took); the scenarios are the ones
demos/scenarios/*.yaml describe.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import settings

from mrdeadlock import (
    GoalSpec,
    PairField,
    Params,
    RobotState,
    Scenario,
    default_head_on_scenario,
    pd_control,
    run_scenario,
    supervisor_step,
    three_robot_cat_a_scenario,
    three_robot_family_catB,
)
from mrdeadlock.resolution import ResolutionConfig
from oracles import simulate_relative_pd

# Example counts of the property tests that take theirs from the profile:
# tier-1 runs the small "tier1" profile, and CI reruns the ones marked
# ci_profile with -m ci_profile --hypothesis-profile=ci.
settings.register_profile("tier1", max_examples=30)
settings.register_profile("ci", max_examples=1000, derandomize=True)
settings.load_profile("tier1")

HEAD_ON = default_head_on_scenario(t_max=30.0)
TWO_ROBOT_RESOLUTION = default_head_on_scenario(controller="three-phase", t_max=80.0)
THREE_ROBOT_RESOLUTION = three_robot_cat_a_scenario(t_max=60.0)


def _category_b_resolution() -> Scenario:
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    world, goals = three_robot_family_catB(params, 2.0)
    return Scenario(
        params=params, initial=world.robots, goals=goals, controller="three-phase", t_max=9.5,
        resolution=ResolutionConfig(kp2=16.0, kv2=10.0), log_every=10,
    )


CATEGORY_B_RESOLUTION = _category_b_resolution()


def _ring(n: int, spacing: float, phase: float, alpha: tuple[float, ...], t_max: float) -> Scenario:
    """n robots at rest on a circle, neighbors spacing * Ds apart, antipodal goals."""
    ds = 0.5
    radius = ds * spacing / (2.0 * math.sin(math.pi / n))
    points = [
        (radius * math.cos(phase + 2.0 * math.pi * k / n), radius * math.sin(phase + 2.0 * math.pi * k / n))
        for k in range(n)
    ]
    return Scenario(
        params=Params(kp=1.0, kv=3.0, ds=ds, alpha=alpha),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=tuple((-x, -y) for x, y in points)),
        controller="cbf-qp-only",
        t_max=t_max,
    )


# 16 robots, neighbors 2 % outside contact, unequal alphas, 30 steps: each QP
# has 15 neighbor rows, most of them implied by the acceleration box.
RING16 = _ring(16, 1.02, 0.1, tuple(4.5 + (3 * k % 7) / 6 for k in range(16)), 0.03)
# 8 robots, neighbors 3 % outside contact, unequal alphas, 60 steps, as in
# the crowd_ring benchmark's smallest ring: QPs built over arrays, some rows
# set aside.
RING8 = _ring(8, 1.03, 0.7, tuple(4.5 + (5 * k % 8) / 8 for k in range(8)), 0.06)


def supervise(state, world, goals, params, dt, config=ResolutionConfig()):
    """One supervisor_step as run_scenario takes it, handed the pair pass and PD references of world."""
    u_hat = [pd_control(world.robots[i], goals.pd[i], params) for i in range(world.n)]
    return supervisor_step(state, world, goals, params, dt, config, PairField(world, params), u_hat)


def _timed(run, *args):
    t0 = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - t0


def _timed_run(scenario):
    return _timed(run_scenario, scenario)


@pytest.fixture(scope="session")
def head_on_log():
    return _timed_run(HEAD_ON)


@pytest.fixture(scope="session")
def two_robot_resolution_log():
    return _timed_run(TWO_ROBOT_RESOLUTION)


@pytest.fixture(scope="session")
def three_robot_resolution_log():
    return _timed_run(THREE_ROBOT_RESOLUTION)


@pytest.fixture(scope="session")
def category_b_resolution_log():
    return _timed_run(CATEGORY_B_RESOLUTION)


@pytest.fixture(scope="session")
def ring16_log():
    return _timed_run(RING16)


@pytest.fixture(scope="session")
def ring8_log():
    return _timed_run(RING8)


@pytest.fixture(scope="session")
def phase3_relative_run():
    """The phase-3 relative dynamics from Ds = 0.5 at rest to D_G = 2 along x, kp = 1, kv = 3.

    500 000 semi-implicit Euler steps of dt = 2e-5 (10 s), sampled every 500
    steps; (ts, ps, vs)[::4] and [::5] are the samples every 2 000 and 2 500 steps.
    """
    dt = 2e-5
    n = int(round(10.0 / dt))
    return _timed(simulate_relative_pd, (0.5, 0.0), (0.0, 0.0), (2.0, 0.0), 1.0, 3.0, dt, n, n // 1000)
