"""Expensive canonical runs, shared by the acceptance criteria and the golden-log pins.

Each fixture returns (result, seconds the run took); the scenarios are the ones
demos/scenarios/*.yaml describe.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import settings

from mrdeadlock import (
    default_head_on_scenario,
    run_scenario,
    three_robot_cat_a_scenario,
)
from oracles import simulate_relative_pd

# Example counts of the property tests that take theirs from the profile
# (test_audit.py's oracle comparison, test_phase2_newton.py's Jacobian check,
# test_sim.py's integrator check against euler_step, test_pair_field.py's QP
# check against assemble_qp, test_qp.py's checked constructor against
# flat_problem, test_graphenum.py's pair walk against the two-loop penalty):
# tier-1 runs the small "tier1" profile, CI reruns those tests with
# --hypothesis-profile=ci.
settings.register_profile("tier1", max_examples=30)
settings.register_profile("ci", max_examples=1000, derandomize=True)
settings.load_profile("tier1")

HEAD_ON = default_head_on_scenario(t_max=30.0)
TWO_ROBOT_RESOLUTION = default_head_on_scenario(controller="three-phase", t_max=80.0)
THREE_ROBOT_RESOLUTION = three_robot_cat_a_scenario(t_max=60.0)


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
def phase3_relative_run():
    """The phase-3 relative dynamics from Ds = 0.5 at rest to D_G = 2 along x, kp = 1, kv = 3.

    500 000 semi-implicit Euler steps of dt = 2e-5 (10 s), sampled every 500
    steps; (ts, ps, vs)[::4] and [::5] are the samples every 2 000 and 2 500 steps.
    """
    dt = 2e-5
    n = int(round(10.0 / dt))
    return _timed(simulate_relative_pd, (0.5, 0.0), (0.0, 0.0), (2.0, 0.0), 1.0, 3.0, dt, n, n // 1000)
