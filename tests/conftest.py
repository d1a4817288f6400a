"""Expensive canonical runs, shared by the acceptance criteria and the golden-log pins.

Each fixture returns (log, seconds the run took); the scenarios are the ones
demos/scenarios/*.yaml describe.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import settings

from mrdeadlock import default_head_on_scenario, run_scenario, three_robot_cat_a_scenario

# Example counts of the property tests that take theirs from the profile
# (test_audit.py's oracle comparison, test_phase2_newton.py's Jacobian check):
# tier-1 runs the small "tier1" profile, CI reruns those tests with
# --hypothesis-profile=ci.
settings.register_profile("tier1", max_examples=30)
settings.register_profile("ci", max_examples=1000, derandomize=True)
settings.load_profile("tier1")

HEAD_ON = default_head_on_scenario(t_max=30.0)
TWO_ROBOT_RESOLUTION = default_head_on_scenario(controller="three-phase", t_max=80.0)
THREE_ROBOT_RESOLUTION = three_robot_cat_a_scenario(t_max=60.0)


def _timed_run(scenario):
    t0 = time.perf_counter()
    log = run_scenario(scenario)
    return log, time.perf_counter() - t0


@pytest.fixture(scope="session")
def head_on_log():
    return _timed_run(HEAD_ON)


@pytest.fixture(scope="session")
def two_robot_resolution_log():
    return _timed_run(TWO_ROBOT_RESOLUTION)


@pytest.fixture(scope="session")
def three_robot_resolution_log():
    return _timed_run(THREE_ROBOT_RESOLUTION)
