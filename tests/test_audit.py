"""The whole-array audit_log: equal to the record-by-record oracle, independent of the run's pair pass."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from audit_oracle import oracle_audit, tampered, tamperings
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    Scenario,
    SimulationAbort,
    audit_log,
    cbf,
    collinear_family,
    default_head_on_scenario,
    run_scenario,
    sim,
    three_robot_family_catA,
    three_robot_family_catB,
)
from mrdeadlock.errors import BoundarySingularityError, CoincidentRobotsError, SafetyViolationError
from mrdeadlock.sim import CONTROLLERS, TrajectoryLog, scenario_from_dict, scenario_to_dict

# the oracle raises these where audit_log counts a bad record
GEOMETRY_ERRORS = (CoincidentRobotsError, SafetyViolationError, BoundarySingularityError)


def _assert_matches_oracle(log):
    report = audit_log(log)
    try:
        expected = oracle_audit(log)
    except GEOMETRY_ERRORS:
        assert report.bad_records >= 1 and not report.ok
    else:
        assert report == expected
    return report


def _ring(n: int, gap: float, t_max: float) -> Scenario:
    ds = 0.5
    radius = ds * (1.0 + gap) / (2.0 * math.sin(math.pi / n))
    points = [(radius * math.cos(2.0 * math.pi * k / n), radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)]
    return Scenario(
        params=Params(kp=1.0, kv=3.0, ds=ds, alpha=(5.0,) * n),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=tuple((-x, -y) for x, y in points)),
        controller="cbf-qp-only",
        t_max=t_max,
    )


# ---------------------------------------------------------------------------
# equal to the oracle
# ---------------------------------------------------------------------------

_GAINS = ((1.0, 3.0), (0.5, 2.0), (2.0, 4.0))   # (kp, kv), all overdamped
_coord = st.floats(-2.0, 2.0, allow_nan=False)
_speed = st.floats(-0.3, 0.3, allow_nan=False)


@st.composite
def _scenarios(draw) -> Scenario:
    """Short runs of 2 to 4 robots, free or from a deadlock family, under any controller."""
    kp, kv = draw(st.sampled_from(_GAINS))
    start = draw(st.sampled_from(("free", "collinear", "catA", "catB")))
    controller = draw(st.sampled_from(CONTROLLERS))
    clock = {"t_max": draw(st.floats(0.02, 0.2)), "log_every": draw(st.integers(1, 7))}
    try:
        if start == "free":
            n = draw(st.integers(2, 4))
            params = Params(kp=kp, kv=kv, ds=0.5, alpha=tuple(draw(st.floats(2.0, 6.0)) for _ in range(n)))
            points = draw(st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n))
            moving = draw(st.lists(st.tuples(_speed, _speed), min_size=n, max_size=n))
            initial = tuple(RobotState(p, v) for p, v in zip(points, moving))
            goals = GoalSpec(pd=draw(st.one_of(
                st.just(tuple(reversed(points))),
                st.lists(st.tuples(_coord, _coord), min_size=n, max_size=n, unique=True),
            )))
        elif start == "collinear":
            params = Params(kp=kp, kv=kv, ds=0.5, alpha=(5.0, 5.0))
            goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
            initial = collinear_family(goals, params, draw(st.floats(0.1, 0.9)))
        else:
            params = Params(kp=kp, kv=kv, ds=0.5, alpha=(5.0,) * 3)
            family = three_robot_family_catA if start == "catA" else three_robot_family_catB
            world, goals = family(params, 2.0)
            initial = world.robots
        return Scenario(params=params, initial=initial, goals=goals, controller=controller, **clock)
    except ValueError:   # robots inside the margin, coincident goals, or a start outside the safe set
        return None


# One in-array edit: (array, record fraction, element fraction, value index).
_edits = st.tuples(
    st.sampled_from(("t", "pos", "vel", "u_star", "u_hat", "h", "mu", "active", "phase", "onto")),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 5),
)
_FLOAT_EDITS = (lambda x: 0.0, lambda x: x + 1e-13, lambda x: x + 1e-6, lambda x: x + 1.0,
                lambda x: math.nan, lambda x: math.inf)


def _apply(log: TrajectoryLog, edit) -> None:
    name, at_record, at_element, value = edit
    k = int(at_record * log.n_records)
    if name == "onto":
        # move a robot onto another, to the margin, or inside it
        i = int(at_element * log.n_robots)
        offset = (0.0, 0.1, 0.3, 0.5, 0.5 + 1e-13, 0.6)[value]
        log.pos[k, i] = log.pos[k, (i + 1) % log.n_robots] + (offset, 0.0)
        return
    array = getattr(log, name)
    index = (k, *np.unravel_index(int(at_element * array[k].size), array[k].shape))
    if name == "phase":
        array[index] = value % 4
    elif name == "active":
        array[index] = (0, 1, 2, 12345, 1 << 66, array[index] ^ 1)[value]
    else:
        array[index] = _FLOAT_EDITS[value](float(array[index]))


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(_scenarios(), st.lists(_edits, max_size=3))
def test_audit_matches_the_oracle_on_random_runs(scen, edits):
    assume(scen is not None)
    try:
        log = run_scenario(scen)
    except SimulationAbort:
        assume(False)
    report = _assert_matches_oracle(log)
    if not edits:
        assert report.ok
    for edit in edits:
        _apply(log, edit)
    _assert_matches_oracle(log)


@pytest.mark.parametrize("fixture", ["head_on_log", "two_robot_resolution_log", "three_robot_resolution_log"])
def test_audit_matches_the_oracle_on_the_canonical_logs(request, fixture):
    log, _ = request.getfixturevalue(fixture)
    assert _assert_matches_oracle(log).ok


def test_audit_matches_the_oracle_on_a_64_robot_ring():
    # box rows 63..66 of every QP: a mask has 67 bits
    log = run_scenario(_ring(64, 0.3, 2e-3))
    assert max(int(mask) for mask in log.active.ravel()).bit_length() > 64
    assert _assert_matches_oracle(log).ok
    log.active[1, 5] ^= 1 << 66
    assert _assert_matches_oracle(log).bad_records == 1


def test_audit_matches_the_oracle_on_every_tampering():
    log = run_scenario(default_head_on_scenario(t_max=0.3))
    for edits in tamperings(log):
        assert not _assert_matches_oracle(tampered(log, edits)).ok, edits


def test_audit_does_not_depend_on_the_chunk_size(monkeypatch):
    # 3 two-robot records a chunk: the clock and phase rules of record 6 read
    # record 5, in the chunk before
    monkeypatch.setattr(sim, "_AUDIT_CHUNK_ENTRIES", 3 * 2 * 5)
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    start = collinear_family(goals, params, 0.5)
    log = run_scenario(Scenario(params, start, goals, controller="three-phase", t_max=0.5, log_every=7))
    assert list(log.phase[:3]) == [1, 1, 2]
    logs = [log, tampered(log, [("phase", 6, 1)]), tampered(log, [("t", 6, log.t[5])])]
    head_on = run_scenario(default_head_on_scenario(t_max=0.3))
    logs += [tampered(head_on, edits) for edits in tamperings(head_on)]
    assert [_assert_matches_oracle(log).ok for log in logs] == [True] + [False] * 12


@pytest.mark.parametrize(
    "offset, error",
    [(0.0, CoincidentRobotsError), (0.3, SafetyViolationError), (0.5 + 1e-13, BoundarySingularityError)],
    ids=["coincident", "inside-the-margin", "on-the-margin-closing"],
)
def test_audit_counts_a_record_with_undefined_geometry_as_bad(offset, error):
    # robot 1 of a moving phase-1 record put offset ahead of robot 0
    log = run_scenario(default_head_on_scenario(t_max=0.05))
    log.pos[30, 1] = log.pos[30, 0] + (offset, 0.0)
    with pytest.raises(error):
        oracle_audit(log)
    report = audit_log(log)
    # the record's logged h no longer fits its state, but it is left out
    assert report.bad_records == 1 and report.h_match_max == 0.0 and not report.ok


def test_audit_h_min_shows_a_record_inside_the_margin():
    # robot 1 of record 3 put 0.3 m ahead of robot 0, 0.2 m inside the margin:
    # the record is bad, and its h is the lowest of the log
    log = run_scenario(default_head_on_scenario(t_max=0.3))
    log.pos[3, 1] = log.pos[3, 0] + (0.3, 0.0)
    with pytest.raises(SafetyViolationError):
        oracle_audit(log)
    params = scenario_from_dict(log.meta["scenario"]).params
    lowest = min(min(cbf.PairField(log.world_at(k), params).h) for k in range(log.n_records))
    report = audit_log(log)
    assert report.h_min == lowest < 0.0
    assert report.bad_records == 1 and not report.ok


# ---------------------------------------------------------------------------
# what the oracle cannot do
# ---------------------------------------------------------------------------

def test_audit_fails_a_log_of_a_faulty_pair_pass(monkeypatch):
    # the run and the oracle share PairField, so the oracle passes this log
    bounds, h = cbf.PairField.bounds, cbf.PairField.h.fget
    monkeypatch.setattr(cbf.PairField, "bounds", lambda self: tuple(0.9 * b for b in bounds(self)))
    monkeypatch.setattr(cbf.PairField, "h", property(lambda self: tuple(x * (1.0 + 1e-9) for x in h(self))))
    log = run_scenario(default_head_on_scenario(t_max=2.0))
    assert oracle_audit(log).ok
    report = audit_log(log)
    assert not report.ok
    assert report.h_match_max > 1e-10 and report.kkt_max_residual > 1e-3


def test_audit_memory_is_bounded_on_a_long_64_robot_log():
    # the ring's first, at-rest state held for 1 000 steps of the clock
    dt, records = 1e-3, 1000
    one = run_scenario(_ring(64, 0.3, 2e-3))
    arrays = {name: np.repeat(getattr(one, name)[:1], records, axis=0)
              for name in ("pos", "vel", "u_star", "u_hat", "h", "mu", "active", "phase")}
    scen = scenario_to_dict(_ring(64, 0.3, (records - 1) * dt))
    log = TrajectoryLog(t=np.arange(records) * dt, **arrays, events=[], meta={"scenario": scen})
    tracemalloc.start()
    try:
        report = audit_log(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.n_records == records
    assert log.mu.nbytes > 30e6 and peak < 16e6
