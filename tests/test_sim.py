"""Integration loop, scenario files, log export and audits."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    Scenario,
    WorldState,
    audit_log,
    catB_parametrized,
    collinear_family,
    default_head_on_scenario,
    export_log,
    integrate_step,
    load_log,
    load_scenario,
    run_scenario,
    save_scenario,
    three_robot_cat_a_scenario,
    three_robot_family_catA,
)
from mrdeadlock import logio, resolution, sim
from mrdeadlock.cbf import pair_indices
from mrdeadlock.core import euler_step
from mrdeadlock.errors import (
    BoundarySingularityError,
    CoincidentRobotsError,
    QPInfeasibleError,
    SafetyViolationError,
    SimulationAbort,
    UnsupportedScenarioError,
    ZeroVectorError,
)
from mrdeadlock.cli import main
from mrdeadlock.logio import (
    _PARAMS_KEYS,
    _RECORD_LAYOUT,
    _RESOLUTION_KEYS,
    _SCENARIO_KEYS,
    _Recorder,
    log_to_json,
    scenario_from_dict,
    scenario_to_dict,
)
from mrdeadlock.qp import QPSolution
from mrdeadlock.resolution import K_PERSIST, ResolutionConfig
from mrdeadlock.sim import STOP_GOAL_TOL
from oracles import DenseRecorder


def test_integrate_step_equilibrium():
    world = WorldState(robots=(RobotState.at_rest((1.0, 2.0)),), t=0.0)
    nxt = integrate_step(world, ((0.0, 0.0),), 0.1)
    assert nxt.robots[0].p == (1.0, 2.0)
    assert nxt.robots[0].v == (0.0, 0.0)
    assert nxt.t == pytest.approx(0.1)


def test_integrate_step_one_step_arithmetic():
    world = WorldState(robots=(RobotState(p=(0.0, 0.0), v=(0.0, 0.0)),), t=0.0)
    nxt = integrate_step(world, ((1.0, 0.0),), 0.1)
    assert nxt.robots[0].v == pytest.approx((0.1, 0.0))
    assert nxt.robots[0].p == pytest.approx((0.01, 0.0))


finite = st.floats(allow_nan=False, allow_infinity=False)
# moderate numbers, and any finite float (which often overflows the step)
numbers = st.one_of(st.floats(-10.0, 10.0), finite)
vectors = st.tuples(numbers, numbers)


def _bits(robots) -> list[str]:
    return [x.hex() for z in robots for x in (*z.p, *z.v)]


@pytest.mark.ci_profile
@settings(deadline=None)
@given(st.lists(st.tuples(vectors, vectors, vectors), min_size=1, max_size=3), numbers, st.floats(0.0, 100.0))
# the control overflows the velocity, and with it the position
@example([((0.0, 0.0), (0.0, -0.0), (1e308, 0.0))], 10.0, 0.0)
# signed zeros: -0.0 + dt * -0.0 stays -0.0
@example([((-0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0))], 0.001, 0.0)
def test_integrate_step_is_euler_step_bit_for_bit(robots, dt, t):
    world = WorldState(robots=tuple(RobotState(p, v) for p, v, _ in robots), t=t)
    controls = tuple(u for _, _, u in robots)
    if not dt > 0.0:
        with pytest.raises(ValueError, match="^dt must be finite and > 0"):
            integrate_step(world, controls, dt)
        return
    try:
        expected = [RobotState(*euler_step(z.p, z.v, u, dt)) for z, u in zip(world.robots, controls)]
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            integrate_step(world, controls, dt)
        assert str(err.value) == str(exc)
        return
    nxt = integrate_step(world, controls, dt)
    assert _bits(nxt.robots) == _bits(expected)
    assert nxt.t.hex() == (t + dt).hex()


@pytest.mark.parametrize(
    "n_controls, dt, message",
    [
        (1, 1e-3, "^1 controls for 2 robots"),
        (3, 1e-3, "^3 controls for 2 robots"),
        (2, -1.0, "^dt must be finite and > 0"),
        (2, 0.0, "^dt must be finite and > 0"),
        (2, math.nan, "^dt must be finite and > 0"),
        (2, math.inf, "^dt must be finite and > 0"),
        (2, True, "^dt must be a number"),
    ],
    ids=["one-control", "three-controls", "negative-dt", "zero-dt", "nan-dt", "inf-dt", "bool-dt"],
)
def test_integrate_step_rejects_a_control_count_or_dt_it_cannot_step(n_controls, dt, message):
    world = WorldState(robots=collinear_family(GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
                                               Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0)), 0.5), t=0.0)
    with pytest.raises(ValueError, match=message):
        integrate_step(world, ((0.0, 0.0),) * n_controls, dt)


def test_integrate_step_first_order_convergence():
    # constant acceleration: error vs the exact parabola shrinks like O(dt)
    u = (0.7, -0.3)
    t_final = 1.0
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        world = WorldState(robots=(RobotState(p=(0.0, 0.0), v=(0.2, 0.1)),), t=0.0)
        for _ in range(int(round(t_final / dt))):
            world = integrate_step(world, (u,), dt)
        exact = (0.2 * t_final + 0.5 * u[0], 0.1 * t_final + 0.5 * u[1])
        errors.append(math.dist(world.robots[0].p, exact))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] == pytest.approx(4.0, rel=0.2)


def test_run_is_deterministic_byte_identical_json():
    scen = default_head_on_scenario(t_max=1.0)
    j1 = log_to_json(run_scenario(scen))
    j2 = log_to_json(run_scenario(scen))
    assert j1 == j2


def test_single_robot_pd_only_monotone_convergence():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,))
    scen = Scenario(
        params=params,
        initial=(RobotState.at_rest((0.0, 0.0)),),
        goals=GoalSpec(pd=((1.5, -0.5),)),
        controller="pd-only",
        t_max=35.0,
    )
    log = run_scenario(scen)
    assert [e["name"] for e in log.events] == ["goals-reached"]
    err = np.hypot(log.pos[:, 0, 0] - 1.5, log.pos[:, 0, 1] + 0.5)
    assert np.all(np.diff(err) <= 1e-15)  # overdamped from rest: monotone decay
    # cross-check against the closed-form overdamped kernel at a few times
    w1 = 0.5 * (-3.0 + math.sqrt(5.0))
    w2 = 0.5 * (-3.0 - math.sqrt(5.0))
    for k in (100, 1000, 5000):
        t = log.t[k]
        kernel = (w1 * math.exp(w2 * t) - w2 * math.exp(w1 * t)) / (w1 - w2)
        assert err[k] == pytest.approx(err[0] * kernel, rel=2e-3)


def _csv_rows(log, path) -> tuple[list[str], list[list[str]]]:
    export_log(log, "csv", str(path))
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_phase_h_mu_cells(log, header, rows):
    # one row per record per robot; the phase, h_i_j and mu_i_j cells of record k
    assert len(rows) == log.n_records * log.n_robots
    for r, row in enumerate(rows):
        k = r // log.n_robots
        cells = dict(zip(header, row))
        assert cells["phase"] == repr(log.phase[k].item())
        for c, (i, j) in enumerate(pair_indices(log.n_robots)):
            assert cells[f"h_{i}_{j}"] == repr(log.h[k, c].item())
            assert cells[f"mu_{i}_{j}"] == repr(log.mu[k, i, j - 1].item())


def test_csv_export_shape_and_columns(tmp_path):
    scen = three_robot_cat_a_scenario(controller="cbf-qp-only", t_max=0.1)
    log = run_scenario(scen)
    assert log.n_records == 101
    header, rows = _csv_rows(log, tmp_path / "log.csv")
    assert header[:11] == [
        "t", "robot_id", "px", "py", "vx", "vy",
        "ux_star", "uy_star", "ux_hat", "uy_hat", "phase",
    ]
    assert header[11:] == ["h_0_1", "h_0_2", "h_1_2", "mu_0_1", "mu_0_2", "mu_1_2"]
    assert log.mu.max() > 0.0
    _assert_phase_h_mu_cells(log, header, rows)


def test_csv_export_pd_only_cells(tmp_path):
    log = run_scenario(default_head_on_scenario(controller="pd-only", t_max=0.05))
    header, rows = _csv_rows(log, tmp_path / "log.csv")
    assert {row[header.index("phase")] for row in rows} == {"3"}
    _assert_phase_h_mu_cells(log, header, rows)


def test_csv_export_empty_log_header_only(tmp_path):
    rec = _Recorder(2)
    log = rec.build([], {"scenario": scenario_to_dict(default_head_on_scenario())})
    path = tmp_path / "empty.csv"
    export_log(log, "csv", str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("t,robot_id,")


def test_a_log_without_records_round_trips_and_fails_the_audit(tmp_path, capsys):
    # every run records its first state, so a log without one is no run's
    log = _Recorder(2).build([], {"scenario": scenario_to_dict(default_head_on_scenario())})
    path = tmp_path / "empty.json"
    export_log(log, "json", str(path))
    back = load_log(str(path))
    for name, (dtype, shape) in _RECORD_LAYOUT.items():
        assert getattr(back, name).shape == (0, *shape(2)) and getattr(back, name).dtype == dtype
    assert log_to_json(back) == path.read_text(encoding="utf-8")
    assert not audit_log(log).ok and not audit_log(back).ok
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "records: 0"


def _same_records(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b have one dtype and shape, and the same bits (the masks, Python ints, compare by ==)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return bool((a == b).all()) if a.dtype == object else a.tobytes() == b.tobytes()


def test_recorder_across_block_edges_logs_the_same(monkeypatch):
    scen = default_head_on_scenario(t_max=0.02)
    expected = log_to_json(run_scenario(scen))
    # a two-robot record holds 31 entries: blocks of 6 records, so the 21 records make four blocks
    monkeypatch.setattr(logio, "_EXPORT_CHUNK_ENTRIES", 6 * 31)
    flushed = []
    flush = _Recorder._flush
    monkeypatch.setattr(_Recorder, "_flush", lambda rec: flushed.append(len(rec.lists["t"])) or flush(rec))
    log = run_scenario(scen)
    monkeypatch.undo()
    assert flushed == [6, 6, 6, 3]
    assert log_to_json(log) == expected


def test_recorder_memory_is_bounded_by_its_arrays():
    # each push brings new floats, as a run's steps do; the lists hold one block of them
    sol = QPSolution(u_star=(0.5, -0.25), mu_star=(1.5, 0.0, 0.0, 0.0, 0.0), active_set=(0,), status="optimal")
    rec = _Recorder(2)
    tracemalloc.start()
    try:
        for k in range(20_000):
            x = k * 1e-3
            robots = (RobotState(p=(x, 0.5), v=(x + 1.0, 0.0)), RobotState(p=(-x, 0.25), v=(0.0, x - 1.0)))
            rec.push(WorldState(robots=robots, t=x), ((x, 0.5), (0.5, x)), ((-x, 1.0), (1.0, -x)), (x + 2.0,),
                     (sol, sol) if k % 3 else None, 1)
        log = rec.build([], {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.n_records == 20_000
    assert peak <= 2.1 * sum(getattr(log, name).nbytes for name in _RECORD_LAYOUT)


_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _recorder_feed(n: int, pool: list[float], seed: int, records: int) -> tuple[int, list[tuple]]:
    """(n, the push arguments of records records), every float drawn from pool by Random(seed).

    A quarter of the steps carry no QP solutions; half of the solutions
    have their last box row active, whose bit at n = 64 is 2**66.
    """
    rng = random.Random(seed)

    def vecs(count):
        return tuple((rng.choice(pool), rng.choice(pool)) for _ in range(count))

    def solution():
        active = set(rng.sample(range(n + 3), rng.randint(0, 3)))
        if rng.random() < 0.5:
            active.add(n + 2)
        mu = tuple(rng.choice(pool) for _ in range(n + 3))
        return QPSolution(u_star=(0.0, 0.0), mu_star=mu, active_set=tuple(sorted(active)), status="optimal")

    pushes = []
    for _ in range(records):
        world = WorldState(robots=tuple(RobotState(p=p, v=v) for p, v in zip(vecs(n), vecs(n))), t=rng.choice(pool))
        solutions = None if rng.random() < 0.25 else tuple(solution() for _ in range(n))
        h = tuple(rng.choice(pool) for _ in range(n * (n - 1) // 2))
        pushes.append((world, vecs(n), vecs(n), h, solutions, rng.randint(1, 3)))
    return n, pushes


@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(
    st.builds(_recorder_feed, st.integers(1, 12), st.lists(_FLOATS, min_size=1, max_size=8),
              st.integers(0, 2**32 - 1), st.integers(0, 30)),
    st.integers(1, 400),
)
# 64 robots, 6 882 entries a record: blocks of 2 records, masks past 2**64
@example(_recorder_feed(64, [-0.0, 5e-324, 1e308, -1e308, 0.1], 7, 5), 2 * 6882)
def test_recorder_builds_the_dense_recorders_arrays(feed, entries):
    n, pushes = feed
    with mock.patch.object(logio, "_EXPORT_CHUNK_ENTRIES", entries):
        rec = _Recorder(n)
        dense = DenseRecorder(n, capacity=max(1, len(pushes) // 3), first_capacity=4)
        for args in pushes:
            rec.push(*args)
            dense.push(*args)
        log, expected = rec.build([], {}), dense.build([], {})
    if n == 64 and pushes:
        assert max(log.active.flat) > 2**64
    for name in _RECORD_LAYOUT:
        assert _same_records(getattr(log, name), getattr(expected, name)), name


def test_json_round_trip(tmp_path):
    scen = default_head_on_scenario(t_max=0.5)
    log = run_scenario(scen)
    path = tmp_path / "log.json"
    export_log(log, "json", str(path))
    back = load_log(str(path))
    assert np.array_equal(back.t, log.t)
    assert np.array_equal(back.pos, log.pos)
    assert np.array_equal(back.mu, log.mu)
    assert back.events == log.events
    assert back.meta == log.meta
    assert log_to_json(back) == log_to_json(log)


def test_record_layout_lists_every_log_array():
    log = run_scenario(default_head_on_scenario(t_max=0.05))
    assert set(json.loads(log_to_json(log))) == {*_RECORD_LAYOUT, "meta", "events"}
    for name, (dtype, shape) in _RECORD_LAYOUT.items():
        array = getattr(log, name)
        assert array.dtype == dtype and array.shape == (log.n_records, *shape(2))


def test_audit_recomputation_agrees_and_detects_tampering():
    scen = default_head_on_scenario(t_max=1.0)
    log = run_scenario(scen)
    report = audit_log(log)
    assert report.ok
    assert report.h_match_max <= 1e-12
    assert report.kkt_max_residual is not None and report.kkt_max_residual <= 1e-8
    log.h[5, 0] += 1e-6
    assert not audit_log(log).ok


def test_audit_reads_the_clock_of_a_run_that_ends_half_a_step_late():
    # 0.0095 / 0.001 rounds up to 10 steps: the last record sits at 0.010000000000000002,
    # past t_max + dt / 2, yet it is the run's own last step
    log = run_scenario(default_head_on_scenario(t_max=0.0095))
    assert log.t[-1] > 0.0095 + 0.001 / 2
    assert audit_log(log).ok


def test_audit_counts_a_nan_position_as_a_bad_record():
    log = run_scenario(default_head_on_scenario(t_max=0.05))
    log.pos[3, 1, 0] = math.nan
    report = audit_log(log)
    assert not report.ok and report.bad_records == 1


def test_pd_only_head_on_aborts_on_safety_violation():
    scen = default_head_on_scenario(controller="pd-only", t_max=10.0)
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "safety-violation"


def test_overflowing_state_aborts_with_the_last_finite_snapshot():
    # kp = 1e300 is finite, but the second step's control overflows to -inf
    scen = Scenario(
        params=Params(kp=1e300, kv=3.0, ds=0.5, alpha=(5.0, 5.0)),
        initial=(RobotState.at_rest((-2.0, 0.0)), RobotState.at_rest((2.0, 0.0))),
        goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
        controller="pd-only",
        t_max=1.0,
    )
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "non-finite-state"
    snap = err.value.snapshot
    assert snap["t"] == scen.dt
    assert all(math.isfinite(x) for vec in (*snap["p"], *snap["v"]) for x in vec)
    assert snap["p"][0][0] > 1e290   # the first step's overshoot, still finite


@pytest.mark.parametrize("controller", ["cbf-qp-only", "three-phase"])
def test_penetration_below_abort_tolerance_aborts_with_snapshot(controller):
    # inside the margin by more than the boundary snap but less than
    # ABORT_DIST_TOL: Scenario accepts the start, assembling the first QP fails
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    scen = Scenario(
        params=params,
        initial=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.5 - 5e-10, 0.0))),
        goals=GoalSpec(pd=((-2.0, 0.0), (2.0, 0.0))),
        controller=controller,
        t_max=1.0,
    )
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "safety-violation"
    assert err.value.snapshot["t"] == 0.0
    assert err.value.snapshot["p"] == [(0.0, 0.0), (0.5 - 5e-10, 0.0)]


# (ds, robot 1 at, robot 1 velocity, abort kind): on the margin plus 1e-10
# while closing at 0.5 mm/s, the bound's middle term is singular (closing
# faster would start outside the safe set: h below AUDIT_H_FLOOR, which
# Scenario rejects); with a 1e-10 margin, Scenario accepts two coincident
# robots.
GEOMETRY_CASES = {
    "boundary-singularity": (0.5, (0.5 + 1e-10, 0.0), (-5e-4, 0.0)),
    "coincident-robots": (1e-10, (0.0, 0.0), (0.0, 0.0)),
}


def test_scenario_rejects_a_start_outside_the_safe_set():
    # 0.564 m apart, outside Ds, but closing so fast that h(0) = -0.0337: the
    # run's log would fail its own audit on the floor
    params = Params(kp=1.0, kv=2.0, ds=0.5, alpha=(1.0, 1.0))
    initial = (
        RobotState(p=(-2.6129850240880828, -2.5131567296204693), v=(-0.3178989990273644, -0.12578286025481833)),
        RobotState(p=(-2.1410527163829163, -2.8225773207216682), v=(-0.4823188413530537, 0.6099857289422843)),
    )
    goals = GoalSpec(pd=((-0.746052048048806, -0.12313706986750805), (0.13658240372139874, -2.1888249173916394)))
    with pytest.raises(ValueError, match=r"initial robots 0,1 start outside the safe set: h = -0\.0336831 < -0\.001"):
        Scenario(params=params, initial=initial, goals=goals, t_max=3.0)
    # 0.51 m apart, closing at 3 m/s
    initial = (RobotState(p=(0.0, 0.0), v=(1.5, 0.0)), RobotState(p=(0.51, 0.0), v=(-1.5, 0.0)))
    with pytest.raises(ValueError, match=r"initial robots 0,1 start outside the safe set: h = -2\.55279"):
        Scenario(params=Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0)), initial=initial, goals=goals)


def test_scenario_admits_the_deadlock_family_starts():
    # their contact pairs have h = 0 up to rounding
    params2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    params3 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    starts = [(params2, collinear_family(goals2, params2, float(a)), goals2) for a in np.linspace(0.0, 1.0, 12)[1:-1]]
    world, goals = three_robot_family_catA(params3, 2.0)
    starts.append((params3, world.robots, goals))
    for theta in np.linspace(-math.pi / 6, 0.0, 7)[1:-1]:
        for alpha_angle in np.linspace(math.pi / 6, math.pi / 2, 7)[1:-1]:
            world, goals = catB_parametrized(params3, 2.0, float(theta), float(alpha_angle))
            starts.append((params3, world.robots, goals))
    for params, initial, goals in starts:
        Scenario(params=params, initial=initial, goals=goals, controller="three-phase")


@pytest.mark.parametrize("kind", sorted(GEOMETRY_CASES))
@pytest.mark.parametrize("controller", ["cbf-qp-only", "three-phase"])
def test_geometry_error_aborts_with_snapshot(controller, kind):
    ds, p1, v1 = GEOMETRY_CASES[kind]
    scen = Scenario(
        params=Params(kp=1.0, kv=3.0, ds=ds, alpha=(5.0, 5.0)),
        initial=(RobotState.at_rest((0.0, 0.0)), RobotState(p=p1, v=v1)),
        goals=GoalSpec(pd=((-2.0, 0.0), (2.0, 0.0))),
        controller=controller,
        t_max=1.0,
    )
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == kind
    assert err.value.snapshot == {"t": 0.0, "p": [(0.0, 0.0), p1], "v": [(0.0, 0.0), v1]}


def test_64_robot_ring_log_round_trips(tmp_path):
    # box rows have indices 63..66: their active-set bits overflow int64
    n, ds = 64, 0.5
    radius = ds * 1.3 / (2.0 * math.sin(math.pi / n))
    points = [(radius * math.cos(2.0 * math.pi * k / n), radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)]
    scen = Scenario(
        params=Params(kp=1.0, kv=3.0, ds=ds, alpha=(5.0,) * n),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=tuple((-x, -y) for x, y in points)),
        controller="cbf-qp-only",
        t_max=2e-3,
    )
    log = run_scenario(scen)
    assert max(int(mask) for mask in log.active.ravel()).bit_length() > 64
    path = tmp_path / "ring64.json"
    export_log(log, "json", str(path))
    back = load_log(str(path))
    assert log_to_json(back) == path.read_text(encoding="utf-8")
    assert back.active.tolist() == log.active.tolist()
    assert audit_log(back).ok


def test_infeasible_qp_aborts_with_diagnostic():
    # 1e-6 outside the margin, closing at 5 mm/s: h(0) = -5.3e-4 is above the
    # start check's floor, but the bound's middle term asks robot 0 for more
    # than its box can brake (b = -5.59)
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    scen = Scenario(
        params=params,
        initial=(
            RobotState(p=(0.0, 0.0), v=(0.0025, 0.0)),
            RobotState(p=(0.5 + 1e-6, 0.0), v=(-0.0025, 0.0)),
        ),
        goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
        controller="cbf-qp-only",
        t_max=1.0,
    )
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "qp-infeasible"
    # the state reached, and the robot whose QP failed
    assert err.value.snapshot == {
        "t": 0.0,
        "p": [(0.0, 0.0), (0.5 + 1e-6, 0.0)],
        "v": [(0.0025, 0.0), (-0.0025, 0.0)],
        "robot": 0,
    }


def _record_snapshot(log, k: int) -> dict:
    """The abort snapshot of the state of record k."""
    return {
        "t": float(log.t[k]),
        "p": [tuple(p) for p in log.pos[k].tolist()],
        "v": [tuple(v) for v in log.vel[k].tolist()],
    }


def _collinear_resolution():
    """A three-phase run from the collinear deadlock: its scenario, its log and its phase-2 entry record."""
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    scen = Scenario(
        params=params, initial=collinear_family(goals, params, 0.5), goals=goals,
        controller="three-phase", t_max=0.05,
    )
    log = run_scenario(scen)
    k = int(np.argmax(log.phase == 2))  # phase 2 starts on the deadlock-detection step
    return scen, log, k


def test_phase2_newton_abort_carries_the_failing_step(monkeypatch):
    scen, log, k = _collinear_resolution()
    solve = resolution._solve
    # the Newton step's own solve, handed an all-zero Jacobian
    monkeypatch.setattr(resolution, "_solve", lambda jac, f: solve([[0.0] * len(f) for _ in f], f))
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "phase2-singular"
    assert str(err.value) == "[phase2-singular] phase-2 Newton Jacobian singular: Singular matrix"
    assert err.value.snapshot == _record_snapshot(log, k)


def test_phase2_newton_without_progress_aborts_as_diverged(monkeypatch):
    scen, log, k = _collinear_resolution()
    monkeypatch.setattr(resolution, "_solve", lambda jac, f: [0.0] * len(f))
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "phase2-diverged"
    assert str(err.value).startswith("[phase2-diverged] phase-2 Newton stalled at residual ")
    assert err.value.snapshot == _record_snapshot(log, k)


# (robots at, goals, message) of deadlocks the supervisor cannot resolve:
# four robots, and three robots far from contact (neither category A nor B)
UNSUPPORTED_CASES = {
    "four-robots": (
        ((-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)),
        ((2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0)),
        "implemented for N in {2, 3}, got N=4",
    ),
    "three-apart": (
        ((-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)),
        ((2.0, 0.0), (-2.0, 0.0), (0.0, -3.0)),
        "matches neither category",
    ),
}


@pytest.mark.parametrize("case", sorted(UNSUPPORTED_CASES))
def test_unsupported_deadlock_aborts_with_snapshot(monkeypatch, case):
    points, goals, message = UNSUPPORTED_CASES[case]
    scen = Scenario(
        params=Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * len(points)),
        initial=tuple(RobotState.at_rest(p) for p in points),
        goals=GoalSpec(pd=goals),
        controller="three-phase",
        t_max=0.02,
    )
    log = run_scenario(scen)
    # with every step deadlocked, step K_PERSIST - 1 detects the deadlock
    monkeypatch.setattr(resolution, "system_deadlock", lambda *_: True)
    with pytest.raises(SimulationAbort) as err:
        run_scenario(scen)
    assert err.value.kind == "unsupported-deadlock"
    assert message in str(err.value)
    assert err.value.snapshot == _record_snapshot(log, K_PERSIST - 1)


# a typed error of each kind that a step can raise
STEP_ERRORS = {
    "safety-violation": SafetyViolationError(1e-3, pair=(0, 1)),
    "coincident-robots": CoincidentRobotsError("robots 0 and 1 coincide"),
    "boundary-singularity": BoundarySingularityError("pair (0,1): on the margin, closing"),
    "qp-infeasible": QPInfeasibleError("robot 0 QP infeasible"),
    "unsupported-deadlock": UnsupportedScenarioError("no resolution for this contact geometry"),
}


@pytest.mark.parametrize("kind", sorted(STEP_ERRORS))
def test_a_typed_step_error_aborts_as_its_kind_with_its_time_once(monkeypatch, kind):
    def fail(*args, **kwargs):
        raise STEP_ERRORS[kind]

    monkeypatch.setattr(sim, "supervisor_step", fail)
    with pytest.raises(SimulationAbort) as err:
        run_scenario(default_head_on_scenario(t_max=0.01))
    assert err.value.kind == kind
    assert str(err.value) == f"[{kind}] {STEP_ERRORS[kind]} at t=0.000000"
    assert err.value.snapshot["t"] == 0.0


def test_a_step_error_without_an_abort_kind_is_not_an_abort(monkeypatch):
    def fail(*args, **kwargs):
        raise ZeroVectorError("no direction")

    monkeypatch.setattr(sim, "supervisor_step", fail)
    with pytest.raises(ZeroVectorError, match="^no direction$"):
        run_scenario(default_head_on_scenario(t_max=0.01))


def test_audit_checks_the_qp_records_off_phase_one():
    _, log, k = _collinear_resolution()
    assert audit_log(log).ok
    # phase-2 controls are no QP solutions: neither the detection record nor
    # the next phase-2 record may carry multipliers
    for record in (k, k + 1):
        tampered = replace(log, mu=log.mu.copy())
        tampered.mu[record, 0, 0] += 1.0
        report = audit_log(tampered)
        assert not report.ok and report.bad_records == 1


def test_scenario_yaml_round_trip(tmp_path):
    scen = default_head_on_scenario(controller="three-phase", t_max=12.0)
    path = tmp_path / "scenario.yaml"
    save_scenario(scen, str(path))
    back = load_scenario(str(path))
    assert back == scen


def test_scenario_dict_round_trip_defaults():
    scen = default_head_on_scenario()
    assert scenario_from_dict(scenario_to_dict(scen)) == scen


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def overridden_scenarios(draw) -> Scenario:
    """Valid scenarios whose every defaulted field, and every resolution field, is off its default."""
    base = default_head_on_scenario()
    params = Params(kp=draw(_floats(0.1, 2.0)), kv=3.0, ds=0.5, alpha=(draw(_floats(0.5, 9.0)), 5.0))
    return Scenario(
        params=params,
        initial=base.initial,
        goals=base.goals,
        controller=draw(st.sampled_from(["three-phase", "pd-only"])),
        dt=draw(_floats(1e-6, 9e-4)),
        t_max=draw(_floats(31.0, 1e4)),
        log_every=draw(st.integers(2, 10**6)),
        resolution=ResolutionConfig(kp2=draw(_floats(1e-3, 1e3)), kv2=draw(_floats(1e-3, 1e3))),
    )


@settings(max_examples=100, deadline=None, database=None)
@given(overridden_scenarios())
def test_scenario_round_trips_with_every_default_overridden(tmp_path_factory, scen):
    defaults = Scenario(scen.params, scen.initial, scen.goals)
    same = [f.name for f in fields(Scenario) if getattr(scen, f.name) == getattr(defaults, f.name)]
    assert same == ["params", "initial", "goals"]
    assert all(getattr(scen.resolution, f.name) != f.default for f in fields(ResolutionConfig))
    assert scenario_from_dict(scenario_to_dict(scen)) == scen
    path = tmp_path_factory.getbasetemp() / "overridden.yaml"
    save_scenario(scen, str(path))
    assert load_scenario(str(path)) == scen


def test_every_scenario_field_has_a_file_key():
    # a field added without its key would be neither written nor read back
    by_hand = {"params", "initial", "goals", "resolution"}
    assert list(_SCENARIO_KEYS) == [f.name for f in fields(Scenario) if f.name not in by_hand]
    assert list(_PARAMS_KEYS) == [f.name for f in fields(Params)]
    assert list(_RESOLUTION_KEYS) == [f.name for f in fields(ResolutionConfig)]


@pytest.mark.parametrize(
    "field, value",
    [
        ("params", {"kp": 1.0, "kv": 3.0, "ds": 0.5, "alpha": [5.0, 5.0]}),
        ("initial", ((-2.0, 0.0), (2.0, 0.0))),
        ("initial", [RobotState.at_rest((-2.0, 0.0)), RobotState.at_rest((2.0, 0.0))]),
        ("goals", ((2.0, 0.0), (-2.0, 0.0))),
        ("resolution", None),
    ],
    ids=["params-dict", "initial-bare-tuples", "initial-list", "goals-bare-tuples", "resolution-none"],
)
def test_scenario_rejects_a_field_of_the_wrong_type(field, value):
    # each once failed only later (at the first step, inside PairField, or in
    # scenario_to_dict after the whole run); a list made the Scenario
    # unhashable and unequal to the same Scenario built from a tuple
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        replace(default_head_on_scenario(), **{field: value})


def test_minimal_scenario_dict_takes_scenario_defaults():
    scen = default_head_on_scenario()
    d = scenario_to_dict(scen)
    minimal = {key: d[key] for key in ("params", "robots", "goals")}
    assert scenario_from_dict(minimal) == Scenario(scen.params, scen.initial, scen.goals)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("params"), "scenario key 'params' is missing"),
        (lambda d: d.pop("robots"), "scenario key 'robots' is missing"),
        (lambda d: d.update(t_maxx=3.0), "unknown scenario key 't_maxx'"),
        (lambda d: d.update(seed=3), "unknown scenario key 'seed'"),
        (lambda d: d["params"].pop("kv"), "params key 'kv' is missing"),
        (lambda d: d["params"].update(kd=1.0), "unknown params key 'kd'"),
        (lambda d: d["robots"][1].update(vel=[1.0, 0.0]), "unknown robot key 'vel'"),
        (lambda d: d["robots"][1].pop("p"), "robot key 'p' is missing"),
        (lambda d: d.update(resolution={"kp2": 5.0, "kp3": 1.0}), "unknown resolution key 'kp3'"),
        # keys of files written before they became module constants
        (lambda d: d.update(thresholds={"eps_u": 1e-3, "eps_v": 1e-3, "eps_goal": 0.05, "eps_mu": 1e-6}),
         "unknown scenario key 'thresholds'"),
        (lambda d: d.update(stop_goal_tol=1e-4), "unknown scenario key 'stop_goal_tol'"),
        (lambda d: d.update(resolution={"k_persist": 5}), "unknown resolution key 'k_persist'"),
        (lambda d: d.update(resolution=[1, 2]), "resolution must be a mapping"),
        (lambda d: d.update(dt="fast"), "scenario key 'dt'"),
        (lambda d: d.update(t_max=math.inf), "need finite dt > 0 and t_max > dt"),
        (lambda d: d["params"].update(alpha=[5.0]), "one alpha per robot required"),
        (lambda d: d.update(log_every=2.5), "scenario key 'log_every': expected an integer"),
        (lambda d: d.update(log_every="2"), "scenario key 'log_every': expected an integer"),
        (lambda d: d.update(log_every=1.7), "scenario key 'log_every': expected an integer"),
        (lambda d: d.update(log_every=True), "scenario key 'log_every': expected an integer"),
    ],
)
def test_scenario_from_dict_names_the_bad_key(edit, message):
    d = scenario_to_dict(default_head_on_scenario())
    edit(d)
    with pytest.raises(ValueError, match=message):
        scenario_from_dict(d)


def test_scenario_from_dict_keeps_partial_resolution_defaults():
    d = scenario_to_dict(default_head_on_scenario())
    d["resolution"] = {"kp2": 5.0}
    assert scenario_from_dict(d).resolution == ResolutionConfig(kp2=5.0)


@pytest.mark.parametrize(
    "times",
    [{"t_max": math.inf}, {"t_max": math.nan}, {"dt": math.inf}, {"dt": math.nan}, {"t_max": 10**400},
     {"dt": True}, {"t_max": True}, {"dt": "0.001"}, {"t_max": "30"}],
)
def test_scenario_rejects_non_finite_times(times):
    # an int past the float range is infinite: n_steps could not divide it.
    # A bool or a string is no time: dt = True would run 1 s steps and log
    # "dt": true, which load_log rejects
    with pytest.raises(ValueError, match="finite dt"):
        default_head_on_scenario(**times)


def test_scenario_rejects_a_step_count_that_overflows(tmp_path):
    # dt and t_max are finite, t_max / dt is not: n_steps could not round it to an int
    with pytest.raises(ValueError, match=r"need a finite t_max / dt, got dt=1e-300, t_max=1e\+300"):
        default_head_on_scenario(dt=1e-300, t_max=1e300)
    # a log whose meta holds such a scenario fails its load and its audit the same way
    log = run_scenario(default_head_on_scenario(t_max=0.01))
    log.meta["scenario"].update(dt=1e-300, t_max=1e300)
    with pytest.raises(ValueError, match="need a finite t_max / dt"):
        audit_log(log)
    export_log(log, "json", str(tmp_path / "log.json"))
    with pytest.raises(ValueError, match="need a finite t_max / dt"):
        load_log(str(tmp_path / "log.json"))


def test_scenario_keeps_its_times_as_given():
    scenario = default_head_on_scenario(t_max=30, dt=np.float64(0.001))
    assert type(scenario.t_max) is int and type(scenario.dt) is np.float64
    assert scenario.n_steps == 30000


# a scenario keeps NumPy times as given, but its file and its log's meta hold their builtins

def test_numpy_times_save_as_their_builtins(tmp_path):
    save_scenario(default_head_on_scenario(dt=np.float64(0.001), t_max=np.float64(0.01)), tmp_path / "np.yaml")
    save_scenario(default_head_on_scenario(dt=0.001, t_max=0.01), tmp_path / "builtin.yaml")
    assert (tmp_path / "np.yaml").read_bytes() == (tmp_path / "builtin.yaml").read_bytes()


def test_numpy_int_t_max_logs_as_an_int():
    meta = json.loads(log_to_json(run_scenario(default_head_on_scenario(dt=0.01, t_max=np.int64(1)))))["meta"]
    assert type(meta["scenario"]["t_max"]) is int and meta["scenario"]["t_max"] == 1


@pytest.mark.parametrize("log_every", [2.5, 2.0, 0, "2", True])
def test_scenario_requires_integer_log_every(log_every):
    with pytest.raises(ValueError, match="log_every must be an integer >= 1"):
        default_head_on_scenario(log_every=log_every)


def test_scenario_file_int_keys_accept_integral_floats():
    d = scenario_to_dict(default_head_on_scenario())
    d.update(log_every=2.0)
    scen = scenario_from_dict(d)
    assert scen.log_every == 2 and type(scen.log_every) is int


def test_scenario_validation():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    with pytest.raises(ValueError):
        Scenario(
            params=params,
            initial=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.1, 0.0))),
            goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
        )
    with pytest.raises(ValueError):
        default_head_on_scenario(controller="nonsense")
    with pytest.raises(ValueError):
        default_head_on_scenario(dt=-1.0)
    with pytest.raises(ValueError):
        Scenario(
            params=params,
            initial=(RobotState.at_rest((0.0, 0.0)),),
            goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
        )


def test_three_phase_requires_overdamped_gains():
    params = Params(kp=1.0, kv=2.0, ds=0.5, alpha=(5.0, 5.0))  # kv^2 = 4 kp
    with pytest.raises(ValueError):
        Scenario(
            params=params,
            initial=(RobotState.at_rest((-2.0, 0.0)), RobotState.at_rest((2.0, 0.0))),
            goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
            controller="three-phase",
        )


@pytest.mark.parametrize("gap", [0.5, 0.3])
def test_three_phase_requires_goals_more_than_ds_apart(gap):
    # three robots with goals 1,2 gap apart; phase 3 cannot keep them Ds apart
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * 3)
    initial = tuple(RobotState.at_rest((x, 0.0)) for x in (-2.0, 0.0, 2.0))
    goals = GoalSpec(pd=((0.0, 2.0), (0.0, -2.0), (gap, -2.0)))
    with pytest.raises(ValueError, match=f"goals more than Ds = 0.5 apart, got goals 1,2 {gap:.6f} apart"):
        Scenario(params=params, initial=initial, goals=goals, controller="three-phase")
    for controller in ("cbf-qp-only", "pd-only"):
        assert Scenario(params=params, initial=initial, goals=goals, controller=controller).goals == goals


def test_export_log_error_paths(tmp_path):
    scen = default_head_on_scenario(t_max=0.05)
    log = run_scenario(scen)
    with pytest.raises(ValueError):
        export_log(log, "parquet", str(tmp_path / "x"))
    with pytest.raises(OSError) as err:
        export_log(log, "csv", str(tmp_path / "no-such-dir" / "x.csv"))
    assert "no-such-dir" in str(err.value)


def test_goal_stop_event_and_time_bound():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,))
    scen = Scenario(
        params=params,
        initial=(RobotState.at_rest((0.0, 0.0)),),
        goals=GoalSpec(pd=((0.2, 0.0),)),
        controller="pd-only",
        t_max=60.0,
    )
    log = run_scenario(scen)
    assert log.events[-1]["name"] == "goals-reached"
    assert log.t[-1] < 60.0
    assert math.dist(tuple(log.pos[-1, 0]), (0.2, 0.0)) <= STOP_GOAL_TOL


def test_log_every_decimation():
    """A log_every = k log holds, bit for bit, the log_every = 1 records of steps 0, k, 2k, ... and the last.

    The last record is logged off the k grid when the goals are reached.
    Head-on cbf-qp-only detects its deadlock, category A three-phase runs
    through phases 2 and 3, and the pd-only pair reaches its goals at a step
    that neither 7 nor 10 divides.
    """
    pd_only = Scenario(
        params=Params(kp=4.0, kv=5.0, ds=0.5, alpha=(5.0, 5.0)),
        initial=(RobotState.at_rest((0.0, 0.0)), RobotState.at_rest((0.0, 2.0))),
        goals=GoalSpec(pd=((3.0, 0.0), (3.0, 2.0))),
        controller="pd-only",
        t_max=20.0,
    )
    cat_a_gains = ResolutionConfig(kp2=16.0, kv2=10.0)   # phase 3 starts at t = 4.531
    for scen, shown in ((default_head_on_scenario(t_max=6.0), "deadlock-detected"),
                        (three_robot_cat_a_scenario(t_max=5.0, resolution=cat_a_gains), "phase-3-start"),
                        (pd_only, "goals-reached")):
        full = run_scenario(scen)
        assert shown in [event["name"] for event in full.events]
        for every in (7, 10):
            log = run_scenario(replace(scen, log_every=every))
            steps = list(range(0, full.n_records, every))
            if full.events[-1]["name"] == "goals-reached" and steps[-1] != full.n_records - 1:
                steps.append(full.n_records - 1)
            assert log.events == full.events
            assert log.n_records == len(steps)
            for name in _RECORD_LAYOUT:
                assert _same_records(getattr(log, name), getattr(full, name)[steps]), (scen.controller, every, name)


def test_records_strictly_increasing_in_time():
    scen = default_head_on_scenario(t_max=0.25)
    log = run_scenario(scen)
    assert np.all(np.diff(log.t) > 0)
    assert len(pair_indices(2)) == log.h.shape[1]
