"""Closed-loop time integration of a scenario into a trajectory log.

run_scenario advances the chosen controller (plain PD, CBF-QP, or the
three-phase resolution supervisor, each a supervisor_step from its own
starting state) with a semi-implicit Euler step and
records every quantity needed for post-hoc verification: states, applied
and reference controls, per-pair safety indices, per-row multipliers,
active sets and the supervisor phase, plus an event stream.  Identical
scenarios produce byte-identical JSON logs.  The scenario and the log
format are logio's, and the post-hoc audit is audit's.
"""

from __future__ import annotations

import math

# perfbench calls export_log, load_log and audit_log through this module, where its span tracer wraps them
from .audit import audit_log  # noqa: F401
from .cbf import PairField, pair_indices
# bound here only for the perfbench span tracer; sim reads pair geometry from PairField
from .cbf import assemble_qp, min_pair_distance, safety_index_signed  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    RobotState,
    Vec2,
    WorldState,
    _positive,
    euler_step,
    pd_control,
    v_norm,
    v_sub,
)
# supervisor_step calls solve_qp and system_deadlock; they stay bound here for
# callers that look them up on this module.
from .deadlock import system_deadlock, three_robot_family_catA  # noqa: F401
from .errors import SimulationAbort, ToolkitError
from .logio import _START_STATES, Scenario, TrajectoryLog, _Recorder, scenario_to_dict
from .logio import export_log, load_log  # noqa: F401
# bound here only for the perfbench span tracer; audit_log checks the KKT
# conditions over whole arrays, without verify_kkt
from .qp import solve_qp, verify_kkt  # noqa: F401
from .resolution import supervisor_step

STOP_GOAL_TOL = 1e-4    # a run stops once every robot is this close to its goal
ABORT_DIST_TOL = 1e-6   # and aborts once a pair is closer than Ds less this


def default_head_on_scenario(controller: str = "cbf-qp-only", t_max: float = 30.0, **overrides) -> Scenario:
    """Desk-scale head-on pair: robots at (-2, 0), (2, 0) with swapped goals.

    kp = 1, kv = 3 (overdamped), Ds = 0.5, alpha = 5; the canonical scenario
    that falls into deadlock under the plain CBF-QP controller.
    """
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    return Scenario(
        params=params,
        initial=(RobotState.at_rest((-2.0, 0.0)), RobotState.at_rest((2.0, 0.0))),
        goals=GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0))),
        controller=controller,
        t_max=t_max,
        **overrides,
    )


def three_robot_cat_a_scenario(
    controller: str = "three-phase", r_goal: float = 2.0, t_max: float = 60.0, **overrides
) -> Scenario:
    """Three robots starting in the equilateral deadlock against symmetric goals."""
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0, 5.0))
    world, goals = three_robot_family_catA(params, r_goal)
    return Scenario(
        params=params,
        initial=world.robots,
        goals=goals,
        controller=controller,
        t_max=t_max,
        **overrides,
    )


def integrate_step(world: WorldState, controls: tuple[Vec2, ...], dt: float) -> WorldState:
    """Every robot advanced by one euler_step, and the time by dt.

    euler_step's new floats are not coerced again, only checked once with
    math.isfinite; RobotState raises its ValueError for a non-finite one.
    A ValueError is raised too unless there is one control per robot and dt
    is finite and > 0.
    """
    if len(controls) != world.n:
        raise ValueError(f"{len(controls)} controls for {world.n} robots")
    dt = _positive(dt, "dt")
    robots = []
    for z, u in zip(world.robots, controls):
        p, v = euler_step(z.p, z.v, u, dt)
        if not (math.isfinite(p[0]) and math.isfinite(p[1]) and math.isfinite(v[0]) and math.isfinite(v[1])):
            RobotState(p, v)   # raises, naming the position or the velocity
        robot = object.__new__(RobotState)   # set as the frozen class's own __init__ sets them
        object.__setattr__(robot, "p", p)
        object.__setattr__(robot, "v", v)
        robots.append(robot)
    return WorldState(robots=tuple(robots), t=world.t + dt)


def run_scenario(scenario: Scenario) -> TrajectoryLog:
    """Simulate until t_max or until every robot is within STOP_GOAL_TOL of its goal.

    Aborts with SimulationAbort (diagnostic kind "qp-infeasible" or
    "safety-violation") when the QP has no solution, a pair dips below
    Ds - ABORT_DIST_TOL, or a QP is assembled for a pair inside the margin;
    a bound evaluated on the margin with nonzero radial velocity and
    coincident robots abort as "boundary-singularity" and "coincident-robots".
    The supervisor aborts as "unsupported-deadlock" on a deadlock it cannot
    resolve (N > 3, or a three-robot contact geometry of neither category),
    and as "phase2-singular" or "phase2-diverged" when its phase-2 Newton
    step fails.  A step whose new state would not be finite aborts as
    "non-finite-state".  Every abort carries a snapshot of the last state
    reached; a step's typed error becomes the abort of its ``abort_kind``,
    its message followed by " at t=...", and the entries of its own
    snapshot (the robot whose QP is infeasible) join the state's.
    Deterministic for a fixed scenario.  Pair geometry is evaluated once per
    state (PairField) and feeds the abort check, the QPs and the h record.
    """
    params = scenario.params
    goals = scenario.goals
    n = len(scenario.initial)
    world = WorldState(robots=scenario.initial, t=0.0)
    pair_field = PairField(world, params)
    n_steps = scenario.n_steps
    rec = _Recorder(n)
    events: list[dict] = []
    phase_state = _START_STATES[scenario.controller]

    def snapshot() -> dict:
        return {"t": world.t, "p": [z.p for z in world.robots], "v": [z.v for z in world.robots]}

    step = 0
    reached = False   # every robot within STOP_GOAL_TOL: record this state, then stop
    try:
        while True:
            u_hat = [pd_control(world.robots[i], goals.pd[i], params) for i in range(n)]
            prev_phase = phase_state.phase
            controls, phase_state, info = supervisor_step(
                phase_state, world, goals, params, scenario.dt, scenario.resolution, pair_field, u_hat)
            if "event" in info:
                name, t_ev = info["event"]
                events.append({"name": name, "t": t_ev})
            if phase_state.phase != prev_phase:
                events.append({"name": f"phase-{phase_state.phase}-start", "t": world.t})
            if reached or step % scenario.log_every == 0:
                rec.push(world, controls, u_hat, pair_field.h, info.get("solutions"), phase_state.phase)
            if reached:
                events.append({"name": "goals-reached", "t": world.t})
                break
            if step >= n_steps:
                break
            try:
                world = integrate_step(world, controls, scenario.dt)
            except ValueError as exc:  # RobotState rejects a position or velocity that overflowed
                raise SimulationAbort("non-finite-state", f"{exc} after t={world.t:.6f}", snapshot()) from exc
            pair_field = PairField(world, params)
            step += 1
            if pair_field.min_distance < params.ds - ABORT_DIST_TOL:
                raise SimulationAbort(
                    "safety-violation",
                    f"pair distance {pair_field.min_distance:.9f} below margin at t={world.t:.6f}",
                    snapshot(),
                )
            reached = all(
                v_norm(v_sub(world.robots[i].p, goals.pd[i])) <= STOP_GOAL_TOL for i in range(n)
            )
    except SimulationAbort as exc:
        # the phase-2 Newton step aborts without the state
        exc.snapshot = exc.snapshot or snapshot()
        raise
    except ToolkitError as exc:
        if exc.abort_kind is None:
            raise
        # the state reached, with what the step's own error adds (the robot whose QP failed)
        raise SimulationAbort(exc.abort_kind, f"{exc} at t={world.t:.6f}",
                              {**snapshot(), **getattr(exc, "snapshot", {})}) from exc

    meta = {
        "scenario": scenario_to_dict(scenario),
        "n_robots": n,
        "pair_order": [list(p) for p in pair_indices(n)],
        "row_order": "neighbors ascending, then box +x, +y, -x, -y",
    }
    return rec.build(events, meta)
