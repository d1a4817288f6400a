"""Closed-loop time integration, scenario configuration, logging and audits.

run_scenario advances the chosen controller (plain PD, CBF-QP, or the
three-phase resolution supervisor, each a supervisor_step from its own
starting state) with a semi-implicit Euler step and
records every quantity needed for post-hoc verification: states, applied
and reference controls, per-pair safety indices, per-row multipliers,
active sets and the supervisor phase, plus an event stream.  Identical
scenarios produce byte-identical JSON logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import Field, dataclass, field, fields

import numpy as np
import yaml

from .cbf import BOUNDARY_SNAP, EPS_NUM, PairField, neighbor_row, pair_indices
# bound here only for the perfbench span tracer; sim reads pair geometry from PairField
from .cbf import assemble_qp, min_pair_distance, safety_index_signed  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    RobotState,
    Vec2,
    WorldState,
    _positive,
    _positive_int,
    euler_step,
    goal_separation,
    pd_control,
    v_norm,
    v_sub,
)
# supervisor_step calls solve_qp and system_deadlock; they stay bound here for
# callers that look them up on this module.
from .deadlock import system_deadlock, three_robot_family_catA  # noqa: F401
from .errors import (
    BoundarySingularityError,
    CoincidentRobotsError,
    QPInfeasibleError,
    SafetyViolationError,
    SimulationAbort,
    UnsupportedScenarioError,
)
from .qp import ACTIVE_TOL, BOX_NORMALS
# bound here only for the perfbench span tracer; audit_log checks the KKT
# conditions over whole arrays, without verify_kkt
from .qp import solve_qp, verify_kkt  # noqa: F401
from .resolution import Filtering, Released, ResolutionConfig, supervisor_step

# Every controller is the supervisor from its own starting state: the plain
# CBF-QP filter never leaves phase 1, the plain PD controllers are phase 3.
_START_STATES = {
    "cbf-qp-only": Filtering(resolve=False),
    "three-phase": Filtering(),
    "pd-only": Released(),
}
CONTROLLERS = tuple(_START_STATES)

STOP_GOAL_TOL = 1e-4    # a run stops once every robot is this close to its goal
ABORT_DIST_TOL = 1e-6   # and aborts once a pair is closer than Ds less this
START_DIST_TOL = 1e-9   # no pair may start closer than Ds less this


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one simulation run."""

    params: Params
    initial: tuple[RobotState, ...]
    goals: GoalSpec
    controller: str = "cbf-qp-only"
    dt: float = 1e-3
    t_max: float = 30.0
    log_every: int = 1
    resolution: ResolutionConfig = field(default_factory=ResolutionConfig)

    def __post_init__(self):
        # a wrong type would otherwise fail steps later, or only once the log's meta is written
        for name, value, kind in (("params", self.params, Params), ("goals", self.goals, GoalSpec),
                                  ("resolution", self.resolution, ResolutionConfig)):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not (isinstance(self.initial, tuple) and all(isinstance(z, RobotState) for z in self.initial)):
            raise ValueError(f"initial must be a tuple of RobotState, got {self.initial!r}")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        try:   # read as Params reads its gains, but kept as given: the log's meta does not move
            ok = _positive(self.dt, "dt") < _positive(self.t_max, "t_max")
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"need finite dt > 0 and t_max > dt, got dt={self.dt!r}, t_max={self.t_max!r}")
        _positive_int(self.log_every, "log_every")
        if len(self.initial) != len(self.goals):
            raise ValueError("one goal per robot required")
        if len(self.initial) != len(self.params.alpha):
            raise ValueError("one alpha per robot required")
        if self.controller == "three-phase":
            # the PD release phase only guarantees non-decreasing separation
            # for overdamped gains and goals more than Ds apart
            if not self.params.overdamped:
                raise ValueError("three-phase control requires kv^2 - 4 kp > 0")
            for i, j in pair_indices(len(self.goals)):
                d_g = goal_separation(self.goals, i, j)
                if d_g <= self.params.ds:
                    raise ValueError(f"three-phase control requires goals more than Ds = {self.params.ds} apart, "
                                     f"got goals {i},{j} {d_g:.6f} apart")
        pair_field = PairField(WorldState(robots=self.initial), self.params)
        for (i, j), d in zip(pair_indices(len(self.initial)), pair_field.distances):
            if d < self.params.ds - START_DIST_TOL:
                raise ValueError(
                    f"initial robots {i},{j} start {d:.6f} apart, inside the margin {self.params.ds}"
                )
        # a start outside the safe set would fail its own log's audit; h is
        # undefined for coincident robots, which run_scenario aborts on
        hs = pair_field.h if pair_field.min_distance > 0.0 else ()
        for (i, j), h in zip(pair_indices(len(self.initial)), hs):
            if h < AUDIT_H_FLOOR:
                raise ValueError(
                    f"initial robots {i},{j} start outside the safe set: h = {h:.6g} < {AUDIT_H_FLOOR}"
                )

    @property
    def n_steps(self) -> int:
        """Integrator steps of a run that does not stop early: t_max / dt, rounded."""
        return int(round(self.t_max / self.dt))


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


# ---------------------------------------------------------------------------
# trajectory log
# ---------------------------------------------------------------------------

def _record(dtype, shape) -> Field:
    """A TrajectoryLog record array: its dtype and the shape of one record for n robots."""
    return field(metadata={"record": (dtype, shape)})


@dataclass
class TrajectoryLog:
    """Dense per-step record arrays plus the event stream.

    Each record array, records first, declares its dtype and per-record shape
    with _record.  Pair columns of h are in ascending (i, j) order; the N + 3
    rows of mu and of the active bitmask follow the fixed QP ordering
    (neighbors by ascending id, then the box rows +x, +y, -x, -y).  The bitmasks
    are Python ints in an object array: at N >= 61 a box row's bit does not
    fit in int64.  Phase is the supervisor phase of the step: 1 throughout a
    cbf-qp-only run, 3 throughout a pd-only run.  A record holds only what
    its step ran: mu and the masks are those of the QPs whose solutions are
    the step's controls, and zero on a step whose controls are not QP
    solutions (phase 2 and 3, and the step that detects a deadlock and
    returns phase-2 controls).
    """

    t: np.ndarray = _record(float, lambda n: ())
    pos: np.ndarray = _record(float, lambda n: (n, 2))
    vel: np.ndarray = _record(float, lambda n: (n, 2))
    u_star: np.ndarray = _record(float, lambda n: (n, 2))
    u_hat: np.ndarray = _record(float, lambda n: (n, 2))
    h: np.ndarray = _record(float, lambda n: (n * (n - 1) // 2,))
    mu: np.ndarray = _record(float, lambda n: (n, n + 3))
    active: np.ndarray = _record(object, lambda n: (n,))
    phase: np.ndarray = _record(np.int8, lambda n: ())
    events: list[dict]
    meta: dict

    @property
    def n_records(self) -> int:
        return len(self.t)

    @property
    def n_robots(self) -> int:
        return self.pos.shape[1]

    def world_at(self, k: int) -> WorldState:
        pos, vel = self.pos[k].tolist(), self.vel[k].tolist()
        robots = tuple(RobotState(p=tuple(p), v=tuple(v)) for p, v in zip(pos, vel))
        return WorldState(robots=robots, t=float(self.t[k]))


# name -> (dtype, shape of one record for n robots) of every record array;
# allocation, trimming, JSON export and load loop over it
_RECORD_LAYOUT = {f.name: f.metadata["record"] for f in fields(TrajectoryLog) if "record" in f.metadata}


# Records a recorder allocates at most up front; past them it doubles its
# capacity whenever it fills, so a long run allocates only what it logs.
_FIRST_CAPACITY = 2**16


class _Recorder:
    def __init__(self, n: int, capacity: int):
        self.rows = 0
        for name, (dtype, shape) in _RECORD_LAYOUT.items():
            setattr(self, name, np.empty((min(capacity, _FIRST_CAPACITY), *shape(n)), dtype=dtype))

    def push(self, t, world, u_star, u_hat, h_vals, mu_rows, active_masks, phase):
        k = self.rows
        if k == len(self.t):
            for name in _RECORD_LAYOUT:
                array = getattr(self, name)
                setattr(self, name, np.concatenate((array, np.empty_like(array))))
        robots = world.robots
        self.t[k] = t
        self.pos[k] = [z.p for z in robots]
        self.vel[k] = [z.v for z in robots]
        self.u_star[k] = u_star
        self.u_hat[k] = u_hat
        self.mu[k] = mu_rows
        self.active[k] = active_masks
        self.h[k] = h_vals
        self.phase[k] = phase
        self.rows += 1

    def build(self, events: list[dict], meta: dict) -> TrajectoryLog:
        arrays = {name: getattr(self, name)[:self.rows].copy() for name in _RECORD_LAYOUT}
        return TrajectoryLog(**arrays, events=events, meta=meta)


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
    its message followed by " at t=...".
    Deterministic for a fixed scenario.  Pair geometry is evaluated once per
    state (PairField) and feeds the abort check, the QPs and the h record.
    """
    params = scenario.params
    goals = scenario.goals
    n = len(scenario.initial)
    world = WorldState(robots=scenario.initial, t=0.0)
    pair_field = PairField(world, params)
    n_steps = scenario.n_steps
    rec = _Recorder(n, n_steps // scenario.log_every + 2)
    events: list[dict] = []
    phase_state = _START_STATES[scenario.controller]
    zero_mu = [(0.0,) * (n + 3)] * n   # the multipliers of a step whose controls are no QP solutions
    zero_masks = [0] * n

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
                if "solutions" in info:
                    mu_rows = [sol.mu_star for sol in info["solutions"]]
                    masks = [_active_mask(sol.active_set) for sol in info["solutions"]]
                else:
                    mu_rows, masks = zero_mu, zero_masks
                rec.push(world.t, world, controls, u_hat, pair_field.h, mu_rows, masks, phase_state.phase)
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
    except (SafetyViolationError, BoundarySingularityError, CoincidentRobotsError,
            QPInfeasibleError, UnsupportedScenarioError) as exc:
        raise SimulationAbort(exc.abort_kind, f"{exc} at t={world.t:.6f}", snapshot()) from exc

    meta = {
        "scenario": scenario_to_dict(scenario),
        "n_robots": n,
        "pair_order": [list(p) for p in pair_indices(n)],
        "row_order": "neighbors ascending, then box +x, +y, -x, -y",
    }
    return rec.build(events, meta)


def _active_mask(active_set) -> int:
    mask = 0
    for k in active_set:
        mask |= 1 << k
    return mask


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """value as an int; an integral float (a YAML 2.0) passes, 2.5 or true does not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    """value as a float; an int or a float passes, true or "0.001" does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list(value) -> list | tuple:
    """value if it is a list or a tuple (a string or a single number is not)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _numbers(value) -> tuple[float, ...]:
    """value as a tuple of floats, each read by _number."""
    return tuple(_number(x) for x in _list(value))


# The keys of each section of a scenario file, each with its reader.  The
# scenario section also holds the params and resolution sections, and the
# robots and goals, which scenario_from_dict reads by hand.
_SCENARIO_KEYS = {"controller": str, "dt": _number, "t_max": _number, "log_every": _integer}
_PARAMS_KEYS = {"kp": _number, "kv": _number, "ds": _number, "alpha": _numbers}
_RESOLUTION_KEYS = dict.fromkeys(("kp2", "kv2"), lambda v: None if v is None else _number(v))


def _check_keys(d, where: str, known, required) -> None:
    """Raise ValueError naming the first unknown or missing key of the mapping d."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {d!r}")
    bad = [f"unknown {where} key {k!r}" for k in d if k not in known]
    bad += [f"{where} key {k!r} is missing" for k in required if k not in d]
    if bad:
        raise ValueError(bad[0])


def _read(value, read, what: str):
    """read(value); its TypeError, ValueError or OverflowError becomes a ValueError naming what was read."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _section(d, where: str, readers: dict, required=(), by_hand=()) -> dict:
    """The keyword arguments the mapping d holds: each key of readers that d has, read by its reader.

    d may also hold the by_hand keys, which the caller reads; a key left out
    takes its field's default.
    """
    _check_keys(d, where, (*readers, *by_hand), required)
    return {key: _read(d[key], read, f"{where} key {key!r}") for key, read in readers.items() if key in d}


def _builtin(value):
    """value, or the builtin of a NumPy scalar, which safe YAML cannot write (an np.int64 stays an int)."""
    return value.item() if isinstance(value, np.generic) else value


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "params": {**{key: getattr(s.params, key) for key in _PARAMS_KEYS}, "alpha": list(s.params.alpha)},
        **{key: _builtin(getattr(s, key)) for key in _SCENARIO_KEYS},
        "resolution": {key: getattr(s.resolution, key) for key in _RESOLUTION_KEYS},
        "robots": [{"p": list(z.p), "v": list(z.v)} for z in s.initial],
        "goals": [list(g) for g in s.goals.pd],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """The Scenario of a scenario_to_dict mapping; unknown and missing keys raise ValueError."""
    kwargs = _section(d, "scenario", _SCENARIO_KEYS, ("params", "robots", "goals"),
                      by_hand=("params", "robots", "goals", "resolution"))
    kwargs["params"] = Params(**_section(d["params"], "params", _PARAMS_KEYS, _PARAMS_KEYS))
    if "resolution" in d:
        kwargs["resolution"] = ResolutionConfig(**_section(d["resolution"], "resolution", _RESOLUTION_KEYS))
    robots = _read(d["robots"], _list, "scenario key 'robots'")
    for r in robots:
        _check_keys(r, "robot", ("p", "v"), ("p",))
    kwargs["initial"] = tuple(
        RobotState(p=_read(r["p"], _numbers, f"robot position p of robot {k}"),
                   v=_read(r.get("v", (0.0, 0.0)), _numbers, f"robot velocity v of robot {k}"))
        for k, r in enumerate(robots)
    )
    goals = _read(d["goals"], _list, "scenario key 'goals'")
    kwargs["goals"] = GoalSpec(pd=tuple(_read(g, _numbers, f"goal {k}") for k, g in enumerate(goals)))
    return Scenario(**kwargs)


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a YAML file (schema documented in the README)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def export_log(log: TrajectoryLog, fmt: str, path: str) -> None:
    """Write the log as CSV (one row per step per robot) or full-fidelity JSON."""
    try:
        if fmt == "csv":
            _export_csv(log, path)
        elif fmt == "json":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(log_to_json(log))
        else:
            raise ValueError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing log to {path}: {exc}") from exc


def _csv_columns(n: int) -> list[str]:
    cols = ["t", "robot_id", "px", "py", "vx", "vy", "ux_star", "uy_star", "ux_hat", "uy_hat", "phase"]
    for i, j in pair_indices(n):
        cols.append(f"h_{i}_{j}")
    for i, j in pair_indices(n):
        cols.append(f"mu_{i}_{j}")
    return cols


def _export_csv(log: TrajectoryLog, path: str) -> None:
    n = log.n_robots
    pairs = pair_indices(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_columns(n)) + "\n")
        for k in range(log.n_records):
            pair_cells = [repr(float(log.h[k, c])) for c in range(len(pairs))]
            # mu_ij column: the lower-id robot's multiplier for its row against j
            mu_cells = [repr(float(log.mu[k, i, neighbor_row(i, j)])) for i, j in pairs]
            for i in range(n):
                cells = [
                    repr(float(log.t[k])), str(i),
                    repr(float(log.pos[k, i, 0])), repr(float(log.pos[k, i, 1])),
                    repr(float(log.vel[k, i, 0])), repr(float(log.vel[k, i, 1])),
                    repr(float(log.u_star[k, i, 0])), repr(float(log.u_star[k, i, 1])),
                    repr(float(log.u_hat[k, i, 0])), repr(float(log.u_hat[k, i, 1])),
                    str(int(log.phase[k])),
                ]
                fh.write(",".join(cells + pair_cells + mu_cells) + "\n")


def log_to_json(log: TrajectoryLog) -> str:
    payload = {name: getattr(log, name).tolist() for name in _RECORD_LAYOUT}
    payload.update(meta=log.meta, events=log.events)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_log(path: str) -> TrajectoryLog:
    """Read a JSON log whose arrays hold len(t) records of the robots of meta["scenario"]."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    d = json.loads(text)
    # no log field is a bool, so only a log whose text holds one is scanned for it
    bools = "true" in text or "false" in text
    where = f"{path} is not a trajectory log:"
    if not isinstance(d, dict):
        raise ValueError(f"{where} its top level is not a mapping")
    for key in (*_RECORD_LAYOUT, "meta", "events"):
        if key not in d:
            raise ValueError(f"{where} key {key!r} is missing")
    if not isinstance(d["meta"], dict) or "scenario" not in d["meta"]:
        raise ValueError(f"{where} meta is not a mapping with the key 'scenario'")
    n = len(scenario_from_dict(d["meta"]["scenario"]).initial)
    records = len(_read(d["t"], _list, f"{where} key 't'"))
    arrays = {}
    for name, (dtype, shape) in _RECORD_LAYOUT.items():
        try:
            arrays[name] = _record_array(d[name], dtype, bools)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where} array {name!r}: {' '.join(str(exc).split())}") from None
        want = (records, *shape(n))
        if arrays[name].shape != want:
            raise ValueError(f"{where} array {name!r} has shape {arrays[name].shape}, not {want}")
    events = _read(d["events"], _list, f"{where} key 'events'")
    for k, event in enumerate(events):
        if not (isinstance(event, dict) and isinstance(event.get("name"), str) and _finite(event.get("t"))):
            raise ValueError(f"{where} event {k} is not a mapping with a string 'name' and a finite 't'")
    return TrajectoryLog(**arrays, events=events, meta=d["meta"])


def _record_array(values, dtype, bools: bool) -> np.ndarray:
    """values as a record array of dtype, checked before a cast could coerce 1.9, true or "0.1".

    A float array must read as numbers, by NumPy's dtype kind of the uncast
    array; it is scanned for a bool, which reads as a number among numbers,
    only if ``bools`` (a scan adds about a third to the load).  The phases
    and masks are scanned: each must be an int (a bool is not), and each mask
    non-negative.
    """
    if dtype is float:
        array = np.asarray(values)
        if array.size and array.dtype.kind not in "iuf":
            raise ValueError(f"holds {array.dtype} values, not numbers")
        if bools and any(type(x) is bool for x in np.asarray(values, dtype=object).flat):
            raise ValueError("holds a bool, not a number")
        return array.astype(float, copy=False)
    array = np.asarray(values, dtype=object)
    masks = dtype is object
    if not all(type(x) is int and (x >= 0 or not masks) for x in array.flat):
        raise ValueError(f"holds a {'mask that is not a non-negative int' if masks else 'value that is not an int'}")
    # phase is cast from the values, where an int8 overflow raises instead of wrapping
    return array if masks else np.asarray(values, dtype=dtype)


def _finite(x) -> bool:
    """x is a finite number (a bool or a number too large for a float is not)."""
    try:
        return math.isfinite(_number(x))
    except (ValueError, OverflowError):
        return False


# ---------------------------------------------------------------------------
# post-hoc audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of the post-hoc safety / KKT audit of a trajectory log."""

    n_records: int
    h_match_max: float      # max |logged h - recomputed h|
    h_min: float            # min recomputed h over all pairs and steps
    kkt_max_residual: float
    bad_records: int        # records whose values, time, phase, u_hat, mu or masks do not fit the run
    ok: bool


# audit_log passes a log within these bounds on |logged h - recomputed h|,
# on the recomputed h from below, and on every re-verified KKT residual.
AUDIT_H_MATCH_TOL = 1e-12
AUDIT_H_FLOOR = -1e-3
AUDIT_KKT_TOL = 1e-8
# The phases a controller's records may carry; no run's phase ever decreases.
_PHASES = {"pd-only": (3,), "cbf-qp-only": (1,), "three-phase": (1, 2, 3)}


# Record x robot x QP-row entries audit_log evaluates at once.  A whole
# head-on log (2 robots, 5 rows) is one chunk of records; a 64-robot log
# (67 rows) goes 61 records at a time, so the audit's memory stays bounded.
_AUDIT_CHUNK_ENTRIES = 2**18


def audit_log(log: TrajectoryLog) -> AuditReport:
    """Recompute h, the PD references and the logged QP optima from the logged states.

    A record is bad, and not checked further, when it holds a non-finite
    float or its t is off the run's clock: t starts at 0, rises, and ends at
    most half a step past the run's last step.  It is bad, and left out of
    h_match_max, when h or its QPs are undefined: two robots coincide, or on
    a phase-1 record a pair lies inside the margin beyond BOUNDARY_SNAP, or
    on the boundary with |dp.dv| >= EPS_NUM; h_min leaves out only the
    records with coincident robots, so it shows the worst state.  A record is
    also bad when its phase does not fit the controller (_PHASES), its u_hat
    is not pd_control of its state, or its mu and active masks break the one
    rule for every record: a phase-1 record's QPs, rebuilt from its state,
    pass the KKT check at the logged controls and multipliers and its masks
    are the rows active at the logged controls; any other record has zero mu
    and masks.

    The audit evaluates the paper's formulas over whole arrays of records,
    in chunks of _AUDIT_CHUNK_ENTRIES, and shares no code with the run's pair
    pass (PairField) or with the QP checks of qp, so a fault in either fails
    it.  Its values are theirs bit for bit: the same float operations in the
    same order, and math.hypot for every norm (np.hypot can differ in the
    last bit).
    """
    scen = scenario_from_dict(log.meta["scenario"])
    t, phase = log.t, log.phase
    sound = t <= scen.n_steps * scen.dt + scen.dt / 2
    sound[1:] &= t[1:] > t[:-1]
    sound[:1] &= t[:1] == 0.0
    misfit = ~(phase[:, None] == _PHASES[scen.controller]).any(axis=1)   # off the controller's phases, or falling
    misfit[1:] |= phase[1:] < phase[:-1]
    layout = _AuditLayout(scen, log.n_robots)
    size = max(1, _AUDIT_CHUNK_ENTRIES // (layout.n * layout.rows))
    h_match, h_min, kkt_max, bad_records = 0.0, math.inf, 0.0, 0
    for start in range(0, log.n_records, size):
        chunk = slice(start, start + size)
        c_match, c_min, c_kkt, c_bad = _audit_chunk(log, chunk, layout, sound[chunk], misfit[chunk])
        h_match, h_min, kkt_max = max(h_match, c_match), min(h_min, c_min), max(kkt_max, c_kkt)
        bad_records += c_bad

    # without pairs h_min stays inf and passes the floor
    ok = (
        h_match <= AUDIT_H_MATCH_TOL and h_min >= AUDIT_H_FLOOR and kkt_max <= AUDIT_KKT_TOL
        and bad_records == 0
    )
    return AuditReport(
        n_records=log.n_records,
        h_match_max=h_match,
        h_min=h_min,
        kkt_max_residual=kkt_max,
        bad_records=bad_records,
        ok=ok,
    )


class _AuditLayout:
    """The per-log constants of the audit: pair order, alpha sums and the QP row layout.

    Robot i's QP has n - 1 neighbor rows, row k facing robot other[i, k] =
    k + (k >= i), through the pair pair_of[i, k], with the bound share
    alpha_i / (alpha_i + alpha_j); then the four box rows, normals
    BOX_NORMALS, bound alpha_i.  A row's bit in an active mask is 1 << row.
    """

    def __init__(self, scen: Scenario, n: int):
        params = scen.params
        pairs = pair_indices(n)
        index = {pair: p for p, pair in enumerate(pairs)}
        other = [[k + (k >= i) for k in range(n - 1)] for i in range(n)]
        self.n = n
        self.rows = n + 3
        self.kp, self.kv, self.ds = params.kp, params.kv, params.ds
        self.goals = np.array(scen.goals.pd, dtype=float)
        self.alpha = np.array(params.alpha, dtype=float)
        self.i, self.j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        self.asum = self.alpha[self.i] + self.alpha[self.j]
        self.other = np.array(other, dtype=np.intp)
        pair_of = [[index[min(i, j), max(i, j)] for j in row] for i, row in enumerate(other)]
        self.pair_of = np.array(pair_of, dtype=np.intp)
        self.share = self.alpha[:, None] / self.asum[self.pair_of]
        self.box = np.array(BOX_NORMALS, dtype=float)
        # a mask of more than 63 rows does not fit in int64: sum Python ints
        self.bits = np.array([1 << k for k in range(self.rows)], dtype=object if self.rows > 63 else np.int64)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot of every element pair (np.hypot can differ from it in the last bit)."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    lengths = map(math.hypot, memoryview(x.reshape(-1)), memoryview(y.reshape(-1)))
    return np.fromiter(lengths, float, x.size).reshape(x.shape)


def _audit_chunk(log: TrajectoryLog, rec: slice, lay: _AuditLayout, sound: np.ndarray, misfit: np.ndarray):
    """(h_match_max, h_min, kkt_max_residual, bad_records) of the records rec of the log.

    sound and misfit are the clock and phase verdicts of those records.
    """
    for name, (dtype, _) in _RECORD_LAYOUT.items():
        if dtype is float:
            array = getattr(log, name)[rec]
            sound = sound & np.isfinite(array).all(axis=tuple(range(1, array.ndim)))
    pos, vel = log.pos[rec], log.vel[rec]
    phase1 = log.phase[rec] == 1
    # a far-off or tampered state may overflow or divide by zero, as the
    # scalar arithmetic does; a record whose h or bounds would raise there is
    # broken, and masked out
    with np.errstate(all="ignore"):
        h, bound, coincident, broken = _pair_pass(pos, vel, lay, phase1)
        broken &= sound
        checked = sound & ~broken
        h_match = np.fmax.reduce(np.abs(h - log.h[rec])[checked], axis=None, initial=0.0)
        h_min = np.fmin.reduce(h[sound & ~coincident], axis=None, initial=math.inf)
        del h   # the QP rows below are the chunk's largest arrays
        u_hat = -lay.kp * (pos - lay.goals) - lay.kv * vel
        # every record's QPs are rebuilt; only the checked phase-1 records' count
        residual, masks = _qp_checks(pos, log.u_star[rec], log.mu[rec], u_hat, bound, lay)
    qp = checked & phase1
    kkt_max = np.fmax.reduce(residual[qp], axis=None, initial=0.0)
    record_bad = (u_hat != log.u_hat[rec]).any(axis=(1, 2)) | misfit
    logged_masks = log.active[rec]
    # a phase-1 record's masks are its active rows; any other record runs no QP
    record_bad |= np.where(
        phase1,
        (logged_masks != masks).any(axis=1),
        (log.mu[rec] != 0.0).any(axis=(1, 2)) | (logged_masks != 0).any(axis=1),
    )
    bad_records = int(np.count_nonzero(~sound | broken | (checked & record_bad)))
    return float(h_match), float(h_min), float(kkt_max), bad_records


def _pair_pass(pos: np.ndarray, vel: np.ndarray, lay: _AuditLayout, phase1: np.ndarray):
    """The signed h and bound b_ij of every pair of every record, the records with coincident robots, the broken ones.

    h = +-sqrt(2 (a_i + a_j) |r - Ds|) + dp.dv / r, its root 0 within
    BOUNDARY_SNAP of the margin, with dp = p_i - p_j, dv = v_i - v_j,
    r = |dp|;  b = r h^3 + (a_i + a_j) dp.dv / sqrt(2 (a_i + a_j)(r - Ds))
    + |dv|^2 - (dp.dv)^2 / r^2, its middle term 0 below EPS_NUM.  A record is
    broken when h is undefined (r = 0), or it is a phase-1 record and a bound
    is (r - Ds < -BOUNDARY_SNAP, or r - Ds < EPS_NUM with |dp.dv| >= EPS_NUM).
    """
    r, pv, dvv = _pair_scalars(pos, vel, lay)
    eps = r - lay.ds
    root = np.copysign(np.sqrt(2.0 * lay.asum * np.abs(eps)), eps)
    h = np.where(np.abs(eps) <= BOUNDARY_SNAP, 0.0, root) + pv / r
    undefined = (eps < -BOUNDARY_SNAP) | ((eps < EPS_NUM) & ~(np.abs(pv) < EPS_NUM))
    coincident = (r == 0.0).any(axis=1)
    broken = coincident | (phase1 & undefined.any(axis=1))
    middle = np.where(eps < EPS_NUM, 0.0, lay.asum * pv / np.sqrt(2.0 * lay.asum * eps))
    bound = r * h * h * h + middle + dvv - (pv * pv) / (r * r)
    return h, bound, coincident, broken


def _pair_scalars(pos: np.ndarray, vel: np.ndarray, lay: _AuditLayout):
    """(r, dp.dv, |dv|^2) of every pair of every record; dp and dv are freed on return."""
    dx, dy = pos[:, lay.i, 0] - pos[:, lay.j, 0], pos[:, lay.i, 1] - pos[:, lay.j, 1]
    dvx, dvy = vel[:, lay.i, 0] - vel[:, lay.j, 0], vel[:, lay.i, 1] - vel[:, lay.j, 1]
    return _hypot(dx, dy), dx * dvx + dy * dvy, dvx * dvx + dvy * dvy


def _qp_checks(pos: np.ndarray, u: np.ndarray, mu: np.ndarray, u_hat: np.ndarray, bound: np.ndarray,
               lay: _AuditLayout):
    """The KKT residual of every robot's QP at the logged u and mu, and its active-row mask.

    Robot i's rows are a.u <= b: a = -(p_i - p_j) with b = alpha_i /
    (alpha_i + alpha_j) b_ij for its neighbors j, then the box rows.  The
    residual is the largest of stationarity |u - u_hat + 1/2 sum_k mu_k a_k|,
    primal feasibility max(a.u - b, 0), dual feasibility max(-mu, 0) and
    complementary slackness |mu (a.u - b)|; a row is active where
    |a.u - b| <= ACTIVE_TOL (1 + |b|).
    """
    shape, nb = (len(pos), lay.n, lay.rows), lay.n - 1
    ax, ay, b = np.empty(shape), np.empty(shape), np.empty(shape)
    # built in place: at N = 64 each row array is most of the chunk's memory
    for a, axis in ((ax, 0), (ay, 1)):
        np.subtract(pos[:, :, None, axis], pos[:, lay.other, axis], out=a[..., :nb])
        np.negative(a[..., :nb], out=a[..., :nb])
        a[..., nb:] = lay.box[:, axis]
    np.multiply(lay.share, bound[:, lay.pair_of], out=b[..., :nb])
    b[..., nb:] = lay.alpha[:, None]
    # the stationarity sum runs row by row, in row order
    gx, gy = u[..., 0] - u_hat[..., 0], u[..., 1] - u_hat[..., 1]
    for k in range(lay.rows):
        gx += 0.5 * mu[..., k] * ax[..., k]
        gy += 0.5 * mu[..., k] * ay[..., k]
    # the slack a.u - b, then the active band, overwrite ax, ay and b
    slack = np.multiply(ax, u[..., 0, None], out=ax)
    slack += np.multiply(ay, u[..., 1, None], out=ay)
    slack -= b
    primal = np.fmax.reduce(slack, axis=-1, initial=0.0)
    dual = np.fmax.reduce(-mu, axis=-1, initial=0.0)
    comp = np.fmax.reduce(np.abs(mu * slack), axis=-1, initial=0.0)
    # a NaN stationarity drops the QP's residuals, as max() does
    residual = np.maximum(np.maximum(np.maximum(_hypot(gx, gy), primal), dual), comp)
    tol = np.abs(b, out=b)
    tol += 1.0
    tol *= ACTIVE_TOL
    return residual, (np.abs(slack, out=slack) <= tol) @ lay.bits
