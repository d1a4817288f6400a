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
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
import yaml

# assemble_qp, min_pair_distance and safety_index_signed are bound here only
# for the perfbench span tracer; sim reads pair geometry from PairField.
from .cbf import PairField, assemble_qp, min_pair_distance, pair_indices, safety_index_signed  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    RobotState,
    Vec2,
    WorldState,
    pd_control,
    v_norm,
    v_sub,
)
# supervisor_step calls solve_qp and system_deadlock; they stay bound here for
# callers that look them up on this module.
from .deadlock import DeadlockThresholds, system_deadlock  # noqa: F401
from .errors import (
    BoundarySingularityError,
    CoincidentRobotsError,
    QPInfeasibleError,
    SafetyViolationError,
    SimulationAbort,
    UnsupportedScenarioError,
)
from .qp import QPSolution, solve_qp, verify_kkt  # noqa: F401
from .resolution import Filtering, Released, ResolutionConfig, supervisor_step

# Every controller is the supervisor from its own starting state: the plain
# CBF-QP filter never leaves phase 1, the plain PD controllers are phase 3.
_START_STATES = {
    "cbf-qp-only": Filtering(resolve=False),
    "three-phase": Filtering(),
    "pd-only": Released(),
}
CONTROLLERS = tuple(_START_STATES)


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one simulation run."""

    params: Params
    initial: tuple[RobotState, ...]
    goals: GoalSpec
    controller: str = "cbf-qp-only"
    dt: float = 1e-3
    t_max: float = 30.0
    thresholds: DeadlockThresholds | None = None
    seed: int = 0
    stop_goal_tol: float = 1e-4
    log_every: int = 1
    abort_dist_tol: float = 1e-6
    resolution: ResolutionConfig = field(default_factory=ResolutionConfig)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        if not 0.0 < self.dt < self.t_max < math.inf:
            raise ValueError(f"need finite dt > 0 and t_max > dt, got dt={self.dt!r}, t_max={self.t_max!r}")
        if not (isinstance(self.log_every, int) and self.log_every >= 1):
            raise ValueError(f"log_every must be an integer >= 1, got {self.log_every!r}")
        if len(self.initial) != len(self.goals):
            raise ValueError("one goal per robot required")
        if len(self.initial) != len(self.params.alpha):
            raise ValueError("one alpha per robot required")
        if self.controller == "three-phase" and not self.params.overdamped:
            # the PD release phase only guarantees non-decreasing separation
            # for overdamped gains
            raise ValueError("three-phase control requires kv^2 - 4 kp > 0")
        pair_field = PairField(WorldState(robots=self.initial), self.params)
        for (i, j), d in zip(pair_indices(len(self.initial)), pair_field.distances):
            if d < self.params.ds - 1e-9:
                raise ValueError(
                    f"initial robots {i},{j} start {d:.6f} apart, inside the margin {self.params.ds}"
                )

    def effective_thresholds(self) -> DeadlockThresholds:
        return self.thresholds if self.thresholds is not None else DeadlockThresholds.from_params(self.params)


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
    from .deadlock import three_robot_family_catA

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

@dataclass
class TrajectoryLog:
    """Dense per-step record arrays plus the event stream.

    One array per _RECORD_LAYOUT entry, records first.  Pair columns of h
    are in ascending (i, j) order; the N + 3 rows of mu and of the active
    bitmask follow the fixed QP ordering (neighbors by ascending id, then box
    faces +x, +y, -x, -y).  The bitmasks are Python ints in an object array:
    at N >= 61 a box row's bit does not fit in int64.  Phase is 0 for
    pd-only, 1 for cbf-qp-only, and the supervisor phase for three-phase runs.
    """

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    u_star: np.ndarray
    u_hat: np.ndarray
    h: np.ndarray
    mu: np.ndarray
    active: np.ndarray
    phase: np.ndarray
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


# The record arrays of a TrajectoryLog: name -> (dtype, shape of one record
# for n robots).  Allocation, trimming, JSON export and load all loop over it.
_RECORD_LAYOUT = {
    "t": (float, lambda n: ()),
    "pos": (float, lambda n: (n, 2)),
    "vel": (float, lambda n: (n, 2)),
    "u_star": (float, lambda n: (n, 2)),
    "u_hat": (float, lambda n: (n, 2)),
    "h": (float, lambda n: (n * (n - 1) // 2,)),
    "mu": (float, lambda n: (n, n + 3)),
    "active": (object, lambda n: (n,)),
    "phase": (np.int8, lambda n: ()),
}


class _Recorder:
    def __init__(self, n: int, capacity: int):
        self.rows = 0
        for name, (dtype, shape) in _RECORD_LAYOUT.items():
            setattr(self, name, np.empty((capacity, *shape(n)), dtype=dtype))

    def push(self, t, world, u_star, u_hat, h_vals, mu_rows, active_masks, phase):
        k = self.rows
        self.t[k] = t
        for i, z in enumerate(world.robots):
            self.pos[k, i] = z.p
            self.vel[k, i] = z.v
            self.u_star[k, i] = u_star[i]
            self.u_hat[k, i] = u_hat[i]
            self.mu[k, i] = mu_rows[i]
            self.active[k, i] = active_masks[i]
        self.h[k] = h_vals
        self.phase[k] = phase
        self.rows += 1

    def build(self, events: list[dict], meta: dict) -> TrajectoryLog:
        arrays = {name: getattr(self, name)[:self.rows].copy() for name in _RECORD_LAYOUT}
        return TrajectoryLog(**arrays, events=events, meta=meta)


def integrate_step(world: WorldState, controls: tuple[Vec2, ...], dt: float) -> WorldState:
    """Semi-implicit Euler: v+ = v + u dt, then p+ = p + v+ dt."""
    robots = []
    for z, u in zip(world.robots, controls):
        v = (z.v[0] + dt * u[0], z.v[1] + dt * u[1])
        p = (z.p[0] + dt * v[0], z.p[1] + dt * v[1])
        robots.append(RobotState(p=p, v=v))
    return WorldState(robots=tuple(robots), t=world.t + dt)


# Geometry errors of the pair pass and the supervisor, and the abort kind
# run_scenario turns each into.
_GEOMETRY_ABORTS = {
    SafetyViolationError: "safety-violation",
    BoundarySingularityError: "boundary-singularity",
    CoincidentRobotsError: "coincident-robots",
}


def run_scenario(scenario: Scenario) -> TrajectoryLog:
    """Simulate until t_max or until every robot is within stop_goal_tol of its goal.

    Aborts with SimulationAbort (diagnostic kind "qp-infeasible" or
    "safety-violation") when the QP has no solution, a pair dips below
    Ds - abort_dist_tol, or a QP is assembled for a pair inside the margin;
    a bound evaluated on the margin with nonzero radial velocity and
    coincident robots abort as "boundary-singularity" and "coincident-robots".
    The supervisor aborts as "unsupported-deadlock" on a deadlock it cannot
    resolve (N > 3, or a three-robot contact geometry of neither category),
    and as "phase2-singular" or "phase2-diverged" when its phase-2 Newton
    step fails.  A step whose new state would not be finite aborts as
    "non-finite-state".  Every abort carries a snapshot of the last state
    reached.
    Deterministic for a fixed scenario.  Pair geometry is evaluated once per
    state (PairField) and feeds the abort check, the QPs and the h record.
    """
    params = scenario.params
    goals = scenario.goals
    thresholds = scenario.effective_thresholds()
    n = len(scenario.initial)
    world = WorldState(robots=scenario.initial, t=0.0)
    pair_field = PairField(world, params)
    n_steps = int(round(scenario.t_max / scenario.dt))
    rec = _Recorder(n, n_steps // scenario.log_every + 2)
    events: list[dict] = []
    phase_state = _START_STATES[scenario.controller]
    pd_only = scenario.controller == "pd-only"
    zero_mu = [(0.0,) * (n + 3)] * n   # the multipliers of a step without QPs
    zero_masks = [0] * n

    def snapshot() -> dict:
        return {"t": world.t, "p": [z.p for z in world.robots], "v": [z.v for z in world.robots]}

    def controller_outputs() -> tuple[tuple[Vec2, ...], list, list, list, int]:
        nonlocal phase_state
        u_hat = [pd_control(world.robots[i], goals.pd[i], params) for i in range(n)]
        prev_phase = phase_state.phase
        controls, phase_state, info = supervisor_step(
            phase_state, world, goals, params, thresholds, scenario.dt, scenario.resolution,
            pairs=pair_field, u_hat=u_hat,
        )
        if "event" in info:
            name, t_ev = info["event"]
            events.append({"name": name, "t": t_ev})
        if info["phase"] != prev_phase:
            events.append({"name": f"phase-{int(info['phase'])}-start", "t": world.t})
        if "solutions" in info:
            mu_rows = [sol.mu_star for sol in info["solutions"]]
            masks = [_active_mask(sol) for sol in info["solutions"]]
        else:
            mu_rows, masks = zero_mu, zero_masks
        return controls, u_hat, mu_rows, masks, 0 if pd_only else int(info["phase"])

    step = 0
    reached = False   # every robot within stop_goal_tol: record this state, then stop
    try:
        while True:
            controls, u_hat, mu_rows, masks, phase = controller_outputs()
            if reached or step % scenario.log_every == 0:
                rec.push(world.t, world, controls, u_hat, pair_field.h, mu_rows, masks, phase)
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
            if pair_field.min_distance < params.ds - scenario.abort_dist_tol:
                raise SimulationAbort(
                    "safety-violation",
                    f"pair distance {pair_field.min_distance:.9f} below margin at t={world.t:.6f}",
                    snapshot(),
                )
            reached = all(
                v_norm(v_sub(world.robots[i].p, goals.pd[i])) <= scenario.stop_goal_tol for i in range(n)
            )
    except SimulationAbort as exc:
        # the phase-2 Newton step aborts without the state
        exc.snapshot = exc.snapshot or snapshot()
        raise
    except QPInfeasibleError as exc:
        raise SimulationAbort("qp-infeasible", str(exc), snapshot()) from exc
    except UnsupportedScenarioError as exc:
        raise SimulationAbort("unsupported-deadlock", str(exc), snapshot()) from exc
    except tuple(_GEOMETRY_ABORTS) as exc:
        kind = next(k for cls, k in _GEOMETRY_ABORTS.items() if isinstance(exc, cls))
        raise SimulationAbort(kind, f"{exc} at t={world.t:.6f}", snapshot()) from exc

    meta = {
        "scenario": scenario_to_dict(scenario),
        "n_robots": n,
        "pair_order": [list(p) for p in pair_indices(n)],
        "row_order": "neighbors ascending, then box +x, +y, -x, -y",
    }
    return rec.build(events, meta)


def _active_mask(sol: QPSolution) -> int:
    mask = 0
    for k in sol.active_set:
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


def _list(value) -> list | tuple:
    """value if it is a list or a tuple (a string or a single number is not)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


# The scalar keys of a scenario file and how each is read.  A key left out
# takes the Scenario default; params, robots and goals are required.
_SCALAR_KEYS = {
    "controller": str,
    "dt": float,
    "t_max": float,
    "seed": _integer,
    "stop_goal_tol": float,
    "log_every": _integer,
    "abort_dist_tol": float,
}
_REQUIRED_KEYS = ("params", "robots", "goals")


def _check_keys(d, where: str, known, required) -> None:
    """Raise ValueError naming the first unknown or missing key of the mapping d."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {d!r}")
    bad = [f"unknown {where} key {k!r}" for k in d if k not in known]
    bad += [f"{where} key {k!r} is missing" for k in required if k not in d]
    if bad:
        raise ValueError(bad[0])


def _read(d: dict, key: str, read, where: str):
    """read(d[key]); its TypeError or ValueError becomes a ValueError naming the key."""
    try:
        return read(d[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} key {key!r}: {exc}") from None


def _check_fields(d, cls, where: str) -> None:
    """_check_keys against the fields of the dataclass cls; those without a default are required."""
    fs = fields(cls)
    required = [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(d, where, {f.name for f in fs}, required)


def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "params": {"kp": s.params.kp, "kv": s.params.kv, "ds": s.params.ds, "alpha": list(s.params.alpha)},
        "robots": [{"p": list(z.p), "v": list(z.v)} for z in s.initial],
        "goals": [list(g) for g in s.goals.pd],
        "resolution": asdict(s.resolution),
    }
    d.update((key, getattr(s, key)) for key in _SCALAR_KEYS)
    if s.thresholds is not None:
        d["thresholds"] = asdict(s.thresholds)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    """The Scenario of a scenario_to_dict mapping; unknown and missing keys raise ValueError."""
    _check_keys(d, "scenario", {*_REQUIRED_KEYS, "thresholds", "resolution", *_SCALAR_KEYS}, _REQUIRED_KEYS)
    p = d["params"]
    _check_fields(p, Params, "params")
    robots = _read(d, "robots", _list, "scenario")
    for r in robots:
        _check_keys(r, "robot", ("p", "v"), ("p",))
    kwargs = {
        "params": Params(
            **{k: _read(p, k, float, "params") for k in ("kp", "kv", "ds")},
            alpha=_read(p, "alpha", lambda v: [float(a) for a in _list(v)], "params"),
        ),
        "initial": tuple(RobotState(p=r["p"], v=r.get("v", (0.0, 0.0))) for r in robots),
        "goals": GoalSpec(pd=tuple(_read(d, "goals", _list, "scenario"))),
    }
    if "thresholds" in d:
        th = d["thresholds"]
        _check_fields(th, DeadlockThresholds, "thresholds")
        kwargs["thresholds"] = DeadlockThresholds(**{k: _read(th, k, float, "thresholds") for k in th})
    if "resolution" in d:
        _check_fields(d["resolution"], ResolutionConfig, "resolution")
        kwargs["resolution"] = ResolutionConfig(**d["resolution"])
    for key, read in _SCALAR_KEYS.items():
        if key in d:
            kwargs[key] = _read(d, key, read, "scenario")
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
            mu_cells = []
            for i, j in pairs:
                # i < j: robot i's neighbor rows skip i, so its row against j is j - 1
                mu_cells.append(repr(float(log.mu[k, i, j - 1])))
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
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{path} is not a trajectory log: its top level is not a mapping")
    for key in (*_RECORD_LAYOUT, "meta", "events"):
        if key not in d:
            raise ValueError(f"{path} is not a trajectory log: key {key!r} is missing")
    arrays = {name: np.asarray(d[name], dtype=dtype) for name, (dtype, _) in _RECORD_LAYOUT.items()}
    return TrajectoryLog(**arrays, events=d["events"], meta=d["meta"])


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
    ok: bool


# audit_log passes a log within these bounds on |logged h - recomputed h|,
# on the recomputed h from below, and on every re-verified KKT residual.
AUDIT_H_MATCH_TOL = 1e-12
AUDIT_H_FLOOR = -1e-3
AUDIT_KKT_TOL = 1e-8


def audit_log(log: TrajectoryLog, kkt_stride: int = 1) -> AuditReport:
    """Recompute h from logged states and re-verify logged QP optima.

    The h recomputation is independent of the in-loop values (fresh pass
    over the raw states).  The KKT pass re-assembles the QPs of every
    kkt_stride-th phase-1 record from the same pair pass, against the
    logged controls and multipliers.
    """
    scen = scenario_from_dict(log.meta["scenario"])
    params = scen.params
    goals = scen.goals.pd

    h_match = 0.0
    h_min = math.inf
    kkt_max = 0.0
    phases = log.phase.tolist()
    for k in range(log.n_records):
        world = log.world_at(k)
        pair_field = PairField(world, params)
        for h, h_logged in zip(pair_field.h, log.h[k].tolist()):
            h_match = max(h_match, abs(h - h_logged))
            h_min = min(h_min, h)
        if k % kkt_stride or phases[k] != 1:
            continue
        u_hat = [pd_control(z, goal, params) for z, goal in zip(world.robots, goals)]
        for i, problem in enumerate(pair_field.problems(u_hat)):
            # verify_kkt reads the multipliers, not the active set
            sol = QPSolution(tuple(log.u_star[k, i].tolist()), tuple(log.mu[k, i].tolist()), (), "optimal")
            kkt_max = max(kkt_max, verify_kkt(problem, sol).max_residual())

    # without pairs h_min stays inf and passes the floor
    ok = h_match <= AUDIT_H_MATCH_TOL and h_min >= AUDIT_H_FLOOR and kkt_max <= AUDIT_KKT_TOL
    return AuditReport(
        n_records=log.n_records,
        h_match_max=h_match,
        h_min=h_min,
        kkt_max_residual=kkt_max,
        ok=ok,
    )
