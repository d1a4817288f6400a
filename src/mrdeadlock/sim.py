"""Closed-loop time integration, scenario configuration, logging and audits.

run_scenario advances the chosen controller (plain PD, CBF-QP, or the
three-phase resolution supervisor) with a semi-implicit Euler step and
records every quantity needed for post-hoc verification: states, applied
and reference controls, per-pair safety indices, per-row multipliers,
active sets and the supervisor phase, plus an event stream.  Identical
scenarios produce byte-identical JSON logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

# assemble_qp, min_pair_distance and safety_index_signed are the scalar
# oracles of PairField; they stay bound here because callers (the perfbench
# span tracer among them) look them up on this module.
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
from .deadlock import DeadlockThresholds, system_deadlock
from .errors import (
    QPInfeasibleError,
    SafetyViolationError,
    SimulationAbort,
    ToolkitError,
    UnsupportedScenarioError,
)
from .qp import QPSolution, solve_qp, verify_kkt
from .resolution import Phase, PhaseState, ResolutionConfig, supervisor_step

CONTROLLERS = ("cbf-qp-only", "three-phase", "pd-only")


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
        if not (self.dt > 0.0 and self.t_max > self.dt):
            raise ValueError("need dt > 0 and t_max > dt")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if len(self.initial) != len(self.goals):
            raise ValueError("one goal per robot required")
        if len(self.initial) != len(self.params.alpha):
            raise ValueError("one alpha per robot required")
        if self.controller == "three-phase" and not self.params.overdamped:
            # the PD release phase only guarantees non-decreasing separation
            # for overdamped gains
            raise ValueError("three-phase control requires kv^2 - 4 kp > 0")
        n = len(self.initial)
        for i in range(n):
            for j in range(i + 1, n):
                d = v_norm(v_sub(self.initial[i].p, self.initial[j].p))
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

    Array shapes (K records, N robots, P = N(N-1)/2 pairs, R = N+3 rows):
    t (K,), pos/vel/u_star/u_hat (K, N, 2), h (K, P), mu (K, N, R),
    active (K, N) row bitmask, phase (K,).  Pair columns are in ascending
    (i, j) order; row indices follow the fixed QP ordering (neighbors by
    ascending id, then box faces +x, +y, -x, -y).  Phase is 0 for pd-only,
    1 for cbf-qp-only, and the supervisor phase for three-phase runs.
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


class _Recorder:
    def __init__(self, n: int, capacity: int):
        self.rows = 0
        self.t = np.empty(capacity)
        self.pos = np.empty((capacity, n, 2))
        self.vel = np.empty((capacity, n, 2))
        self.u_star = np.empty((capacity, n, 2))
        self.u_hat = np.empty((capacity, n, 2))
        self.h = np.empty((capacity, len(pair_indices(n))))
        self.mu = np.empty((capacity, n, n + 3))
        self.active = np.zeros((capacity, n), dtype=np.int64)
        self.phase = np.zeros(capacity, dtype=np.int8)

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
        k = self.rows
        return TrajectoryLog(
            t=self.t[:k].copy(),
            pos=self.pos[:k].copy(),
            vel=self.vel[:k].copy(),
            u_star=self.u_star[:k].copy(),
            u_hat=self.u_hat[:k].copy(),
            h=self.h[:k].copy(),
            mu=self.mu[:k].copy(),
            active=self.active[:k].copy(),
            phase=self.phase[:k].copy(),
            events=events,
            meta=meta,
        )


def integrate_step(world: WorldState, controls: tuple[Vec2, ...], dt: float) -> WorldState:
    """Semi-implicit Euler: v+ = v + u dt, then p+ = p + v+ dt."""
    robots = []
    for z, u in zip(world.robots, controls):
        v = (z.v[0] + dt * u[0], z.v[1] + dt * u[1])
        p = (z.p[0] + dt * v[0], z.p[1] + dt * v[1])
        robots.append(RobotState(p=p, v=v))
    return WorldState(robots=tuple(robots), t=world.t + dt)


def _zero_rows(n: int) -> list[np.ndarray]:
    return [np.zeros(n + 3) for _ in range(n)]


def run_scenario(scenario: Scenario) -> TrajectoryLog:
    """Simulate until t_max or until every robot is within stop_goal_tol of its goal.

    Aborts with SimulationAbort (diagnostic kind "qp-infeasible" or
    "safety-violation") when the QP has no solution, a pair dips below
    Ds - abort_dist_tol, or a QP is assembled for a pair inside the margin.
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
    phase_state = PhaseState()
    persist = 0
    deadlock_announced = False

    def snapshot() -> dict:
        return {"t": world.t, "p": [z.p for z in world.robots], "v": [z.v for z in world.robots]}

    def margin_abort(exc: SafetyViolationError) -> SimulationAbort:
        return SimulationAbort("safety-violation", f"{exc} at t={world.t:.6f}", snapshot())

    def controller_outputs() -> tuple[tuple[Vec2, ...], list, list, list, int]:
        nonlocal phase_state, persist, deadlock_announced
        u_hat = [pd_control(world.robots[i], goals.pd[i], params) for i in range(n)]
        if scenario.controller == "pd-only":
            return tuple(u_hat), u_hat, _zero_rows(n), [0] * n, 0
        if scenario.controller == "cbf-qp-only":
            try:
                problems = pair_field.problems(u_hat)
            except SafetyViolationError as exc:
                raise margin_abort(exc) from exc
            solutions = []
            for i, problem in enumerate(problems):
                sol = solve_qp(problem)
                if sol.status != "optimal":
                    raise SimulationAbort(
                        "qp-infeasible", f"robot {i} QP infeasible at t={world.t:.6f}", snapshot()
                    )
                solutions.append(sol)
            if n >= 2 and system_deadlock(world, goals, params, tuple(solutions), thresholds, problems):
                persist += 1
            else:
                persist = 0
            if persist >= scenario.resolution.k_persist and not deadlock_announced:
                deadlock_announced = True
                events.append({"name": "deadlock-detected", "t": world.t})
            mu_rows = [np.asarray(sol.mu_star) for sol in solutions]
            masks = [_active_mask(sol) for sol in solutions]
            controls = tuple(sol.u_star for sol in solutions)
            return controls, u_hat, mu_rows, masks, 1
        # three-phase supervisor
        prev_phase = phase_state.phase
        try:
            controls, phase_state, info = supervisor_step(
                phase_state, world, goals, params, thresholds, scenario.dt, scenario.resolution,
                pairs=pair_field, u_hat=u_hat,
            )
        except SafetyViolationError as exc:
            raise margin_abort(exc) from exc
        except QPInfeasibleError as exc:
            raise SimulationAbort("qp-infeasible", str(exc), snapshot()) from exc
        except UnsupportedScenarioError as exc:
            raise SimulationAbort("unsupported-deadlock", str(exc), snapshot()) from exc
        if "event" in info:
            name, t_ev = info["event"]
            events.append({"name": name, "t": t_ev})
        if info["phase"] != prev_phase:
            events.append({"name": f"phase-{int(info['phase'])}-start", "t": world.t})
        if "solutions" in info:
            mu_rows = [np.asarray(sol.mu_star) for sol in info["solutions"]]
            masks = [_active_mask(sol) for sol in info["solutions"]]
        else:
            mu_rows = _zero_rows(n)
            masks = [0] * n
        return controls, u_hat, mu_rows, masks, int(info["phase"])

    step = 0
    while True:
        controls, u_hat, mu_rows, masks, phase = controller_outputs()
        if step % scenario.log_every == 0:
            rec.push(world.t, world, controls, u_hat, pair_field.h, mu_rows, masks, phase)
        if step >= n_steps:
            break
        world = integrate_step(world, controls, scenario.dt)
        pair_field = PairField(world, params)
        step += 1
        if pair_field.min_distance < params.ds - scenario.abort_dist_tol:
            raise SimulationAbort(
                "safety-violation",
                f"pair distance {pair_field.min_distance:.9f} below margin at t={world.t:.6f}",
                snapshot(),
            )
        if all(
            v_norm(v_sub(world.robots[i].p, goals.pd[i])) <= scenario.stop_goal_tol for i in range(n)
        ):
            controls, u_hat, mu_rows, masks, phase = controller_outputs()
            rec.push(world.t, world, controls, u_hat, pair_field.h, mu_rows, masks, phase)
            events.append({"name": "goals-reached", "t": world.t})
            break

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


def active_rows_from_mask(mask: int, n_rows: int) -> tuple[int, ...]:
    return tuple(k for k in range(n_rows) if mask >> k & 1)


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "params": {"kp": s.params.kp, "kv": s.params.kv, "ds": s.params.ds, "alpha": list(s.params.alpha)},
        "robots": [{"p": list(z.p), "v": list(z.v)} for z in s.initial],
        "goals": [list(g) for g in s.goals.pd],
        "controller": s.controller,
        "dt": s.dt,
        "t_max": s.t_max,
        "seed": s.seed,
        "stop_goal_tol": s.stop_goal_tol,
        "log_every": s.log_every,
        "abort_dist_tol": s.abort_dist_tol,
        "resolution": asdict(s.resolution),
    }
    if s.thresholds is not None:
        d["thresholds"] = asdict(s.thresholds)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    params = Params(
        kp=float(d["params"]["kp"]),
        kv=float(d["params"]["kv"]),
        ds=float(d["params"]["ds"]),
        alpha=tuple(float(a) for a in d["params"]["alpha"]),
    )
    initial = tuple(
        RobotState(p=tuple(r["p"]), v=tuple(r.get("v", (0.0, 0.0)))) for r in d["robots"]
    )
    goals = GoalSpec(pd=tuple(tuple(g) for g in d["goals"]))
    thresholds = None
    if "thresholds" in d:
        thresholds = DeadlockThresholds(**{k: float(v) for k, v in d["thresholds"].items()})
    resolution = ResolutionConfig(**d.get("resolution", {}))
    return Scenario(
        params=params,
        initial=initial,
        goals=goals,
        controller=d.get("controller", "cbf-qp-only"),
        dt=float(d.get("dt", 1e-3)),
        t_max=float(d.get("t_max", 30.0)),
        thresholds=thresholds,
        seed=int(d.get("seed", 0)),
        stop_goal_tol=float(d.get("stop_goal_tol", 1e-4)),
        log_every=int(d.get("log_every", 1)),
        abort_dist_tol=float(d.get("abort_dist_tol", 1e-6)),
        resolution=resolution,
    )


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a YAML file (schema documented in the README)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path} did not parse to a mapping")
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
    payload = {
        "meta": log.meta,
        "events": log.events,
        "t": log.t.tolist(),
        "pos": log.pos.tolist(),
        "vel": log.vel.tolist(),
        "u_star": log.u_star.tolist(),
        "u_hat": log.u_hat.tolist(),
        "h": log.h.tolist(),
        "mu": log.mu.tolist(),
        "active": log.active.tolist(),
        "phase": log.phase.tolist(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_log(path: str) -> TrajectoryLog:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    return TrajectoryLog(
        t=np.asarray(d["t"], dtype=float),
        pos=np.asarray(d["pos"], dtype=float),
        vel=np.asarray(d["vel"], dtype=float),
        u_star=np.asarray(d["u_star"], dtype=float),
        u_hat=np.asarray(d["u_hat"], dtype=float),
        h=np.asarray(d["h"], dtype=float),
        mu=np.asarray(d["mu"], dtype=float),
        active=np.asarray(d["active"], dtype=np.int64),
        phase=np.asarray(d["phase"], dtype=np.int8),
        events=d["events"],
        meta=d["meta"],
    )


# ---------------------------------------------------------------------------
# post-hoc audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of the post-hoc safety / KKT audit of a trajectory log."""

    n_records: int
    h_match_max: float      # max |logged h - recomputed h|
    h_min: float            # min recomputed h over all pairs and steps
    kkt_max_residual: float | None
    ok: bool


def audit_log(
    log: TrajectoryLog,
    h_floor: float = -1e-3,
    h_match_tol: float = 1e-12,
    kkt_tol: float = 1e-8,
    kkt_stride: int = 1,
    check_kkt: bool = True,
) -> AuditReport:
    """Recompute h from logged states and re-verify logged QP optima.

    The h recomputation is independent of the in-loop values (fresh pass
    over the raw states); both must agree to h_match_tol and the recomputed
    h must never drop below h_floor while the QP reported feasible.  The KKT
    pass re-assembles the QPs of every kkt_stride-th phase-1 record from the
    same pair pass; if one cannot be assembled, its error is raised after
    the h pass has covered every record.
    """
    scen = scenario_from_dict(log.meta["scenario"])
    params = scen.params
    goals = scen.goals.pd
    n = log.n_robots

    h_match = 0.0
    h_min = math.inf
    kkt_max: float | None = 0.0 if check_kkt else None
    kkt_error: ToolkitError | None = None
    phases = log.phase.tolist()
    for k in range(log.n_records):
        world = log.world_at(k)
        pair_field = PairField(world, params)
        for h, h_logged in zip(pair_field.h, log.h[k].tolist()):
            h_match = max(h_match, abs(h - h_logged))
            h_min = min(h_min, h)
        if kkt_max is None or kkt_error is not None or k % kkt_stride or phases[k] != 1:
            continue
        u_hat = [pd_control(z, goal, params) for z, goal in zip(world.robots, goals)]
        try:
            problems = pair_field.problems(u_hat)
        except ToolkitError as exc:
            kkt_error = exc
            continue
        for i, problem in enumerate(problems):
            sol = QPSolution(
                u_star=tuple(log.u_star[k, i].tolist()),
                mu_star=tuple(log.mu[k, i].tolist()),
                active_set=active_rows_from_mask(int(log.active[k, i]), n + 3),
                status="optimal",
            )
            kkt_max = max(kkt_max, verify_kkt(problem, sol).max_residual())
    if kkt_error is not None:
        raise kkt_error

    ok = h_match <= h_match_tol and h_min >= h_floor  # h_min stays inf without pairs
    if kkt_max is not None:
        ok = ok and kkt_max <= kkt_tol
    return AuditReport(
        n_records=log.n_records,
        h_match_max=h_match,
        h_min=h_min,
        kkt_max_residual=kkt_max,
        ok=ok,
    )
