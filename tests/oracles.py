"""Reference functions that no run calls, kept as test oracles.

``phase3_closed_form`` is the paper's solution of the phase-3 relative
dynamics, ``simulate_relative_pd`` integrates the same dynamics with the
simulator's semi-implicit Euler step, and ``two_robot_multiplier`` is the
Theorem-2 multiplier of a single active constraint row.

``ConstraintRow``, ``box_rows``, ``problem_of`` and ``rows_of`` write a
QPProblem as a tuple of rows, the four box rows last: tests build and read
problems row by row through them.  ``numbered_rows`` reads a problem's rows
by row number, ``_kept_rows`` is the set-aside test written row by row, and
``set_aside`` is a problem that holds every row as the pair pass hands it
over, with the rows the box implies set aside.

``max_min_slack_lp`` is the phase-I probe's optimum as an LP library
finds it, ``scipy.optimize.linprog`` on the LP in (u, s).

``log_json`` is a log's JSON text as one ``json.dumps`` of the whole
payload, and ``load_log_whole`` reads a log with one ``json.loads`` of the
whole text: the forms that ``export_log`` and ``load_log`` stream.

``DenseRecorder`` records a run into preallocated record arrays, one NumPy
row write per array and record: the arrays that ``logio._Recorder`` builds
from its appended lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np
import scipy.optimize

from mrdeadlock.cbf import IMPLIED_TOL
from mrdeadlock.core import Vec2, euler_step, v_dot
from mrdeadlock.errors import ZeroVectorError
from mrdeadlock.qp import BOX_NORMALS, QPProblem, flat_problem
from mrdeadlock.logio import (
    _RECORD_LAYOUT,
    TrajectoryLog,
    _finite,
    _list,
    _read,
    _record_array,
    scenario_from_dict,
)


def phase3_closed_form(tau: float, ds: float, d_g: float, kp: float, kv: float) -> tuple[float, float]:
    """Relative x-coordinate and velocity in the goal-aligned frame, tau = t - t2.

    dp_x(tau) = c1 exp(w1 tau) + c2 exp(w2 tau) + D_G with
    w_{1,2} = (-kv +/- sqrt(kv^2 - 4 kp))/2, c1 = w2 (D_G - Ds)/(w1 - w2),
    c2 = -w1 (D_G - Ds)/(w1 - w2).  Requires overdamped gains and D_G > Ds.
    """
    disc = kv * kv - 4.0 * kp
    if disc <= 0.0:
        raise ValueError("closed form requires overdamped gains (kv^2 - 4 kp > 0)")
    if not d_g > ds:
        raise ValueError("closed form requires D_G > Ds")
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    root = math.sqrt(disc)
    w1 = 0.5 * (-kv + root)
    w2 = 0.5 * (-kv - root)
    c1 = w2 * (d_g - ds) / (w1 - w2)
    c2 = -w1 * (d_g - ds) / (w1 - w2)
    e1 = math.exp(w1 * tau)
    e2 = math.exp(w2 * tau)
    return c1 * e1 + c2 * e2 + d_g, c1 * w1 * e1 + c2 * w2 * e2


def simulate_relative_pd(
    dp0: Vec2,
    dv0: Vec2,
    dpd: Vec2,
    kp: float,
    kv: float,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-implicit Euler integration of the phase-3 relative dynamics.

    d(dp)/dt = dv,  d(dv)/dt = -kp (dp - dpd) - kv dv.  Returns sampled
    times, relative positions and relative velocities (including t = 0).
    """
    gx, gy = dpd
    p, v = dp0, dv0
    ts, ps, vs = [0.0], [p], [v]
    for k in range(1, n_steps + 1):
        p, v = euler_step(p, v, (-kp * (p[0] - gx) - kv * v[0], -kp * (p[1] - gy) - kv * v[1]), dt)
        if k % sample_every == 0 or k == n_steps:
            ts.append(k * dt)
            ps.append(p)
            vs.append(v)
    return np.asarray(ts), np.asarray(ps), np.asarray(vs)


def two_robot_multiplier(a: Vec2, u_hat: Vec2, b_hat: float) -> float:
    """Closed-form multiplier of a single active row: mu = 2 (a.u_hat - b_hat) / ||a||^2."""
    aa = v_dot(a, a)
    if aa == 0.0:
        raise ZeroVectorError("constraint row direction is the zero vector")
    return 2.0 * (v_dot(a, u_hat) - b_hat) / aa


@dataclass(frozen=True)
class ConstraintRow:
    """One linear inequality a.u <= b_hat of a per-robot QP."""

    a: Vec2
    b_hat: float


def box_rows(alpha_i: float) -> tuple[ConstraintRow, ...]:
    """The four acceleration-limit rows, in the fixed order +x, +y, -x, -y."""
    return tuple(ConstraintRow(a, alpha_i) for a in BOX_NORMALS)


def problem_of(u_hat: Vec2, rows: tuple[ConstraintRow, ...]) -> QPProblem:
    """The QPProblem of rows, which must end with the four box rows, normals +x, +y, -x, -y, one bound."""
    box, neighbors = rows[-4:], rows[:-4]
    if len(box) < 4 or tuple(row.a for row in box) != BOX_NORMALS or len({row.b_hat for row in box}) != 1:
        raise ValueError("a well-formed problem ends with the 4 box rows, normals +x, +y, -x, -y, one bound")
    return QPProblem(u_hat, [row.a[0] for row in neighbors], [row.a[1] for row in neighbors],
                     [row.b_hat for row in neighbors], box[0].b_hat)


def rows_of(problem: QPProblem) -> tuple[ConstraintRow, ...]:
    """Every row of problem, the four box rows last."""
    return tuple(ConstraintRow((x, y), b) for x, y, b in zip(problem.ax, problem.ay, problem.b))


def numbered_rows(problem: QPProblem) -> dict[int, ConstraintRow]:
    """The rows problem holds, by their row number in the full QP."""
    return dict(zip(problem.row_numbers, rows_of(problem)))


def _kept_rows(ax: Sequence[float], ay: Sequence[float], b: Sequence[float], alpha: float) -> list[int] | None:
    """Ascending numbers of the neighbor rows a.u <= b that the box does not strictly imply; None if all.

    The box is |u_x|, |u_y| <= alpha.  A neighbor row is set aside when

        b - max_{u in box} a.u  >  IMPLIED_TOL (1 + |b| + |a|_1 (1 + alpha + A))

    with max_{u in box} a.u = |a_x| alpha + |a_y| alpha and A the largest
    |a_l|_1 over the neighbor rows, at least 1: the rule, and its proof, of
    cbf.PairField._array_problems, one row at a time.  A NaN row is kept.
    """
    sizes = [abs(x) + abs(y) for x, y in zip(ax, ay)]   # |a|_1 of every row
    widest = 1.0 + alpha + max(1.0, *sizes)
    keep = [
        k for k, x, y, bk, size in zip(count(), ax, ay, b, sizes)
        if not bk - (abs(x) * alpha + abs(y) * alpha) > IMPLIED_TOL * (1.0 + abs(bk) + size * widest)
    ]
    return None if len(keep) == len(b) else keep


def set_aside(problem: QPProblem) -> QPProblem:
    """problem, which holds every row, with the neighbor rows that _kept_rows does not keep set aside."""
    m = problem.m_neighbors
    if m == 0:
        return problem
    ax, ay, b = problem.ax[:m], problem.ay[:m], problem.b[:m]
    keep = _kept_rows(ax, ay, b, problem.b[-1])
    if keep is None:
        return flat_problem(problem.u_hat, ax, ay, b, problem.b[-1])
    return flat_problem(problem.u_hat, [ax[k] for k in keep], [ay[k] for k in keep], [b[k] for k in keep],
                        problem.b[-1], keep + [m, m + 1, m + 2, m + 3])


def max_min_slack_lp(ax: Sequence[float], ay: Sequence[float], b: Sequence[float]) -> float:
    """Optimum of  max_u min_k (b_k - a_k.u):  maximize s  s.t.  a_k.u + s <= b_k,  by HiGHS's dual simplex.

    Presolve is off and the feasibility tolerances are HiGHS's least, 1e-10:
    HiGHS may end at a vertex that breaks a row by up to its tolerance, so
    its value may lie that far above the optimum (at the default 1e-7, with
    presolve on, it did).  HiGHS drops a matrix entry below 1e-9 in
    magnitude, so the rows' nonzero components must be larger.
    """
    res = scipy.optimize.linprog(c=[0.0, 0.0, -1.0], A_ub=[[x, y, 1.0] for x, y in zip(ax, ay)], b_ub=b,
                                 bounds=[(None, None)] * 3, method="highs-ds",
                                 options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return -res.fun


def log_json(log: TrajectoryLog) -> str:
    """The log's JSON text: every record array's tolist(), with meta and events, in one json.dumps."""
    payload = {name: getattr(log, name).tolist() for name in _RECORD_LAYOUT}
    payload.update(meta=log.meta, events=log.events)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_log_whole(path: str) -> TrajectoryLog:
    """load_log's checks, in its order, on the mapping one json.loads of the whole text gives."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    d = json.loads(text)
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
        if arrays[name].shape == (0,):
            arrays[name] = arrays[name].reshape(0, *shape(n))
        if arrays[name].shape != want:
            raise ValueError(f"{where} array {name!r} has shape {arrays[name].shape}, not {want}")
    events = _read(d["events"], _list, f"{where} key 'events'")
    for k, event in enumerate(events):
        if not (isinstance(event, dict) and isinstance(event.get("name"), str) and _finite(event.get("t"))):
            raise ValueError(f"{where} event {k} is not a mapping with a string 'name' and a finite 't'")
    return TrajectoryLog(**arrays, events=events, meta=d["meta"])


class DenseRecorder:
    """_Recorder's records written into dense arrays: preallocated, doubled when full, copied out by build.

    It allocates min(capacity, first_capacity) records up front (capacity
    >= 1) and writes each record with one row assignment per array; a step
    without QP solutions records zero multipliers and masks.
    """

    def __init__(self, n: int, capacity: int, first_capacity: int = 2**16):
        self.n = n
        self.rows = 0
        for name, (dtype, shape) in _RECORD_LAYOUT.items():
            setattr(self, name, np.empty((min(capacity, first_capacity), *shape(n)), dtype=dtype))

    def push(self, world, u_star, u_hat, h, solutions, phase) -> None:
        if solutions is None:
            mu_rows, masks = [(0.0,) * (self.n + 3)] * self.n, [0] * self.n
        else:
            mu_rows = [sol.mu_star for sol in solutions]
            masks = [sum(1 << k for k in set(sol.active_set)) for sol in solutions]
        k = self.rows
        if k == len(self.t):
            for name in _RECORD_LAYOUT:
                array = getattr(self, name)
                setattr(self, name, np.concatenate((array, np.empty_like(array))))
        self.t[k] = world.t
        self.pos[k] = [z.p for z in world.robots]
        self.vel[k] = [z.v for z in world.robots]
        self.u_star[k] = u_star
        self.u_hat[k] = u_hat
        self.h[k] = h
        self.mu[k] = mu_rows
        self.active[k] = masks
        self.phase[k] = phase
        self.rows += 1

    def build(self, events: list[dict], meta: dict) -> TrajectoryLog:
        arrays = {name: getattr(self, name)[:self.rows].copy() for name in _RECORD_LAYOUT}
        return TrajectoryLog(**arrays, events=events, meta=meta)
