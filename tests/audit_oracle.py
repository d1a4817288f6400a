"""The record-by-record audit that audit.audit_log must reproduce exactly.

It rebuilds a PairField and the N per-robot QPs of every record and checks
them with qp.verify_kkt and _active_set, one record at a time.  The QPs are
the full ones, every neighbor row built from the pair pass's bounds: the
pass sets box-implied rows aside, and a logged multiplier on such a row
must still count, as it does in audit_log.  It raises the pair pass's
geometry error (CoincidentRobotsError, SafetyViolationError,
BoundarySingularityError) on a record whose h or QPs are undefined, where
audit_log counts the record as bad instead.  Its h_min takes the h of every
sound record, also of one whose QPs then raise, as audit_log's h_min takes
every sound record without coincident robots.
"""

from __future__ import annotations

import math

import numpy as np

from mrdeadlock.audit import _PHASES, AUDIT_H_MATCH_TOL, AUDIT_KKT_TOL, AuditReport
from mrdeadlock.cbf import PairField, pair_indices
from mrdeadlock.core import pd_control
from mrdeadlock.logio import _RECORD_LAYOUT, AUDIT_H_FLOOR, TrajectoryLog, scenario_from_dict
from mrdeadlock.qp import ACTIVE_TOL, QPSolution, flat_problem, verify_kkt


def _active_set(problem, u) -> tuple[int, ...]:
    """Numbers of the rows of problem active at u: |a.u - b| <= ACTIVE_TOL (1 + |b|)."""
    return tuple(
        k for k, ax, ay, b in zip(problem.row_numbers, problem.ax, problem.ay, problem.b)
        if abs(ax * u[0] + ay * u[1] - b) <= ACTIVE_TOL * (1.0 + abs(b))
    )


def _full_problems(pair_field: PairField, world, params, u_hat) -> list:
    """Every robot's full QP: the pair pass's rows, none set aside, unchecked as the pass builds them."""
    bounds = pair_field.bounds()
    pair = {ij: c for c, ij in enumerate(pair_indices(world.n))}
    robots, alpha = world.robots, params.alpha
    problems = []
    for i, u in enumerate(u_hat):
        (pix, piy) = robots[i].p
        others = [j for j in range(world.n) if j != i]
        b = [alpha[i] / (alpha[min(i, j)] + alpha[max(i, j)]) * bounds[pair[min(i, j), max(i, j)]] for j in others]
        ax = [-(pix - robots[j].p[0]) for j in others]
        ay = [-(piy - robots[j].p[1]) for j in others]
        problems.append(flat_problem(u, ax, ay, b, alpha[i]))
    return problems


def oracle_audit(log: TrajectoryLog) -> AuditReport:
    scen = scenario_from_dict(log.meta["scenario"])
    params = scen.params
    goals = scen.goals.pd

    h_match = 0.0
    h_min = math.inf
    kkt_max = 0.0
    bad_records = 0
    phases = log.phase.tolist()
    allowed = _PHASES[scen.controller]
    u_hats, u_stars, mus, masks = log.u_hat.tolist(), log.u_star.tolist(), log.mu.tolist(), log.active.tolist()
    mu_set = np.any(log.mu != 0.0, axis=(1, 2)).tolist()
    t = log.t
    sound = t <= scen.n_steps * scen.dt + scen.dt / 2
    sound[1:] &= t[1:] > t[:-1]
    sound[:1] &= t[:1] == 0.0
    for name, (dtype, _) in _RECORD_LAYOUT.items():
        if dtype is float:
            array = getattr(log, name)
            sound &= np.isfinite(array).all(axis=tuple(range(1, array.ndim)))
    sound = sound.tolist()
    for k in range(log.n_records):
        if not sound[k]:
            bad_records += 1
            continue
        world = log.world_at(k)
        pair_field = PairField(world, params)
        for h, h_logged in zip(pair_field.h, log.h[k].tolist()):
            h_match = max(h_match, abs(h - h_logged))
            h_min = min(h_min, h)
        u_hat = [pd_control(z, goal, params) for z, goal in zip(world.robots, goals)]
        phase = phases[k]
        bad = phase not in allowed or (k > 0 and phase < phases[k - 1])
        bad |= list(map(list, u_hat)) != u_hats[k]
        if phase == 1:
            for i, problem in enumerate(_full_problems(pair_field, world, params, u_hat)):
                # verify_kkt reads the multipliers, not the active set
                sol = QPSolution(tuple(u_stars[k][i]), tuple(mus[k][i]), (), "optimal")
                kkt_max = max(kkt_max, verify_kkt(problem, sol).max_residual())
                active = _active_set(problem, sol.u_star)
                bad |= masks[k][i] != sum(1 << row for row in active)
        else:
            bad |= mu_set[k] or any(masks[k])
        bad_records += bad

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


def tamperings(log: TrajectoryLog) -> list[list[tuple]]:
    """Edits of a short head-on log that each make it fail the audit.

    Each is a list of (array, index, value) edits: one h off by 1e-6; every
    record made a pd-only record (phase 3, u_star (3, 3), mu 0); every u_hat
    (9, 9); every active mask 12345; one NaN in h, mu or u_star; every t 0;
    t reversed; t 100 s late.
    """
    h, t = log.h[3, 0], log.t
    return [
        [("h", (3, 0), h + 1e-6)],
        [("phase", ..., 3), ("u_star", ..., 3.0), ("mu", ..., 0.0)],
        [("u_hat", ..., 9.0)],
        [("active", ..., 12345)],
        [("h", (3, 0), math.nan)],
        [("mu", (3, 0, 0), math.nan)],
        [("u_star", (3, 0, 0), math.nan)],
        [("t", ..., 0.0)],
        [("t", ..., t[::-1].copy())],
        [("t", ..., t + 100.0)],
    ]


def tampered(log: TrajectoryLog, edits) -> TrajectoryLog:
    """A copy of the log with the (array, index, value) edits applied."""
    arrays = {name: getattr(log, name).copy() for name in _RECORD_LAYOUT}
    for name, index, value in edits:
        arrays[name][index] = value
    return TrajectoryLog(**arrays, events=log.events, meta=log.meta)
