"""The post-hoc audit of a trajectory log, which shares no code with the run it checks.

audit_log recomputes h, the PD references and every logged QP optimum from
a log's states alone.  It imports nothing from sim, resolution or deadlock,
and from cbf and qp only constants and pair_indices, so a fault in the
run's pair pass or QP solver fails the audit instead of passing through it;
tests/test_layering.py holds it to those imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cbf import BOUNDARY_SNAP, EPS_NUM, pair_indices
from .logio import _RECORD_LAYOUT, AUDIT_H_FLOOR, Scenario, TrajectoryLog, scenario_from_dict
from .qp import ACTIVE_TOL, BOX_NORMALS


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
# on the recomputed h from below (logio's AUDIT_H_FLOOR, which a Scenario's
# start must pass too), and on every re-verified KKT residual.
AUDIT_H_MATCH_TOL = 1e-12
AUDIT_KKT_TOL = 1e-8
# The phases a controller's records may carry; no run's phase ever decreases.
_PHASES = {"pd-only": (3,), "cbf-qp-only": (1,), "three-phase": (1, 2, 3)}


# Record x robot x QP-row entries audit_log evaluates at once.  A whole
# head-on log (2 robots, 5 rows) is one chunk of records; a 64-robot log
# (67 rows) goes 61 records at a time, so the audit's memory stays bounded.
_AUDIT_CHUNK_ENTRIES = 2**18


def audit_log(log: TrajectoryLog) -> AuditReport:
    """Recompute h, the PD references and the logged QP optima from the logged states.

    A log with no records fails: every run records its first state.  A
    record is bad, and not checked further, when it holds a non-finite float
    or its t is off the run's clock: t starts at 0, rises, and ends at most
    half a step past the run's last step.  It is bad, and left out of
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
        and bad_records == 0 and log.n_records > 0
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
