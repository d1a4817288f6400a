"""Three-phase deadlock resolution supervisor and its phase controllers.

Phase 1 runs the per-robot CBF-QP until system deadlock persists; phase 2
rotates the contact assembly as a rigid body (holding every touching pair
exactly at the safety distance, centroid static) until the assembly bearing
aligns with the goal bearing; phase 3 releases the plain PD controllers,
under which the inter-robot distance is provably non-decreasing for
overdamped gains and goal separation exceeding the safety margin.

Two phase-2 controller forms are provided:

* ``phase2_control_two`` / ``phase2_control_three`` are the closed-form
  continuous-time feedback-linearization laws (distance-rate and bearing
  outputs).  They are exact in continuous time and are what the tests
  differentiate numerically.
* The supervisor itself advances a discrete bearing/boundary reference each
  step and solves a small Newton system for the controls that place the
  *next integrator state* exactly on the target manifold (|h| at the
  reference value, bearing at the reference angle, controls summing to
  zero).  Integrating the continuous law directly would let the pair
  distance random-walk off the boundary at O(dt^2) per step, which the
  square root in h amplifies catastrophically; pinning the discrete
  successor state avoids that entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Sequence

import numpy as np

# assemble_qp and safety_index_signed are the scalar oracles of PairField;
# they stay bound here because callers (the perfbench span tracer among
# them) look them up on this module.
from .cbf import PairField, assemble_qp, pair_indices, safety_index_signed  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    RobotState,
    Vec2,
    WorldState,
    goal_bearing,
    pd_control,
    unit_vector,
    v_add,
    v_cross,
    v_dot,
    v_norm,
    v_scale,
    v_sub,
    wrap_angle,
)
from .deadlock import DeadlockThresholds, classify_three_robot, system_deadlock
from .errors import (
    CoincidentRobotsError,
    DegenerateGeometryError,
    QPInfeasibleError,
    SimulationAbort,
    UnsupportedScenarioError,
)
from .qp import solve_qp

# Boundary targets below this are flushed to exactly zero.
H_TARGET_FLOOR = 1e-12


class Phase(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


@dataclass(frozen=True)
class ResolutionConfig:
    """Supervisor gains and thresholds; phase-2 gains default to the PD gains."""

    kp2: float | None = None        # bearing stiffness (defaults to params.kp)
    kv2: float | None = None        # bearing damping (defaults to params.kv)
    k1: float | None = None         # distance-rate gain of the continuous law (defaults 10 kv)
    k_h: float = 8.0                # boundary-acquisition decay rate (1/s)
    eps_theta: float = 1e-3         # bearing alignment threshold (rad)
    eps_omega: float = 1e-3         # bearing rate threshold (rad/s)
    k_persist: int = 10             # consecutive deadlock steps before phase 2
    classify_tol: float | None = None  # margin-classification tolerance (defaults 2e-2 Ds)

    def bearing_gains(self, params: Params) -> tuple[float, float]:
        return (
            self.kp2 if self.kp2 is not None else params.kp,
            self.kv2 if self.kv2 is not None else params.kv,
        )

    def distance_gain(self, params: Params) -> float:
        return self.k1 if self.k1 is not None else 10.0 * params.kv

    def classification_tol(self, params: Params) -> float:
        return self.classify_tol if self.classify_tol is not None else 2e-2 * params.ds


@dataclass(frozen=True)
class PhaseState:
    """Supervisor state threaded through supervisor_step.

    Transitions are monotone ONE -> TWO -> THREE within a run; ``beta_ref``
    is set exactly once, at the ONE -> TWO transition.  With ``resolve``
    off the supervisor is the plain CBF-QP filter: a persistent deadlock is
    announced once (``announced``) and phase 1 goes on.  The remaining
    fields are the phase-2 reference trajectory (bearing, bearing rate,
    per-pair boundary targets) and, for category-B entries, the
    chain-opening regularization reference.
    """

    phase: Phase = Phase.ONE
    resolve: bool = True
    announced: bool = False
    persist_counter: int = 0
    t_enter_phase: float = 0.0
    beta_ref: float | None = None
    partners: tuple[int, ...] = ()
    sub_mode: str = ""              # "" | "rotate" | "regularize"
    category: str = ""
    center: int | None = None
    pairs: tuple[tuple[int, int], ...] = ()
    h_entry: tuple[float, ...] = ()
    t_ref0: float = 0.0
    theta_ref: float = 0.0
    omega_ref: float = 0.0
    gamma_ref: float = 0.0
    gamma_omega: float = 0.0
    gamma_goal: float = 0.0
    psi_hold: float = 0.0
    newton_warm: tuple[float, ...] = ()


@dataclass(frozen=True)
class FeedbackLinState:
    """Instantaneous phase-2 output coordinates of a robot pair.

    r is the separation, r_half = r^2 / 2 the squared-distance coordinate,
    y_o1 = d(r_half)/dt the distance-rate output and y_o2 the bearing-rate
    output (the planar cross product over r_half; equal to 2 theta_dot).
    """

    theta: float
    theta_dot: float
    r: float
    r_half: float
    y_o1: float
    y_o2: float


def pair_outputs(z1: RobotState, z2: RobotState) -> FeedbackLinState:
    """Output coordinates of the ordered pair (1, 2) with dp = p2 - p1."""
    dp = v_sub(z2.p, z1.p)
    dv = v_sub(z2.v, z1.v)
    r = v_norm(dp)
    if r == 0.0:
        raise CoincidentRobotsError("pair outputs undefined for coincident robots")
    r_half = 0.5 * r * r
    cross = v_cross(dp, dv)
    return FeedbackLinState(
        theta=math.atan2(dp[1], dp[0]),
        theta_dot=cross / (r * r),
        r=r,
        r_half=r_half,
        y_o1=v_dot(dp, dv),
        y_o2=cross / r_half,
    )


# ---------------------------------------------------------------------------
# continuous-time phase-2 laws
# ---------------------------------------------------------------------------

def phase2_control_two(
    world: WorldState, params: Params, beta_ref: float, k1: float, kp: float, kv: float
) -> tuple[Vec2, Vec2]:
    """Feedback-linearized pair rotation: distance-rate and bearing outputs.

    Imposes d(y_o1)/dt = -k1 y_o1 and d(y_o2)/dt = -kp (theta - beta) - kv y_o2
    through the 2x2 system A u1 = (b1, b2) with u2 = -u1 (static centroid),
    where A = [[-2 dx, -2 dy], [2 dy, -2 dx]].
    """
    if world.n < 2:
        raise ValueError("two robots required")
    z1, z2 = world.robots[0], world.robots[1]
    dp = v_sub(z2.p, z1.p)
    dv = v_sub(z2.v, z1.v)
    det = 4.0 * v_dot(dp, dp)
    if det == 0.0:
        raise CoincidentRobotsError("feedback linearization singular: coincident robots")
    out = pair_outputs(z1, z2)
    b1 = -k1 * out.y_o1 - v_dot(dv, dv)
    b2 = out.y_o1 * out.y_o2 - kp * out.r_half * (out.theta - beta_ref) - kv * out.r_half * out.y_o2
    # closed-form inverse of [[-2dx, -2dy], [2dy, -2dx]]
    u1 = (
        (-2.0 * dp[0] * b1 + 2.0 * dp[1] * b2) / det,
        (-2.0 * dp[1] * b1 - 2.0 * dp[0] * b2) / det,
    )
    return u1, (-u1[0], -u1[1])


def phase2_control_three(
    world: WorldState, params: Params, beta_ref: float, kp: float, kv: float
) -> tuple[Vec2, Vec2, Vec2]:
    """Rigid-body rotation of three touching robots about their (static) centroid.

    Each robot tracks the shared assembly angle theta with commanded
    dynamics theta_ddot = -kp (theta - beta) - kv theta_dot; the control is
    the acceleration of a point rigidly rotating about the centroid, so the
    three controls sum to zero and all pairwise distances are invariant.
    """
    if world.n != 3:
        raise ValueError("three robots required")
    ps = world.positions()
    vs = world.velocities()
    c = v_scale(v_add(v_add(ps[0], ps[1]), ps[2]), 1.0 / 3.0)
    vc = v_scale(v_add(v_add(vs[0], vs[1]), vs[2]), 1.0 / 3.0)
    rho = [v_sub(p, c) for p in ps]
    if any(v_norm(r) < 1e-12 for r in rho):
        raise DegenerateGeometryError("robot coincides with the assembly centroid")
    r0 = rho[0]
    theta = math.atan2(r0[1], r0[0])
    theta_dot = v_cross(r0, v_sub(vs[0], vc)) / v_dot(r0, r0)
    theta_dd = -kp * (theta - beta_ref) - kv * theta_dot
    w2 = theta_dot * theta_dot
    controls = tuple(
        (-theta_dd * r[1] - w2 * r[0], theta_dd * r[0] - w2 * r[1]) for r in rho
    )
    return controls  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# phase-3 closed form
# ---------------------------------------------------------------------------

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


def rotate_frame(v: Vec2, beta: float) -> Vec2:
    """Rotate a vector by -beta (into the frame whose x-axis points along beta)."""
    c, s = math.cos(beta), math.sin(beta)
    return (c * v[0] + s * v[1], -s * v[0] + c * v[1])


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
    px, py = dp0
    vx, vy = dv0
    gx, gy = dpd
    ts = [0.0]
    ps = [(px, py)]
    vs = [(vx, vy)]
    for k in range(1, n_steps + 1):
        ax = -kp * (px - gx) - kv * vx
        ay = -kp * (py - gy) - kv * vy
        vx += dt * ax
        vy += dt * ay
        px += dt * vx
        py += dt * vy
        if k % sample_every == 0 or k == n_steps:
            ts.append(k * dt)
            ps.append((px, py))
            vs.append((vx, vy))
    return np.asarray(ts), np.asarray(ps), np.asarray(vs)


# ---------------------------------------------------------------------------
# discrete phase-2 manifold controller (supervisor internals)
# ---------------------------------------------------------------------------

def _pair_residual(dp: Vec2, dv: Vec2, h_target: float, asum: float, ds: float) -> float:
    """Residual that vanishes exactly when the signed safety index equals h_target.

    sign(eps) sqrt(2 asum |eps|) + y/r = h_t  (eps = r - Ds, y = dp.dv)
    is algebraically equivalent to  2 asum eps = q |q|  with q = h_t - y/r.
    The polynomial form is used because the square root has unbounded slope
    on the boundary itself, which is exactly where phase 2 operates.
    """
    r = v_norm(dp)
    if r == 0.0:
        raise CoincidentRobotsError("predicted coincident robots in phase 2")
    y = v_dot(dp, dv)
    q = h_target - y / r
    return 2.0 * asum * (r - ds) - q * abs(q)


def _predict(z: RobotState, u: Vec2, dt: float) -> tuple[Vec2, Vec2]:
    v = (z.v[0] + dt * u[0], z.v[1] + dt * u[1])
    return (z.p[0] + dt * v[0], z.p[1] + dt * v[1]), v


def _newton_solve(func, w0: list[float], f_tol: float = 1e-12, max_iter: int = 12) -> list[float]:
    """Damped-free Newton with forward-difference Jacobian on a tiny system."""
    w = list(w0)
    n = len(w)
    fw = func(w)
    for _ in range(max_iter):
        err = max(abs(f) for f in fw)
        if err <= f_tol:
            return w
        jac = np.empty((n, n))
        delta = 1e-4
        for k in range(n):
            wk = list(w)
            wk[k] += delta
            fk = func(wk)
            for r in range(n):
                jac[r, k] = (fk[r] - fw[r]) / delta
        try:
            step = np.linalg.solve(jac, np.asarray(fw))
        except np.linalg.LinAlgError as exc:
            raise SimulationAbort("phase2-singular", f"phase-2 Newton Jacobian singular: {exc}")
        w = [w[k] - float(step[k]) for k in range(n)]
        fw = func(w)
    err = max(abs(f) for f in fw)
    if err > 1e-9:
        raise SimulationAbort("phase2-diverged", f"phase-2 Newton stalled at residual {err:.3e}")
    return w


def _h_targets(state: PhaseState, params: Params, t_next: float, k_h: float) -> tuple[float, ...]:
    out = []
    for h0 in state.h_entry:
        h = h0 * math.exp(-k_h * (t_next - state.t_ref0))
        out.append(h if abs(h) > H_TARGET_FLOOR else 0.0)
    return tuple(out)


def _advance_bearing_ref(state: PhaseState, kp2: float, kv2: float, dt: float) -> tuple[float, float]:
    assert state.beta_ref is not None
    acc = -kp2 * (state.theta_ref - state.beta_ref) - kv2 * state.omega_ref
    omega = state.omega_ref + dt * acc
    theta = state.theta_ref + dt * omega
    return theta, omega


def _rotate_controls_two(
    world: WorldState, params: Params, state: PhaseState, theta_t: float,
    h_ts: tuple[float, ...], dt: float,
) -> tuple[tuple[Vec2, ...], list[float]]:
    a, b = state.partners
    za, zb = world.robots[a], world.robots[b]
    asum = params.alpha_of(a) + params.alpha_of(b)
    et = unit_vector(theta_t)

    def residuals(w: list[float]) -> list[float]:
        ua = (w[0], w[1])
        ub = (-w[0], -w[1])
        pa, va = _predict(za, ua, dt)
        pb, vb = _predict(zb, ub, dt)
        dp = v_sub(pb, pa)
        dv = v_sub(vb, va)
        return [
            _pair_residual(dp, dv, h_ts[0], asum, params.ds),
            v_cross(et, dp),
        ]

    w0 = list(state.newton_warm) if len(state.newton_warm) == 2 else [0.0, 0.0]
    w = _newton_solve(residuals, w0)
    ua = (w[0], w[1])
    controls: list[Vec2] = [(0.0, 0.0)] * world.n
    controls[a] = ua
    controls[b] = (-w[0], -w[1])
    return tuple(controls), w


def _rotate_controls_three(
    world: WorldState, params: Params, state: PhaseState, theta_t: float,
    h_ts: tuple[float, ...], dt: float,
) -> tuple[tuple[Vec2, ...], list[float]]:
    z = world.robots
    et = unit_vector(theta_t)
    prs = state.pairs

    def residuals(w: list[float]) -> list[float]:
        us = ((w[0], w[1]), (w[2], w[3]), (-w[0] - w[2], -w[1] - w[3]))
        pred = [_predict(z[i], us[i], dt) for i in range(3)]
        out = []
        for (i, j), h_t in zip(prs, h_ts):
            dp = v_sub(pred[j][0], pred[i][0])
            dv = v_sub(pred[j][1], pred[i][1])
            out.append(_pair_residual(dp, dv, h_t, params.alpha_of(i) + params.alpha_of(j), params.ds))
        cx = (pred[0][0][0] + pred[1][0][0] + pred[2][0][0]) / 3.0
        cy = (pred[0][0][1] + pred[1][0][1] + pred[2][0][1]) / 3.0
        rho0 = (pred[0][0][0] - cx, pred[0][0][1] - cy)
        out.append(v_cross(et, rho0))
        return out

    w0 = list(state.newton_warm) if len(state.newton_warm) == 4 else [0.0] * 4
    w = _newton_solve(residuals, w0)
    controls = ((w[0], w[1]), (w[2], w[3]), (-w[0] - w[2], -w[1] - w[3]))
    return controls, w


def _regularize_controls(
    world: WorldState, params: Params, state: PhaseState, gamma_t: float,
    h_ts: tuple[float, ...], dt: float,
) -> tuple[tuple[Vec2, ...], list[float]]:
    """Open or close the category-B chain about the static center robot."""
    m = state.center
    assert m is not None
    a, b = [i for i in state.partners if i != m]
    za, zb, zm = world.robots[a], world.robots[b], world.robots[m]

    def residuals(w: list[float]) -> list[float]:
        ua = (w[0], w[1])
        ub = (w[2], w[3])
        pa, va = _predict(za, ua, dt)
        pb, vb = _predict(zb, ub, dt)
        pm, vm = _predict(zm, (0.0, 0.0), dt)
        rho_a = v_sub(pa, pm)
        rho_b = v_sub(pb, pm)
        th_a = math.atan2(rho_a[1], rho_a[0])
        th_b = math.atan2(rho_b[1], rho_b[0])
        gamma = wrap_angle(th_b - th_a)
        psi = th_a + 0.5 * gamma
        return [
            _pair_residual(v_sub(pa, pm), v_sub(va, vm), h_ts[0],
                           params.alpha_of(a) + params.alpha_of(m), params.ds),
            _pair_residual(v_sub(pb, pm), v_sub(vb, vm), h_ts[1],
                           params.alpha_of(b) + params.alpha_of(m), params.ds),
            wrap_angle(gamma - gamma_t),
            wrap_angle(psi - state.psi_hold),
        ]

    w0 = list(state.newton_warm) if len(state.newton_warm) == 4 else [0.0] * 4
    w = _newton_solve(residuals, w0)
    controls: list[Vec2] = [(0.0, 0.0)] * world.n
    controls[a] = (w[0], w[1])
    controls[b] = (w[2], w[3])
    return tuple(controls), w


# ---------------------------------------------------------------------------
# measured assembly state (for transitions)
# ---------------------------------------------------------------------------

def _measured_bearing_two(world: WorldState, partners: tuple[int, ...]) -> tuple[float, float]:
    a, b = partners
    dp = v_sub(world.robots[b].p, world.robots[a].p)
    dv = v_sub(world.robots[b].v, world.robots[a].v)
    return math.atan2(dp[1], dp[0]), v_cross(dp, dv) / v_dot(dp, dp)


def _measured_bearing_three(world: WorldState) -> tuple[float, float]:
    ps = world.positions()
    vs = world.velocities()
    c = v_scale(v_add(v_add(ps[0], ps[1]), ps[2]), 1.0 / 3.0)
    vc = v_scale(v_add(v_add(vs[0], vs[1]), vs[2]), 1.0 / 3.0)
    rho = v_sub(ps[0], c)
    return math.atan2(rho[1], rho[0]), v_cross(rho, v_sub(vs[0], vc)) / v_dot(rho, rho)


def _measured_gamma(world: WorldState, center: int, outer: tuple[int, int]) -> tuple[float, float]:
    a, b = outer
    pm, vm = world.robots[center].p, world.robots[center].v
    rho_a = v_sub(world.robots[a].p, pm)
    rho_b = v_sub(world.robots[b].p, pm)
    th_a = math.atan2(rho_a[1], rho_a[0])
    th_b = math.atan2(rho_b[1], rho_b[0])
    wa = v_cross(rho_a, v_sub(world.robots[a].v, vm)) / v_dot(rho_a, rho_a)
    wb = v_cross(rho_b, v_sub(world.robots[b].v, vm)) / v_dot(rho_b, rho_b)
    return wrap_angle(th_b - th_a), wb - wa


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

def _enter_phase_two(
    world: WorldState, goals: GoalSpec, params: Params, config: ResolutionConfig, t: float,
    h: tuple[float, ...],
) -> PhaseState:
    """Phase-2 entry state; h is the signed safety index of every pair, in pair order."""
    n = world.n
    if n == 2:
        partners = (0, 1)
        theta, omega = _measured_bearing_two(world, partners)
        beta_raw = goal_bearing(goals, 0, 1)
        beta_ref = theta + wrap_angle(beta_raw - theta)
        pairs = ((0, 1),)
        h_entry = (h[0],)
        return PhaseState(
            phase=Phase.TWO, t_enter_phase=t, beta_ref=beta_ref, partners=partners,
            sub_mode="rotate", category="two", pairs=pairs, h_entry=h_entry,
            t_ref0=t, theta_ref=theta, omega_ref=omega,
        )
    if n == 3:
        cat = classify_three_robot(world, params, config.classification_tol(params))
        if cat.category == "A":
            return _enter_rotate_three(world, goals, t, h, category="A")
        if cat.category == "B":
            center = cat.center
            assert center is not None
            outer = tuple(i for i in range(3) if i != center)
            gamma, gamma_dot = _measured_gamma(world, center, outer)  # type: ignore[arg-type]
            a = outer[0]
            rho_a = v_sub(world.robots[a].p, world.robots[center].p)
            psi = math.atan2(rho_a[1], rho_a[0]) + 0.5 * gamma
            pairs = tuple((min(i, center), max(i, center)) for i in outer)
            h_entry = tuple(h[pair_indices(3).index(p)] for p in pairs)
            return PhaseState(
                phase=Phase.TWO, t_enter_phase=t, beta_ref=None, partners=(0, 1, 2),
                sub_mode="regularize", category="B", center=center,
                pairs=pairs, h_entry=h_entry, t_ref0=t,
                gamma_ref=gamma, gamma_omega=gamma_dot,
                gamma_goal=math.copysign(math.pi / 3.0, gamma), psi_hold=psi,
            )
        raise UnsupportedScenarioError(
            "three-robot deadlock detected but the contact geometry matches neither category"
        )
    raise UnsupportedScenarioError(f"deadlock resolution is implemented for N in {{2, 3}}, got N={n}")


def _enter_rotate_three(
    world: WorldState, goals: GoalSpec, t: float, h: tuple[float, ...], category: str,
    prior: PhaseState | None = None,
) -> PhaseState:
    theta, omega = _measured_bearing_three(world)
    gc = v_scale(v_add(v_add(goals.pd[0], goals.pd[1]), goals.pd[2]), 1.0 / 3.0)
    beta_raw = math.atan2(goals.pd[0][1] - gc[1], goals.pd[0][0] - gc[0])
    beta_ref = theta + wrap_angle(beta_raw - theta)
    base = prior if prior is not None else PhaseState()
    return replace(
        base,
        phase=Phase.TWO,
        t_enter_phase=base.t_enter_phase if prior is not None else t,
        beta_ref=beta_ref, partners=(0, 1, 2), sub_mode="rotate", category=category,
        pairs=pair_indices(3), h_entry=h, t_ref0=t, theta_ref=theta, omega_ref=omega,
        newton_warm=(),
    )


def supervisor_step(
    state: PhaseState,
    world: WorldState,
    goals: GoalSpec,
    params: Params,
    thresholds: DeadlockThresholds,
    dt: float,
    config: ResolutionConfig = ResolutionConfig(),
    pairs: PairField | None = None,
    u_hat: Sequence[Vec2] | None = None,
) -> tuple[tuple[Vec2, ...], PhaseState, dict]:
    """Advance the supervisor one step: controls for every robot + new state.

    The returned info dict carries ``phase``, the phase whose controls were
    returned; on a phase-1 step, ``solutions``, the per-robot QP solutions;
    and on the step that detects a deadlock or finishes a category-B
    regularization, ``event``, a ``(name, t)`` pair.  ``pairs``
    (the pair pass of ``world``) and ``u_hat`` (the PD references) may be
    passed by a caller that already has them; they are computed otherwise.
    """
    n = world.n
    t = world.t
    info: dict = {"phase": state.phase}
    if pairs is None:
        pairs = PairField(world, params)
    if u_hat is None:
        u_hat = tuple(pd_control(world.robots[i], goals.pd[i], params) for i in range(n))

    if state.phase == Phase.ONE:
        problems = pairs.problems(u_hat)
        solutions = tuple(solve_qp(p) for p in problems)
        for i, sol in enumerate(solutions):
            if sol.status != "optimal":
                raise QPInfeasibleError(
                    f"robot {i} QP infeasible at t={t:.6f}",
                    snapshot={"t": t, "robot": i, "world": world},
                )
        info["solutions"] = solutions
        controls = tuple(sol.u_star for sol in solutions)
        if state.announced:
            # nothing reads the persistence count once the deadlock is announced
            return controls, state, info
        in_deadlock = (
            n >= 2
            and system_deadlock(world, goals, params, solutions, thresholds, problems)
        )
        persist = state.persist_counter + 1 if in_deadlock else 0
        if persist >= config.k_persist:
            info["event"] = ("deadlock-detected", t)
            if not state.resolve:
                return controls, replace(state, persist_counter=persist, announced=True), info
            new_state = _enter_phase_two(world, goals, params, config, t, pairs.h)
            return _phase_two_step(new_state, world, goals, params, dt, config, info, pairs, u_hat)
        if persist != state.persist_counter:
            state = replace(state, persist_counter=persist)
        return controls, state, info

    if state.phase == Phase.TWO:
        return _phase_two_step(state, world, goals, params, dt, config, info, pairs, u_hat)

    return tuple(u_hat), state, info


def _phase_two_step(
    state: PhaseState,
    world: WorldState,
    goals: GoalSpec,
    params: Params,
    dt: float,
    config: ResolutionConfig,
    info: dict,
    pairs: PairField,
    u_hat: Sequence[Vec2],
) -> tuple[tuple[Vec2, ...], PhaseState, dict]:
    kp2, kv2 = config.bearing_gains(params)
    t = world.t
    info["phase"] = Phase.TWO

    if state.sub_mode == "regularize":
        gamma_m, gamma_dot_m = _measured_gamma(
            world, state.center, tuple(i for i in range(3) if i != state.center)  # type: ignore[arg-type]
        )
        if (
            abs(wrap_angle(gamma_m - state.gamma_goal)) <= config.eps_theta
            and abs(gamma_dot_m) <= config.eps_omega
        ):
            state = _enter_rotate_three(world, goals, t, pairs.h, category="B", prior=state)
            info["event"] = ("regularized", t)
        else:
            acc = -kp2 * (state.gamma_ref - state.gamma_goal) - kv2 * state.gamma_omega
            gamma_omega = state.gamma_omega + dt * acc
            gamma_ref = state.gamma_ref + dt * gamma_omega
            h_ts = _h_targets(state, params, t + dt, config.k_h)
            controls, warm = _regularize_controls(world, params, state, gamma_ref, h_ts, dt)
            new_state = replace(
                state, gamma_ref=gamma_ref, gamma_omega=gamma_omega, newton_warm=tuple(warm)
            )
            return controls, new_state, info

    # rotate sub-mode (two- or three-robot)
    if len(state.partners) == 2:
        theta_m, omega_m = _measured_bearing_two(world, state.partners)
    else:
        theta_m, omega_m = _measured_bearing_three(world)
    assert state.beta_ref is not None
    h_ts = _h_targets(state, params, t + dt, config.k_h)
    aligned = (
        abs(wrap_angle(theta_m - state.beta_ref)) <= config.eps_theta
        and abs(omega_m) <= config.eps_omega
        and all(h == 0.0 for h in h_ts)
    )
    if aligned:
        new_state = replace(state, phase=Phase.THREE, t_enter_phase=t, newton_warm=())
        controls = tuple(u_hat)
        info["phase"] = Phase.THREE
        return controls, new_state, info

    theta_ref, omega_ref = _advance_bearing_ref(state, kp2, kv2, dt)
    if len(state.partners) == 2:
        controls, warm = _rotate_controls_two(world, params, state, theta_ref, h_ts, dt)
    else:
        controls, warm = _rotate_controls_three(world, params, state, theta_ref, h_ts, dt)
    new_state = replace(state, theta_ref=theta_ref, omega_ref=omega_ref, newton_warm=tuple(warm))
    return controls, new_state, info
