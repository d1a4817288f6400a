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
from typing import Callable, ClassVar, Sequence

import numpy as np

# assemble_qp and safety_index_signed are bound here only for the perfbench
# span tracer; the supervisor reads pair geometry from PairField.
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

    def __post_init__(self):
        # k_persist = 0 would announce a deadlock on the very first step, and
        # eps <= 0 would make the phase-3 release unreachable
        if not (isinstance(self.k_persist, int) and self.k_persist >= 1):
            raise ValueError(f"k_persist must be an integer >= 1, got {self.k_persist!r}")
        if not (self.eps_theta > 0.0 and self.eps_omega > 0.0):
            raise ValueError(f"eps_theta and eps_omega must be > 0, got {self.eps_theta!r}, {self.eps_omega!r}")

    def bearing_gains(self, params: Params) -> tuple[float, float]:
        return (
            self.kp2 if self.kp2 is not None else params.kp,
            self.kv2 if self.kv2 is not None else params.kv,
        )

    def distance_gain(self, params: Params) -> float:
        return self.k1 if self.k1 is not None else 10.0 * params.kv

    def classification_tol(self, params: Params) -> float:
        return self.classify_tol if self.classify_tol is not None else 2e-2 * params.ds


# Supervisor states, one per mode, threaded through supervisor_step.  A run
# moves Filtering -> (Regularizing ->) Rotating -> Released and never back.

@dataclass(frozen=True)
class Filtering:
    """Phase 1: the CBF-QP filter, counting consecutive deadlocked steps.

    With ``resolve`` off the supervisor is the plain CBF-QP filter: a
    persistent deadlock is announced once (``announced``) and filtering goes on.
    """

    phase: ClassVar[Phase] = Phase.ONE
    resolve: bool = True
    announced: bool = False
    persist_counter: int = 0


@dataclass(frozen=True)
class Rotating:
    """Phase 2: every pair held on the boundary while the assembly turns to ``beta_ref``.

    The pinned pairs are ``pair_indices(n)``; each one's boundary target
    decays from ``h_entry`` (its signed safety index at ``t_ref0``).
    ``theta_ref``/``omega_ref`` is the discrete bearing reference and
    ``newton_warm`` the last Newton solution.
    """

    phase: ClassVar[Phase] = Phase.TWO
    beta_ref: float
    h_entry: tuple[float, ...]
    t_ref0: float
    theta_ref: float
    omega_ref: float
    newton_warm: tuple[float, ...] = ()


@dataclass(frozen=True)
class Regularizing:
    """Phase 2 of a category-B chain: the chain opens about its static ``center``.

    Both outer robots stay on the boundary with the center robot while the
    opening angle gamma (reference ``theta_ref``/``omega_ref``) goes to
    ``beta_ref`` and its bisector holds at ``psi_hold``.  The reference
    fields are named as in ``Rotating``: one phase-2 step advances both.
    """

    phase: ClassVar[Phase] = Phase.TWO
    center: int
    h_entry: tuple[float, ...]
    t_ref0: float
    theta_ref: float
    omega_ref: float
    beta_ref: float
    psi_hold: float
    newton_warm: tuple[float, ...] = ()


@dataclass(frozen=True)
class Released:
    """Phase 3: the plain PD controllers."""

    phase: ClassVar[Phase] = Phase.THREE


PhaseState = Filtering | Rotating | Regularizing | Released


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


def _h_targets(state: Rotating | Regularizing, t_next: float, k_h: float) -> tuple[float, ...]:
    out = []
    for h0 in state.h_entry:
        h = h0 * math.exp(-k_h * (t_next - state.t_ref0))
        out.append(h if abs(h) > H_TARGET_FLOOR else 0.0)
    return tuple(out)


def _pin_controls(
    world: WorldState, params: Params, pairs: tuple[tuple[int, int], ...], h_ts: tuple[float, ...],
    controls_of: Callable[[list[float]], Sequence[Vec2]],
    angles: Callable[[list[tuple[Vec2, Vec2]]], list[float]],
    warm: tuple[float, ...], dt: float,
) -> tuple[tuple[Vec2, ...], tuple[float, ...]]:
    """Controls that put the next integrator state on the phase-2 manifold.

    Newton solves for the 2 (n - 1) free control components w: every pinned
    pair's predicted signed safety index at its target (``_pair_residual``,
    in pair order), then the mode's angle residuals.  ``controls_of(w)`` maps
    w to every robot's control; ``angles(pred)`` maps the predicted
    ``(p, v)`` of every robot to the angle residuals.  Returns the controls
    and w, the next step's warm start.
    """
    z = world.robots
    ds = params.ds
    terms = [(i, j, h_t, params.alpha_of(i) + params.alpha_of(j)) for (i, j), h_t in zip(pairs, h_ts)]

    def residuals(w: list[float]) -> list[float]:
        pred = []
        for zi, u in zip(z, controls_of(w)):
            pred.append(_predict(zi, u, dt))
        out = []
        for i, j, h_t, asum in terms:
            (pi, vi), (pj, vj) = pred[i], pred[j]
            out.append(_pair_residual(v_sub(pj, pi), v_sub(vj, vi), h_t, asum, ds))
        out += angles(pred)
        return out

    w = _newton_solve(residuals, list(warm) if warm else [0.0] * (2 * world.n - 2))
    return tuple(controls_of(w)), tuple(w)


# ---------------------------------------------------------------------------
# measured assembly state (for transitions)
# ---------------------------------------------------------------------------

def _measured_bearing(world: WorldState) -> tuple[float, float]:
    """Bearing and its rate of p_1 - p_0 (two robots) or of robot 0 about the centroid (three)."""
    z = world.robots
    if world.n == 2:
        dp = v_sub(z[1].p, z[0].p)
        dv = v_sub(z[1].v, z[0].v)
    else:
        c = v_scale(v_add(v_add(z[0].p, z[1].p), z[2].p), 1.0 / 3.0)
        vc = v_scale(v_add(v_add(z[0].v, z[1].v), z[2].v), 1.0 / 3.0)
        dp = v_sub(z[0].p, c)
        dv = v_sub(z[0].v, vc)
    return math.atan2(dp[1], dp[0]), v_cross(dp, dv) / v_dot(dp, dp)


def _outer(center: int) -> tuple[int, ...]:
    return tuple(i for i in range(3) if i != center)


def _center_pairs(center: int) -> tuple[tuple[int, int], ...]:
    """The pairs of a category-B chain: each outer robot with the center, in pair order."""
    return tuple(p for p in pair_indices(3) if center in p)


def _measured_gamma(world: WorldState, center: int) -> tuple[float, float, float]:
    """Opening angle of the chain about ``center``, its rate, and its bisector."""
    a, b = _outer(center)
    pm, vm = world.robots[center].p, world.robots[center].v
    rho_a = v_sub(world.robots[a].p, pm)
    rho_b = v_sub(world.robots[b].p, pm)
    th_a = math.atan2(rho_a[1], rho_a[0])
    th_b = math.atan2(rho_b[1], rho_b[0])
    wa = v_cross(rho_a, v_sub(world.robots[a].v, vm)) / v_dot(rho_a, rho_a)
    wb = v_cross(rho_b, v_sub(world.robots[b].v, vm)) / v_dot(rho_b, rho_b)
    gamma = wrap_angle(th_b - th_a)
    return gamma, wb - wa, th_a + 0.5 * gamma


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

def _enter_phase_two(
    world: WorldState, goals: GoalSpec, params: Params, config: ResolutionConfig, t: float,
    h: tuple[float, ...],
) -> Rotating | Regularizing:
    """Phase-2 entry state; h is the signed safety index of every pair, in pair order."""
    n = world.n
    if n == 3:
        cat = classify_three_robot(world, params, config.classification_tol(params))
        if cat.category == "B":
            center = cat.center
            assert center is not None
            gamma, gamma_dot, psi = _measured_gamma(world, center)
            return Regularizing(
                center=center,
                h_entry=tuple(h[pair_indices(3).index(p)] for p in _center_pairs(center)),
                t_ref0=t, theta_ref=gamma, omega_ref=gamma_dot,
                beta_ref=math.copysign(math.pi / 3.0, gamma), psi_hold=psi,
            )
        if cat.category != "A":
            raise UnsupportedScenarioError(
                "three-robot deadlock detected but the contact geometry matches neither category"
            )
    elif n != 2:
        raise UnsupportedScenarioError(f"deadlock resolution is implemented for N in {{2, 3}}, got N={n}")
    return _enter_rotating(world, goals, t, h)


def _enter_rotating(world: WorldState, goals: GoalSpec, t: float, h: tuple[float, ...]) -> Rotating:
    """Rotation toward the goal bearing from the measured one; h as in _enter_phase_two."""
    theta, omega = _measured_bearing(world)
    pd = goals.pd
    if world.n == 2:
        beta_raw = goal_bearing(goals, 0, 1)
    else:
        gc = v_scale(v_add(v_add(pd[0], pd[1]), pd[2]), 1.0 / 3.0)
        beta_raw = math.atan2(pd[0][1] - gc[1], pd[0][0] - gc[0])
    beta_ref = theta + wrap_angle(beta_raw - theta)
    return Rotating(beta_ref=beta_ref, h_entry=h, t_ref0=t, theta_ref=theta, omega_ref=omega)


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

    ``state`` is one of the per-mode states (``Filtering``, ``Regularizing``,
    ``Rotating``, ``Released``); the step dispatches on its type.  The
    returned info dict carries ``phase``, the phase whose controls were
    returned; on a phase-1 step, ``solutions``, the per-robot QP solutions;
    and on the step that detects a deadlock or finishes a category-B
    regularization, ``event``, a ``(name, t)`` pair.  ``pairs`` (the pair
    pass of ``world``) and ``u_hat`` (the PD references) may be passed by a
    caller that already has them; they are computed otherwise.
    """
    n = world.n
    t = world.t
    info: dict = {"phase": state.phase}
    if pairs is None:
        pairs = PairField(world, params)
    if u_hat is None:
        u_hat = tuple(pd_control(world.robots[i], goals.pd[i], params) for i in range(n))

    if isinstance(state, Filtering):
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

    if isinstance(state, Released):
        return tuple(u_hat), state, info
    return _phase_two_step(state, world, goals, params, dt, config, info, pairs, u_hat)


def _phase_two_step(
    state: Rotating | Regularizing,
    world: WorldState,
    goals: GoalSpec,
    params: Params,
    dt: float,
    config: ResolutionConfig,
    info: dict,
    pairs: PairField,
    u_hat: Sequence[Vec2],
) -> tuple[tuple[Vec2, ...], PhaseState, dict]:
    """Advance the mode's angle reference toward beta_ref and pin the next state to it."""
    t = world.t
    info["phase"] = Phase.TWO
    if isinstance(state, Regularizing) and _aligned(state, world, config):
        state = _enter_rotating(world, goals, t, pairs.h)
        info["event"] = ("regularized", t)
    h_ts = _h_targets(state, t + dt, config.k_h)
    if isinstance(state, Rotating) and _aligned(state, world, config) and all(h == 0.0 for h in h_ts):
        info["phase"] = Phase.THREE
        return tuple(u_hat), Released(), info

    kp2, kv2 = config.bearing_gains(params)
    omega_ref = state.omega_ref + dt * (-kp2 * (state.theta_ref - state.beta_ref) - kv2 * state.omega_ref)
    theta_ref = state.theta_ref + dt * omega_ref
    pinned, controls_of, angles = _manifold(state, world.n, theta_ref)
    controls, warm = _pin_controls(world, params, pinned, h_ts, controls_of, angles, state.newton_warm, dt)
    return controls, replace(state, theta_ref=theta_ref, omega_ref=omega_ref, newton_warm=warm), info


def _aligned(state: Rotating | Regularizing, world: WorldState, config: ResolutionConfig) -> bool:
    """The measured bearing (Rotating) or opening angle (Regularizing) settled at beta_ref."""
    if isinstance(state, Rotating):
        angle, rate = _measured_bearing(world)
    else:
        angle, rate, _ = _measured_gamma(world, state.center)
    return abs(wrap_angle(angle - state.beta_ref)) <= config.eps_theta and abs(rate) <= config.eps_omega


def _manifold(state: Rotating | Regularizing, n: int, theta_ref: float):
    """The mode's pinned pairs, control map and angle residuals (see _pin_controls) at theta_ref."""
    if isinstance(state, Regularizing):
        m = state.center
        a, b = _outer(m)

        def controls_of(w):
            us = [(0.0, 0.0)] * 3
            us[a] = (w[0], w[1])
            us[b] = (w[2], w[3])
            return us

        def angles(pred):
            pm = pred[m][0]
            rho_a = v_sub(pred[a][0], pm)
            rho_b = v_sub(pred[b][0], pm)
            th_a = math.atan2(rho_a[1], rho_a[0])
            gamma = wrap_angle(math.atan2(rho_b[1], rho_b[0]) - th_a)
            return [wrap_angle(gamma - theta_ref), wrap_angle(th_a + 0.5 * gamma - state.psi_hold)]

        return _center_pairs(m), controls_of, angles

    et = unit_vector(theta_ref)
    if n == 2:
        def controls_of(w):
            return (w[0], w[1]), (-w[0], -w[1])

        def angles(pred):
            return [v_cross(et, v_sub(pred[1][0], pred[0][0]))]
    else:
        def controls_of(w):
            return (w[0], w[1]), (w[2], w[3]), (-w[0] - w[2], -w[1] - w[3])

        def angles(pred):
            cx = (pred[0][0][0] + pred[1][0][0] + pred[2][0][0]) / 3.0
            cy = (pred[0][0][1] + pred[1][0][1] + pred[2][0][1]) / 3.0
            return [v_cross(et, (pred[0][0][0] - cx, pred[0][0][1] - cy))]
    return pair_indices(n), controls_of, angles
