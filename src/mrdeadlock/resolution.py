"""Three-phase deadlock resolution supervisor and its phase controllers.

Phase 1 runs the per-robot CBF-QP until system deadlock persists; phase 2
rotates the contact assembly as a rigid body (holding every touching pair
exactly at the safety distance, centroid static) until the assembly bearing
aligns with the goal bearing; phase 3 releases the plain PD controllers,
under which the inter-robot distance is provably non-decreasing for
overdamped gains and goal separation exceeding the safety margin.

Phase 2 realizes the paper's continuous-time bearing law,
theta'' = -kp2 (theta - beta) - kv2 theta', in discrete time.  Each step the
supervisor advances a bearing reference (while a category-B chain opens, an
opening-angle reference) by one semi-implicit Euler step of that law.  It
then solves a small Newton system, with its exact Jacobian, for the controls
that place the *next integrator state* exactly on the target manifold (|h| at
the reference value, the angle at its reference).  Integrating the continuous
law directly would let the pair distance random-walk off the boundary at
O(dt^2) per step, which the square root in h amplifies catastrophically;
pinning the discrete successor state avoids that entirely.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, Sequence

# assemble_qp, safety_index_signed and pd_control are bound here only for the
# perfbench span tracer; the supervisor reads pair geometry from PairField and
# is handed the PD references.
from .cbf import PairField, assemble_qp, pair_indices, safety_index_signed  # noqa: F401
from .core import pd_control  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    Vec2,
    WorldState,
    _positive,
    goal_bearing,
    unit_vector,
    v_cross,
    v_dot,
    v_sub,
    wrap_angle,
)
from .deadlock import classify_three_robot, system_deadlock
from .errors import (
    CoincidentRobotsError,
    QPInfeasibleError,
    SimulationAbort,
    UnsupportedScenarioError,
)
from .qp import solve_qp

# Boundary targets below this are flushed to exactly zero.
H_TARGET_FLOOR = 1e-12
# Phase-2 Newton: stop once every residual is within NEWTON_F_TOL; after
# NEWTON_MAX_ITER iterations, abort as phase2-diverged above NEWTON_STALL_TOL.
NEWTON_F_TOL = 1e-12
NEWTON_MAX_ITER = 12
NEWTON_STALL_TOL = 1e-9
K_H = 8.0             # decay rate (1/s) of the phase-2 boundary targets
EPS_THETA = 1e-3      # phase 2 ends once the bearing (or opening angle) is this close (rad) to its goal
EPS_OMEGA = 1e-3      # and turns slower than this (rad/s)
K_PERSIST = 10        # consecutive deadlocked steps that announce a deadlock
CLASSIFY_TOL = 2e-2   # margin tolerance, a fraction of Ds, that classifies a three-robot deadlock


@dataclass(frozen=True)
class ResolutionConfig:
    """Phase-2 bearing gains; each defaults to its PD gain."""

    kp2: float | None = None        # bearing stiffness (defaults to params.kp)
    kv2: float | None = None        # bearing damping (defaults to params.kv)

    def __post_init__(self):
        # as Params requires of kp and kv: a gain <= 0 never settles the
        # bearing, and a non-finite one breaks the phase-2 step
        for name in ("kp2", "kv2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _positive(getattr(self, name), name))

    def bearing_gains(self, params: Params) -> tuple[float, float]:
        return (
            self.kp2 if self.kp2 is not None else params.kp,
            self.kv2 if self.kv2 is not None else params.kv,
        )


# Supervisor states, one per phase, threaded through supervisor_step.  A run
# moves Filtering -> Turning -> Released and never back.

@dataclass(frozen=True)
class Filtering:
    """Phase 1: the CBF-QP filter, counting consecutive deadlocked steps.

    With ``resolve`` off the supervisor is the plain CBF-QP filter: a
    persistent deadlock is announced once, the count stays at K_PERSIST, and
    filtering goes on.
    """

    phase: ClassVar[int] = 1
    resolve: bool = True
    persist_counter: int = 0


@dataclass(frozen=True)
class Turning:
    """Phase 2: the pinned pairs held on the boundary while one angle turns to ``beta_ref``.

    With ``center`` None the assembly rotates: every pair of ``pair_indices(n)``
    is pinned and the angle is the assembly bearing.  With ``center`` = m a
    category-B chain opens about its static robot m: both outer robots stay
    on the boundary with m while the opening angle goes to ``beta_ref`` and
    its bisector holds at ``psi_hold``; once it has opened, the assembly
    rotates.  Each pinned pair's boundary target decays from ``h_entry`` (its
    signed safety index at ``t_ref0``).  ``theta_ref``/``omega_ref`` is the
    discrete angle reference and ``newton_warm`` the last Newton solution.
    """

    phase: ClassVar[int] = 2
    beta_ref: float
    h_entry: tuple[float, ...]
    t_ref0: float
    theta_ref: float
    omega_ref: float
    center: int | None = None
    psi_hold: float = 0.0
    newton_warm: tuple[float, ...] = ()


@dataclass(frozen=True)
class Released:
    """Phase 3: the plain PD controllers."""

    phase: ClassVar[int] = 3


PhaseState = Filtering | Turning | Released


# ---------------------------------------------------------------------------
# discrete phase-2 manifold controller (supervisor internals)
# ---------------------------------------------------------------------------

# A mode's angle residuals of the predicted positions, each with its gradient in w.
Angles = Callable[[list[Vec2]], list[tuple[float, Sequence[float]]]]


@dataclass(frozen=True)
class _ControlMap:
    """A phase-2 mode's free controls w, one 2-vector block per robot of ``blocks`` (at most two).

    The ``balance`` robot, if any, takes minus their sum (a static
    centroid); any other robot u = 0.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]     # the pinned pairs
    blocks: tuple[int, ...]
    balance: int | None = None

    @cached_property
    def pair_coef(self) -> tuple[tuple[int, ...], ...]:
        """d (u_j - u_i) / d w of each pinned pair, one entry per block of w (the same for its x and y)."""
        du = [[(k == rb) - (k == self.balance) for rb in self.blocks] for k in range(self.n)]   # d u_k / d block
        return tuple(tuple(cj - ci for ci, cj in zip(du[i], du[j])) for i, j in self.pairs)

    def controls(self, w: Sequence[float]) -> list[Vec2]:
        us = [(0.0, 0.0)] * self.n
        bx = by = -0.0      # a lone block's balance is -w, signed zeros included
        for k, x, y in zip(self.blocks, w[0::2], w[1::2]):
            us[k] = (x, y)
            bx, by = bx - x, by - y
        if self.balance is not None:
            us[self.balance] = (bx, by)
        return us


def _pop_pivot(rows: list[tuple[float, ...]]) -> tuple[float, ...]:
    """Remove and return the first row of largest |leading entry|, the row max() would pick."""
    k = 0
    for i in range(1, len(rows)):
        if abs(rows[i][0]) > abs(rows[k][0]):
            k = i
    return rows.pop(k)


def _solve(a: list[Sequence[float]], b: list[float]) -> list[float]:
    """x with a x = b: Cramer's rule on a 2x2, Gaussian elimination with partial pivoting on a 4x4.

    Each elimination stage pivots on the first remaining row of largest
    leading entry.  A zero determinant or pivot raises phase2-singular.
    """
    try:
        if len(b) == 2:
            (a00, a01), (a10, a11) = a
            det = a00 * a11 - a01 * a10
            return [(b[0] * a11 - a01 * b[1]) / det, (a00 * b[1] - a10 * b[0]) / det]
        rows = [(*row, bi) for row, bi in zip(a, b)]
        p0, p1, p2, p3, pb = _pop_pivot(rows)
        sub = []
        for r0, r1, r2, r3, rb in rows:
            f = r0 / p0
            sub.append((r1 - f * p1, r2 - f * p2, r3 - f * p3, rb - f * pb))
        q0, q1, q2, qb = _pop_pivot(sub)
        (s0, s1, s2, sb), (t0, t1, t2, tb) = sub
        f, g = s0 / q0, t0 / q0
        u0, u1, ub = s1 - f * q1, s2 - f * q2, sb - f * qb
        v0, v1, vb = t1 - g * q1, t2 - g * q2, tb - g * qb
        if abs(v0) > abs(u0):
            (u0, u1, ub), (v0, v1, vb) = (v0, v1, vb), (u0, u1, ub)
        f = v0 / u0
        x3 = (vb - f * ub) / (v1 - f * u1)
        x2 = (ub - u1 * x3) / u0
        x1 = (qb - q1 * x2 - q2 * x3) / q0
        return [(pb - p1 * x1 - p2 * x2 - p3 * x3) / p0, x1, x2, x3]
    except ZeroDivisionError:
        raise SimulationAbort("phase2-singular", "phase-2 Newton Jacobian singular: Singular matrix") from None


def _newton_solve(system, w0: list[float]) -> list[float]:
    """Newton on a tiny system; ``system(w)`` returns the residuals and their Jacobian in w."""
    w = list(w0)
    fw, jac = system(w)
    for _ in range(NEWTON_MAX_ITER):
        if max(map(abs, fw)) <= NEWTON_F_TOL:
            return w
        w = [wk - sk for wk, sk in zip(w, _solve(jac, fw))]
        fw, jac = system(w)
    err = max(map(abs, fw))
    if err > NEWTON_STALL_TOL:
        raise SimulationAbort("phase2-diverged", f"phase-2 Newton stalled at residual {err:.3e}")
    return w


def _phase2_system(world: WorldState, params: Params, control: _ControlMap, angles: Angles,
                   h_ts: tuple[float, ...], dt: float):
    """The residuals that pin the next integrator state, and their Jacobian, as one function of w.

    The residuals are every pinned pair's, then the mode's angle residuals,
    at the (p, v) of the euler_step the integrator will take, which each pass
    redoes on plain floats in euler_step's order (v + dt u, then p + dt v).
    Pair (i, j) is pinned by 2 asum (r - Ds) - q |q|
    with q = h_t - y / r, dp = p_j - p_i, dv = v_j - v_i, y = dp.dv, which
    vanishes exactly when its signed safety index is h_t and, unlike that
    index, has a bounded slope on the boundary, where phase 2 operates.  Its
    gradient is 2 asum dp / r + s (dv - y dp / r^2) in dp and s dp in dv,
    with s = 2 |q| / r.  ``angles(ps)`` gives each angle residual of the
    predicted positions ps with its gradient in w.
    """
    ds, dt2, alpha = params.ds, dt * dt, params.alpha
    states = [(*z.p, *z.v) for z in world.robots]
    wide = len(control.blocks) == 2    # with one block, c[0] and c[-1] are its one coefficient
    terms = [(i, j, h_t, alpha[i] + alpha[j], c[0], c[-1])
             for (i, j), h_t, c in zip(control.pairs, h_ts, control.pair_coef)]

    def system(w: list[float]) -> tuple[list[float], list[Sequence[float]]]:
        ps, vs = [], []
        for (px, py, vx, vy), (ux, uy) in zip(states, control.controls(w)):
            vx, vy = vx + dt * ux, vy + dt * uy
            ps.append((px + dt * vx, py + dt * vy))
            vs.append((vx, vy))
        fw, jac = [], []
        for i, j, h_t, asum, ca, cb in terms:
            (pix, piy), (vix, viy), (pjx, pjy), (vjx, vjy) = ps[i], vs[i], ps[j], vs[j]
            dpx, dpy, dvx, dvy = pjx - pix, pjy - piy, vjx - vix, vjy - viy
            r = math.hypot(dpx, dpy)
            if r == 0.0:
                raise CoincidentRobotsError("predicted coincident robots in phase 2")
            y = dpx * dvx + dpy * dvy
            q = h_t - y / r
            fw.append(2.0 * asum * (r - ds) - q * abs(q))
            s = 2.0 * abs(q) / r
            g = dt2 * (2.0 * asum - s * y / r) / r + dt * s
            gx, gy = g * dpx + dt2 * s * dvx, g * dpy + dt2 * s * dvy
            jac.append((ca * gx, ca * gy, cb * gx, cb * gy) if wide else (ca * gx, ca * gy))
        for value, grad in angles(ps):
            fw.append(value)
            jac.append(grad)
        return fw, jac

    return system


def _pin_controls(
    world: WorldState, params: Params, control: _ControlMap, angles: Angles,
    h_ts: tuple[float, ...], warm: tuple[float, ...], dt: float,
) -> tuple[tuple[Vec2, ...], tuple[float, ...]]:
    """The controls whose next state zeroes the _phase2_system residuals, and w (the next warm start)."""
    system = _phase2_system(world, params, control, angles, h_ts, dt)
    w = _newton_solve(system, warm or [0.0] * (2 * len(control.blocks)))
    return tuple(control.controls(w)), tuple(w)


# ---------------------------------------------------------------------------
# measured assembly state (for transitions)
# ---------------------------------------------------------------------------

def _assembly_vector(ps: Sequence[Vec2]) -> Vec2:
    """p_1 - p_0 (two robots) or p_0 - centroid (three) of positions or velocities: the bearing vector."""
    if len(ps) == 2:
        (x0, y0), (x1, y1) = ps
        return (x1 - x0, y1 - y0)
    (x0, y0), (x1, y1), (x2, y2) = ps
    return (x0 - (x0 + x1 + x2) * (1.0 / 3.0), y0 - (y0 + y1 + y2) * (1.0 / 3.0))


def _measured_bearing(world: WorldState) -> tuple[float, float]:
    """Bearing of the assembly vector and its rate."""
    dp, dv = _assembly_vector(world.positions()), _assembly_vector(world.velocities())
    return math.atan2(dp[1], dp[0]), v_cross(dp, dv) / v_dot(dp, dp)


def _outer(center: int) -> tuple[int, ...]:
    return tuple(i for i in range(3) if i != center)


def _center_pairs(center: int) -> tuple[tuple[int, int], ...]:
    """The pairs of a category-B chain: each outer robot with the center, in pair order."""
    return tuple(p for p in pair_indices(3) if center in p)


def _chain(ps: Sequence[Vec2], center: int) -> tuple[Vec2, Vec2, float, float]:
    """rho_a and rho_b, the outer robots' positions about ``center``, the bearing of rho_a and the opening angle."""
    a, b = _outer(center)
    rho_a, rho_b = v_sub(ps[a], ps[center]), v_sub(ps[b], ps[center])
    th_a = math.atan2(rho_a[1], rho_a[0])
    return rho_a, rho_b, th_a, wrap_angle(math.atan2(rho_b[1], rho_b[0]) - th_a)


def _measured_gamma(world: WorldState, center: int) -> tuple[float, float, float]:
    """Opening angle of the chain about ``center``, its rate, and its bisector."""
    a, b = _outer(center)
    rho_a, rho_b, th_a, gamma = _chain(world.positions(), center)
    vm = world.robots[center].v
    wa = v_cross(rho_a, v_sub(world.robots[a].v, vm)) / v_dot(rho_a, rho_a)
    wb = v_cross(rho_b, v_sub(world.robots[b].v, vm)) / v_dot(rho_b, rho_b)
    return gamma, wb - wa, th_a + 0.5 * gamma


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

def _enter_phase_two(
    world: WorldState, goals: GoalSpec, params: Params, t: float, h: tuple[float, ...],
) -> Turning:
    """Phase-2 entry state; h is the signed safety index of every pair, in pair order."""
    n = world.n
    if n == 3:
        cat = classify_three_robot(world, params, CLASSIFY_TOL * params.ds)
        if cat.category == "B":
            center = cat.center
            assert center is not None
            gamma, gamma_dot, psi = _measured_gamma(world, center)
            return Turning(
                beta_ref=math.copysign(math.pi / 3.0, gamma),
                h_entry=tuple(h[pair_indices(3).index(p)] for p in _center_pairs(center)),
                t_ref0=t, theta_ref=gamma, omega_ref=gamma_dot, center=center, psi_hold=psi,
            )
        if cat.category != "A":
            raise UnsupportedScenarioError(
                "three-robot deadlock detected but the contact geometry matches neither category"
            )
    elif n != 2:
        raise UnsupportedScenarioError(f"deadlock resolution is implemented for N in {{2, 3}}, got N={n}")
    return _enter_rotation(world, goals, t, h)


def _enter_rotation(world: WorldState, goals: GoalSpec, t: float, h: tuple[float, ...]) -> Turning:
    """Rotation toward the goal bearing from the measured one; h as in _enter_phase_two."""
    theta, omega = _measured_bearing(world)
    if world.n == 2:
        beta_raw = goal_bearing(goals, 0, 1)
    else:
        d = _assembly_vector(goals.pd)
        beta_raw = math.atan2(d[1], d[0])
    beta_ref = theta + wrap_angle(beta_raw - theta)
    return Turning(beta_ref=beta_ref, h_entry=h, t_ref0=t, theta_ref=theta, omega_ref=omega)


def supervisor_step(
    state: PhaseState,
    world: WorldState,
    goals: GoalSpec,
    params: Params,
    dt: float,
    config: ResolutionConfig,
    pairs: PairField,
    u_hat: Sequence[Vec2],
) -> tuple[tuple[Vec2, ...], PhaseState, dict]:
    """Advance the supervisor one step: controls for every robot + new state.

    ``state`` is one of the per-phase states (``Filtering``, ``Turning``,
    ``Released``); the step dispatches on its type.  ``pairs`` is the pair
    pass of ``world`` and ``u_hat`` the PD references of its robots; every
    pair quantity of the step is read from ``pairs``.  The returned info dict
    carries ``phase``, the phase of the returned state (1, 2 or 3);
    ``solutions``, the per-robot QP solutions, only when the returned
    controls are those solutions (the step that detects a deadlock and
    returns phase-2 controls has none); and on the step that detects a
    deadlock or finishes a category-B regularization, ``event``, a
    ``(name, t)`` pair.
    """
    n = world.n
    t = world.t
    info: dict = {"phase": state.phase}

    if isinstance(state, Filtering):
        problems = pairs.problems(u_hat)
        solutions = tuple(solve_qp(p) for p in problems)
        for i, sol in enumerate(solutions):
            if sol.status != "optimal":
                raise QPInfeasibleError(
                    f"robot {i} QP infeasible",
                    snapshot={"t": t, "robot": i, "world": world},
                )
        # a count at K_PERSIST is an announced deadlock, and detection stops
        if state.persist_counter < K_PERSIST:
            in_deadlock = n >= 2 and system_deadlock(world, goals, params, solutions)
            persist = state.persist_counter + 1 if in_deadlock else 0
            if persist == K_PERSIST:
                info["event"] = ("deadlock-detected", t)
                if state.resolve:
                    # the phase-2 controls replace the QP solutions of this step
                    new_state = _enter_phase_two(world, goals, params, t, pairs.h)
                    return _phase_two_step(new_state, world, goals, params, dt, config, info, pairs, u_hat)
            if persist != state.persist_counter:
                state = replace(state, persist_counter=persist)
        info["solutions"] = solutions
        return tuple(sol.u_star for sol in solutions), state, info

    if isinstance(state, Released):
        return tuple(u_hat), state, info
    return _phase_two_step(state, world, goals, params, dt, config, info, pairs, u_hat)


def _phase_two_step(
    state: Turning,
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
    info["phase"] = 2
    if state.center is not None and _aligned(state, world):
        state = _enter_rotation(world, goals, t, pairs.h)
        info["event"] = ("regularized", t)
    decay = math.exp(-K_H * (t + dt - state.t_ref0))
    h_ts = tuple(h if abs(h) > H_TARGET_FLOOR else 0.0 for h in (h0 * decay for h0 in state.h_entry))
    # every boundary target has decayed to zero (no h is truthy) and the bearing has settled
    if state.center is None and not any(h_ts) and _aligned(state, world):
        info["phase"] = 3
        return tuple(u_hat), Released(), info

    kp2, kv2 = config.bearing_gains(params)
    omega_ref = state.omega_ref + dt * (-kp2 * (state.theta_ref - state.beta_ref) - kv2 * state.omega_ref)
    theta_ref = state.theta_ref + dt * omega_ref
    control, angles = _manifold(state, world.n, theta_ref, dt)
    controls, warm = _pin_controls(world, params, control, angles, h_ts, state.newton_warm, dt)
    return controls, Turning(
        state.beta_ref, state.h_entry, state.t_ref0, theta_ref, omega_ref, state.center, state.psi_hold, warm), info


def _aligned(state: Turning, world: WorldState) -> bool:
    """The measured bearing (no center) or opening angle (a center) settled at beta_ref."""
    if state.center is None:
        angle, rate = _measured_bearing(world)
    else:
        angle, rate, _ = _measured_gamma(world, state.center)
    return abs(wrap_angle(angle - state.beta_ref)) <= EPS_THETA and abs(rate) <= EPS_OMEGA


# the control map by (n, center): a rotation pins every pair, with robot n-1
# balancing the others; a chain pins its two pairs with a static center
_CONTROL_MAPS = {(n, None): _ControlMap(n, pair_indices(n), tuple(range(n - 1)), n - 1) for n in (2, 3)}
_CONTROL_MAPS.update({(3, m): _ControlMap(3, _center_pairs(m), _outer(m)) for m in range(3)})
# d (assembly vector) / d (each component of w) over dt^2: p_1 - p_0 moves
# by u_1 - u_0 = -2 u_0, and p_0 - centroid by u_0 (the centroid is static)
_BEARING_WEIGHTS = {2: (-2.0, -2.0), 3: (1.0, 1.0, 0.0, 0.0)}


def _manifold(state: Turning, n: int, theta_ref: float, dt: float) -> tuple[_ControlMap, Angles]:
    """The mode's control map and angle residuals (see _phase2_system) at theta_ref.

    The residuals depend on w through the predicted positions alone, which
    w moves by dt^2 along the control map.
    """
    dt2 = dt * dt
    m = state.center
    if m is not None:

        def angles(ps: list[Vec2]) -> list[tuple[float, Sequence[float]]]:
            # the opening angle and its bisector; d atan2(rho) / d rho = (-rho_y, rho_x) / |rho|^2,
            # and w moves the outer robots a and b, one block each
            rho_a, rho_b, th_a, gamma = _chain(ps, m)
            ra, rb = v_dot(rho_a, rho_a) / dt2, v_dot(rho_b, rho_b) / dt2
            ga, gb = (-rho_a[1] / ra, rho_a[0] / ra), (-rho_b[1] / rb, rho_b[0] / rb)
            return [
                (wrap_angle(gamma - theta_ref), (-ga[0], -ga[1], gb[0], gb[1])),
                (wrap_angle(th_a + 0.5 * gamma - state.psi_hold), (0.5 * ga[0], 0.5 * ga[1], 0.5 * gb[0], 0.5 * gb[1])),
            ]

        return _CONTROL_MAPS[n, m], angles

    # et x the assembly vector
    et = unit_vector(theta_ref)
    grad = list(map(operator.mul, _BEARING_WEIGHTS[n], (-dt2 * et[1], dt2 * et[0]) * 2))

    def angles(ps: list[Vec2]) -> list[tuple[float, Sequence[float]]]:
        return [(v_cross(et, _assembly_vector(ps)), grad)]

    return _CONTROL_MAPS[n, m], angles
