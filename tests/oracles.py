"""Reference functions that no run calls, kept as test oracles.

``phase3_closed_form`` is the paper's solution of the phase-3 relative
dynamics, ``simulate_relative_pd`` integrates the same dynamics with the
simulator's semi-implicit Euler step, and ``two_robot_multiplier`` is the
Theorem-2 multiplier of a single active constraint row.

``ConstraintRow``, ``box_rows``, ``problem_of`` and ``rows_of`` write a
QPProblem as a tuple of rows, the four box rows last: tests build and read
problems row by row through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mrdeadlock.core import Vec2, euler_step, v_dot
from mrdeadlock.errors import ZeroVectorError
from mrdeadlock.qp import BOX_NORMALS, QPProblem


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
