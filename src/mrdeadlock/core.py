"""Domain types, controller gains and the prescribed PD goal controller.

All value types are immutable (frozen dataclasses over plain float tuples),
so they are safe to share between threads and cheap to hash/compare.
Vectors are 2-tuples ``(x, y)`` of floats throughout.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Set
from dataclasses import dataclass

from .errors import ZeroVectorError

Vec2 = tuple[float, float]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# small vector helpers (tuples, not numpy: these sit on the simulation hot path)
# ---------------------------------------------------------------------------

def v_add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def v_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def v_scale(a: Vec2, s: float) -> Vec2:
    return (a[0] * s, a[1] * s)


def v_dot(a: Vec2, b: Vec2) -> float:
    return a[0] * b[0] + a[1] * b[1]


def v_cross(a: Vec2, b: Vec2) -> float:
    """z-component of the planar cross product a x b."""
    return a[0] * b[1] - a[1] * b[0]


def v_norm(a: Vec2) -> float:
    return math.hypot(a[0], a[1])


def _real(x) -> bool:
    """x is an int, a float or a NumPy real scalar; a bool or a string is not."""
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _positive(value, what: str) -> float:
    """value as a finite float > 0; a ValueError naming `what` otherwise."""
    if not _real(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:   # an int beyond the float range
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be finite and > 0, got {value!r}")
    return x


def _positive_int(value, what: str) -> int:
    """value if it is an int >= 1 (a bool is not); a ValueError naming `what` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _finite_vec2(value, what: str) -> Vec2:
    """value as a 2-tuple of finite floats; a ValueError naming `what` otherwise."""
    try:
        x, y = value
        if not (_real(x) and _real(y)):
            raise TypeError
        vec = (float(x), float(y))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be two numbers, got {value!r}") from None
    if not (math.isfinite(vec[0]) and math.isfinite(vec[1])):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return vec


def unit_vector(angle: float) -> Vec2:
    """Unit vector e_hat(angle) = (cos angle, sin angle)."""
    return (math.cos(angle), math.sin(angle))


def wrap_angle(angle: float) -> float:
    """Normalize an angle to the interval (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Controller gains and physical limits shared by all modules.

    kp, kv   PD gains (1/s^2, 1/s)
    ds       safety margin distance (m)
    alpha    per-robot acceleration limit (m/s^2); one scalar per robot,
             applied componentwise as the symmetric box |u| <= alpha
    """

    kp: float
    kv: float
    ds: float
    alpha: tuple[float, ...]

    def __post_init__(self):
        for name in ("kp", "kv", "ds"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        # a mapping would pass as its keys, and a set would drop a repeated alpha
        if isinstance(self.alpha, (Mapping, Set)):
            raise ValueError(f"alpha must be a sequence of numbers, got {self.alpha!r}")
        try:
            alpha = tuple(_positive(a, "every per-robot alpha") for a in self.alpha)
        except TypeError:
            raise ValueError(f"alpha must be a sequence of numbers, got {self.alpha!r}") from None
        if not alpha:
            raise ValueError("every per-robot alpha must be finite and > 0, got ()")
        object.__setattr__(self, "alpha", alpha)

    @property
    def overdamped(self) -> bool:
        """kv^2 - 4 kp > 0; required by the phase-3 separation argument."""
        return self.kv * self.kv - 4.0 * self.kp > 0.0


@dataclass(frozen=True)
class RobotState:
    """Planar double-integrator state z = (p, v)."""

    p: Vec2
    v: Vec2

    def __post_init__(self):
        object.__setattr__(self, "p", _finite_vec2(self.p, "robot position"))
        object.__setattr__(self, "v", _finite_vec2(self.v, "robot velocity"))

    @staticmethod
    def at_rest(p: Vec2) -> "RobotState":
        return RobotState(p=p, v=(0.0, 0.0))


@dataclass(frozen=True)
class GoalSpec:
    """Per-robot goal positions; pairwise distinct when there is more than one robot."""

    pd: tuple[Vec2, ...]

    def __post_init__(self):
        pd = tuple(_finite_vec2(g, "goal") for g in self.pd)
        object.__setattr__(self, "pd", pd)
        n = len(pd)
        for i in range(n):
            for j in range(i + 1, n):
                if v_norm(v_sub(pd[i], pd[j])) == 0.0:
                    raise ValueError(f"goals {i} and {j} coincide")

    def __len__(self) -> int:
        return len(self.pd)


@dataclass(frozen=True)
class WorldState:
    """Ordered robot states plus simulation time; indices are stable robot ids."""

    robots: tuple[RobotState, ...]
    t: float = 0.0

    def __post_init__(self):
        if len(self.robots) < 1:
            raise ValueError("world must contain at least one robot")
        object.__setattr__(self, "robots", tuple(self.robots))

    @property
    def n(self) -> int:
        return len(self.robots)

    def positions(self) -> tuple[Vec2, ...]:
        return tuple(r.p for r in self.robots)

    def velocities(self) -> tuple[Vec2, ...]:
        return tuple(r.v for r in self.robots)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pd_control(state: RobotState, goal: Vec2, params: Params) -> Vec2:
    """Prescribed goal controller u_hat = -kp (p - pd) - kv v."""
    return (
        -params.kp * (state.p[0] - goal[0]) - params.kv * state.v[0],
        -params.kp * (state.p[1] - goal[1]) - params.kv * state.v[1],
    )


def euler_step(p: Vec2, v: Vec2, u: Vec2, dt: float) -> tuple[Vec2, Vec2]:
    """Semi-implicit Euler step of the double integrator: v+ = v + u dt, then p+ = p + v+ dt."""
    v_next = (v[0] + dt * u[0], v[1] + dt * u[1])
    return (p[0] + dt * v_next[0], p[1] + dt * v_next[1]), v_next


def goal_separation(goals: GoalSpec, i: int, j: int) -> float:
    """Distance D_G between the goals of robots i and j."""
    return v_norm(v_sub(goals.pd[j], goals.pd[i]))


def goal_bearing(goals: GoalSpec, i: int, j: int) -> float:
    """Four-quadrant bearing of pd_j - pd_i, normalized to (-pi, pi].

    Raises ZeroVectorError when the goals coincide (D_G = 0), which GoalSpec
    construction normally rules out.
    """
    d = v_sub(goals.pd[j], goals.pd[i])
    if v_norm(d) == 0.0:
        raise ZeroVectorError(f"goals {i} and {j} coincide; bearing undefined")
    return wrap_angle(math.atan2(d[1], d[0]))


def goal_direction(goals: GoalSpec, i: int, j: int) -> Vec2:
    """Unit vector e_beta = (pd_j - pd_i) / D_G."""
    d = v_sub(goals.pd[j], goals.pd[i])
    n = v_norm(d)
    if n == 0.0:
        raise ZeroVectorError(f"goals {i} and {j} coincide; direction undefined")
    return (d[0] / n, d[1] / n)
