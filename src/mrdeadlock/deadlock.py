"""Deadlock detection, set membership and the analytical deadlock families.

A robot is deadlocked when its QP output and velocity are (numerically) zero
while its PD reference is not, i.e. it is stuck away from its goal with at
least one collision-avoidance multiplier strictly positive; the multipliers
then balance the goal attraction as a repulsive contact force.  System
deadlock requires every robot to be deadlocked at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# assemble_qp and safety_index_signed are bound here only for the perfbench
# span tracer; the analysis builds its QPs and h from PairField.
from .cbf import PairField, assemble_qp, pair_indices, row_neighbor, safety_index_signed  # noqa: F401
from .core import (
    GoalSpec,
    Params,
    RobotState,
    Vec2,
    WorldState,
    _positive,
    _real,
    goal_direction,
    goal_separation,
    pd_control,
    unit_vector,
    v_add,
    v_norm,
    v_scale,
    v_sub,
)
from .errors import SafetyViolationError
from .qp import QPProblem, QPSolution, solve_qp

BOUNDARY_TOL = 1e-8   # verify_boundary_membership's bound on |h| of every active pair

# The "small thresholds" that realize the exact-equality deadlock conditions;
# the control and goal thresholds scale with the problem data.
EPS_U = 1e-3      # control norm, times kp Ds (m/s^2)
EPS_V = 1e-3      # velocity norm (m/s)
EPS_GOAL = 0.1    # distance to goal for a robot to count as stuck, times Ds (m)
EPS_MU = 1e-6     # neighbor-multiplier magnitude


def geometric_tol(params: Params) -> float:
    """Default tolerance for distance-at-margin tests."""
    return 1e-6 * params.ds


@dataclass(frozen=True)
class DeadlockReport:
    """Per-robot verdict with every measured quantity behind it."""

    robot: int
    verdict: bool
    u_star_norm: float
    v_norm: float
    goal_dist: float
    active_multipliers: tuple[tuple[int, float], ...]
    force_balance_residual: float


@dataclass(frozen=True)
class ThreeRobotCategory:
    """Geometric class of a three-robot deadlock candidate.

    category "A": all three pairs at the safety margin;
    category "B": exactly the two pairs containing ``center`` at the margin;
    category "none": not a deadlock geometry.
    """

    category: str
    center: int | None = None


def _deadlocked(z: RobotState, goal: Vec2, qp_solution: QPSolution, m_neighbors: int, params: Params) -> bool:
    """The verdict of the four deadlock conditions, each evaluated only if those before it hold."""
    if qp_solution.status != "optimal":
        raise ValueError("detect_deadlock expects an optimal QP solution")
    mu = qp_solution.mu_star
    return (
        v_norm(qp_solution.u_star) <= EPS_U * params.kp * params.ds
        and v_norm(z.v) <= EPS_V
        and v_norm(v_sub(z.p, goal)) >= EPS_GOAL * params.ds
        and any(mu[k] > EPS_MU for k in qp_solution.active_set if k < m_neighbors)
    )


def detect_deadlock(
    i: int,
    world: WorldState,
    goals: GoalSpec,
    params: Params,
    qp_solution: QPSolution,
    problem: QPProblem,
) -> DeadlockReport:
    """Evaluate the four deadlock conditions for robot i, with every quantity behind them.

    ``problem`` is the QP that produced ``qp_solution``; its flat rows, each with
    the multiplier of its row number, give the force balance
    u_hat - 1/2 sum_k mu_k a_k, and rows numbered below m_neighbors are the neighbors.
    """
    z = world.robots[i]
    verdict = _deadlocked(z, goals.pd[i], qp_solution, problem.m_neighbors, params)
    mus = qp_solution.mu_star
    active = tuple((k, mus[k]) for k in qp_solution.active_set)
    force = list(pd_control(z, goals.pd[i], params))
    for k, ax, ay in zip(problem.row_numbers, problem.ax, problem.ay):
        mu = mus[k]
        if mu != 0.0:
            force[0] -= 0.5 * mu * ax
            force[1] -= 0.5 * mu * ay
    return DeadlockReport(
        robot=i,
        verdict=verdict,
        u_star_norm=v_norm(qp_solution.u_star),
        v_norm=v_norm(z.v),
        goal_dist=v_norm(v_sub(z.p, goals.pd[i])),
        active_multipliers=active,
        force_balance_residual=v_norm((force[0], force[1])),
    )


def system_deadlock(world: WorldState, goals: GoalSpec, params: Params, solutions: tuple[QPSolution, ...]) -> bool:
    """True iff every robot is in deadlock, up to the first that is not.

    ``solutions`` solve the QPs of the pair pass, whose rows numbered below
    world.n - 1 are the neighbors.
    """
    m_neighbors = world.n - 1
    for i in range(world.n):
        if not _deadlocked(world.robots[i], goals.pd[i], solutions[i], m_neighbors, params):
            return False
    return True


# ---------------------------------------------------------------------------
# analytical families
# ---------------------------------------------------------------------------

def collinear_family(goals: GoalSpec, params: Params, alpha: float) -> tuple[RobotState, RobotState]:
    """Two-robot deadlock family: both robots at rest on the goal line.

    p1 = alpha pd1 + (1 - alpha) pd2,  p2 = p1 - Ds e_beta,  alpha in (0, 1).
    Requires D_G > Ds so the construction is nondegenerate.
    """
    if not (_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if len(goals) < 2:
        raise ValueError("two goals required")
    d_g = goal_separation(goals, 0, 1)
    if not d_g > params.ds:
        raise ValueError(f"goal separation {d_g} must exceed the safety margin {params.ds}")
    e = goal_direction(goals, 0, 1)
    pd1, pd2 = goals.pd[0], goals.pd[1]
    p1 = v_add(v_scale(pd1, alpha), v_scale(pd2, 1.0 - alpha))
    p2 = v_sub(p1, v_scale(e, params.ds))
    return RobotState.at_rest(p1), RobotState.at_rest(p2)


def boundedness_identity(world: WorldState, goals: GoalSpec, params: Params) -> float:
    """Residual of the two-robot deadlock identity

        ||p1 - pd1|| + ||p2 - pd2|| = Ds + D_G.

    Zero exactly on the collinear family; strictly positive off it.
    """
    if world.n != 2:
        raise ValueError("the boundedness identity is a two-robot statement")
    d1 = v_norm(v_sub(world.robots[0].p, goals.pd[0]))
    d2 = v_norm(v_sub(world.robots[1].p, goals.pd[1]))
    return abs(d1 + d2 - (params.ds + goal_separation(goals, 0, 1)))


def classify_three_robot(world: WorldState, params: Params, tol: float) -> ThreeRobotCategory:
    """Classify a three-robot configuration by which pairs sit at the margin, within tol >= 0."""
    if world.n != 3:
        raise ValueError("three robots required")
    if not (_real(tol) and 0.0 <= tol < math.inf):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    dist = {}
    for (i, j), d in zip(pair_indices(3), PairField(world, params).distances):
        if d < params.ds - tol:
            raise SafetyViolationError(penetration=params.ds - d, pair=(i, j))
        dist[(i, j)] = d
    tight = {pair for pair, d in dist.items() if abs(d - params.ds) <= tol}
    if len(tight) == 3:
        return ThreeRobotCategory(category="A")
    if len(tight) == 2:
        (a1, b1), (a2, b2) = sorted(tight)
        common = {a1, b1} & {a2, b2}
        if len(common) == 1:
            return ThreeRobotCategory(category="B", center=common.pop())
    return ThreeRobotCategory(category="none")


def _symmetric_goals(r_goal: float) -> GoalSpec:
    return GoalSpec(pd=tuple(v_scale(unit_vector(2.0 * math.pi * i / 3.0), r_goal) for i in range(3)))


def three_robot_family_catA(params: Params, r_goal: float) -> tuple[WorldState, GoalSpec]:
    """Equilateral three-robot deadlock against goals at radius R.

    Robots sit at Ds/sqrt(3) opposite their goals: p_i = Ds/sqrt(3) e(2pi(i-1)/3 + pi).
    """
    r_goal = _positive(r_goal, "r_goal")
    rho = params.ds / math.sqrt(3.0)
    robots = tuple(
        RobotState.at_rest(v_scale(unit_vector(2.0 * math.pi * i / 3.0 + math.pi), rho))
        for i in range(3)
    )
    return WorldState(robots=robots, t=0.0), _symmetric_goals(r_goal)


def three_robot_family_catB(params: Params, r_goal: float) -> tuple[WorldState, GoalSpec]:
    """Open-chain three-robot deadlock: p1 = Ds e(pi), p2 = 0, p3 = Ds e(pi/3).

    Robot 2 carries both active constraints; the outer pair is separated by
    Ds sqrt(3) > Ds.
    """
    r_goal = _positive(r_goal, "r_goal")
    ds = params.ds
    robots = (
        RobotState.at_rest(v_scale(unit_vector(math.pi), ds)),
        RobotState.at_rest((0.0, 0.0)),
        RobotState.at_rest(v_scale(unit_vector(math.pi / 3.0), ds)),
    )
    return WorldState(robots=robots, t=0.0), _symmetric_goals(r_goal)


def catB_parametrized(
    params: Params, r_goal: float, theta: float, alpha_angle: float
) -> tuple[WorldState, GoalSpec]:
    """Continuous category-B family parametrized by the two chain angles.

    theta in (-pi/6, 0) is the bearing of p2 - p1 and alpha_angle in
    (pi/6, pi/2) the bearing of p3 - p2; both chain links have length Ds and
    robot 2 carries both active constraints.  p1 is the closed-form anchor
    with the shared -1 / (2 sin(alpha - theta)) prefactor.
    """
    r_goal = _positive(r_goal, "r_goal")
    if not (_real(theta) and -math.pi / 6.0 < theta < 0.0):
        raise ValueError(f"theta must lie in (-pi/6, 0), got {theta!r}")
    if not (_real(alpha_angle) and math.pi / 6.0 < alpha_angle < math.pi / 2.0):
        raise ValueError(f"alpha_angle must lie in (pi/6, pi/2), got {alpha_angle!r}")
    ds, r = params.ds, r_goal
    a, th = alpha_angle, theta
    s = math.sin(a - th)   # alpha - theta lies in (pi/6, 2 pi/3), so s > 1/2
    pre = -1.0 / (2.0 * s)
    p1 = (
        pre * (
            2.0 * ds * math.cos(th) * s
            + 2.0 * r * math.cos(th) * math.sin(a - math.pi / 3.0)
            + 2.0 * r * math.cos(a) * math.sin(th)
        ),
        pre * (
            math.sin(th)
            * (3.0 * r * math.sin(a) + 2.0 * ds * s - math.sqrt(3.0) * r * math.cos(a))
        ),
    )
    p2 = v_add(p1, v_scale(unit_vector(th), ds))
    p3 = v_add(p2, v_scale(unit_vector(a), ds))
    robots = (RobotState.at_rest(p1), RobotState.at_rest(p2), RobotState.at_rest(p3))
    return WorldState(robots=robots, t=0.0), _symmetric_goals(r_goal)


def verify_boundary_membership(world: WorldState, goals: GoalSpec, params: Params) -> bool:
    """Check that a system-deadlock candidate sits on the safe-set boundary.

    Solves each robot's QP and requires (a) every robot to carry at least
    one active collision-avoidance row (otherwise the state is not a
    deadlock candidate at all) and (b) |h_ij| <= BOUNDARY_TOL for every pair
    whose constraint is active.
    """
    field = PairField(world, params)
    # every QP is built before h is read: a world the QPs reject raises their error
    problems = field.problems([pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)])
    active_pairs: set[tuple[int, int]] = set()
    for i, problem in enumerate(problems):
        sol = solve_qp(problem)
        if sol.status != "optimal":
            return False
        mine = [row_neighbor(i, k) for k in sol.active_set if k < problem.m_neighbors]
        if not mine:
            return False
        active_pairs.update((min(i, j), max(i, j)) for j in mine)
    return all(abs(h) <= BOUNDARY_TOL for pair, h in zip(pair_indices(world.n), field.h) if pair in active_pairs)
