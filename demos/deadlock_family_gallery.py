"""Construct the analytical deadlock families and verify their membership.

Walks the closed-form families (collinear two-robot, equilateral and chain
three-robot, and the two-angle chain continuum), solves each robot's QP at
the constructed state, and checks the deadlock-set conditions: zero optimal
control, positive contact multipliers, force balance, and residence on the
safe-set boundary.

    python demos/deadlock_family_gallery.py
"""

from __future__ import annotations

import math

from mrdeadlock import (
    GoalSpec,
    PairField,
    Params,
    WorldState,
    boundedness_identity,
    catB_parametrized,
    collinear_family,
    detect_deadlock,
    pd_control,
    solve_qp,
    three_robot_family_catA,
    three_robot_family_catB,
    verify_boundary_membership,
)


def check(tag, world, goals, params, extra=""):
    worst_u = 0.0
    worst_balance = 0.0
    min_mu = math.inf
    verdicts = []
    u_hat = [pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)]
    for i, problem in enumerate(PairField(world, params).problems(u_hat)):
        sol = solve_qp(problem)
        report = detect_deadlock(i, world, goals, params, sol, problem)
        verdicts.append(report.verdict)
        worst_u = max(worst_u, report.u_star_norm)
        worst_balance = max(worst_balance, report.force_balance_residual)
        min_mu = min(min_mu, max(mu for _, mu in report.active_multipliers))
    boundary = verify_boundary_membership(world, goals, params)
    print(f"{tag:<42s} deadlock={all(verdicts)!s:<5}  |u*|<={worst_u:.1e}  "
          f"balance<={worst_balance:.1e}  min mu={min_mu:.2f}  on-boundary={boundary}{extra}")


def main() -> None:
    params2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    print("collinear two-robot family (interpolation parameter sweep):")
    for a in (0.2, 0.5, 0.8):
        z1, z2 = collinear_family(goals2, params2, a)
        world = WorldState(robots=(z1, z2), t=0.0)
        res = boundedness_identity(world, goals2, params2)
        check(f"  alpha = {a:.1f}", world, goals2, params2,
              extra=f"  boundedness residual={res:.1e}")

    params3 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0, 5.0))
    print("\nthree-robot families (goals on a circle of radius 2):")
    world_a, goals_a = three_robot_family_catA(params3, 2.0)
    check("  category A (equilateral contact)", world_a, goals_a, params3)
    world_b, goals_b = three_robot_family_catB(params3, 2.0)
    check("  category B (open chain, center robot 1)", world_b, goals_b, params3)

    print("\ntwo-angle chain continuum (category B):")
    for theta, alpha in ((-0.1, 0.6), (-0.3, 0.9), (-0.45, 1.4)):
        world, goals = catB_parametrized(params3, 2.0, theta, alpha)
        d13 = math.dist(world.robots[0].p, world.robots[2].p)
        check(f"  theta={theta:+.2f}, alpha={alpha:.2f}", world, goals, params3,
              extra=f"  outer gap={d13 / params3.ds:.2f} Ds")

    print("\nevery constructed state sits at zero optimal control with positive")
    print("contact forces balancing the goal attraction, exactly on h = 0.")


if __name__ == "__main__":
    main()
