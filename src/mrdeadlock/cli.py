"""Command-line entry points: run, families, census, verify."""

from __future__ import annotations

import argparse
import sys

from .cbf import PairField, pair_indices
from .deadlock import (
    boundedness_identity,
    catB_parametrized,
    classify_three_robot,
    collinear_family,
    detect_deadlock,
    geometric_tol,
    three_robot_family_catA,
    three_robot_family_catB,
    verify_boundary_membership,
)
from .core import GoalSpec, Params, WorldState, pd_control
from .errors import SimulationAbort, ToolkitError
from .graphenum import census_table
from .qp import solve_qp
from .sim import audit_log, export_log, load_log, load_scenario, run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    log = run_scenario(scenario)
    if args.out:
        export_log(log, args.format, args.out)
        print(f"wrote {args.format} log ({log.n_records} records) to {args.out}")
    else:
        print(f"simulated {log.n_records} records over t in [0, {log.t[-1]:.3f}] s")
    for ev in log.events:
        print(f"  event: {ev['name']} at t={ev['t']:.4f}")
    return 0


def _family_world(args: argparse.Namespace):
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * (2 if args.family == "two" else 3))
    if args.family == "two":
        goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
        z1, z2 = collinear_family(goals, params, args.alpha)
        return WorldState(robots=(z1, z2), t=0.0), goals, params
    if args.family == "threeA":
        world, goals = three_robot_family_catA(params, args.R)
        return world, goals, params
    if args.family == "threeB":
        world, goals = three_robot_family_catB(params, args.R)
        return world, goals, params
    world, goals = catB_parametrized(params, args.R, args.theta, args.alpha_angle)
    return world, goals, params


def _cmd_families(args: argparse.Namespace) -> int:
    world, goals, params = _family_world(args)
    print(f"family {args.family}: {world.n} robots, Ds={params.ds}")
    field = PairField(world, params)
    problems = field.problems([pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)])
    all_dl = True
    for i, problem in enumerate(problems):
        sol = solve_qp(problem)
        report = detect_deadlock(i, world, goals, params, sol, problem)
        all_dl &= report.verdict
        mus = ", ".join(f"row{k}: {mu:.4f}" for k, mu in report.active_multipliers)
        print(
            f"  robot {i}: |u*|={report.u_star_norm:.2e} |v|={report.v_norm:.2e} "
            f"goal-dist={report.goal_dist:.4f} force-residual={report.force_balance_residual:.2e}"
        )
        print(f"           deadlocked={report.verdict} active: [{mus}]")
    boundary = verify_boundary_membership(world, goals, params)
    print(f"  system deadlock: {all_dl}")
    print(f"  boundary membership (h = 0 on active pairs): {boundary}")
    for (i, j), d, h in zip(pair_indices(world.n), field.distances, field.h):
        print(f"  pair ({i},{j}): distance={d:.6f} h={h:.2e}")
    if world.n == 2:
        print(f"  boundedness residual: {boundedness_identity(world, goals, params):.2e}")
    if world.n == 3:
        cat = classify_three_robot(world, params, geometric_tol(params))
        print(f"  category: {cat.category}" + (f" (center {cat.center})" if cat.center is not None else ""))
    return 0 if all_dl and boundary else 1


def _cmd_census(args: argparse.Namespace) -> int:
    rows = census_table(n_max=args.n_max, attempts=args.attempts)
    print(f"{'N':>3} {'upper':>8} {'connected':>10} {'admissible':>11} {'lower':>6}")
    for row in rows:
        print(
            f"{row['n']:>3} {row['upper']:>8} {row['connected']:>10} "
            f"{row['admissible']:>11} {row['lower']:>6}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    log = load_log(args.log)
    report = audit_log(log)
    print(f"records: {report.n_records}")
    print(f"h recompute match: {report.h_match_max:.3e}")
    print(f"min h over run: {report.h_min:.6e}")
    print(f"max KKT residual: {report.kkt_max_residual:.3e}")
    print(f"records with a non-finite value, an undefined h or QP, or a bad t, phase, u_hat, mu or active mask: "
          f"{report.bad_records}")
    print(f"audit {'PASSED' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrdeadlock",
        description="Multirobot CBF-QP collision avoidance: simulation, deadlock analysis, resolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file and export the log")
    p_run.add_argument("scenario", help="YAML scenario file")
    p_run.add_argument("--out", default=None, help="output path for the log")
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.set_defaults(func=_cmd_run)

    p_fam = sub.add_parser("families", help="construct a deadlock family and verify it")
    p_fam.add_argument("family", choices=("two", "threeA", "threeB", "threeB-param"))
    p_fam.add_argument("--alpha", type=float, default=0.5, help="two-robot interpolation in (0,1)")
    p_fam.add_argument("--theta", type=float, default=-0.3, help="chain angle in (-pi/6, 0)")
    p_fam.add_argument("--alpha-angle", type=float, default=0.9, help="chain angle in (pi/6, pi/2)")
    p_fam.add_argument("--R", type=float, default=2.0, help="goal circle radius")
    p_fam.set_defaults(func=_cmd_families)

    p_cen = sub.add_parser("census", help="print the deadlock-configuration enumeration table")
    p_cen.add_argument("--n-max", type=int, default=4)
    p_cen.add_argument("--attempts", type=int, default=200)
    p_cen.set_defaults(func=_cmd_census)

    p_ver = sub.add_parser("verify", help="post-hoc safety and KKT audit of a JSON log")
    p_ver.add_argument("log", help="JSON log produced by `run --format json`")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationAbort as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
