"""The per-robot QP's row layout and its exact primal-dual solver.

    minimize ||u - u_hat||^2  subject to  A u <= b   (M neighbor rows, then 4 box rows)

A row is a ConstraintRow; box_rows builds the four box rows, whose normals
are BOX_NORMALS, and QPProblem checks that a problem ends with them.

With u in R^2 at most two linearly independent rows are active at a
nondegenerate optimum, so candidate working sets of size 0, 1, 2 are
enumerated (cheapest first, lexicographic within a size).  For each set the
stationarity system

    u = u_hat - 1/2 sum_k mu_k a_k,    a_k . u = b_k  (k in set)

is solved exactly; the first candidate that is primal feasible with
nonnegative multipliers is the unique global optimum.  The factor 1/2 follows
the dual convention of the source formulation so closed-form multiplier
values match numerically.

Before enumerating, neighbor rows that the acceleration box already implies
by a margin are set aside (_kept_rows): such a row is never in a qualifying
working set, never active, and holds at every candidate that passes the box
rows, so the enumerator returns the same solution, bit for bit, without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import linprog

from .core import Vec2, v_dot, v_norm, v_sub
from .errors import QPInfeasibleError

# Scale-aware tolerance for classifying a row as active: |a.u - b| <= ACTIVE_TOL * (1 + |b|).
ACTIVE_TOL = 1e-7
# Primal feasibility acceptance during enumeration.
FEAS_TOL = 1e-9
# Multipliers may come out at -O(eps) for weakly active rows; accept and clamp.
MU_TOL = 1e-9
# Minimum slack below which the phase-I probe declares the polytope empty.
INFEAS_TOL = -1e-9
# Relative margin by which a row must clear the acceleration box to be set
# aside before enumeration (see _kept_rows for the terms it scales).
IMPLIED_TOL = 1e-6


# Outward normals of the four acceleration-box rows, in their fixed order
# +x, +y, -x, -y.  Every QP ends with these rows.
BOX_NORMALS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class ConstraintRow:
    """One linear inequality a.u <= b_hat of a per-robot QP."""

    a: Vec2
    b_hat: float


def box_rows(alpha_i: float) -> tuple[ConstraintRow, ...]:
    """The four acceleration-limit rows, in the fixed order +x, +y, -x, -y."""
    return tuple(ConstraintRow(a, alpha_i) for a in BOX_NORMALS)


@dataclass(frozen=True)
class QPProblem:
    """Objective center u_hat and stacked rows: m_neighbors neighbor rows, then the 4 box rows."""

    u_hat: Vec2
    rows: tuple[ConstraintRow, ...]

    def __post_init__(self):
        # runs for every QP of every step: plain comparisons, no generators
        box = self.rows[-4:]
        if len(box) < 4 or (box[0].a, box[1].a, box[2].a, box[3].a) != BOX_NORMALS:
            raise ValueError("a well-formed problem ends with the 4 box rows, normals +x, +y, -x, -y")
        if box[0].b_hat <= 0.0 or box[1].b_hat <= 0.0 or box[2].b_hat <= 0.0 or box[3].b_hat <= 0.0:
            raise ValueError("box bounds must be strictly positive")

    @property
    def m_neighbors(self) -> int:
        return len(self.rows) - 4


@dataclass(frozen=True)
class QPSolution:
    """Primal-dual answer: optimal control, one multiplier per row, active set."""

    u_star: Vec2
    mu_star: tuple[float, ...]
    active_set: tuple[int, ...]
    status: str  # "optimal" | "infeasible"


def _feasible(rows: tuple[ConstraintRow, ...], u: Vec2) -> bool:
    """Every row holds at u within FEAS_TOL.  A NaN a.u holds for no row, so a non-finite u fails a box row."""
    for row in rows:
        if not v_dot(row.a, u) <= row.b_hat + FEAS_TOL * (1.0 + abs(row.b_hat)):
            return False
    return True


def _active_set(keep, rows: tuple[ConstraintRow, ...], u: Vec2) -> tuple[int, ...]:
    """Indices (from keep) of the rows, given in the same order, that are active at u."""
    return tuple(
        k for k, row in zip(keep, rows)
        if abs(v_dot(row.a, u) - row.b_hat) <= ACTIVE_TOL * (1.0 + abs(row.b_hat))
    )


def solve_qp(problem: QPProblem) -> QPSolution:
    """Solve the QP exactly, returning status "infeasible" when the polytope is empty.

    Working sets whose 2x2 system is singular (parallel rows) are skipped,
    not fatal.  Ties between degenerate optima are broken by enumeration
    order: size 0, then size 1 ascending, then size 2 lexicographic.  With
    two or more neighbor rows, the rows the box implies are left out of the
    enumeration first; the result is the one the full enumeration returns.
    """
    rows = problem.rows
    # with fewer than two neighbor rows the pass costs more than it saves
    keep = _kept_rows(rows) if problem.m_neighbors >= 2 else range(len(rows))
    return _enumerate(problem, keep)


def _kept_rows(rows: tuple[ConstraintRow, ...]) -> list[int]:
    """Ascending indices of the rows not strictly implied by the acceleration box.

    The box is read from the last four rows, which QPProblem has checked
    are the faces +x, +y, -x, -y; they are always kept.  A neighbor row
    a.u <= b is set aside when

        b - max_{u in box} a.u  >  IMPLIED_TOL (1 + |b| + |a|_1 (1 + beta + A))

    with beta the largest face bound and A the largest |a_l|_1 over all rows
    (at least 1, from the box rows).  The terms of the margin:

    * a candidate that passes the box rows lies in the box widened by
      FEAS_TOL (1 + beta) per face, where a.u exceeds its box maximum by at
      most FEAS_TOL |a|_1 (1 + beta);
    * a candidate built on the row meets a.u = b up to the clamp of a
      multiplier in (-MU_TOL, 0) to zero, of this row or its partner l, which
      moves u by 0.5 MU_TOL |a_l| and a.u by at most 0.5 MU_TOL |a|_1 A;
    * IMPLIED_TOL is 1e3 times FEAS_TOL and MU_TOL, which leaves room for
      rounding, and the 1 + |b| term alone is 10 times the ACTIVE_TOL band.

    So a row set aside is in no qualifying working set, holds at every
    candidate that passes the box rows, and is never active at the returned
    point.  The one gap is a 2x2 solve near the singularity threshold, whose
    rounding is not bounded this way; the property test of solve_qp against
    the full enumeration covers it.  A NaN row, or an infinite or NaN face
    bound on a side the row leans on, keeps the row.
    """
    neighbors, box = rows[:-4], rows[-4:]
    # u_x <= hx, u_y <= hy, -u_x <= lx, -u_y <= ly
    hx, hy, lx, ly = box[0].b_hat, box[1].b_hat, box[2].b_hat, box[3].b_hat
    norms = []                  # |a|_1 of every neighbor row
    a_max = 1.0                 # |a|_1 of a box row
    for row in neighbors:
        ax, ay = row.a
        norm = abs(ax) + abs(ay)
        norms.append(norm)
        if norm > a_max:
            a_max = norm
    widest = 1.0 + max(hx, hy, lx, ly) + a_max
    keep = []
    for k, row, norm in zip(range(len(neighbors)), neighbors, norms):
        ax, ay = row.a
        b = row.b_hat
        top = (ax * hx if ax > 0.0 else -ax * lx if ax < 0.0 else 0.0) + (
            ay * hy if ay > 0.0 else -ay * ly if ay < 0.0 else 0.0
        )
        if b - top > IMPLIED_TOL * (1.0 + abs(b) + norm * widest):
            continue
        keep.append(k)
    keep.extend(range(len(neighbors), len(rows)))
    return keep


def _enumerate(problem: QPProblem, keep) -> QPSolution:
    """Working-set enumeration over the rows indexed by keep (ascending).

    Candidates are built, checked for feasibility and tested for active rows
    on the kept rows only; rows outside keep get mu = 0, and the phase-I probe
    covers every row.  With keep = every index this is the full enumerator,
    the oracle solve_qp is tested against.
    """
    rows = problem.rows
    u_hat = problem.u_hat
    m = len(rows)
    kept = rows if len(keep) == m else tuple(rows[k] for k in keep)

    # size 0: unconstrained optimum
    if _feasible(kept, u_hat):
        return QPSolution(
            u_star=u_hat,
            mu_star=(0.0,) * m,
            active_set=_active_set(keep, kept, u_hat),
            status="optimal",
        )

    # size 1: single-row projection, mu = 2 (a.u_hat - b) / ||a||^2
    for k in keep:
        a = rows[k].a
        aa = v_dot(a, a)
        if aa <= 0.0:
            continue
        mu = 2.0 * (v_dot(a, u_hat) - rows[k].b_hat) / aa
        if mu < -MU_TOL:
            continue
        mu = max(mu, 0.0)
        u = (u_hat[0] - 0.5 * mu * a[0], u_hat[1] - 0.5 * mu * a[1])
        if _feasible(kept, u):
            mus = [0.0] * m
            mus[k] = mu
            return QPSolution(u, tuple(mus), _active_set(keep, kept, u), "optimal")

    # size 2: solve the Gram system for (mu_k, mu_l)
    for pos, k in enumerate(keep):
        ak = rows[k].a
        g11 = v_dot(ak, ak)
        r1 = v_dot(ak, u_hat) - rows[k].b_hat
        for l in keep[pos + 1:]:
            al = rows[l].a
            g12 = v_dot(ak, al)
            g22 = v_dot(al, al)
            det = g11 * g22 - g12 * g12
            if abs(det) <= 1e-14 * max(g11 * g22, 1e-300):
                continue  # degenerate (parallel) rows: skip this set
            r2 = v_dot(al, u_hat) - rows[l].b_hat
            mu_k = 2.0 * (g22 * r1 - g12 * r2) / det
            mu_l = 2.0 * (g11 * r2 - g12 * r1) / det
            if mu_k < -MU_TOL or mu_l < -MU_TOL:
                continue
            mu_k, mu_l = max(mu_k, 0.0), max(mu_l, 0.0)
            u = (
                u_hat[0] - 0.5 * (mu_k * ak[0] + mu_l * al[0]),
                u_hat[1] - 0.5 * (mu_k * ak[1] + mu_l * al[1]),
            )
            if _feasible(kept, u):
                mus = [0.0] * m
                mus[k], mus[l] = mu_k, mu_l
                return QPSolution(u, tuple(mus), _active_set(keep, kept, u), "optimal")

    # No working set produced a certificate; confirm emptiness with a
    # phase-I probe maximizing the minimum slack.
    slack = _max_min_slack(rows)
    if slack < INFEAS_TOL:
        return QPSolution(
            u_star=(math.nan, math.nan), mu_star=(0.0,) * m, active_set=(), status="infeasible"
        )
    raise QPInfeasibleError(
        "working-set enumeration failed on a feasible problem "
        f"(phase-I slack {slack:.3e}); the problem is numerically degenerate",
        snapshot={"u_hat": u_hat, "rows": [(r.a, r.b_hat) for r in rows]},
    )


def _max_min_slack(rows: tuple[ConstraintRow, ...]) -> float:
    """Optimum of  max_u min_k (b_k - a_k.u)  via an LP in (u, s)."""
    # maximize s  s.t.  a_k.u + s <= b_k  ->  minimize -s
    a_ub = [[row.a[0], row.a[1], 1.0] for row in rows]
    b_ub = [row.b_hat for row in rows]
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (None, None)],
        method="highs",
    )
    if res.status == 3:  # unbounded: slack can grow without limit, clearly feasible
        return math.inf
    if not res.success:
        raise QPInfeasibleError(f"phase-I probe failed: {res.message}")
    return -res.fun


@dataclass(frozen=True)
class KKTReport:
    """Nonnegative residuals of the four KKT conditions."""

    stationarity: float
    primal: float
    dual: float
    comp_slackness: float

    def max_residual(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.comp_slackness)

    def passed(self, tol: float) -> bool:
        return self.max_residual() <= tol


def verify_kkt(problem: QPProblem, solution: QPSolution) -> KKTReport:
    """Residuals of stationarity, primal/dual feasibility and complementary slackness."""
    if solution.status != "optimal":
        raise ValueError("verify_kkt expects an optimal solution")
    u = solution.u_star
    grad = list(v_sub(u, problem.u_hat))
    primal = 0.0
    dual = 0.0
    comp = 0.0
    for row, mu in zip(problem.rows, solution.mu_star):
        slack = v_dot(row.a, u) - row.b_hat
        grad[0] += 0.5 * mu * row.a[0]
        grad[1] += 0.5 * mu * row.a[1]
        primal = max(primal, slack)
        dual = max(dual, -mu)
        comp = max(comp, abs(mu * slack))
    return KKTReport(
        stationarity=v_norm((grad[0], grad[1])),
        primal=max(primal, 0.0),
        dual=max(dual, 0.0),
        comp_slackness=comp,
    )
