"""The per-robot QP and its exact primal-dual solver.

    minimize ||u - u_hat||^2  subject to  A u <= b   (M neighbor rows, then 4 box rows)

A QPProblem stores its rows only as plain floats, which the solver, the
phase-I probe and the force balance read directly: the M neighbor rows, then
the four box rows, whose normals are BOX_NORMALS.  QPProblem(u_hat, ax, ay,
b, faces) checks its neighbor rows and face bounds and appends the box rows
itself; flat_problem is the pair pass's unchecked constructor.

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
by a margin are set aside (_enumerated_rows): such a row is never in a qualifying
working set, never active, and holds at every candidate that passes the box
rows, so the enumerator returns the same solution, bit for bit, without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# scipy loads scipy.optimize on first use, so importing the package does not
import scipy

from .core import Vec2, _real, v_norm
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
# aside before enumeration (see _enumerated_rows for the terms it scales).
IMPLIED_TOL = 1e-6


# Outward normals of the four acceleration-box rows, in their fixed order
# +x, +y, -x, -y.  Every QP ends with these rows.
BOX_NORMALS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_BOX_AX = tuple(a[0] for a in BOX_NORMALS)
_BOX_AY = tuple(a[1] for a in BOX_NORMALS)


@dataclass(frozen=True, slots=True, init=False)
class QPProblem:
    """Objective center u_hat and stacked rows: m_neighbors neighbor rows, then the 4 box rows.

    The constructor takes the neighbor rows as equal-length sequences ax, ay
    and b, and faces, the four box bounds in the order +x, +y, -x, -y, each
    a finite number > 0 (a bool or a string is not).  It copies them into new lists and computes norms.
    Equality and repr are those of the fields.  Treat the lists as read-only.
    """

    u_hat: Vec2
    ax: list[float]      # row k is ax[k] u_x + ay[k] u_y <= b[k]; the 4 box rows are last
    ay: list[float]
    b: list[float]
    norms: list[float]   # |a|_1 of every neighbor row

    def __init__(self, u_hat: Vec2, ax: Sequence[float], ay: Sequence[float], b: Sequence[float],
                 faces: Sequence[float]):
        if not len(ax) == len(ay) == len(b):
            raise ValueError(f"ax, ay and b differ in length: {len(ax)}, {len(ay)}, {len(b)}")
        if len(faces) != 4:
            raise ValueError(f"a problem has 4 box bounds, for the faces +x, +y, -x, -y, not {len(faces)}")
        if not all(_real(face) and 0.0 < face < math.inf for face in faces):
            raise ValueError("box bounds must be finite and strictly positive")
        _fill(self, u_hat, [*ax, *_BOX_AX], [*ay, *_BOX_AY], [*b, *faces], [abs(x) + abs(y) for x, y in zip(ax, ay)])

    @property
    def m_neighbors(self) -> int:
        return len(self.b) - 4

    def __hash__(self) -> int:
        return hash((self.u_hat, tuple(self.ax), tuple(self.ay), tuple(self.b)))


def _fill(problem: QPProblem, u_hat: Vec2, ax: list, ay: list, b: list, norms: list) -> QPProblem:
    set_field = object.__setattr__   # as a frozen dataclass's own __init__ sets its fields
    set_field(problem, "u_hat", u_hat)
    set_field(problem, "ax", ax)
    set_field(problem, "ay", ay)
    set_field(problem, "b", b)
    set_field(problem, "norms", norms)
    return problem


def flat_problem(u_hat: Vec2, ax: list, ay: list, b: list, norms: list, faces: tuple) -> QPProblem:
    """A QPProblem from its neighbor rows in flat form, their norms and its four face bounds, unchecked.

    Appends the box rows to ax, ay and b, and keeps the lists it is given.
    For the pair pass, which builds fresh lists, shares each pair's |a|_1
    between its two rows, and takes its face bounds from a validated Params.
    """
    ax.extend(_BOX_AX)
    ay.extend(_BOX_AY)
    b.extend(faces)
    return _fill(object.__new__(QPProblem), u_hat, ax, ay, b, norms)


@dataclass(frozen=True)
class QPSolution:
    """Primal-dual answer: optimal control, one multiplier per row, active set."""

    u_star: Vec2
    mu_star: tuple[float, ...]
    active_set: tuple[int, ...]
    status: str  # "optimal" | "infeasible"


def solve_qp(problem: QPProblem) -> QPSolution:
    """Solve the QP exactly, returning status "infeasible" when the polytope is empty.

    Working sets whose 2x2 system is singular (parallel rows) are skipped,
    not fatal.  Ties between degenerate optima are broken by enumeration
    order: size 0, then size 1 ascending, then size 2 lexicographic.  With
    two or more neighbor rows, the rows the box implies are left out of the
    enumeration first; the result is the one the full enumeration returns.
    """
    # with fewer than two neighbor rows the pass costs more than it saves
    keep = _enumerated_rows(problem) if len(problem.norms) >= 2 else range(len(problem.b))
    return _enumerate(problem, keep)


def _enumerated_rows(problem: QPProblem) -> list[int]:
    """Ascending indices of the rows not strictly implied by the acceleration box.

    The box is read from the last four rows, which both constructors make
    the faces +x, +y, -x, -y; they are always kept.  A neighbor row
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
    the full enumeration covers it.  A NaN row is kept.
    """
    norms = problem.norms
    m = len(norms)
    # u_x <= hx, u_y <= hy, -u_x <= lx, -u_y <= ly
    hx, hy, lx, ly = problem.b[m:]
    widest = 1.0 + max(hx, hy, lx, ly) + max(1.0, *norms)
    keep = [
        k for k, ax, ay, b, norm in zip(range(m), problem.ax, problem.ay, problem.b, norms)
        if not b - ((ax * hx if ax > 0.0 else -ax * lx if ax < 0.0 else 0.0)
                    + (ay * hy if ay > 0.0 else -ay * ly if ay < 0.0 else 0.0))
        > IMPLIED_TOL * (1.0 + abs(b) + norm * widest)
    ]
    keep.extend(range(m, m + 4))
    return keep


def _enumerate(problem: QPProblem, keep) -> QPSolution:
    """Working-set enumeration over the rows indexed by keep (ascending, the four box rows last).

    Candidates are built, checked for feasibility and tested for active rows
    on the kept rows only; rows outside keep get mu = 0, and the phase-I probe
    covers every row.  A box row is checked by comparing one coordinate with
    its face bound, which is what a.u - b comes to for a normal of +-1 and 0.
    With keep = every index this is the full enumerator, the oracle solve_qp
    is tested against.
    """
    ax, ay, bs = problem.ax, problem.ay, problem.b
    ux, uy = problem.u_hat
    m = len(bs)
    # (index, a_x, a_y, b, feasibility bound) of every kept neighbor row
    rows = [(k, ax[k], ay[k], bs[k], bs[k] + FEAS_TOL * (1.0 + abs(bs[k]))) for k in keep[:-4]]
    faces = [b + FEAS_TOL * (1.0 + b) for b in bs[m - 4:]]   # the box bounds are > 0

    # size 0: unconstrained optimum
    if _feasible(rows, faces, ux, uy):
        return _optimal(rows, bs, ux, uy, [0.0] * m)

    # size 1: single-row projection, mu = 2 (a.u_hat - b) / ||a||^2
    for k in keep:
        kx, ky = ax[k], ay[k]
        aa = kx * kx + ky * ky
        if aa <= 0.0:
            continue
        mu = 2.0 * (kx * ux + ky * uy - bs[k]) / aa
        if mu < -MU_TOL:
            continue
        mu = max(mu, 0.0)
        x, y = ux - 0.5 * mu * kx, uy - 0.5 * mu * ky
        if _feasible(rows, faces, x, y):
            mus = [0.0] * m
            mus[k] = mu
            return _optimal(rows, bs, x, y, mus)

    # size 2: solve the Gram system for (mu_k, mu_l)
    for pos, k in enumerate(keep):
        kx, ky = ax[k], ay[k]
        g11 = kx * kx + ky * ky
        r1 = kx * ux + ky * uy - bs[k]
        for l in keep[pos + 1:]:
            lx, ly = ax[l], ay[l]
            g12 = kx * lx + ky * ly
            g22 = lx * lx + ly * ly
            det = g11 * g22 - g12 * g12
            if abs(det) <= 1e-14 * max(g11 * g22, 1e-300):
                continue  # degenerate (parallel) rows: skip this set
            r2 = lx * ux + ly * uy - bs[l]
            mu_k = 2.0 * (g22 * r1 - g12 * r2) / det
            mu_l = 2.0 * (g11 * r2 - g12 * r1) / det
            if mu_k < -MU_TOL or mu_l < -MU_TOL:
                continue
            mu_k, mu_l = max(mu_k, 0.0), max(mu_l, 0.0)
            x, y = ux - 0.5 * (mu_k * kx + mu_l * lx), uy - 0.5 * (mu_k * ky + mu_l * ly)
            if _feasible(rows, faces, x, y):
                mus = [0.0] * m
                mus[k], mus[l] = mu_k, mu_l
                return _optimal(rows, bs, x, y, mus)

    # No working set produced a certificate; confirm emptiness with a
    # phase-I probe maximizing the minimum slack.
    slack = _max_min_slack(ax, ay, bs)
    if slack < INFEAS_TOL:
        return QPSolution(
            u_star=(math.nan, math.nan), mu_star=(0.0,) * m, active_set=(), status="infeasible"
        )
    raise QPInfeasibleError(
        "working-set enumeration failed on a feasible problem "
        f"(phase-I slack {slack:.3e}); the problem is numerically degenerate",
        snapshot={"u_hat": problem.u_hat, "rows": [((x, y), b) for x, y, b in zip(ax, ay, bs)]},
    )


def _feasible(rows: list, faces: list[float], x: float, y: float) -> bool:
    """(x, y) holds the kept rows within FEAS_TOL; a NaN coordinate fails the box faces."""
    hx, hy, lx, ly = faces
    if not (x <= hx and y <= hy and -x <= lx and -y <= ly):
        return False
    for _, kx, ky, _, top in rows:
        if not kx * x + ky * y <= top:
            return False
    return True


def _optimal(rows: list, bs: list, x: float, y: float, mus: list[float]) -> QPSolution:
    """The solution at (x, y): kept neighbor rows, then box rows, whose |a.u - b| is within ACTIVE_TOL."""
    active = [k for k, kx, ky, b, _ in rows if abs(kx * x + ky * y - b) <= ACTIVE_TOL * (1.0 + abs(b))]
    m = len(bs)
    hx, hy, lx, ly = bs[m - 4:]
    for k, slack, b in ((m - 4, x - hx, hx), (m - 3, y - hy, hy), (m - 2, -x - lx, lx), (m - 1, -y - ly, ly)):
        if abs(slack) <= ACTIVE_TOL * (1.0 + b):
            active.append(k)
    return QPSolution((x, y), tuple(mus), tuple(active), "optimal")


def _max_min_slack(ax: list[float], ay: list[float], b: list[float]) -> float:
    """Optimum of  max_u min_k (b_k - a_k.u)  via an LP in (u, s)."""
    # maximize s  s.t.  a_k.u + s <= b_k  ->  minimize -s
    res = scipy.optimize.linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=[[x, y, 1.0] for x, y in zip(ax, ay)],
        b_ub=b,
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
    x, y = solution.u_star
    grad = [x - problem.u_hat[0], y - problem.u_hat[1]]
    primal = 0.0
    dual = 0.0
    comp = 0.0
    for ax, ay, b, mu in zip(problem.ax, problem.ay, problem.b, solution.mu_star):
        slack = ax * x + ay * y - b
        grad[0] += 0.5 * mu * ax
        grad[1] += 0.5 * mu * ay
        primal = max(primal, slack)
        dual = max(dual, -mu)
        comp = max(comp, abs(mu * slack))
    return KKTReport(
        stationarity=v_norm((grad[0], grad[1])),
        primal=max(primal, 0.0),
        dual=max(dual, 0.0),
        comp_slackness=comp,
    )
