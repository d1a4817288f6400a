"""The per-robot QP and its exact primal-dual solver.

    minimize ||u - u_hat||^2  subject to  A u <= b   (M neighbor rows, then 4 box rows)

A QPProblem stores its rows only as plain floats, which the solver, the
phase-I probe and the force balance read directly: neighbor rows, then the
four box rows |u_x|, |u_y| <= alpha, whose normals are BOX_NORMALS.
QPProblem(u_hat, ax, ay, b, alpha) checks its arguments, appends the box
rows itself and holds every row; flat_problem is the pair pass's unchecked
constructor.

A problem may hold only some rows of the full QP: the pair pass
(cbf.PairField) sets aside the neighbor rows that the acceleration box
implies by a margin, and hands over the others with their row numbers
(QPProblem.index).  Every reader goes by row number: mu_star has one entry
per row of the full QP, 0 for a row set aside, and active_set lists row
numbers.  The margin is cbf.IMPLIED_TOL's (cbf.PairField._array_problems
derives it from the tolerances below): a row set aside is never in a
qualifying working set, never active, and holds at every candidate that
passes the box rows, so the solution is the full QP's, bit for bit.

With u in R^2 at most two linearly independent rows are active at a
nondegenerate optimum, so candidate working sets of size 0, 1, 2 are
enumerated (cheapest first, lexicographic within a size).  For each set the
stationarity system

    u = u_hat - 1/2 sum_k mu_k a_k,    a_k . u = b_k  (k in set)

is solved exactly; the first candidate that is primal feasible with
nonnegative multipliers is the unique global optimum.  The factor 1/2 follows
the dual convention of the source formulation so closed-form multiplier
values match numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import Vec2, _finite_floats, _finite_vec2, _positive, v_norm
from .errors import QPInfeasibleError

# Scale-aware tolerance for classifying a row as active: |a.u - b| <= ACTIVE_TOL * (1 + |b|).
ACTIVE_TOL = 1e-7
# Primal feasibility acceptance during enumeration.
FEAS_TOL = 1e-9
# Multipliers may come out at -O(eps) for weakly active rows; accept and clamp.
MU_TOL = 1e-9
# Minimum slack below which the phase-I probe declares the polytope empty.
INFEAS_TOL = -1e-9


# Outward normals of the four acceleration-box rows, in their fixed order
# +x, +y, -x, -y.  Every QP ends with these rows.
BOX_NORMALS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_BOX_AX = tuple(a[0] for a in BOX_NORMALS)
_BOX_AY = tuple(a[1] for a in BOX_NORMALS)


@dataclass(frozen=True, init=False)
class QPProblem:
    """Objective center u_hat and stacked rows: neighbor rows, then the 4 box rows.

    The constructor takes u_hat, two finite numbers; the neighbor rows as
    equal-length sequences ax, ay and b of finite numbers; and alpha, the
    bound of all four box rows, a finite number > 0.  A bool or a string is
    not a number, and a ValueError names the argument that fails.  It copies
    them into new lists of floats and holds every row (index None).
    Equality, hash and repr are those of the fields.  Treat the lists as
    read-only.
    """

    u_hat: Vec2
    ax: list[float]      # row k is ax[k] u_x + ay[k] u_y <= b[k]; the 4 box rows are last
    ay: list[float]
    b: list[float]
    # the row number in the full QP of each row held, ascending; None when every row is held
    index: list[int] | None = None

    def __init__(self, u_hat: Vec2, ax: Sequence[float], ay: Sequence[float], b: Sequence[float],
                 alpha: float):
        if not len(ax) == len(ay) == len(b):
            raise ValueError(f"ax, ay and b differ in length: {len(ax)}, {len(ay)}, {len(b)}")
        _fill(self, _finite_vec2(u_hat, "u_hat"), _finite_floats(ax, "ax"), _finite_floats(ay, "ay"),
              _finite_floats(b, "b"), _positive(alpha, "alpha"), None)

    @property
    def row_numbers(self) -> Sequence[int]:
        """The row number in the full QP of each row held."""
        return range(len(self.b)) if self.index is None else self.index

    @property
    def m_neighbors(self) -> int:
        """The neighbor rows of the full QP, held or set aside."""
        return len(self.b) - 4 if self.index is None else self.index[-4]

    def __hash__(self) -> int:
        index = None if self.index is None else tuple(self.index)
        return hash((self.u_hat, tuple(self.ax), tuple(self.ay), tuple(self.b), index))


def _fill(problem: QPProblem, u_hat: Vec2, ax: list, ay: list, b: list, alpha: float,
          index: list | None) -> QPProblem:
    """Append the box rows to the neighbor rows ax, ay, b and set the fields."""
    ax.extend(_BOX_AX)
    ay.extend(_BOX_AY)
    b.extend((alpha,) * 4)
    # set past the frozen __setattr__, as a frozen dataclass's own __init__
    # sets its fields; index keeps its class default None unless given
    fields = problem.__dict__
    fields.update(u_hat=u_hat, ax=ax, ay=ay, b=b)
    if index is not None:
        fields["index"] = index
    return problem


def flat_problem(u_hat: Vec2, ax: list, ay: list, b: list, alpha: float, index: list | None = None) -> QPProblem:
    """A QPProblem from its neighbor rows in flat form and its box bound alpha, unchecked.

    Appends the box rows to ax, ay and b, and keeps the lists it is given.
    index is None when the rows are every neighbor row of the full QP, in
    order; otherwise it numbers them and the box rows, and the box rows'
    numbers are its last four.  For the pair pass, which builds fresh lists
    and takes alpha from a validated Params.
    """
    return _fill(object.__new__(QPProblem), u_hat, ax, ay, b, alpha, index)


@dataclass(frozen=True)
class QPSolution:
    """Primal-dual answer: optimal control, one multiplier per row, active set."""

    u_star: Vec2
    mu_star: tuple[float, ...]
    active_set: tuple[int, ...]
    status: str  # "optimal" | "infeasible"


def solve_qp(problem: QPProblem) -> QPSolution:
    """Solve the QP exactly, returning status "infeasible" when the polytope is empty.

    Every row the problem holds is enumerated.  Working sets whose 2x2
    system is singular (parallel rows) are skipped, not fatal.  Ties between
    degenerate optima are broken by enumeration order: size 0, then size 1
    ascending, then size 2 lexicographic.  Candidates are built, checked for
    feasibility and tested for active rows on the rows held; mu_star and
    active_set go by row number, with mu = 0 for a row set aside, and the
    phase-I probe covers the rows held.  The four box rows are checked as
    |u_x|, |u_y| <= alpha, which is what a.u - b comes to for their normals
    of +-1 and 0.
    """
    ax, ay, bs = problem.ax, problem.ay, problem.b
    ux, uy = problem.u_hat
    held = len(bs)
    numbers = problem.index
    if numbers is None:
        numbers = range(held)
    m = numbers[-1] + 1   # the rows of the full QP
    # (row number, a_x, a_y, b, feasibility bound) of every neighbor row held
    rows = [(numbers[k], ax[k], ay[k], bs[k], bs[k] + FEAS_TOL * (1.0 + abs(bs[k]))) for k in range(held - 4)]
    alpha = bs[-1]
    top = alpha + FEAS_TOL * (1.0 + alpha)   # the box bound alpha is > 0

    # size 0: unconstrained optimum
    if _feasible(rows, top, ux, uy):
        return _optimal(rows, alpha, ux, uy, [0.0] * m)

    # size 1: single-row projection, mu = 2 (a.u_hat - b) / ||a||^2
    for k in range(held):
        kx, ky = ax[k], ay[k]
        aa = kx * kx + ky * ky
        if aa <= 0.0:
            continue
        mu = 2.0 * (kx * ux + ky * uy - bs[k]) / aa
        if mu < -MU_TOL:
            continue
        mu = max(mu, 0.0)
        x, y = ux - 0.5 * mu * kx, uy - 0.5 * mu * ky
        if _feasible(rows, top, x, y):
            mus = [0.0] * m
            mus[numbers[k]] = mu
            return _optimal(rows, alpha, x, y, mus)

    # size 2: solve the Gram system for (mu_k, mu_l)
    for k in range(held):
        kx, ky = ax[k], ay[k]
        g11 = kx * kx + ky * ky
        r1 = kx * ux + ky * uy - bs[k]
        for l in range(k + 1, held):
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
            if _feasible(rows, top, x, y):
                mus = [0.0] * m
                mus[numbers[k]], mus[numbers[l]] = mu_k, mu_l
                return _optimal(rows, alpha, x, y, mus)

    # no working set qualified: the phase-I probe (max min slack) confirms emptiness
    slack = _max_min_slack(ax, ay, bs)
    if slack < INFEAS_TOL:
        return QPSolution(
            u_star=(math.nan, math.nan), mu_star=(0.0,) * m, active_set=(), status="infeasible"
        )
    raise QPInfeasibleError(
        "working-set enumeration failed on a feasible problem "
        f"(phase-I slack {slack:.3e}); the problem is numerically degenerate",
        snapshot={"u_hat": problem.u_hat, "rows": {g: ((x, y), b) for g, x, y, b in zip(numbers, ax, ay, bs)}},
    )


def _feasible(rows: list, top: float, x: float, y: float) -> bool:
    """(x, y) holds the neighbor rows held and the box within FEAS_TOL; a NaN coordinate fails the box rows."""
    if not (abs(x) <= top and abs(y) <= top):
        return False
    for _, kx, ky, _, bound in rows:
        if not kx * x + ky * y <= bound:
            return False
    return True


def _optimal(rows: list, alpha: float, x: float, y: float, mus: list[float]) -> QPSolution:
    """The solution at (x, y); its active set numbers the held rows whose |a.u - b| is within ACTIVE_TOL."""
    active = [k for k, kx, ky, b, _ in rows if abs(kx * x + ky * y - b) <= ACTIVE_TOL * (1.0 + abs(b))]
    m = len(mus) - 4
    band = ACTIVE_TOL * (1.0 + alpha)
    for k, slack in ((m, x - alpha), (m + 1, y - alpha), (m + 2, -x - alpha), (m + 3, -y - alpha)):
        if abs(slack) <= band:
            active.append(k)
    solution = object.__new__(QPSolution)   # set past the frozen __setattr__, as in _fill
    solution.__dict__.update(u_star=(x, y), mu_star=tuple(mus), active_set=tuple(active), status="optimal")
    return solution


def _max_min_slack(ax: list[float], ay: list[float], b: list[float]) -> float:
    """Optimum of max_u min_k (b_k - a_k.u): the LP max s s.t. a_k.u + s <= b_k, by its vertices.

    The box rows give the matrix [a_k 1] rank 3 and bound s, so the LP has a
    vertex optimum, where three rows i < j < k are tight: (a_j - a_i).u =
    b_j - b_i and (a_k - a_i).u = b_k - b_i, solved by Cramer's rule.  The
    min slack at any u is at most the optimum, so a near-singular triple
    only yields a far point with a low slack, and only det == 0 is skipped.
    """
    best = -math.inf
    for i, j, k in combinations(range(len(b)), 3):
        x1, y1, c1 = ax[j] - ax[i], ay[j] - ay[i], b[j] - b[i]
        x2, y2, c2 = ax[k] - ax[i], ay[k] - ay[i], b[k] - b[i]
        det = x1 * y2 - x2 * y1
        if det != 0.0:
            x, y = (c1 * y2 - c2 * y1) / det, (x1 * c2 - x2 * c1) / det
            best = max(best, min(bl - (xl * x + yl * y) for xl, yl, bl in zip(ax, ay, b)))
    return best


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
    """Residuals of stationarity, primal/dual feasibility and complementary slackness.

    The rows the problem holds are checked, each with the multiplier of its
    row number; the rows set aside hold by construction and carry mu = 0.
    """
    if solution.status != "optimal":
        raise ValueError("verify_kkt expects an optimal solution")
    x, y = solution.u_star
    mus = solution.mu_star
    grad = [x - problem.u_hat[0], y - problem.u_hat[1]]
    primal = 0.0
    dual = 0.0
    comp = 0.0
    for g, ax, ay, b in zip(problem.row_numbers, problem.ax, problem.ay, problem.b):
        mu = mus[g]
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
