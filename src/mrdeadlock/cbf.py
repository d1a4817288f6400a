"""Pairwise safety index, constraint bound and per-robot inequality assembly.

The safety index for a robot pair is

    h = sqrt(2 (alpha_i + alpha_j) (||dp|| - Ds)) + dp.dv / ||dp||

and keeping dh/dt >= -h^3 along double-integrator dynamics is equivalent to
the linear control constraint  -dp.du <= b  with the bound built below.
Each pair constraint is split between the two robots in proportion to their
acceleration limits, giving one linear row per neighbor in each robot's QP.

The scalar functions safety_index_signed, constraint_bound, decentralized_rows,
assemble_qp and min_pair_distance evaluate one pair or one robot at a time.
No run calls them: they are the tests' oracles, and the benchmark's tracer
binds them by name.  Every other module goes through PairField, which
evaluates every unordered pair once per world state and reproduces the
scalar results bit for bit, and which, from ARRAY_MIN_ROBOTS robots on, sets
aside the QP rows the acceleration box implies (PairField._array_problems).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .core import GoalSpec, Params, RobotState, Vec2, WorldState, pd_control, v_dot, v_norm, v_sub
from .errors import BoundarySingularityError, CoincidentRobotsError, SafetyViolationError
from .qp import QPProblem, flat_problem

# Width of the band around ||dp|| = Ds treated as exactly on the boundary.
# sqrt() amplifies float noise near the boundary (sqrt(20 * 1ulp) ~ 5e-8), so
# constructed boundary states would otherwise never evaluate to h = 0.
BOUNDARY_SNAP = 1e-12

# Tolerance for the 0/0 middle term of the bound at the boundary: the term is
# defined as 0 when both |dp.dv| and ||dp|| - Ds are below this.
EPS_NUM = 1e-9


def row_neighbor(i: int, k: int) -> int:
    """The robot that neighbor row k of robot i's QP pairs i with: the rows skip i."""
    return k + (k >= i)


def neighbor_row(i: int, j: int) -> int:
    """The neighbor row of robot i's QP that pairs i with robot j != i (row_neighbor's inverse)."""
    return j - (j > i)


def _pair_scalars(zi: RobotState, zj: RobotState) -> tuple[Vec2, Vec2, float, float]:
    """(dp, dv, ||dp||, dp.dv) for the ordered pair (i, j); dp = p_i - p_j."""
    dp = v_sub(zi.p, zj.p)
    dv = v_sub(zi.v, zj.v)
    return dp, dv, v_norm(dp), v_dot(dp, dv)


def safety_index_signed(zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1) -> float:
    """Total-function extension of the safety index, odd in (||dp|| - Ds).

    Below the safety margin the radicand is negative and the strict index is
    undefined (constraint_bound raises there); for logging and post-hoc
    audits we extend it continuously as
    -sqrt(2 (alpha_i + alpha_j) (Ds - ||dp||)) + dp.dv / ||dp||, so a
    violation shows up as a negative value instead of an exception.
    """
    dp, dv, r, pv = _pair_scalars(zi, zj)
    if r == 0.0:
        raise CoincidentRobotsError(f"robots {i} and {j} coincide")
    eps = r - params.ds
    asum = params.alpha[i] + params.alpha[j]
    if abs(eps) <= BOUNDARY_SNAP:
        core = 0.0
    else:
        core = math.copysign(math.sqrt(2.0 * asum * abs(eps)), eps)
    return core + pv / r


def constraint_bound(zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1) -> float:
    """Bound b_ij of the pairwise constraint -dp.du <= b_ij.

    b = ||dp|| h^3 + (a_i+a_j) dp.dv / sqrt(2 (a_i+a_j)(||dp|| - Ds))
        + ||dv||^2 - (dp.dv)^2 / ||dp||^2

    On the boundary the middle term is 0/0; it is defined as 0 when both
    |dp.dv| and ||dp|| - Ds are below EPS_NUM (the deadlock states live
    exactly there), and a BoundarySingularityError is raised when the
    distance is on the boundary but the radial velocity is not.
    """
    dp, dv, r, pv = _pair_scalars(zi, zj)
    if r == 0.0:
        raise CoincidentRobotsError(f"robots {i} and {j} coincide")
    eps = r - params.ds
    if eps < -BOUNDARY_SNAP:
        raise SafetyViolationError(penetration=-eps, pair=(i, j))
    asum = params.alpha[i] + params.alpha[j]
    if eps < EPS_NUM:
        if abs(pv) < EPS_NUM:
            middle = 0.0
        else:
            raise BoundarySingularityError(
                f"pair ({i},{j}): ||dp|| - Ds = {eps:.3e} with dp.dv = {pv:.3e}"
            )
    else:
        middle = asum * pv / math.sqrt(2.0 * asum * eps)
    # past the checks above this is the strict index
    h = safety_index_signed(zi, zj, params, i, j)
    return r * h * h * h + middle + v_dot(dv, dv) - (pv * pv) / (r * r)


def decentralized_rows(
    zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1
) -> tuple[tuple[Vec2, float], tuple[Vec2, float]]:
    """Split the pair constraint between robots i and j into one (a, b) row each.

    Robot i receives  -dp_ij . u_i <= alpha_i/(alpha_i+alpha_j) b_ij  and
    robot j the mirrored row; the two shares sum to b_ij.
    """
    b = constraint_bound(zi, zj, params, i, j)
    dp = v_sub(zi.p, zj.p)
    ai, aj = params.alpha[i], params.alpha[j]
    asum = ai + aj
    return ((-dp[0], -dp[1]), (ai / asum) * b), ((dp[0], dp[1]), (aj / asum) * b)


def assemble_qp(i: int, world: WorldState, goals: GoalSpec, params: Params) -> QPProblem:
    """Build robot i's QP: objective center u_hat and M + 4 constraint rows.

    Every other robot is a neighbor.  Row order is fixed (neighbors by
    ascending id, so row k pairs i with row_neighbor(i, k), then the box
    rows BOX_NORMALS) so active-set indices are reproducible across runs.
    """
    zi = world.robots[i]
    u_hat = pd_control(zi, goals.pd[i], params)
    rows = [decentralized_rows(zi, world.robots[j], params, i, j)[0] for j in range(world.n) if j != i]
    return QPProblem(u_hat, [a[0] for a, _ in rows], [a[1] for a, _ in rows], [b for _, b in rows],
                     params.alpha[i])


def pair_indices(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered robot pairs (i, j), i < j, in ascending order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def min_pair_distance(world: WorldState) -> float:
    return min(
        v_norm(v_sub(world.robots[i].p, world.robots[j].p))
        for i, j in pair_indices(world.n)
    ) if world.n > 1 else math.inf


# Relative margin by which a neighbor row must clear the acceleration box to
# be set aside (PairField._array_problems derives the terms it scales).
IMPLIED_TOL = 1e-6
# From ARRAY_MIN_ROBOTS robots on, PairField runs its pass over NumPy arrays
# and sets aside the rows the box implies; below it, plain floats with every
# row cost less.  Set from ring timings (CHANGES.md).
ARRAY_MIN_ROBOTS = 6


@dataclass(frozen=True)
class _PairConstants:
    """Per-(params, n) data of both passes.

    The float pass reads pairs (pair_indices(n)), each pair's alpha sum and
    its shares (alpha_i, alpha_j) / (alpha_i + alpha_j).  The array pass
    reads the pairs as i, j, their alpha sums as pair_asum, and n (n - 1)
    directed rows, robot by robot, each robot's neighbor rows in row order:
    row k of robot r faces robot other = row_neighbor(r, k) through the pair
    pair, and number is k.  Robot r's rows end before ends[r].  Then alpha,
    and each directed row's alpha and bound share.
    """

    pairs: tuple[tuple[int, int], ...]
    asum: tuple[float, ...]
    shares: tuple[tuple[float, float], ...]
    i: np.ndarray
    j: np.ndarray
    pair_asum: np.ndarray
    robot: np.ndarray
    other: np.ndarray
    pair: np.ndarray
    number: np.ndarray
    ends: np.ndarray
    alpha: np.ndarray
    row_alpha: np.ndarray
    row_share: np.ndarray


# One entry per (params, n), so the pair constants are built once per run and
# shared, immutable, by every step of it.
@functools.lru_cache(maxsize=4)
def _pair_constants(params: Params, n: int) -> _PairConstants:
    if len(params.alpha) < n:
        raise ValueError(f"params has {len(params.alpha)} alphas for {n} robots")
    i, j = np.triu_indices(n, 1)
    pair_of = np.zeros((n, n), dtype=np.intp)
    pair_of[i, j] = pair_of[j, i] = np.arange(len(i))
    robot, number = np.divmod(np.arange(n * (n - 1)), n - 1)
    other = number + (number >= robot)
    pair = pair_of[robot, other]
    alpha = np.array(params.alpha[:n], dtype=float)
    pair_asum = alpha.take(i) + alpha.take(j)
    row_alpha = alpha.take(robot)
    shares = zip((alpha.take(i) / pair_asum).tolist(), (alpha.take(j) / pair_asum).tolist())
    return _PairConstants(pair_indices(n), tuple(pair_asum.tolist()), tuple(shares), i, j, pair_asum, robot,
                          other, pair, number, np.arange(1, n + 1) * (n - 1), alpha, row_alpha,
                          row_alpha / pair_asum.take(pair))


class PairField:
    """Geometry of every unordered robot pair of one world state, evaluated once.

    For each pair (i, j) of pair_indices(n) the constructor evaluates
    dp = p_i - p_j, dv = v_i - v_j, ||dp|| and dp.dv once, and the minimum
    pair distance.  The signed safety index, the constraint bounds and the N
    per-robot QPs are derived from these on first use only, so a state that
    never assembles a QP never raises the bound's errors.  The bounds' pass
    takes sqrt(2 asum eps) once per pair and leaves h computed too.  Every
    value equals its scalar oracle bit for bit (safety_index_signed,
    min_pair_distance, constraint_bound, assemble_qp with, from
    ARRAY_MIN_ROBOTS robots on, the rows the box implies set aside).

    Below ARRAY_MIN_ROBOTS robots the pass runs over plain floats and hands
    every row over.  From there on the geometry and the bounds (with h) are
    evaluated over NumPy arrays, with the same float operations in the same
    order and math.hypot for every norm, so both give the same bits, and
    the rows are set aside over those arrays.  When some pair would raise
    (coincident robots, a pair inside the margin, or a singular bound), the
    array pass hands over to the float pass, which raises the first error in
    pair order; h read before the bounds is evaluated over floats too.  A
    ValueError is raised when params has fewer alphas than world has robots.
    """

    __slots__ = ("_robots", "_const", "_params", "_arrays", "distances", "_pv", "_dvv", "_h", "_bounds",
                 "_bound_array", "min_distance")

    def __init__(self, world: WorldState, params: Params):
        n = world.n
        const = _pair_constants(params, n)
        robots = world.robots
        self._robots = robots
        self._const = const
        self._params = params
        self._h: tuple[float, ...] | None = None
        self._bounds: tuple[float, ...] | None = None
        self._bound_array: np.ndarray | None = None
        if n >= ARRAY_MIN_ROBOTS:
            self._array_init(robots, const)
            return
        self._arrays = None
        rs: list[float] = []
        pvs: list[float] = []
        dvvs: list[float] = []
        for i, j in const.pairs:
            (pix, piy), (vix, viy) = robots[i].p, robots[i].v
            (pjx, pjy), (vjx, vjy) = robots[j].p, robots[j].v
            dx, dy = pix - pjx, piy - pjy
            dvx, dvy = vix - vjx, viy - vjy
            rs.append(math.hypot(dx, dy))
            pvs.append(dx * dvx + dy * dvy)
            dvvs.append(dvx * dvx + dvy * dvy)
        self.distances = rs
        self._pv = pvs
        self._dvv = dvvs
        self.min_distance = min(rs, default=math.inf)

    def _array_init(self, robots: tuple[RobotState, ...], const: _PairConstants) -> None:
        # one column per robot: p_x, p_y, v_x, v_y
        state = np.fromiter(chain.from_iterable(z.p + z.v for z in robots), float, 4 * len(robots))
        state = state.reshape(-1, 4).T
        with np.errstate(all="ignore"):   # an overflow gives inf, as in plain floats
            dx, dy, dvx, dvy = state.take(const.i, axis=1) - state.take(const.j, axis=1)
            self._pv = dx * dvx + dy * dvy
            self._dvv = dvx * dvx + dvy * dvy
        rs = list(map(math.hypot, dx.tolist(), dy.tolist()))   # np.hypot can differ in the last bit
        r = np.fromiter(rs, float, len(rs))
        self._arrays = (state[:2], r)
        self.distances = rs
        self.min_distance = float(r.min())

    @property
    def h(self) -> tuple[float, ...]:
        """Signed safety index of every pair, in pair order; raises if two robots coincide."""
        if self._h is None:   # the bounds' pass, which every QP step takes, leaves h computed
            pvs = self._pv if self._arrays is None else self._pv.tolist()
            ds = self._params.ds
            out = []
            for (i, j), asum, r, pv in zip(self._const.pairs, self._const.asum, self.distances, pvs):
                if r == 0.0:
                    raise CoincidentRobotsError(f"robots {i} and {j} coincide")
                eps = r - ds
                if abs(eps) <= BOUNDARY_SNAP:
                    core = 0.0
                else:
                    core = math.copysign(math.sqrt(2.0 * asum * abs(eps)), eps)
                out.append(core + pv / r)
            self._h = tuple(out)
        return self._h

    def bounds(self) -> tuple[float, ...]:
        """Constraint bound b_ij of every pair, in pair order.

        Raises the error that assembling robot 0's QP, then robot 1's, ...
        raises first: that loop meets the pairs in pair order, and the bound
        is symmetric in (i, j).
        """
        if self._bounds is None:
            if self._arrays is None:
                self._float_bounds(self._pv, self._dvv)
            else:
                self._bounds = tuple(self._array_bounds().tolist())
        return self._bounds

    def _float_bounds(self, pvs: Sequence[float], dvvs: Sequence[float]) -> None:
        """bounds() over plain floats, which sets h too, or the first error in pair order."""
        ds = self._params.ds
        out = []
        hs = []
        for (i, j), asum, r, pv, dvv in zip(self._const.pairs, self._const.asum, self.distances, pvs, dvvs):
            if r == 0.0:
                raise CoincidentRobotsError(f"robots {i} and {j} coincide")
            eps = r - ds
            if eps < -BOUNDARY_SNAP:
                raise SafetyViolationError(penetration=-eps, pair=(i, j))
            root = 0.0 if eps <= BOUNDARY_SNAP else math.sqrt(2.0 * asum * eps)
            if eps < EPS_NUM:
                if abs(pv) < EPS_NUM:
                    middle = 0.0
                else:
                    raise BoundarySingularityError(
                        f"pair ({i},{j}): ||dp|| - Ds = {eps:.3e} with dp.dv = {pv:.3e}"
                    )
            else:
                middle = asum * pv / root
            # the strict safety index, which here equals the signed one
            h = root + pv / r
            hs.append(h)
            out.append(r * h * h * h + middle + dvv - (pv * pv) / (r * r))
        self._bounds = tuple(out)
        self._h = tuple(hs)   # what h would compute, bit for bit

    def _array_bounds(self) -> np.ndarray:
        """The bound array, which sets h too; if some pair would raise, the float pass raises instead.

        The tuple bounds() returns is built from the array only when bounds()
        is called: the QPs read the array.
        """
        if self._bound_array is None:
            (_, r), pv, dvv = self._arrays, self._pv, self._dvv
            asum = self._const.pair_asum
            ds = self._params.ds
            eps = r - ds
            with np.errstate(all="ignore"):
                # min(r) - Ds is the least eps: past EPS_NUM no pair can raise
                if self.min_distance - ds < EPS_NUM:
                    singular = (eps < EPS_NUM) & ~(np.abs(pv) < EPS_NUM)
                    if ((r == 0.0) | (eps < -BOUNDARY_SNAP) | singular).any():
                        self._float_bounds(pv.tolist(), dvv.tolist())   # raises the first error in pair order
                root = np.where(eps <= BOUNDARY_SNAP, 0.0, np.sqrt(2.0 * asum * np.abs(eps)))
                middle = np.where(eps < EPS_NUM, 0.0, asum * pv / root)
                h = root + pv / r
                bound = r * h * h * h + middle + dvv - (pv * pv) / (r * r)
            self._h = tuple(h.tolist())
            self._bound_array = bound
        return self._bound_array

    def problems(self, u_hat: Sequence[Vec2]) -> tuple[QPProblem, ...]:
        """All N per-robot QPs (assemble_qp for i = 0 .. N-1); u_hat[i] is robot i's PD reference.

        The rows are handed over flat (qp.flat_problem), with robot i's box
        bound alpha_i, and both shares of b_ij come from one bound.  Robot
        j's row is minus robot i's, built from -(p_j - p_i), not from dp_ij,
        so a zero component keeps the sign assemble_qp gives it.  From
        ARRAY_MIN_ROBOTS robots on, each QP holds only the neighbor rows
        _array_problems keeps, numbered by QPProblem.index when some are set
        aside.  A ValueError is raised unless u_hat has one entry per robot.
        """
        robots = self._robots
        n = len(robots)
        if len(u_hat) != n:
            raise ValueError(f"u_hat has {len(u_hat)} entries for {n} robots")
        if self._arrays is not None:
            return self._array_problems(u_hat)
        bounds = self.bounds()
        ax: list[list[float]] = [[] for _ in robots]
        ay: list[list[float]] = [[] for _ in robots]
        b: list[list[float]] = [[] for _ in robots]
        for (i, j), (share_i, share_j), bound in zip(self._const.pairs, self._const.shares, bounds):
            (pix, piy), (pjx, pjy) = robots[i].p, robots[j].p
            dx, dy = pix - pjx, piy - pjy
            ax[i].append(-dx)
            ay[i].append(-dy)
            b[i].append(share_i * bound)
            ax[j].append(-(pjx - pix))
            ay[j].append(-(pjy - piy))
            b[j].append(share_j * bound)
        return tuple(map(flat_problem, u_hat, ax, ay, b, self._params.alpha))

    def _array_problems(self, u_hat: Sequence[Vec2]) -> tuple[QPProblem, ...]:
        """problems over arrays, from the robots' positions, the pair constants and the bound array.

        Robot i's QP holds the neighbor rows a.u <= b that the box
        |u_x|, |u_y| <= alpha_i does not strictly imply.  A row is set aside when

            b - max_{u in box} a.u  >  IMPLIED_TOL (1 + |b| + |a|_1 (1 + alpha_i + A))

        with max_{u in box} a.u = |a_x| alpha_i + |a_y| alpha_i and A the
        largest |a_l|_1 over robot i's neighbor rows, at least 1 (the box
        rows' own).  The terms of the margin, against qp's tolerances:

        * a candidate that passes the box rows lies in the box widened by
          FEAS_TOL (1 + alpha), where a.u exceeds its box maximum by at most
          FEAS_TOL |a|_1 (1 + alpha);
        * a candidate built on the row meets a.u = b up to the clamp of a
          multiplier in (-MU_TOL, 0) to zero, of this row or its partner l,
          which moves u by 0.5 MU_TOL |a_l| and a.u by at most
          0.5 MU_TOL |a|_1 A;
        * IMPLIED_TOL is 1e3 times FEAS_TOL and MU_TOL, which leaves room
          for rounding, and the 1 + |b| term alone is 10 times the
          ACTIVE_TOL band.

        So a row set aside is in no qualifying working set, holds at every
        candidate that passes the box rows, and is never active at the
        returned point: solve_qp returns the full QP's solution without it.
        The one gap is a 2x2 solve near the singularity threshold, whose
        rounding is not bounded this way; the property test of solve_qp
        against the full enumeration covers it.  A NaN row is kept.
        """
        n = len(self._robots)
        const = self._const
        (pos, _), bounds = self._arrays, self._array_bounds()
        row_alpha = const.row_alpha
        with np.errstate(all="ignore"):
            dp = pos.take(const.robot, axis=1) - pos.take(const.other, axis=1)   # a row's normal is -dp
            mag_x, mag_y = np.abs(dp)
            size = mag_x + mag_y
            b = const.row_share * bounds.take(const.pair)
            widest = 1.0 + const.alpha + np.fmax.reduce(size.reshape(n, n - 1), axis=1, initial=1.0)
            tol = IMPLIED_TOL * (1.0 + np.abs(b) + size * widest.take(const.robot))
            kept = np.flatnonzero(~(b - (mag_x * row_alpha + mag_y * row_alpha) > tol))
        ax, ay = -dp.take(kept, axis=1)
        axs, ays, bs, numbers = ax.tolist(), ay.tolist(), b.take(kept).tolist(), const.number.take(kept).tolist()
        box = [n - 1, n, n + 1, n + 2]
        problems = []
        start = 0
        for u, end, alpha in zip(u_hat, np.searchsorted(kept, const.ends).tolist(), self._params.alpha):
            index = None if end - start == n - 1 else numbers[start:end] + box
            problems.append(flat_problem(u, axs[start:end], ays[start:end], bs[start:end], alpha, index))
            start = end
        return tuple(problems)
