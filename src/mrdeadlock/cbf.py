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
binds them by name.  Every other module goes through
PairField, which evaluates every unordered pair once per world state and
reproduces the scalar results bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class _PairConstants:
    """Per-(params, n) data of the pair pass: pair order, alpha sums and shares."""

    pairs: tuple[tuple[int, int], ...]
    asum: tuple[float, ...]
    shares: tuple[tuple[float, float], ...]      # (alpha_i, alpha_j) / (alpha_i + alpha_j)


# One entry per (params, n), so the pair constants are built once per run and
# shared, immutable, by every step of it.
@functools.lru_cache(maxsize=4)
def _pair_constants(params: Params, n: int) -> _PairConstants:
    pairs = pair_indices(n)
    alpha = params.alpha
    asum = tuple(alpha[i] + alpha[j] for i, j in pairs)
    return _PairConstants(
        pairs=pairs,
        asum=asum,
        shares=tuple((alpha[i] / s, alpha[j] / s) for (i, j), s in zip(pairs, asum)),
    )


class PairField:
    """Geometry of every unordered robot pair of one world state, evaluated once.

    For each pair (i, j) of pair_indices(n) the constructor evaluates
    dp = p_i - p_j, dv = v_i - v_j, ||dp|| and dp.dv once, and the minimum
    pair distance.  The signed safety index, the constraint bounds and the N
    per-robot QPs are derived from these on first use only, so a state that
    never assembles a QP never raises the bound's errors.  The bounds' pass
    takes sqrt(2 asum eps) once per pair and leaves h computed too.  Every
    value equals its scalar oracle bit for bit (safety_index_signed, min_pair_distance,
    constraint_bound, assemble_qp).  The arithmetic stays in plain floats:
    np.hypot and math.hypot differ in the last bit on some inputs.
    """

    __slots__ = ("_robots", "_const", "_params", "distances", "_pv", "_dvv", "_h", "_bounds", "min_distance")

    def __init__(self, world: WorldState, params: Params):
        const = _pair_constants(params, world.n)
        robots = world.robots
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
        self._robots = robots
        self._const = const
        self._params = params
        self.distances = rs
        self._pv = pvs
        self._dvv = dvvs
        self._h: tuple[float, ...] | None = None
        self._bounds: tuple[float, ...] | None = None
        self.min_distance = min(rs, default=math.inf)

    @property
    def h(self) -> tuple[float, ...]:
        """Signed safety index of every pair, in pair order; raises if two robots coincide."""
        if self._h is None:
            ds = self._params.ds
            out = []
            for (i, j), asum, r, pv in zip(self._const.pairs, self._const.asum, self.distances, self._pv):
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
            ds = self._params.ds
            out = []
            hs = []
            for (i, j), asum, r, pv, dvv in zip(
                self._const.pairs, self._const.asum, self.distances, self._pv, self._dvv
            ):
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
        return self._bounds

    def problems(self, u_hat: Sequence[Vec2]) -> tuple[QPProblem, ...]:
        """All N per-robot QPs (assemble_qp for i = 0 .. N-1); u_hat[i] is robot i's PD reference.

        The rows are handed over flat (qp.flat_problem), with robot i's box
        bound alpha_i, and both shares of b_ij come from one bound.  Robot
        j's row is minus robot i's, built from -(p_j - p_i), not from dp_ij,
        so a zero component keeps the sign assemble_qp gives it.  A
        ValueError is raised unless u_hat has one entry per robot.
        """
        robots = self._robots
        if len(u_hat) != len(robots):
            raise ValueError(f"u_hat has {len(u_hat)} entries for {len(robots)} robots")
        bounds = self.bounds()
        const = self._const
        ax: list[list[float]] = [[] for _ in robots]
        ay: list[list[float]] = [[] for _ in robots]
        b: list[list[float]] = [[] for _ in robots]
        for (i, j), (share_i, share_j), bound in zip(const.pairs, const.shares, bounds):
            (pix, piy), (pjx, pjy) = robots[i].p, robots[j].p
            dx, dy = pix - pjx, piy - pjy
            ax[i].append(-dx)
            ay[i].append(-dy)
            b[i].append(share_i * bound)
            ax[j].append(-(pjx - pix))
            ay[j].append(-(pjy - piy))
            b[j].append(share_j * bound)
        return tuple(map(flat_problem, u_hat, ax, ay, b, self._params.alpha))
