"""Pairwise safety index, constraint bound and per-robot inequality assembly.

The safety index for a robot pair is

    h = sqrt(2 (alpha_i + alpha_j) (||dp|| - Ds)) + dp.dv / ||dp||

and keeping dh/dt >= -h^3 along double-integrator dynamics is equivalent to
the linear control constraint  -dp.du <= b  with the bound built below.
Each pair constraint is split between the two robots in proportion to their
acceleration limits, giving one linear row per neighbor in each robot's QP.

The scalar functions (safety_index, constraint_bound, decentralized_rows,
assemble_qp, ...) evaluate one pair or one robot at a time and are the test
oracles.  Every other module goes through PairField, which evaluates every
unordered pair once per world state and reproduces the scalar results bit
for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import GoalSpec, Params, RobotState, Vec2, WorldState, pd_control, v_dot, v_norm, v_sub
from .errors import BoundarySingularityError, CoincidentRobotsError, SafetyViolationError

if TYPE_CHECKING:
    from .qp import QPProblem

# Width of the band around ||dp|| = Ds treated as exactly on the boundary.
# sqrt() amplifies float noise near the boundary (sqrt(20 * 1ulp) ~ 5e-8), so
# constructed boundary states would otherwise never evaluate to h = 0.
BOUNDARY_SNAP = 1e-12

# Tolerance for the 0/0 middle term of the bound at the boundary: the term is
# defined as 0 when both |dp.dv| and ||dp|| - Ds are below this.
EPS_NUM = 1e-9


@dataclass(frozen=True)
class NeighborKind:
    """Row provenance: collision-avoidance constraint against robot j."""

    j: int


@dataclass(frozen=True)
class BoxFaceKind:
    """Row provenance: acceleration box face (axis in {0, 1}, sign in {+1, -1})."""

    axis: int
    sign: int


RowKind = NeighborKind | BoxFaceKind


@dataclass(frozen=True)
class ConstraintRow:
    """One linear inequality a.u <= b_hat of a per-robot QP."""

    a: Vec2
    b_hat: float
    kind: RowKind

    @property
    def is_neighbor(self) -> bool:
        return isinstance(self.kind, NeighborKind)


def _pair_scalars(zi: RobotState, zj: RobotState) -> tuple[Vec2, Vec2, float, float]:
    """(dp, dv, ||dp||, dp.dv) for the ordered pair (i, j); dp = p_i - p_j."""
    dp = v_sub(zi.p, zj.p)
    dv = v_sub(zi.v, zj.v)
    return dp, dv, v_norm(dp), v_dot(dp, dv)


def safety_index(zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1) -> float:
    """Pairwise safety index h_ij; defined for ||dp|| >= Ds.

    Raises CoincidentRobotsError at ||dp|| = 0 and SafetyViolationError
    (carrying the penetration depth) when ||dp|| < Ds beyond the boundary
    snap band.
    """
    dp, dv, r, pv = _pair_scalars(zi, zj)
    if r == 0.0:
        raise CoincidentRobotsError(f"robots {i} and {j} coincide")
    eps = r - params.ds
    if eps < -BOUNDARY_SNAP:
        raise SafetyViolationError(penetration=-eps, pair=(i, j))
    asum = params.alpha_of(i) + params.alpha_of(j)
    core = 0.0 if eps <= BOUNDARY_SNAP else math.sqrt(2.0 * asum * eps)
    return core + pv / r


def safety_index_signed(zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1) -> float:
    """Total-function extension of the safety index, odd in (||dp|| - Ds).

    Below the safety margin the radicand is negative and the strict index is
    undefined; for logging and post-hoc audits we extend it continuously as
    -sqrt(2 (alpha_i + alpha_j) (Ds - ||dp||)) + dp.dv / ||dp||, so a
    violation shows up as a negative value instead of an exception.
    """
    dp, dv, r, pv = _pair_scalars(zi, zj)
    if r == 0.0:
        raise CoincidentRobotsError(f"robots {i} and {j} coincide")
    eps = r - params.ds
    asum = params.alpha_of(i) + params.alpha_of(j)
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
    asum = params.alpha_of(i) + params.alpha_of(j)
    if eps < EPS_NUM:
        if abs(pv) < EPS_NUM:
            middle = 0.0
        else:
            raise BoundarySingularityError(
                f"pair ({i},{j}): ||dp|| - Ds = {eps:.3e} with dp.dv = {pv:.3e}"
            )
    else:
        middle = asum * pv / math.sqrt(2.0 * asum * eps)
    h = safety_index(zi, zj, params, i, j)
    return r * h * h * h + middle + v_dot(dv, dv) - (pv * pv) / (r * r)


def decentralized_rows(
    zi: RobotState, zj: RobotState, params: Params, i: int = 0, j: int = 1
) -> tuple[ConstraintRow, ConstraintRow]:
    """Split the pair constraint between robots i and j.

    Robot i receives  -dp_ij . u_i <= alpha_i/(alpha_i+alpha_j) b_ij  and
    robot j the mirrored row; the two shares sum to b_ij.
    """
    b = constraint_bound(zi, zj, params, i, j)
    dp = v_sub(zi.p, zj.p)
    ai, aj = params.alpha_of(i), params.alpha_of(j)
    asum = ai + aj
    row_i = ConstraintRow(a=(-dp[0], -dp[1]), b_hat=(ai / asum) * b, kind=NeighborKind(j))
    row_j = ConstraintRow(a=(dp[0], dp[1]), b_hat=(aj / asum) * b, kind=NeighborKind(i))
    return row_i, row_j


def box_rows(alpha_i: float) -> tuple[ConstraintRow, ...]:
    """The four acceleration-limit rows, in the fixed order +x, +y, -x, -y."""
    return (
        ConstraintRow(a=(1.0, 0.0), b_hat=alpha_i, kind=BoxFaceKind(axis=0, sign=+1)),
        ConstraintRow(a=(0.0, 1.0), b_hat=alpha_i, kind=BoxFaceKind(axis=1, sign=+1)),
        ConstraintRow(a=(-1.0, 0.0), b_hat=alpha_i, kind=BoxFaceKind(axis=0, sign=-1)),
        ConstraintRow(a=(0.0, -1.0), b_hat=alpha_i, kind=BoxFaceKind(axis=1, sign=-1)),
    )


def assemble_qp(i: int, world: WorldState, goals: GoalSpec, params: Params):
    """Build robot i's QP: objective center u_hat and M + 4 constraint rows.

    Every other robot is a neighbor.  Row order is fixed (neighbors by
    ascending id, then box faces +x, +y, -x, -y) so active-set indices are
    reproducible across runs.
    """
    from .qp import QPProblem  # local import to keep the module DAG acyclic

    zi = world.robots[i]
    u_hat = pd_control(zi, goals.pd[i], params)
    rows: list[ConstraintRow] = []
    for j in range(world.n):
        if j == i:
            continue
        row_i, _ = decentralized_rows(zi, world.robots[j], params, i, j)
        rows.append(row_i)
    rows.extend(box_rows(params.alpha_of(i)))
    return QPProblem(u_hat=u_hat, rows=tuple(rows))


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
    """Per-(params, n) data of the pair pass: pair order, alpha sums and shares, reusable rows."""

    pairs: tuple[tuple[int, int], ...]
    asum: tuple[float, ...]
    shares: tuple[tuple[float, float], ...]      # (alpha_i, alpha_j) / (alpha_i + alpha_j)
    kinds: tuple[NeighborKind, ...]              # NeighborKind(j) for every robot j
    boxes: tuple[tuple[ConstraintRow, ...], ...]  # box_rows(alpha_i) for every robot i


# One entry per (params, n), so the box rows and row kinds are built once per
# run and shared, immutable, by every step of it.
@functools.lru_cache(maxsize=4)
def _pair_constants(params: Params, n: int) -> _PairConstants:
    pairs = pair_indices(n)
    alpha = params.alpha
    asum = tuple(alpha[i] + alpha[j] for i, j in pairs)
    return _PairConstants(
        pairs=pairs,
        asum=asum,
        shares=tuple((alpha[i] / s, alpha[j] / s) for (i, j), s in zip(pairs, asum)),
        kinds=tuple(NeighborKind(j) for j in range(n)),
        boxes=tuple(box_rows(alpha[i]) for i in range(n)),
    )


class PairField:
    """Geometry of every unordered robot pair of one world state, evaluated once.

    For each pair (i, j) of pair_indices(n) the constructor evaluates
    dp = p_i - p_j, dv = v_i - v_j, ||dp|| and dp.dv once, and the minimum
    pair distance.  The signed safety index, the constraint bounds and the N
    per-robot QPs are derived from these on first use only, so a state that
    never assembles a QP never raises the bound's errors.  Every value equals
    its scalar oracle bit for bit (safety_index_signed, min_pair_distance,
    constraint_bound, assemble_qp).  The arithmetic stays in plain floats:
    np.hypot and math.hypot differ in the last bit on some inputs.
    """

    __slots__ = ("_robots", "_const", "_ds", "distances", "_pv", "_dvv", "_h", "_bounds", "min_distance")

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
        self._ds = params.ds
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
            ds = self._ds
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
            ds = self._ds
            out = []
            for (i, j), asum, r, pv, dvv in zip(
                self._const.pairs, self._const.asum, self.distances, self._pv, self._dvv
            ):
                if r == 0.0:
                    raise CoincidentRobotsError(f"robots {i} and {j} coincide")
                eps = r - ds
                if eps < -BOUNDARY_SNAP:
                    raise SafetyViolationError(penetration=-eps, pair=(i, j))
                if eps < EPS_NUM:
                    if abs(pv) < EPS_NUM:
                        middle = 0.0
                    else:
                        raise BoundarySingularityError(
                            f"pair ({i},{j}): ||dp|| - Ds = {eps:.3e} with dp.dv = {pv:.3e}"
                        )
                else:
                    middle = asum * pv / math.sqrt(2.0 * asum * eps)
                # the strict safety index, which here equals the signed one
                h = (0.0 if eps <= BOUNDARY_SNAP else math.sqrt(2.0 * asum * eps)) + pv / r
                out.append(r * h * h * h + middle + dvv - (pv * pv) / (r * r))
            self._bounds = tuple(out)
        return self._bounds

    def problems(self, u_hat: Sequence[Vec2]) -> tuple[QPProblem, ...]:
        """All N per-robot QPs (assemble_qp for i = 0 .. N-1); u_hat[i] is robot i's PD reference.

        Both shares of b_ij come from one bound.  Robot j's row is built
        from -(p_j - p_i), not from dp_ij, so a zero component keeps the
        sign assemble_qp gives it.
        """
        from .qp import QPProblem  # local import to keep the module DAG acyclic

        bounds = self.bounds()
        const = self._const
        robots = self._robots
        kinds = const.kinds
        rows: list[list[ConstraintRow]] = [[] for _ in robots]
        for (i, j), (share_i, share_j), b in zip(const.pairs, const.shares, bounds):
            (pix, piy), (pjx, pjy) = robots[i].p, robots[j].p
            rows[i].append(ConstraintRow((-(pix - pjx), -(piy - pjy)), share_i * b, kinds[j]))
            rows[j].append(ConstraintRow((-(pjx - pix), -(pjy - piy)), share_j * b, kinds[i]))
        return tuple(
            QPProblem(u_hat=u_hat[i], rows=(*rows[i], *box)) for i, box in enumerate(const.boxes)
        )
