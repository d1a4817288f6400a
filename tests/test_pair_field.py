"""The batched pair pass (PairField) against the scalar oracles, bit for bit."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    pd_control,
    solve_qp,
)
from mrdeadlock.cbf import (
    PairField,
    assemble_qp,
    constraint_bound,
    decentralized_rows,
    min_pair_distance,
    pair_indices,
    row_neighbor,
    safety_index_signed,
)
from mrdeadlock.errors import ToolkitError
from mrdeadlock.qp import _enumerate
from mrdeadlock.resolution import Filtering, supervisor_step
from oracles import ConstraintRow, rows_of

# Offsets of length exactly Ds in binary floating point; added to a dyadic
# position they put a pair exactly on the margin.
MARGIN_OFFSETS = {
    0.5: ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)),
    0.625: ((0.375, 0.5), (-0.5, 0.375), (0.625, 0.0), (0.0, -0.625)),
}

# Dyadic coordinates make shared x or y coordinates (zero dp components) and
# exact margin pairs common; arbitrary floats cover the rest.
coords = st.one_of(
    st.integers(-24, 24).map(lambda k: k / 8),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
speeds = st.one_of(
    st.just(0.0),
    st.integers(-4, 4).map(lambda k: k / 4),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 6))
    ds = draw(st.sampled_from(sorted(MARGIN_OFFSETS)))
    alpha = draw(st.lists(st.floats(0.5, 8.0), min_size=n, max_size=n))
    params = Params(kp=1.0, kv=3.0, ds=ds, alpha=tuple(alpha))
    robots: list[RobotState] = []
    for i in range(n):
        v = (draw(speeds), draw(speeds))
        if i and draw(st.booleans()):
            base = robots[draw(st.integers(0, i - 1))]
            ox, oy = draw(st.sampled_from(MARGIN_OFFSETS[ds]))
            p = (base.p[0] + ox, base.p[1] + oy)
            if draw(st.booleans()):
                v = base.v  # no radial velocity: the bound is defined on the margin
        else:
            p = (draw(coords), draw(coords))
        robots.append(RobotState(p=p, v=v))
    goals = GoalSpec(pd=tuple((float(k), 10.0) for k in range(n)))
    return WorldState(robots=tuple(robots)), goals, params


def _case(positions, velocities=None, ds=0.5, alpha=None):
    n = len(positions)
    velocities = velocities or [(0.0, 0.0)] * n
    params = Params(kp=1.0, kv=3.0, ds=ds, alpha=tuple(alpha or [5.0] * n))
    world = WorldState(robots=tuple(RobotState(p=p, v=v) for p, v in zip(positions, velocities)))
    return world, GoalSpec(pd=tuple((float(k), 10.0) for k in range(n))), params


def _same_error(call, expected: ToolkitError) -> None:
    with pytest.raises(type(expected)) as err:
        call()
    assert str(err.value) == str(expected)
    assert getattr(err.value, "pair", None) == getattr(expected, "pair", None)


@settings(max_examples=400, deadline=None, database=None)
@given(worlds())
# at rest on the margin, sharing y: the mirrored rows carry signed zeros
@example(_case([(0.0, 1.0), (0.5, 1.0), (0.25, 3.0)], alpha=[4.0, 5.0, 6.0]))
# on the margin with a closing velocity: boundary singularity at pair (1, 2)
@example(_case([(0.0, 0.0), (2.0, 0.0), (2.5, 0.0)], [(0.0, 0.0), (0.1, 0.0), (0.0, 0.0)]))
# inside the margin by less than the default abort tolerance
@example(_case([(0.0, 0.0), (5.0, 0.0), (0.5 - 5e-10, 0.0)]))
# coincident robots
@example(_case([(3.0, 0.0), (1.0, 1.0), (1.0, 1.0)]))
def test_pair_field_matches_scalar_oracles(case):
    world, goals, params = case
    robots = world.robots
    pairs = pair_indices(world.n)
    field = PairField(world, params)
    assert repr(field.min_distance) == repr(min_pair_distance(world))

    try:
        h = tuple(safety_index_signed(robots[i], robots[j], params, i, j) for i, j in pairs)
    except ToolkitError as exc:
        _same_error(lambda: field.h, exc)
    else:
        assert repr(field.h) == repr(h)

    u_hat = [pd_control(z, g, params) for z, g in zip(robots, goals.pd)]
    try:
        problems = tuple(assemble_qp(i, world, goals, params) for i in range(world.n))
    except ToolkitError as exc:
        _same_error(lambda: field.problems(u_hat), exc)
        return
    batch = field.problems(u_hat)
    assert repr(batch) == repr(problems)
    for c, (i, j) in enumerate(pairs):
        assert repr(field.bounds()[c]) == repr(constraint_bound(robots[i], robots[j], params, i, j))
        row_i, row_j = decentralized_rows(robots[i], robots[j], params, i, j)
        mirrored, _ = decentralized_rows(robots[j], robots[i], params, j, i)
        assert repr(rows_of(batch[i])[j - 1]) == repr(ConstraintRow(*row_i))
        assert repr(rows_of(batch[j])[i]) == repr(ConstraintRow(*mirrored))
        assert repr(rows_of(batch[j])[i].b_hat) == repr(row_j[1])


@settings(max_examples=200, deadline=None, database=None)
@given(worlds())
def test_row_layout_is_neighbors_then_box(case):
    """Both QP builders give robot i its N-1 neighbor rows, then the four box faces."""
    world, goals, params = case
    robots = world.robots
    u_hat = [pd_control(z, g, params) for z, g in zip(robots, goals.pd)]
    try:
        batch = PairField(world, params).problems(u_hat)
    except ToolkitError:
        return
    box = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    for i in range(world.n):
        (pix, piy) = robots[i].p
        for problem in (batch[i], assemble_qp(i, world, goals, params)):
            rows = rows_of(problem)
            assert len(rows) == world.n - 1 + 4
            assert repr(tuple(row.a for row in rows[-4:])) == repr(box)
            for k, row in enumerate(rows[:-4]):
                j = row_neighbor(i, k)
                (pjx, pjy) = robots[j].p
                assert repr(row.a) == repr((-(pix - pjx), -(piy - pjy)))


def _outcome(solver, problem) -> str:
    try:
        return repr(solver(problem))
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}"


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(worlds())
@example(_case([(0.0, 1.0), (0.5, 1.0), (0.25, 3.0)], alpha=[4.0, 5.0, 6.0]))
def test_pair_pass_qps_are_the_assembled_qps(case):
    """The flat QPs of the pair pass solve, compare and print as assemble_qp's QPs."""
    world, goals, params = case
    u_hat = [pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)]
    try:
        assembled = [assemble_qp(i, world, goals, params) for i in range(world.n)]
    except ToolkitError as exc:
        _same_error(lambda: PairField(world, params).problems(u_hat), exc)
        return
    for problem, oracle in zip(PairField(world, params).problems(u_hat), assembled):
        outcome = _outcome(solve_qp, problem)
        assert outcome == _outcome(solve_qp, oracle)
        assert outcome == _outcome(lambda p: _enumerate(p, range(len(p.b))), oracle)
        assert repr(problem) == repr(oracle)
        assert repr(problem.norms) == repr(oracle.norms)
        assert problem == oracle and hash(problem) == hash(oracle)


@pytest.mark.parametrize("n_refs", [1, 3])
def test_problems_want_one_reference_per_robot(n_refs):
    """A u_hat of the wrong length raises, in the pair pass and in the supervisor's filtering step."""
    world, goals, params = _case([(0.0, 0.0), (2.0, 0.0)])
    u_hat = [(0.0, 0.0)] * n_refs
    with pytest.raises(ValueError, match=f"^u_hat has {n_refs} entries for 2 robots"):
        PairField(world, params).problems(u_hat)
    with pytest.raises(ValueError, match=f"^u_hat has {n_refs} entries for 2 robots"):
        supervisor_step(Filtering(), world, goals, params, 1e-3, u_hat=u_hat)
