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
    assemble_qp,
    constraint_bound,
    decentralized_rows,
    pd_control,
    safety_index_signed,
)
from mrdeadlock.cbf import PairField, min_pair_distance, pair_indices
from mrdeadlock.errors import ToolkitError

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
        assert repr(batch[i].rows[j - 1]) == repr(row_i)
        assert repr(batch[j].rows[i]) == repr(mirrored)
        assert repr(batch[j].rows[i].b_hat) == repr(row_j.b_hat)

