"""The batched pair pass (PairField) against the scalar oracles, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    RobotState,
    WorldState,
    pd_control,
    run_scenario,
    solve_qp,
)
from mrdeadlock import cbf
from mrdeadlock.cbf import (
    ARRAY_MIN_ROBOTS,
    BOUNDARY_SNAP,
    EPS_NUM,
    IMPLIED_TOL,
    PairField,
    assemble_qp,
    constraint_bound,
    decentralized_rows,
    min_pair_distance,
    pair_indices,
    row_neighbor,
    safety_index_signed,
)
from mrdeadlock.deadlock import classify_three_robot, verify_boundary_membership
from mrdeadlock.errors import ToolkitError
from mrdeadlock.logio import log_to_json
from mrdeadlock.resolution import Filtering, ResolutionConfig, supervisor_step
from conftest import _ring
from oracles import ConstraintRow, _kept_rows, numbered_rows, rows_of, set_aside

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
    n = draw(st.integers(2, 8))
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
    # from ARRAY_MIN_ROBOTS robots on, the pair pass sets the box-implied rows aside
    assert repr(batch) == repr(problems if world.n < ARRAY_MIN_ROBOTS else tuple(map(set_aside, problems)))
    for c, (i, j) in enumerate(pairs):
        assert repr(field.bounds()[c]) == repr(constraint_bound(robots[i], robots[j], params, i, j))
        row_i, row_j = decentralized_rows(robots[i], robots[j], params, i, j)
        mirrored, _ = decentralized_rows(robots[j], robots[i], params, j, i)
        assert repr(rows_of(problems[i])[j - 1]) == repr(ConstraintRow(*row_i))
        assert repr(rows_of(problems[j])[i]) == repr(ConstraintRow(*mirrored))
        assert repr(rows_of(problems[j])[i].b_hat) == repr(row_j[1])


@settings(max_examples=200, deadline=None, database=None)
@given(worlds())
def test_row_layout_is_neighbors_then_box(case):
    """Both QP builders give robot i neighbor rows by ascending row number, then the four box faces.

    assemble_qp gives all N - 1 neighbor rows; the pair pass numbers those it
    keeps.
    """
    world, goals, params = case
    robots = world.robots
    n = world.n
    u_hat = [pd_control(z, g, params) for z, g in zip(robots, goals.pd)]
    try:
        batch = PairField(world, params).problems(u_hat)
    except ToolkitError:
        return
    box = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    for i in range(n):
        (pix, piy) = robots[i].p
        full = assemble_qp(i, world, goals, params)
        assert list(full.row_numbers) == list(range(n + 3)) and full.index is None
        for problem in (batch[i], full):
            numbers = list(problem.row_numbers)
            assert numbers == sorted(set(numbers)) and numbers[-4:] == list(range(n - 1, n + 3))
            assert problem.m_neighbors == n - 1
            rows = numbered_rows(problem)
            assert repr(tuple(rows[k].a for k in numbers[-4:])) == repr(box)
            for k in numbers[:-4]:
                j = row_neighbor(i, k)
                (pjx, pjy) = robots[j].p
                assert repr(rows[k].a) == repr((-(pix - pjx), -(piy - pjy)))


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
    """The pair pass's QPs, box-implied rows set aside, solve to the QPSolutions of assemble_qp's full QPs."""
    world, goals, params = case
    u_hat = [pd_control(z, g, params) for z, g in zip(world.robots, goals.pd)]
    try:
        assembled = [assemble_qp(i, world, goals, params) for i in range(world.n)]
    except ToolkitError as exc:
        _same_error(lambda: PairField(world, params).problems(u_hat), exc)
        return
    for problem, oracle in zip(PairField(world, params).problems(u_hat), assembled):
        assert _outcome(solve_qp, problem) == _outcome(solve_qp, oracle)


def test_pair_pass_sets_aside_only_rows_clear_of_the_box():
    ax, ay, b = zip(
        (1.0, 1.0, 10.0 + 1e-3),    # clears the box max 10: set aside
        (1.0, 1.0, 10.0),           # touches the box corner: kept
        (0.0, 0.0, 1.0),            # zero row, positive bound: set aside
        (0.0, 0.0, -1.0),           # zero row, negative bound: kept
        (-2.0, 0.0, 10.0 + 1e-9),   # within the margin: kept
    )
    assert _kept_rows(ax, ay, b, 5.0) == [1, 3, 4]
    assert _kept_rows(ax[1:2], ay[1:2], b[1:2], 5.0) is None
    # two chains of three robots, each link 1 % outside contact, 10 m apart:
    # each QP keeps only its contact rows
    world, _, params = _case([(0.0, 0.0), (0.505, 0.0), (1.01, 0.0), (10.0, 0.0), (10.0, 0.505), (10.0, 1.01)])
    field = PairField(world, params)
    problems = field.problems([(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, -1.0)])
    box = [5, 6, 7, 8]
    assert [p.index for p in problems] == [[0] + box, [0, 1] + box, [1] + box, [3] + box, [3, 4] + box, [4] + box]
    assert field._arrays is not None
    # the kept rows are the full QP's, bit for bit
    assert repr(problems[0].ax[0]) == repr(-(0.0 - 0.505)) and repr(problems[5].ay[0]) == repr(-(1.01 - 0.505))


def test_pair_pass_keeps_the_rows_the_oracle_keeps_at_the_margin():
    """Bounds that put both rows of each pair on the set-aside margin, or 1e-9 inside or past it.

    Every |a|_1 is below 1, so the margin takes A = 1 from the box rows.
    Each QP keeps exactly the rows oracles._kept_rows keeps.
    """
    positions = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3), (0.15, 0.4), (0.4, 0.15)]
    world, _, params = _case(positions, alpha=[2.0] * len(positions))
    robots, alpha, n = world.robots, 2.0, world.n
    bounds = []
    for c, (i, j) in enumerate(pair_indices(n)):
        dx, dy = robots[i].p[0] - robots[j].p[0], robots[i].p[1] - robots[j].p[1]
        size = abs(dx) + abs(dy)
        top = abs(dx) * alpha + abs(dy) * alpha
        # b - top = IMPLIED_TOL (1 + b + size (1 + alpha + 1)) at b = edge
        edge = (top + IMPLIED_TOL * (1.0 + size * (2.0 + alpha))) / (1.0 - IMPLIED_TOL)
        bounds.append(2.0 * edge * (1.0 - 1e-9, 1.0, 1.0 + 1e-9)[c % 3])   # each robot's share is 1/2
    field = PairField(world, params)
    assert field._arrays is not None
    field._bound_array = np.array(bounds)   # the array pass reads these bounds
    problems = field.problems([(0.0, 0.0)] * n)
    pair_of = {pair: c for c, pair in enumerate(pair_indices(n))}
    held = 0
    for i, problem in enumerate(problems):
        ax, ay, b = [], [], []
        for k in range(n - 1):
            j = row_neighbor(i, k)
            ax.append(-(robots[i].p[0] - robots[j].p[0]))
            ay.append(-(robots[i].p[1] - robots[j].p[1]))
            b.append(0.5 * bounds[pair_of[min(i, j), max(i, j)]])
        keep = _kept_rows(ax, ay, b, alpha)
        rows = list(range(n - 1)) if keep is None else keep
        assert problem.index == (None if keep is None else keep + list(range(n - 1, n + 3)))
        assert _hexes(problem.ax[:-4]) == _hexes(ax[k] for k in rows)
        assert _hexes(problem.ay[:-4]) == _hexes(ay[k] for k in rows)
        assert _hexes(problem.b[:-4]) == _hexes(b[k] for k in rows)
        held += len(rows)
    assert 0 < held < n * (n - 1)   # some rows kept, some set aside


# Gaps to the margin, in m: within BOUNDARY_SNAP and EPS_NUM of contact on
# either side, a little outside it, and inside it.
MARGIN_GAPS = (0.0, BOUNDARY_SNAP / 2, -BOUNDARY_SNAP / 2, 2 * BOUNDARY_SNAP, -2 * BOUNDARY_SNAP,
               EPS_NUM / 2, -EPS_NUM / 2, 2 * EPS_NUM, -2 * EPS_NUM, 1e-3, 0.02, -0.01)


@st.composite
def crowded_worlds(draw):
    """3 to 14 robots in clusters: pairs on, near and inside the margin, and coincident robots."""
    n = draw(st.integers(3, 14))
    ds = draw(st.sampled_from(sorted(MARGIN_OFFSETS)))
    alpha = draw(st.lists(st.floats(0.5, 8.0), min_size=n, max_size=n))
    params = Params(kp=1.0, kv=3.0, ds=ds, alpha=tuple(alpha))
    robots: list[RobotState] = []
    for i in range(n):
        v = (draw(speeds), draw(speeds))
        place = draw(st.sampled_from(["free", "margin", "near", "near", "near", "coincident"])) if i else "free"
        if place == "free":
            p = (draw(coords), draw(coords))
        else:
            base = robots[draw(st.integers(0, i - 1))]
            if place == "margin":
                ox, oy = draw(st.sampled_from(MARGIN_OFFSETS[ds]))
            elif place == "near":
                angle = draw(st.floats(0.0, 2.0 * math.pi))
                length = ds + draw(st.sampled_from(MARGIN_GAPS))
                ox, oy = length * math.cos(angle), length * math.sin(angle)
            else:
                ox, oy = 0.0, 0.0
            p = (base.p[0] + ox, base.p[1] + oy)
            if draw(st.booleans()):
                v = base.v  # no radial velocity: the bound is defined on the margin
        robots.append(RobotState(p=p, v=v))
    u_hat = [(draw(speeds), draw(speeds)) for _ in range(n)]
    return WorldState(robots=tuple(robots)), params, u_hat


def _hexes(values) -> list[str]:
    return [float.hex(x) for x in values]


def _pass(world, params, u_hat, arrays: bool, order) -> dict:
    """What the pair pass gives, in float.hex, or the error it raises; the array pass if arrays.

    The float pass hands every row over; its QPs are read through oracles.set_aside.
    """
    saved = cbf.ARRAY_MIN_ROBOTS
    cbf.ARRAY_MIN_ROBOTS = 3 if arrays else world.n + 1   # read by the constructor only
    try:
        field = PairField(world, params)
    finally:
        cbf.ARRAY_MIN_ROBOTS = saved
    assert (field._arrays is not None) == arrays
    out = {"distances": _hexes(field.distances), "min_distance": float.hex(field.min_distance)}
    kept = (lambda problems: problems) if arrays else (lambda problems: map(set_aside, problems))
    reads = {
        "h": lambda: _hexes(field.h),
        "bounds": lambda: _hexes(field.bounds()),
        "problems": lambda: [(_hexes(p.u_hat), _hexes(p.ax), _hexes(p.ay), _hexes(p.b), p.index)
                             for p in kept(field.problems(u_hat))],
    }
    for name in order:
        try:
            out[name] = reads[name]()
        except ToolkitError as exc:
            out[name] = (type(exc).__name__, str(exc), getattr(exc, "pair", None))
    return out


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(crowded_worlds(), st.sampled_from([("h", "problems", "bounds"), ("problems", "h", "bounds"),
                                          ("bounds", "problems", "h")]))
# a 10-robot chain on the margin at rest, and a free robot far off
@example((*_case([(0.5 * k, 0.0) for k in range(10)] + [(40.0, 3.0)])[::2], [(1.0, -1.0)] * 11), ("h", "problems", "bounds"))
# coincident robots, then a pair inside the margin
@example((*_case([(0.0, 0.0), (3.0, 0.0), (0.0, 0.0), (3.4, 0.0)])[::2], [(0.0, 0.0)] * 4), ("problems", "h", "bounds"))
def test_array_pass_is_the_float_pass(case, order):
    """The array pass gives the float pass's floats, oracles.set_aside's kept rows and numbers, or its first error."""
    world, params, u_hat = case
    assert _pass(world, params, u_hat, True, order) == _pass(world, params, u_hat, False, order)


def test_array_pass_builds_the_bounds_tuple_only_when_asked():
    """From ARRAY_MIN_ROBOTS robots on, the QPs read the bound array; bounds() builds its tuple from that array."""
    n = cbf.ARRAY_MIN_ROBOTS
    world, _, params = _case([(1.0 * k, 0.0) for k in range(n)])
    field = PairField(world, params)
    field.problems([(0.0, 0.0)] * n)
    assert field._bounds is None
    assert field.bounds() == tuple(field._bound_array.tolist())


@pytest.mark.parametrize("n_refs", [1, 3])
def test_problems_want_one_reference_per_robot(n_refs):
    """A u_hat of the wrong length raises, in the pair pass and in the supervisor's filtering step."""
    world, goals, params = _case([(0.0, 0.0), (2.0, 0.0)])
    u_hat = [(0.0, 0.0)] * n_refs
    with pytest.raises(ValueError, match=f"^u_hat has {n_refs} entries for 2 robots"):
        PairField(world, params).problems(u_hat)
    with pytest.raises(ValueError, match=f"^u_hat has {n_refs} entries for 2 robots"):
        supervisor_step(Filtering(), world, goals, params, 1e-3, ResolutionConfig(), PairField(world, params), u_hat)


@pytest.mark.parametrize("n", [3, 6])
def test_too_few_alphas_raise_a_value_error(n):
    """params with fewer alphas than robots raises a ValueError naming both counts, in either pass; more is fine."""
    world, goals, params = _case([(1.0 * k, 0.0) for k in range(n)], alpha=[5.0, 5.0])
    with pytest.raises(ValueError, match=f"^params has 2 alphas for {n} robots$"):
        PairField(world, params)
    with pytest.raises(ValueError, match=f"^params has 2 alphas for {n} robots$"):
        verify_boundary_membership(world, goals, params)
    if n == 3:
        with pytest.raises(ValueError, match="^params has 2 alphas for 3 robots$"):
            classify_three_robot(world, params, 1e-9)
    more = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0,) * (n + 1))
    assert len(PairField(world, more).problems([(0.0, 0.0)] * n)) == n


@pytest.mark.parametrize("n, spacing", [(6, 1.01), (7, 1.03), (8, 1.05)])
def test_the_band_switch_moves_time_never_bytes(monkeypatch, n, spacing):
    """A ring's log is the same with its rows set aside over arrays as with every row over floats."""
    scenario = _ring(n, spacing, 0.3, tuple(4.5 + (3 * k % n) / n for k in range(n)), 0.1)
    world = WorldState(robots=scenario.initial)
    u_hat = [pd_control(z, g, scenario.params) for z, g in zip(world.robots, scenario.goals.pd)]
    logs = []
    for switch, set_aside_any in ((n, True), (n + 1, False)):
        monkeypatch.setattr(cbf, "ARRAY_MIN_ROBOTS", switch)
        problems = PairField(world, scenario.params).problems(u_hat)
        assert any(p.index is not None for p in problems) == set_aside_any
        logs.append(log_to_json(run_scenario(scenario)))
    assert logs[0] == logs[1]
