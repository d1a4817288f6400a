"""Exact 2-variable QP solver: examples, KKT checks, randomized oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    Params,
    QPProblem,
    WorldState,
    collinear_family,
    solve_qp,
)
from mrdeadlock.cbf import assemble_qp
from mrdeadlock.errors import ToolkitError
from mrdeadlock.qp import (
    ACTIVE_TOL,
    FEAS_TOL,
    IMPLIED_TOL,
    QPSolution,
    _enumerate,
    _enumerated_rows,
    flat_problem,
    verify_kkt,
)
from oracles import ConstraintRow, box_rows, problem_of, rows_of


def random_problem(rng, m=None, alpha=None):
    alpha = float(rng.uniform(0.5, 5.0)) if alpha is None else alpha
    u_hat = tuple(rng.uniform(-5, 5, 2))
    m = int(rng.integers(0, 4)) if m is None else m
    rows = []
    for _ in range(m):
        a = rng.uniform(-1, 1, 2)
        while math.hypot(*a) < 1e-3:
            a = rng.uniform(-1, 1, 2)
        rows.append(ConstraintRow(tuple(a), float(rng.uniform(-0.5, 2.0))))
    return problem_of(u_hat=u_hat, rows=tuple(rows) + box_rows(alpha))


def test_unconstrained_optimum_inside_polytope():
    problem = problem_of(u_hat=(0.25, -0.5), rows=box_rows(5.0))
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    assert sol.u_star == (0.25, -0.5)
    assert sol.mu_star == (0.0,) * 4
    assert sol.active_set == ()


def test_single_row_projection_with_closed_form_dual():
    problem = problem_of(
        u_hat=(1.0, 0.0),
        rows=(ConstraintRow((1.0, 0.0), 0.5),) + box_rows(10.0),
    )
    sol = solve_qp(problem)
    # mu = 2 (a.u_hat - b)/|a|^2 = 2*(1 - 0.5)/1 = 1; u* = u_hat - mu a / 2
    assert sol.u_star == pytest.approx((0.5, 0.0), abs=1e-14)
    assert sol.mu_star[0] == pytest.approx(1.0, abs=1e-14)
    assert sol.active_set == (0,)


def test_thm2_deadlock_state_zero_control_positive_dual():
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    z1, z2 = collinear_family(goals, params, 0.5)
    world = WorldState(robots=(z1, z2), t=0.0)
    # robot 0 carries the closed-form dual 2 kp (1-alpha) D_G / Ds = 8;
    # robot 1 sits Ds behind the interpolation point, giving
    # 2 kp (alpha D_G + Ds) / Ds = 10 by the same substitution.
    expected = (8.0, 10.0)
    for i in range(2):
        sol = solve_qp(assemble_qp(i, world, goals, params))
        assert math.hypot(*sol.u_star) <= 1e-12
        assert sol.mu_star[0] == pytest.approx(expected[i], rel=1e-12)


def test_verify_kkt_self_consistency():
    rng = np.random.default_rng(42)
    for _ in range(200):
        problem = random_problem(rng)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            continue
        assert verify_kkt(problem, sol).max_residual() <= 1e-8


def test_verify_kkt_detects_corrupted_dual():
    problem = problem_of(
        u_hat=(1.0, 0.0),
        rows=(ConstraintRow((1.0, 0.0), 0.5),) + box_rows(10.0),
    )
    sol = solve_qp(problem)
    corrupted = QPSolution(
        u_star=sol.u_star,
        mu_star=(-sol.mu_star[0],) + sol.mu_star[1:],
        active_set=sol.active_set,
        status="optimal",
    )
    report = verify_kkt(problem, corrupted)
    assert report.dual > 0.0
    assert not report.passed(1e-8)


def test_randomized_optimality_oracle():
    # solver objective must not exceed the best of 2e4 random feasible samples
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        problem = random_problem(rng)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            continue
        assert verify_kkt(problem, sol).max_residual() <= 1e-8
        alpha = rows_of(problem)[-1].b_hat
        pts = rng.uniform(-alpha, alpha, size=(20_000, 2))
        feasible = np.ones(len(pts), dtype=bool)
        for row in rows_of(problem)[:problem.m_neighbors]:
            feasible &= pts @ np.asarray(row.a) <= row.b_hat + 1e-12
        if not feasible.any():
            continue
        u_hat = np.asarray(problem.u_hat)
        best_sample = (((pts[feasible] - u_hat) ** 2).sum(axis=1)).min()
        solver_obj = float(((np.asarray(sol.u_star) - u_hat) ** 2).sum())
        assert solver_obj <= best_sample + 1e-9
        checked += 1
    assert checked > 200


def test_projection_idempotence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        problem = random_problem(rng)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            continue
        again = solve_qp(problem_of(u_hat=sol.u_star, rows=rows_of(problem)))
        assert again.u_star == sol.u_star
        assert all(mu == 0.0 for mu in again.mu_star)


def test_infeasible_detection():
    problem = problem_of(
        u_hat=(0.0, 0.0),
        rows=(ConstraintRow((1.0, 0.0), -20.0),) + box_rows(5.0),
    )
    sol = solve_qp(problem)
    assert sol.status == "infeasible"


def test_parallel_rows_are_skipped_not_fatal():
    problem = problem_of(
        u_hat=(3.0, 0.0),
        rows=(
            ConstraintRow((1.0, 0.0), 1.0),
            ConstraintRow((2.0, 0.0), 1.0),
        ) + box_rows(10.0),
    )
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    # binding constraint is the tighter one: 2 ux <= 1
    assert sol.u_star == pytest.approx((0.5, 0.0), abs=1e-12)
    assert verify_kkt(problem, sol).max_residual() <= 1e-10


def test_deadlock_bridge_stationarity():
    # u* = 0 iff u_hat = 1/2 sum mu_k a_k over the active rows
    params = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    z1, z2 = collinear_family(goals, params, 0.3)
    world = WorldState(robots=(z1, z2), t=0.0)
    problem = assemble_qp(0, world, goals, params)
    sol = solve_qp(problem)
    assert math.hypot(*sol.u_star) <= 1e-12
    acc = np.zeros(2)
    for k in sol.active_set:
        acc += 0.5 * sol.mu_star[k] * np.asarray(rows_of(problem)[k].a)
    assert np.allclose(acc, np.asarray(problem.u_hat), atol=1e-12)
    # conversely, a robot clear of conflict keeps u* = u_hat != 0
    world2 = WorldState(
        robots=(z1, type(z1)(p=(z1.p[0] + 3.0, z1.p[1] + 3.0), v=(0.0, 0.0))), t=0.0
    )
    sol2 = solve_qp(assemble_qp(0, world2, goals, params))
    assert math.hypot(*sol2.u_star) > 1e-3


@pytest.mark.parametrize(
    "bound", [0.0, -1.0, math.inf, math.nan, -math.inf, True, "2", (5.0,) * 4],
    ids=["0.0", "-1.0", "inf", "nan", "-inf", "bool", "string", "four-faces"],
)
def test_qp_problem_rejects_a_box_bound_not_finite_and_positive(bound):
    with pytest.raises(ValueError, match="^alpha must be"):
        QPProblem((0.0, 0.0), [], [], [], bound)


def test_qp_problem_checks_its_rows_and_faces_and_copies_them():
    """Equal-length neighbor rows and one box bound alpha, or a ValueError; the arguments stay as given."""
    ax, ay, b = [3.0, -0.5], [-4.0, 0.0], [1.0, -2.0]
    for rows in ((ax[:1], ay, b), (ax, ay[:1], b), (ax, ay, b[:1])):
        with pytest.raises(ValueError, match="differ in length"):
            QPProblem((0.0, 0.0), *rows, 5.0)
    problem = QPProblem((0.5, -0.5), ax, ay, b, 2.5)
    assert (ax, ay, b) == ([3.0, -0.5], [-4.0, 0.0], [1.0, -2.0])
    assert (problem.u_hat, problem.ax, problem.ay, problem.b) == (
        (0.5, -0.5), [3.0, -0.5, 1.0, 0.0, -1.0, 0.0], [-4.0, 0.0, 0.0, 1.0, 0.0, -1.0], [1.0, -2.0, 2.5, 2.5, 2.5, 2.5]
    )
    assert [field.name for field in dataclasses.fields(QPProblem)] == ["u_hat", "ax", "ay", "b"]
    # NumPy scalars and ints are stored as the floats they equal
    problem = QPProblem((np.float64(1.0), 2), [np.int64(3)], [np.float32(0.5)], [1], np.int64(4))
    assert repr(problem) == repr(QPProblem((1.0, 2.0), [3.0], [0.5], [1.0], 4.0))


@pytest.mark.parametrize(
    "u_hat, ax, ay, b, message",
    [
        ("ab", [1.0], [0.0], [1.0], "^u_hat must be two numbers"),
        ((1.0, 2.0, 3.0), [1.0], [0.0], [1.0], "^u_hat must be two numbers"),
        ((math.nan, 0.0), [1.0], [0.0], [1.0], "^u_hat must be finite"),
        ((True, 0.0), [1.0], [0.0], [1.0], "^u_hat must be two numbers"),
        ((0.0, 0.0), ["x"], [0.0], [1.0], r"^ax\[0\] must be a finite number, got 'x'"),
        ((0.0, 0.0), [1.0, 2.0], [0.0, True], [1.0, 1.0], r"^ay\[1\] must be a finite number, got True"),
        ((0.0, 0.0), [1.0], [0.0], ["1"], r"^b\[0\] must be a finite number, got '1'"),
        ((0.0, 0.0), [1.0], [0.0], [math.inf], r"^b\[0\] must be a finite number, got inf"),
        ((0.0, 0.0), [math.nan], [0.0], [1.0], r"^ax\[0\] must be a finite number, got nan"),
        ((0.0, 0.0), [1.0], [10**400], [1.0], r"^ay\[0\] must be a finite number"),
    ],
    ids=["u_hat-string", "u_hat-three", "u_hat-nan", "u_hat-bool", "ax-string", "ay-bool", "b-string",
         "b-inf", "ax-nan", "ay-huge-int"],
)
def test_qp_problem_rejects_a_reference_or_row_entry_that_is_not_a_finite_number(u_hat, ax, ay, b, message):
    with pytest.raises(ValueError, match=message):
        QPProblem(u_hat, ax, ay, b, 5.0)


BOX = box_rows(5.0)
ROW_A, ROW_B = ConstraintRow((1.0, 0.0), 4.0), ConstraintRow((0.3, 0.4), 30.0)


@pytest.mark.parametrize(
    "u_hat, rows",
    [
        ((3.0, 7.0), BOX + (ROW_A,)),
        ((3.0, 7.0), BOX[:2] + (ROW_A,) + BOX[2:] + (ROW_B,)),
        ((0.0, 0.0), (ROW_A, BOX[2], BOX[1], BOX[0], BOX[3])),
        # a +x face normal of (0.5, 0) would let u_x reach 10
        ((12.0, 0.0), (ConstraintRow((1.0, 0.0), 5.001), ConstraintRow((0.0, 1.0), 50.0),
                       ConstraintRow((0.5, 0.0), 5.0)) + BOX[1:]),
        ((0.0, 0.0), BOX[1:]),
        ((0.0, 0.0), BOX[:3] + (ConstraintRow((0.0, -1.0), 4.0),)),
    ],
    ids=["faces-first", "faces-between-neighbors", "faces-out-of-order", "stretched-plus-x", "three-faces",
         "unequal-bounds"],
)
def test_qp_problem_rejects_misplaced_box(u_hat, rows):
    # problem_of keeps the check of the former row constructor, on which the row-built problems rely
    with pytest.raises(ValueError, match="box rows"):
        problem_of(u_hat=u_hat, rows=rows)


# ---------------------------------------------------------------------------
# solve_qp (box-implied rows set aside) against the full enumeration
# ---------------------------------------------------------------------------

def _outcome(solver, problem: QPProblem) -> str:
    try:
        return repr(solver(problem))
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _full_enumeration(problem: QPProblem) -> QPSolution:
    return _enumerate(problem, range(len(problem.b)))


def _box_top(a, alpha) -> float:
    """max a.u over the box |u_x|, |u_y| <= alpha."""
    return abs(a[0]) * alpha + abs(a[1]) * alpha


def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


reals = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
box_bounds = st.one_of(st.sampled_from([0.5, 1.0, 5.0]), st.floats(0.1, 8.0))


@st.composite
def qp_problems(draw):
    """Rows near the box-implied threshold, parallel and zero rows, infeasible sets."""
    alpha = draw(box_bounds)
    rows: list[ConstraintRow] = []
    for _ in range(draw(st.integers(0, 7))):
        shape = draw(st.sampled_from(["free", "free", "axis", "parallel", "zero"]))
        if shape == "zero":
            a = (0.0, 0.0)
        elif shape == "parallel" and rows:
            base = draw(st.sampled_from(rows)).a
            scale = draw(st.sampled_from([1.0, 2.0, 0.5, -1.0, 1e-3, 1e3]))
            a = (scale * base[0], scale * base[1])
        elif shape == "axis":
            a = draw(st.sampled_from([(1.0, 0.0), (0.0, -2.0), (-0.5, 0.0), (0.0, 1.0)]))
        else:
            a = (draw(reals), draw(reals))
        top = _box_top(a, alpha)
        size = abs(a[0]) + abs(a[1])
        place = draw(st.sampled_from(["at", "ulps", "rel", "margin", "free", "slack"]))
        if draw(st.integers(0, 19)) == 0:
            place = "infeasible"
        if place == "at":
            b = top
        elif place == "ulps":
            b = _ulps(top, draw(st.integers(-4, 4)))
        elif place == "rel":
            b = top + 1e-9 * draw(st.floats(-3.0, 3.0)) * (1.0 + abs(top))
        elif place == "margin":
            # around the threshold at which solve_qp sets the row aside
            widest = 1.0 + alpha + max(3.0, size)
            b = top + IMPLIED_TOL * (1.0 + abs(top) + size * widest) * draw(st.floats(0.0, 3.0))
        elif place == "slack":
            b = top + draw(st.floats(0.0, 10.0))
        elif place == "infeasible":
            # below the row's minimum over the box: the polytope is empty
            b = -_box_top((-a[0], -a[1]), alpha) - draw(st.floats(1e-6, 2.0))
        else:
            b = draw(st.floats(-2.0, 10.0))
        rows.append(ConstraintRow(a, b))
    rows.extend(box_rows(alpha))
    u_hat = draw(st.one_of(
        st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        st.just((alpha, alpha)),   # a box corner
        st.just((0.0, 0.0)),
    ))
    return problem_of(u_hat=u_hat, rows=tuple(rows))


@settings(max_examples=400, deadline=None, database=None)
@given(qp_problems())
# two rows exactly at the box maximum, one a parallel copy: kept, binding together
@example(problem_of(u_hat=(9.0, 9.0), rows=(
    ConstraintRow((1.0, 1.0), 10.0), ConstraintRow((2.0, 2.0), 20.0)) + box_rows(5.0)))
# a zero row with a positive bound and a row implied by the box
@example(problem_of(u_hat=(9.0, -9.0), rows=(
    ConstraintRow((0.0, 0.0), 1.0), ConstraintRow((0.5, 0.5), 5.1)) + box_rows(5.0)))
# infeasible: the first row excludes the whole box
@example(problem_of(u_hat=(0.0, 0.0), rows=(
    ConstraintRow((1.0, 0.0), -6.0), ConstraintRow((0.0, 1.0), 9.0)) + box_rows(5.0)))
# a row whose |a|^2 is subnormal: its multiplier overflows, and a candidate
# with an infinite control must not pass the feasibility test (0 * inf = NaN)
@example(problem_of(u_hat=(0.5, 0.5), rows=(
    ConstraintRow((0.0, 0.0), 0.0), ConstraintRow((0.0, 0.0), -1.0), ConstraintRow((0.0, 0.0), -1.0),
    ConstraintRow((1.0, -1.0), 1.000011), ConstraintRow((0.0, 0.0), -1.0),
    ConstraintRow((-8.925993836822974e-232, 9.39691959866434e-156), -1.0)) + box_rows(0.5)))
def test_solve_qp_matches_full_enumeration(problem):
    assert _outcome(solve_qp, problem) == _outcome(_full_enumeration, problem)


@settings(max_examples=400, deadline=None, database=None)
@given(qp_problems())
def test_solution_holds_and_marks_active_rows_row_by_row(problem):
    """The solver's four box comparisons and its set-aside rows agree with a.u - b on every row."""
    try:
        sol = solve_qp(problem)
    except ToolkitError:
        return
    if sol.status != "optimal":
        return
    x, y = sol.u_star
    slacks = [(row.a[0] * x + row.a[1] * y - row.b_hat, row.b_hat) for row in rows_of(problem)]
    assert all(s <= FEAS_TOL * (1.0 + abs(b)) for s, b in slacks)
    assert sol.active_set == tuple(k for k, (s, b) in enumerate(slacks) if abs(s) <= ACTIVE_TOL * (1.0 + abs(b)))


def test_enumerated_rows_sets_aside_only_rows_clear_of_the_box():
    rows = (
        ConstraintRow((1.0, 1.0), 10.0 + 1e-3),    # clears the box max 10: set aside
        ConstraintRow((1.0, 1.0), 10.0),           # touches the box corner: kept
        ConstraintRow((0.0, 0.0), 1.0),            # zero row, positive bound: set aside
        ConstraintRow((0.0, 0.0), -1.0),           # zero row, negative bound: kept
        ConstraintRow((-2.0, 0.0), 10.0 + 1e-9),   # within the margin: kept
    ) + box_rows(5.0)
    assert _enumerated_rows(problem_of(u_hat=(0.0, 0.0), rows=rows)) == [1, 3, 4, 5, 6, 7, 8]


# zero rows, signed zeros and subnormal components among ordinary ones
components = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308]), reals)
neighbor_rows = st.tuples(
    st.one_of(st.tuples(components, components), st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])),
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-2.0, 10.0)),
)


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(st.tuples(reals, reals), st.lists(neighbor_rows, max_size=6), box_bounds)
def test_checked_constructor_is_the_flat_constructor(u_hat, rows, alpha):
    """QPProblem(...) and the pair pass's flat_problem build the same problem from the same rows."""
    ax, ay, b = [a[0] for a, _ in rows], [a[1] for a, _ in rows], [bound for _, bound in rows]
    checked = QPProblem(u_hat, ax, ay, b, alpha)
    flat = flat_problem(u_hat, [*ax], [*ay], [*b], alpha)
    assert checked == flat and hash(checked) == hash(flat) and repr(checked) == repr(flat)
    assert _outcome(solve_qp, checked) == _outcome(solve_qp, flat)
