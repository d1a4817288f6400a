"""The phase-2 Newton system: its exact Jacobian and its pure-Python linear solve."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from mrdeadlock import Params, RobotState, WorldState
from mrdeadlock.core import euler_step, v_dot, v_sub
from mrdeadlock.errors import SimulationAbort
from mrdeadlock.resolution import Turning, _manifold, _phase2_system, _solve

finite = dict(allow_nan=False, allow_infinity=False)
speeds = st.floats(-1.0, 1.0, **finite)


def _polar(r: float, theta: float) -> tuple[float, float]:
    return (r * math.cos(theta), r * math.sin(theta))


@st.composite
def phase2_states(draw):
    """A phase-2 world near contact, its mode state, its angle reference, h targets, w and dt.

    The references lie within 0.5 rad of the angles they pin, so that no
    wrapped residual sits near its jump at +-pi.
    """
    ds = draw(st.sampled_from((0.5, 0.625)))
    mode = draw(st.sampled_from(("two", "three", "chain")))
    n = 2 if mode == "two" else 3
    radii = [ds + draw(st.floats(-0.01, 0.2)) for _ in range(n - 1)]
    base = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    heading = draw(st.floats(-math.pi, math.pi))
    offset = draw(st.floats(-0.5, 0.5))
    if mode == "two":
        ps = [base, tuple(b + d for b, d in zip(base, _polar(radii[0], heading)))]
        state = Turning(beta_ref=0.0, h_entry=(0.0,), t_ref0=0.0, theta_ref=0.0, omega_ref=0.0)
        theta_ref = heading + offset
    else:
        # a chain about robot `center`: its outer robots at heading and heading + gamma
        center = draw(st.integers(0, 2))
        gamma = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 2.8))
        outer = [tuple(b + d for b, d in zip(base, _polar(r, heading + k * gamma))) for k, r in enumerate(radii)]
        ps = outer[:center] + [base] + outer[center:]
        if mode == "three":
            c = [sum(p[k] for p in ps) / 3.0 for k in range(2)]
            state = Turning(beta_ref=0.0, h_entry=(0.0,) * 3, t_ref0=0.0, theta_ref=0.0, omega_ref=0.0)
            theta_ref = math.atan2(ps[0][1] - c[1], ps[0][0] - c[0]) + offset
        else:
            state = Turning(
                beta_ref=0.0, h_entry=(0.0, 0.0), t_ref0=0.0, theta_ref=0.0, omega_ref=0.0, center=center,
                psi_hold=heading + 0.5 * gamma + draw(st.floats(-0.5, 0.5)),
            )
            theta_ref = gamma + offset
    world = WorldState(robots=tuple(RobotState(p=p, v=(draw(speeds), draw(speeds))) for p in ps))
    params = Params(kp=1.0, kv=3.0, ds=ds, alpha=tuple(draw(st.floats(1.0, 8.0)) for _ in range(n)))
    n_pairs = 1 if n == 2 else (2 if mode == "chain" else 3)
    h_ts = tuple(draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))) for _ in range(n_pairs))
    w = [draw(st.floats(-5.0, 5.0)) for _ in range(2 * (n - 1))]
    dt = draw(st.sampled_from((1e-3, 5e-3)))
    return world, params, state, theta_ref, h_ts, w, dt


def _pair_qs(world, control, h_ts, w, dt):
    """q = h_t - dp.dv / r of every pinned pair at the predicted state."""
    pred = [euler_step(z.p, z.v, u, dt) for z, u in zip(world.robots, control.controls(w))]
    qs = []
    for (i, j), h_t in zip(control.pairs, h_ts):
        dp, dv = v_sub(pred[j][0], pred[i][0]), v_sub(pred[j][1], pred[i][1])
        qs.append(h_t - v_dot(dp, dv) / math.hypot(*dp))
    return qs


@pytest.mark.ci_profile
@given(phase2_states())
def test_exact_jacobian_matches_central_differences(case):
    # every entry within 1e-6 of the largest entry of its row.  The pair
    # residual's q |q| is only once differentiable at q = 0, where central
    # differences are off by O(step); the stencil below moves q by < 1e-3
    world, params, state, theta_ref, h_ts, w, dt = case
    control, angles = _manifold(state, world.n, theta_ref, dt)
    assume(all(abs(q) >= 5e-3 for q in _pair_qs(world, control, h_ts, w, dt)))
    system = _phase2_system(world, params, control, angles, h_ts, dt)
    _, jac = system(w)
    step = 0.05
    columns = []
    for k in range(len(w)):
        up, down = list(w), list(w)
        up[k] += step
        down[k] -= step
        columns.append((np.array(system(up)[0]) - np.array(system(down)[0])) / (2.0 * step))
    numeric = np.column_stack(columns)
    jac = np.array(jac)
    assert jac.shape == (len(w), len(w))
    scale = np.abs(jac).max(axis=1, keepdims=True)
    assert (scale > 0.0).all()
    assert (np.abs(jac - numeric) <= 1e-6 * scale).all(), (jac, numeric)


@st.composite
def well_conditioned_systems(draw):
    n = draw(st.sampled_from((2, 4)))
    a = [[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(n)]
    # shuffled dominant entries: pivoting has to find them
    perm = draw(st.permutations(range(n)))
    for i, j in enumerate(perm):
        a[i][j] += draw(st.sampled_from((-1.0, 1.0))) * (n + 1.0)
    b = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
    return a, b


@given(well_conditioned_systems())
def test_solve_matches_numpy_on_well_conditioned_systems(system):
    a, b = system
    expected = np.linalg.solve(np.array(a), np.array(b))
    x = _solve(a, b)
    assert np.allclose(x, expected, rtol=1e-12, atol=1e-12)


def _solve_by_max_and_sorted(a, b):
    """The 4x4 elimination with its pivots picked by max and a stable reverse sort on |leading entry|."""
    lead = lambda row: abs(row[0])  # noqa: E731
    rows = [(*row, bi) for row, bi in zip(a, b)]
    p = max(rows, key=lead)
    rows.remove(p)
    p0, p1, p2, p3, pb = p
    sub = [(r1 - r0 / p0 * p1, r2 - r0 / p0 * p2, r3 - r0 / p0 * p3, rb - r0 / p0 * pb) for r0, r1, r2, r3, rb in rows]
    q = max(sub, key=lead)
    sub.remove(q)
    q0, q1, q2, qb = q
    (s0, s1, s2, sb), (t0, t1, t2, tb) = sub
    f, g = s0 / q0, t0 / q0
    (u0, u1, ub), (v0, v1, vb) = sorted(
        [(s1 - f * q1, s2 - f * q2, sb - f * qb), (t1 - g * q1, t2 - g * q2, tb - g * qb)], key=lead, reverse=True)
    f = v0 / u0
    x3 = (vb - f * ub) / (v1 - f * u1)
    x2 = (ub - u1 * x3) / u0
    x1 = (qb - q1 * x2 - q2 * x3) / q0
    return [(pb - p1 * x1 - p2 * x2 - p3 * x3) / p0, x1, x2, x3]


def _outcome(solve, a, b) -> str:
    try:
        return repr(solve(a, b))
    except (SimulationAbort, ZeroDivisionError):
        return "singular"


# entries from a small set make tied leading entries (|a| equal, signs and zeros mixed) common
tie_prone = st.one_of(st.sampled_from((-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)), st.floats(-3.0, 3.0))


@given(st.lists(st.lists(tie_prone, min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
# the last stage's two rows tie at |leading entry| 2: the first is the pivot
@example([[3.0, 1.0, 0.0, 2.0], [1.0, -2.0, 0.0, 2.0], [1.0, 0.0, -2.0, -1.0], [-1.0, 0.0, 2.0, -1.0]],
         [0.0, 1.0, -2.0, -1.0])
def test_solve_pivots_as_max_and_a_stable_sort_did(a, b):
    # plain comparisons pick the same pivots, ties included, so x is the same bit for bit
    assert _outcome(_solve, a, b) == _outcome(_solve_by_max_and_sorted, a, b)


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 0.0], [3.0, -1.0]],
        [[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
        [[0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 4.0, 0.5], [0.0, 2.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]],
    ],
    ids=["2x2-rank-1", "2x2-zero-row", "4x4-rank-3", "4x4-zero-column"],
)
def test_solve_raises_phase2_singular_on_a_rank_deficient_system(a):
    with pytest.raises(SimulationAbort) as err:
        _solve(a, [1.0] * len(a))
    assert err.value.kind == "phase2-singular"
    assert str(err.value) == "[phase2-singular] phase-2 Newton Jacobian singular: Singular matrix"
