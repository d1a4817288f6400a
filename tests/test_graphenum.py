"""Contact-graph counting, enumeration and planar embedding."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    GoalSpec,
    LabeledGraph,
    Params,
    WorldState,
    catB_parametrized,
    collinear_family,
    connected_count,
    default_head_on_scenario,
    embed_graph,
    enumerate_connected,
    lower_bound,
    three_robot_family_catA,
    three_robot_family_catB,
    upper_bound,
)
from mrdeadlock.cbf import PairField, pair_indices
from mrdeadlock.deadlock import geometric_tol
import mrdeadlock.graphenum as graphenum
from mrdeadlock.graphenum import (
    EMBED_TOL,
    NONEDGE_MARGIN,
    _LM_MAX_ITER,
    _pairs,
    _residuals,
    _violation,
    admissible_report,
    canonical_form,
    census_table,
    graph_seed,
    max_penny_edges,
    minimize,
    obstruction,
)
from mrdeadlock.resolution import CLASSIFY_TOL
from mrdeadlock.logio import scenario_to_dict


def test_connected_count_small_values():
    # OEIS A001187, n = 1..10
    assert [connected_count(n) for n in range(1, 11)] == [
        1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072, 34496488594816,
    ]


def test_connected_count_matches_exhaustive_enumeration():
    # independent oracle: brute force over all edge subsets
    for n in range(1, 6):
        assert connected_count(n) == len(enumerate_connected(n))


def test_connected_count_n5():
    assert connected_count(5) == 728


def test_upper_bound_values():
    assert upper_bound(2) == 2
    assert upper_bound(3) == 8
    assert upper_bound(4) == 64


def test_lower_bound_values():
    assert [lower_bound(n) for n in (1, 2, 3, 4)] == [1, 1, 4, 15]
    assert lower_bound(3) == (3 + 1) * math.factorial(2) // 2 == 4
    assert lower_bound(5) == 72


def test_enumerate_connected_n3_structure():
    graphs = enumerate_connected(3)
    assert len(graphs) == 4
    degs = Counter(tuple(sorted(g.degree_sequence())) for g in graphs)
    # three labeled paths plus the triangle
    assert degs == Counter({(1, 1, 2): 3, (2, 2, 2): 1})


def test_enumerate_connected_counts():
    assert len(enumerate_connected(2)) == 1
    assert len(enumerate_connected(4)) == 38


def test_enumerate_connected_stops_at_six_vertices():
    # 2^21 subsets at n = 7
    with pytest.raises(ValueError, match=r"^exhaustive enumeration is limited to n <= 6$"):
        enumerate_connected(7)


def test_labeled_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph(n=3, edges=((0, 0),))
    with pytest.raises(ValueError):
        LabeledGraph(n=2, edges=((0, 2),))
    with pytest.raises(ValueError):
        LabeledGraph(n=3, edges=((0, 1), (1, 0)))
    g = LabeledGraph(n=3, edges=((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))  # canonical sort


@pytest.mark.parametrize("edge", [(0.0, 1), (False, True), ("0", 1)], ids=["float", "bool", "string"])
def test_labeled_graph_rejects_a_vertex_that_is_not_an_int(edge):
    with pytest.raises(ValueError, match=r"^edge \(.*\) has a vertex that is not an int$"):
        LabeledGraph(n=2, edges=(edge,))


def test_embed_triangle_feasible():
    g = LabeledGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
    res = embed_graph(g, attempts=50)
    assert res.feasible
    assert res.positions is not None
    for u, v in g.edges:
        d = math.dist(res.positions[u], res.positions[v])
        assert abs(d - 1.0) <= 1e-6


def test_embed_path_feasible_with_open_ends():
    g = LabeledGraph(n=3, edges=((0, 1), (1, 2)))
    res = embed_graph(g, attempts=50)
    assert res.feasible
    d02 = math.dist(res.positions[0], res.positions[2])
    assert d02 > 1.0  # strictly beyond the margin


def test_embed_k4_infeasible():
    g = LabeledGraph(n=4, edges=tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    res = embed_graph(g, attempts=60)
    assert not res.feasible
    assert res.max_violation > 1e-2  # far from realizable, not a tolerance accident


def test_embed_requires_connected():
    g = LabeledGraph(n=4, edges=((0, 1),))
    with pytest.raises(ValueError):
        embed_graph(g)


def test_embed_deterministic_given_seeding():
    g = LabeledGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
    r1 = embed_graph(g, attempts=10)
    r2 = embed_graph(g, attempts=10)
    assert r1.feasible == r2.feasible
    assert r1.positions == r2.positions
    assert graph_seed(g, 3) == graph_seed(g, 3)
    assert graph_seed(g, 3) != graph_seed(g, 4)


def test_count_admissible_n3():
    assert sum(1 for _, r in admissible_report(3, attempts=60) if r.feasible) == 4


def test_count_admissible_n2_single_edge():
    assert sum(1 for _, r in admissible_report(2, attempts=10) if r.feasible) == 1


def test_bound_chain_small_n():
    for n in (1, 2, 3):
        adm = sum(1 for _, r in admissible_report(n, attempts=60) if r.feasible)
        assert lower_bound(n) <= adm <= connected_count(n) <= upper_bound(n)


def test_census_table_shape():
    rows = census_table(n_max=3, attempts=40)
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[2] == {"n": 3, "upper": 8, "connected": 4, "admissible": 4, "lower": 4}


def test_admissible_report_n4_k4_is_the_unique_failure():
    rep = admissible_report(4, attempts=40)
    infeasible = [g for g, r in rep if not r.feasible]
    assert len(infeasible) == 1
    assert infeasible[0].edges == tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4)
    )


def test_embed_rejects_fewer_than_one_attempt():
    g = LabeledGraph(n=2, edges=((0, 1),))
    for attempts in (0, -3):
        with pytest.raises(ValueError, match="attempts"):
            embed_graph(g, attempts=attempts)
    with pytest.raises(ValueError, match="attempts"):
        embed_graph(LabeledGraph(n=1, edges=()), attempts=0)


def test_census_table_rejects_fewer_than_one_row():
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            census_table(n_max=n_max, attempts=10)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: census_table(n_max=2.0), "n_max"),
        (lambda: census_table(n_max=True), "n_max"),
        (lambda: census_table(n_max=1, attempts=True), "attempts"),
        (lambda: upper_bound(2.5), "n"),
        (lambda: lower_bound(True), "n"),
        (lambda: connected_count(True), "n"),
        (lambda: enumerate_connected(2.0), "n"),
        (lambda: admissible_report("3"), "n"),
        (lambda: embed_graph(LabeledGraph(n=2, edges=((0, 1),)), attempts=1.5), "attempts"),
        (lambda: LabeledGraph(2.0, ((0, 1),)), "n"),
    ],
    ids=[
        "census_table-n_max-float", "census_table-n_max-bool", "census_table-attempts-bool", "upper_bound",
        "lower_bound", "connected_count", "enumerate_connected", "admissible_report", "embed_graph", "LabeledGraph",
    ],
)
def test_integer_arguments_reject_a_bool_or_a_non_integer(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda k: scenario_to_dict(default_head_on_scenario(log_every=k(10))),
        lambda k: census_table(k(2), 20),
        lambda k: census_table(2, k(20)),
        lambda k: (upper_bound(k(3)), lower_bound(k(5)), connected_count(k(4))),
        lambda k: LabeledGraph(n=k(2), edges=((0, 1),)).n,
        lambda k: LabeledGraph(n=3, edges=((k(0), 1), (2, k(1)))),
    ],
    ids=["log_every", "census_table-n_max", "census_table-attempts", "bounds", "LabeledGraph",
         "LabeledGraph-vertex"],
)
def test_integer_arguments_take_a_numpy_integer_as_its_int(call):
    # the same result as with the builtin, down to each value's type (NumPy 2 reprs np.int64(2))
    assert repr(call(np.int64)) == repr(call(int))


def test_max_penny_edges_is_harborths_bound_in_integers():
    assert [max_penny_edges(n) for n in range(1, 7)] == [0, 1, 3, 5, 7, 9]
    for n in range(1, 2001):
        assert max_penny_edges(n) == math.floor(3 * n - math.sqrt(12 * n - 3))


K4 = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


@pytest.mark.parametrize(
    "g, rule",
    [
        (LabeledGraph(n=4, edges=K4), "edge bound"),
        (LabeledGraph(n=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))), None),
        (LabeledGraph(n=5, edges=K4 + ((3, 4),)), "K4"),
        (LabeledGraph(n=5, edges=tuple((u, v) for u in (0, 1) for v in (2, 3, 4))), "K2,3"),
        (LabeledGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3))), None),
        (LabeledGraph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4))), None),
    ],
    ids=["K4", "diamond", "K4-plus-pendant", "K2,3", "C4", "5-path"],
)
def test_obstruction_names_the_rule_and_the_search_agrees(g, rule):
    assert obstruction(g) == rule
    assert embed_graph(g, attempts=40 if rule else 200).feasible == (rule is None)


@st.composite
def graphs_and_relabelings(draw):
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LabeledGraph(n=n, edges=tuple(e for e, k in zip(pairs, keep) if k)), draw(st.permutations(range(n)))


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(graphs_and_relabelings())
def test_canonical_form_is_invariant_under_relabeling(case):
    g, perm = case
    mask, p = canonical_form(g)
    relabeled = LabeledGraph(n=g.n, edges=tuple((perm[u], perm[v]) for u, v in g.edges))
    assert canonical_form(relabeled)[0] == mask
    canonical_edges = {pair for k, pair in enumerate(itertools.combinations(range(g.n), 2)) if mask >> k & 1}
    assert sorted(p) == list(range(g.n))
    assert {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == canonical_edges


def test_every_certificate_agrees_with_the_search_on_one_graph_per_class():
    classes: dict[tuple[int, int], LabeledGraph] = {}
    for n in range(1, 6):
        for g in enumerate_connected(n):
            classes.setdefault((n, canonical_form(g)[0]), g)
    assert Counter(n for n, _ in classes) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}   # OEIS A001349
    certified = 0
    for g in classes.values():
        if obstruction(g):
            certified += 1
            assert not embed_graph(g, attempts=40).feasible, g
        else:
            assert embed_graph(g, attempts=200).feasible, g
    assert certified == 9


def _representatives(report):
    """The first uncertified labeling of each isomorphism class, with its result, by canonical mask."""
    reps = {}
    for g, res in report:
        if obstruction(g) is None:
            reps.setdefault(canonical_form(g)[0], (g, res))
    return reps


def test_one_search_per_class_gives_every_labeling_the_per_labeling_verdict():
    for n in range(1, 5):
        report = admissible_report(n, attempts=200)
        reps = _representatives(report)
        for g, res in report:
            ref = embed_graph(g, attempts=200)
            assert res.feasible == ref.feasible, g
            if obstruction(g) is None:
                _, rep_res = reps[canonical_form(g)[0]]
                assert res.max_violation.hex() == rep_res.max_violation.hex(), g
                assert res.max_violation <= EMBED_TOL and ref.max_violation <= EMBED_TOL, g
                assert _violation_two_loops(g, np.array(res.positions)) <= EMBED_TOL, g
        for rep, rep_res in reps.values():
            assert rep_res == embed_graph(rep, attempts=200), rep


def test_count_admissible_n5_is_decided_in_full():
    report = admissible_report(5, attempts=200)
    assert sum(1 for _, r in report if r.feasible) == 602
    for g, res in report:
        if res.feasible:
            assert _violation_two_loops(g, np.array(res.positions)) <= EMBED_TOL, g
    reps = _representatives(report)
    assert len(reps) == 13
    for rep, rep_res in reps.values():
        assert rep_res == embed_graph(rep, attempts=200), rep
    with pytest.raises(ValueError, match="n <= 5"):
        admissible_report(6)
    with pytest.raises(ValueError, match="n_max"):
        census_table(n_max=6)


def _contact_graph(world: WorldState, params: Params) -> LabeledGraph:
    field = PairField(world, params)
    tol = geometric_tol(params)
    return LabeledGraph(n=world.n, edges=tuple(p for p, h in zip(pair_indices(world.n), field.h) if abs(h) <= tol))


def _family_states():
    params2 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0))
    goals2 = GoalSpec(pd=((2.0, 0.0), (-2.0, 0.0)))
    for alpha in (0.1, 0.5, 0.9):
        yield WorldState(robots=collinear_family(goals2, params2, alpha), t=0.0), params2
    params3 = Params(kp=1.0, kv=3.0, ds=0.5, alpha=(5.0, 5.0, 5.0))
    yield three_robot_family_catA(params3, 2.0)[0], params3
    yield three_robot_family_catB(params3, 2.0)[0], params3
    for theta, alpha_angle in ((-0.3, 0.9), (-0.1, 1.4), (-0.5, 0.6)):
        yield catB_parametrized(params3, 2.0, theta, alpha_angle)[0], params3


def test_deadlocked_family_states_are_witnesses_the_census_counts():
    # a deadlocked state is itself an embedding of its contact graph
    feasible = {n: {g for g, r in admissible_report(n, attempts=200) if r.feasible} for n in (2, 3)}
    graphs = [_contact_graph(world, params) for world, params in _family_states()]
    assert {g.edges for g in graphs} == {((0, 1),), ((0, 1), (0, 2), (1, 2)), ((0, 1), (1, 2))}
    for g in graphs:
        assert obstruction(g) is None
        assert g in feasible[g.n]


@pytest.mark.parametrize(
    "run, edges",
    [("two_robot_resolution_log", ((0, 1),)), ("three_robot_resolution_log", ((0, 1), (0, 2), (1, 2)))],
)
def test_simulated_deadlocks_are_witnesses_the_census_counts(request, run, edges):
    # The contact graph of the record a three-phase run detects its deadlock
    # at, with the tolerance the supervisor classifies contacts with,
    # CLASSIFY_TOL * Ds.  geometric_tol would find no contact in the head-on
    # record: that pair stops 6.7e-3 m off the margin (logged h = 0.365).
    log, _ = request.getfixturevalue(run)
    t = next(e["t"] for e in log.events if e["name"] == "deadlock-detected")
    world = log.world_at(int(np.flatnonzero(log.t == t)[0]))
    ds = log.meta["scenario"]["params"]["ds"]
    contacts = tuple(
        (i, j) for i, j in pair_indices(world.n)
        if abs(math.dist(world.robots[i].p, world.robots[j].p) - ds) <= CLASSIFY_TOL * ds
    )
    g = LabeledGraph(n=world.n, edges=contacts)
    assert g.edges == edges
    assert obstruction(g) is None
    assert g in {h for h, r in admissible_report(g.n, attempts=200) if r.feasible}


# The two-loop residuals and re-check the one-loop pair walk replaced: the
# oracle for bit-identical residuals, Jacobians and violations.
def _violation_two_loops(g: LabeledGraph, pos: np.ndarray) -> float:
    worst = 0.0
    for u, v in g.edges:
        d = float(np.hypot(*(pos[u] - pos[v])))
        worst = max(worst, abs(d - 1.0))
    for u, v in g.non_edges():
        d = float(np.hypot(*(pos[u] - pos[v])))
        worst = max(worst, max(0.0, 1.0 + NONEDGE_MARGIN - d))
    return worst


def _residuals_two_loops(x: np.ndarray, g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    # rows in the pair walk's order: the edges, then the non-edges
    pos = x.reshape(g.n, 2)
    rows = []
    for u, v in g.edges:
        diff = pos[u] - pos[v]
        d = math.hypot(diff[0], diff[1])
        if d < 1e-12:
            d = 1e-12
        rows.append((d - 1.0, u, v, diff / d))
    gap = 1.0 + NONEDGE_MARGIN
    for u, v in g.non_edges():
        diff = pos[u] - pos[v]
        d = math.hypot(diff[0], diff[1])
        if d < 1e-12:
            d = 1e-12
        short = gap - d
        rows.append((-short, u, v, diff / d) if short > 0.0 else None)
    r = np.zeros(len(rows))
    jac = np.zeros((len(rows), x.size))
    for k, row in enumerate(rows):
        if row is not None:   # a longer non-edge keeps its zero residual and row
            r[k], u, v, grad = row
            jac[k, 2 * u:2 * u + 2] = grad
            jac[k, 2 * v:2 * v + 2] = -grad
    return r, jac


GAP = 1.0 + NONEDGE_MARGIN
# points exactly 1 and exactly 1 + NONEDGE_MARGIN apart, drawn often enough to coincide
SPECIAL_POINTS = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (GAP, 0.0), (0.0, -GAP), (1.0, GAP)]


@st.composite
def graphs_and_positions(draw):
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}   # a spanning tree
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= {e for e, keep in zip(others, draw(st.lists(st.booleans(), min_size=len(others),
                                                          max_size=len(others)))) if keep}
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    point = st.one_of(st.sampled_from(SPECIAL_POINTS), st.tuples(coord, coord))
    pos = draw(st.lists(point, min_size=n, max_size=n))
    return LabeledGraph(n=n, edges=tuple(edges)), pos


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


# The example count comes from the hypothesis profile: tests/conftest.py.
@pytest.mark.ci_profile
@settings(deadline=None, database=None)
@given(graphs_and_positions())
# an edge exactly 1 long, a coincident edge, a non-edge exactly 1 and one exactly 1 + NONEDGE_MARGIN long
@example((LabeledGraph(n=4, edges=((0, 1), (1, 2), (2, 3))), [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, GAP)]))
def test_pair_walk_matches_the_two_loop_penalty(case):
    g, points = case
    pos = np.array(points, dtype=float)
    pairs = [(u, v, True) for u, v in g.edges] + [(u, v, False) for u, v in g.non_edges()]
    r, jac = _residuals(pos.ravel(), pairs)
    r_ref, jac_ref = _residuals_two_loops(pos.ravel(), g)
    assert jac.shape == jac_ref.shape == (len(pairs), 2 * g.n)
    assert _hex(r) == _hex(r_ref)
    assert _hex(jac.ravel()) == _hex(jac_ref.ravel())
    assert _violation(pairs, pos).hex() == _violation_two_loops(g, pos).hex()


@pytest.mark.parametrize("max_iter", [_LM_MAX_ITER, 3])
def test_minimize_on_k4_returns_finite_positions_within_its_step_cap(monkeypatch, max_iter):
    # K4 has no embedding, so the search can only stall or run out of steps;
    # each step makes one pass over the pairs, and the start makes one more
    passes = []

    def counted(x, pairs):
        passes.append(x)
        return _residuals(x, pairs)

    monkeypatch.setattr(graphenum, "_LM_MAX_ITER", max_iter)
    monkeypatch.setattr(graphenum, "_residuals", counted)
    g = LabeledGraph(n=4, edges=K4)
    x0 = np.random.default_rng(graph_seed(g, 0)).uniform(-2.0, 2.0, size=8)
    pos = minimize(x0, _pairs(g))
    assert pos.shape == (4, 2) and np.isfinite(pos).all()
    assert 2 <= len(passes) <= max_iter + 1
    if max_iter == 3:
        assert len(passes) == 4


def test_minimize_reaches_a_c4_embedding_from_a_start_near_one():
    g = LabeledGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pairs = _pairs(g)
    assert _violation(pairs, square) == 0.0
    for seed in range(5):
        x0 = square.ravel() + np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=8)
        assert _violation(pairs, x0.reshape(4, 2)) > 1e-4
        assert _violation(pairs, minimize(x0, pairs)) <= 1e-12


@pytest.mark.parametrize("is_edge", [True, False], ids=["edge", "non-edge"])
@pytest.mark.parametrize(
    "pos", [np.full((2, 2), np.nan), np.array([[0.0, 0.0], [np.inf, 0.0]])], ids=["nan", "one-inf"]
)
def test_violation_scores_a_non_finite_distance_as_inf(pos, is_edge):
    assert _violation([(0, 1, is_edge)], pos) == math.inf
