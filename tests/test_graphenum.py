"""Contact-graph counting, enumeration and planar embedding."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdeadlock import (
    LabeledGraph,
    connected_count,
    count_admissible,
    embed_graph,
    enumerate_connected,
    lower_bound,
    upper_bound,
)
from mrdeadlock.graphenum import (
    NONEDGE_MARGIN,
    _objective,
    _violation,
    admissible_report,
    census_table,
    graph_seed,
)


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


def test_labeled_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph(n=3, edges=((0, 0),))
    with pytest.raises(ValueError):
        LabeledGraph(n=2, edges=((0, 2),))
    with pytest.raises(ValueError):
        LabeledGraph(n=3, edges=((0, 1), (1, 0)))
    g = LabeledGraph(n=3, edges=((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))  # canonical sort


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
    assert count_admissible(3, attempts=60) == 4


def test_count_admissible_n2_single_edge():
    assert count_admissible(2, attempts=10) == 1


def test_bound_chain_small_n():
    for n in (1, 2, 3):
        adm = count_admissible(n, attempts=60)
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


# The two-loop penalty and re-check the one-loop pair walk replaced: the oracle
# for bit-identical objective values, gradients and violations.
def _violation_two_loops(g: LabeledGraph, pos: np.ndarray) -> float:
    worst = 0.0
    for u, v in g.edges:
        d = float(np.hypot(*(pos[u] - pos[v])))
        worst = max(worst, abs(d - 1.0))
    for u, v in g.non_edges():
        d = float(np.hypot(*(pos[u] - pos[v])))
        worst = max(worst, max(0.0, 1.0 + NONEDGE_MARGIN - d))
    return worst


def _objective_two_loops(x: np.ndarray, g: LabeledGraph) -> tuple[float, np.ndarray]:
    pos = x.reshape(g.n, 2)
    f = 0.0
    grad = np.zeros_like(pos)
    for u, v in g.edges:
        diff = pos[u] - pos[v]
        d = math.hypot(diff[0], diff[1])
        if d < 1e-12:
            d = 1e-12
        err = d - 1.0
        f += err * err
        gvec = (2.0 * err / d) * diff
        grad[u] += gvec
        grad[v] -= gvec
    gap = 1.0 + NONEDGE_MARGIN
    for u, v in g.non_edges():
        diff = pos[u] - pos[v]
        d = math.hypot(diff[0], diff[1])
        if d < 1e-12:
            d = 1e-12
        short = gap - d
        if short > 0.0:
            f += short * short
            gvec = (-2.0 * short / d) * diff
            grad[u] += gvec
            grad[v] -= gvec
    return f, grad.ravel()


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
@settings(deadline=None, database=None)
@given(graphs_and_positions())
# an edge exactly 1 long, a coincident edge, a non-edge exactly 1 and one exactly 1 + NONEDGE_MARGIN long
@example((LabeledGraph(n=4, edges=((0, 1), (1, 2), (2, 3))), [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, GAP)]))
def test_pair_walk_matches_the_two_loop_penalty(case):
    g, points = case
    pos = np.array(points, dtype=float)
    pairs = [(u, v, True) for u, v in g.edges] + [(u, v, False) for u, v in g.non_edges()]
    f, grad = _objective(pos.ravel(), pairs)
    f_ref, grad_ref = _objective_two_loops(pos.ravel(), g)
    assert float(f).hex() == float(f_ref).hex()
    assert _hex(grad) == _hex(grad_ref)
    assert _violation(pairs, pos).hex() == _violation_two_loops(g, pos).hex()
