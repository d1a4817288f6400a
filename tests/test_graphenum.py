"""Contact-graph counting, enumeration and planar embedding."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from mrdeadlock import (
    LabeledGraph,
    connected_count,
    count_admissible,
    embed_graph,
    enumerate_connected,
    lower_bound,
    upper_bound,
)
from mrdeadlock.graphenum import admissible_report, census_table, graph_seed


def test_connected_count_small_values():
    assert [connected_count(n) for n in (1, 2, 3, 4)] == [1, 1, 4, 38]


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
