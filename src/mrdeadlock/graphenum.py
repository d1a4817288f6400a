"""Counting and embedding the contact graphs admissible in system deadlock.

An active pairwise constraint is an undirected edge between robot vertices,
so candidate deadlock configurations are connected labeled graphs whose edges
realize distance Ds in the plane and whose non-edges stay strictly farther
apart.  This module provides the exact connected-graph recurrence, the
combinatorial upper/lower bounds, exhaustive enumeration for small N, exact
certificates that a graph has no such realization, and a restart-based
geometric feasibility checker for the rest.  Whether a graph embeds does not
depend on its labels, so the census searches once per isomorphism class and
re-checks the representative's relabeled positions on every other labeling.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np
import scipy

from .core import _positive_int

Edge = tuple[int, int]

# Whether a graph embeds does not depend on Ds, so embeddings use Ds = 1.
NONEDGE_MARGIN = 1e-3   # non-edges must exceed 1 strictly; the optimizer is given this finite gap
EMBED_TOL = 1e-6        # an embedding is feasible once no distance is off by more than this
CENSUS_N_MAX = 5        # every connected graph on n <= 5 vertices is certified or embedded


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph on vertices 0..n-1; edges canonically sorted, no self-loops."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _positive_int(self.n, "n")
        canon = []
        seen = set()
        for u, v in self.edges:
            if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex that is not an int")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def non_edges(self) -> tuple[Edge, ...]:
        present = set(self.edges)
        return tuple(
            (u, v) for u in range(self.n) for v in range(u + 1, self.n) if (u, v) not in present
        )

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of the planar realizability search for one graph."""

    feasible: bool
    positions: tuple[tuple[float, float], ...]
    max_violation: float


def upper_bound(n: int) -> int:
    """All graphs on n labeled vertices: 2^C(n,2)."""
    return 2 ** math.comb(_positive_int(n, "n"), 2)


def lower_bound(n: int) -> int:
    """Closed-form count of regular-polygon and open-chain rearrangements.

    (n+1) (n-1)! / 2 for n >= 3; defined as 1 for n = 1, 2 to match the
    quoted small-n sequence.
    """
    if _positive_int(n, "n") < 3:
        return 1
    return (n + 1) * math.factorial(n - 1) // 2


def connected_count(n: int) -> int:
    """Exact number of connected graphs on n labeled vertices.

    d_N = 2^C(N,2) - (1/N) sum_{k=1}^{N-1} k C(N,k) 2^C(N-k,2) d_k
    evaluated in integers: each sum is divided by N exactly, and a nonzero
    remainder at any step raises ArithmeticError.
    """
    d = [0, 1]
    for m in range(2, _positive_int(n, "n") + 1):
        acc = sum(k * math.comb(m, k) * 2 ** math.comb(m - k, 2) * d[k] for k in range(1, m))
        quotient, remainder = divmod(acc, m)
        if remainder:
            raise ArithmeticError(f"recurrence produced a non-integer count for n={m}")
        d.append(2 ** math.comb(m, 2) - quotient)
    return d[n]


def enumerate_connected(n: int) -> list[LabeledGraph]:
    """All connected labeled graphs on n vertices, by exhaustive subset search.

    Deterministic order: ascending bitmask over the lexicographically sorted
    pair list.  Limited to n <= 6 (2^15 subsets).
    """
    if _positive_int(n, "n") > 6:
        raise ValueError("exhaustive enumeration is limited to n <= 6")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out: list[LabeledGraph] = []
    for mask in range(2 ** len(pairs)):
        edges = tuple(pairs[b] for b in range(len(pairs)) if mask >> b & 1)
        g = LabeledGraph(n=n, edges=edges)
        if g.is_connected():
            out.append(g)
    return out


def graph_seed(g: LabeledGraph, attempt: int) -> int:
    """Deterministic per-(graph, attempt) RNG seed."""
    key = f"{g.n}:{g.edges}".encode()
    return (zlib.crc32(key) << 16) ^ attempt


def max_penny_edges(n: int) -> int:
    """Most edges of a penny graph on n >= 1 vertices: floor(3n - sqrt(12n - 3)) (Harborth 1974)."""
    return 3 * n - (math.isqrt(12 * n - 4) + 1)   # ceil(sqrt(k)) = isqrt(k - 1) + 1


def obstruction(g: LabeledGraph) -> str | None:
    """The first exact rule that proves g has no embedding, or None if none fires.

    An embedding makes g a penny graph: equal disks touching along the edges
    and overlapping nowhere.  "edge bound": more than max_penny_edges(n) edges.
    "K4": four pairwise adjacent vertices, but no four points are pairwise 1
    apart.  "K2,3": two vertices with three common neighbours, but two unit
    circles meet in at most two points (Erdos 1946).
    """
    if len(g.edges) > max_penny_edges(g.n):
        return "edge bound"
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    if any(adj[w] & adj[u] & adj[v] for u, v in g.edges for w in adj[u] & adj[v]):
        return "K4"
    if any(len(adj[u] & adj[v]) >= 3 for u, v in itertools.combinations(range(g.n), 2)):
        return "K2,3"
    return None


def canonical_form(g: LabeledGraph) -> tuple[int, tuple[int, ...]]:
    """The smallest edge bitmask over all relabelings of g, and a relabeling p that reaches it.

    Vertex v of g is vertex p[v] of the canonical graph, so two graphs on n
    vertices have equal masks exactly when they are isomorphic.
    """
    bit = {pair: 1 << k for k, pair in enumerate(itertools.combinations(range(g.n), 2))}
    return min(
        (sum(bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in g.edges), p)
        for p in itertools.permutations(range(g.n))
    )


def _pairs(g: LabeledGraph) -> list[tuple[int, int, bool]]:
    """g's vertex pairs as (u, v, is_edge), edges first."""
    return [(u, v, True) for u, v in g.edges] + [(u, v, False) for u, v in g.non_edges()]


def _violation(pairs: list[tuple[int, int, bool]], pos: np.ndarray) -> float:
    worst = 0.0
    for u, v, is_edge in pairs:
        d = float(np.hypot(*(pos[u] - pos[v])))
        if not math.isfinite(d):
            return math.inf
        err = d - (1.0 if is_edge else 1.0 + NONEDGE_MARGIN)
        if is_edge or err < 0.0:
            worst = max(worst, abs(err))
    return worst


def _objective(x: np.ndarray, pairs: list[tuple[int, int, bool]]) -> tuple[float, np.ndarray]:
    """Sum of squared pair residuals and its gradient in the flat positions x.

    The residual is d - 1 on an edge and d - (1 + NONEDGE_MARGIN) on a shorter
    non-edge, with d floored at 1e-12; a longer non-edge adds nothing.
    """
    pos = x.reshape(-1, 2)
    f = 0.0
    grad = np.zeros_like(pos)
    for u, v, is_edge in pairs:
        diff = pos[u] - pos[v]
        d = max(math.hypot(diff[0], diff[1]), 1e-12)
        err = d - (1.0 if is_edge else 1.0 + NONEDGE_MARGIN)
        if is_edge or err < 0.0:
            f += err * err
            gvec = (2.0 * err / d) * diff
            grad[u] += gvec
            grad[v] -= gvec
    return f, grad.ravel()


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, which loads scipy.optimize on the first call; one call per restart."""
    return scipy.optimize.minimize(*args, **kwargs)


def embed_graph(g: LabeledGraph, attempts: int = 200) -> EmbeddingResult:
    """Search for planar positions with edge distances 1 and non-edges > 1.

    Penalized least squares over the vertex pairs, edges first, from
    ``attempts`` (>= 1) seeded random restarts; feasibility is declared from a
    post-hoc re-check of all pairwise distances, independent of the
    optimizer's own residual.  The best restart is returned, the first within
    EMBED_TOL ends the search, and infeasibility is probabilistic: it is only
    reported after every restart fails.
    """
    _positive_int(attempts, "attempts")
    if not g.is_connected():
        raise ValueError("embed_graph expects a connected graph")
    if g.n == 1:
        return EmbeddingResult(feasible=True, positions=((0.0, 0.0),), max_violation=0.0)

    pairs = _pairs(g)
    best, best_pos = math.inf, None
    span = max(1.0, math.sqrt(g.n))
    for attempt in range(attempts):
        rng = np.random.default_rng(graph_seed(g, attempt))
        x0 = rng.uniform(-span, span, size=2 * g.n)
        res = minimize(
            _objective,
            x0,
            args=(pairs,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
        )
        pos = res.x.reshape(g.n, 2)
        worst = _violation(pairs, pos)
        if best_pos is None or worst < best:
            best, best_pos = worst, pos
        if worst <= EMBED_TOL:
            break
    return EmbeddingResult(
        feasible=best <= EMBED_TOL,
        positions=tuple((float(p[0]), float(p[1])) for p in best_pos),
        max_violation=best,
    )


def admissible_report(n: int, attempts: int = 200) -> list[tuple[LabeledGraph, EmbeddingResult]]:
    """Embedding verdict for every connected labeled graph on n <= CENSUS_N_MAX vertices.

    A graph that `obstruction` certifies is infeasible, with no positions and
    an infinite violation, without a search: that "not admissible" is a proof.
    The first other graph of each isomorphism class (by `canonical_form`)
    gets `embed_graph`'s verdict, whose "not admissible" only means that every
    restart failed.  Each later labeling gets the representative's positions
    on its own vertices, re-checked by `_violation` over its own pairs.
    """
    if _positive_int(n, "n") > CENSUS_N_MAX:
        raise ValueError(f"the admissibility census is limited to n <= {CENSUS_N_MAX}")
    certified = EmbeddingResult(feasible=False, positions=(), max_violation=math.inf)
    placed: dict[int, np.ndarray] = {}   # canonical mask -> its representative's positions, canonically labeled
    report = []
    for g in enumerate_connected(n):
        if obstruction(g):
            report.append((g, certified))
            continue
        mask, p = canonical_form(g)
        if mask in placed:
            pos = placed[mask][list(p)]
            worst = _violation(_pairs(g), pos)
            res = EmbeddingResult(worst <= EMBED_TOL, tuple(map(tuple, pos.tolist())), worst)
        else:
            res = embed_graph(g, attempts)
            placed[mask] = np.array(res.positions)[np.argsort(p)]
        report.append((g, res))
    return report


def census_table(n_max: int = 4, attempts: int = 200) -> list[dict]:
    """Rows of the enumeration table for n = 1..n_max (1..CENSUS_N_MAX): n, upper, connected, admissible, lower."""
    if _positive_int(n_max, "n_max") > CENSUS_N_MAX:
        raise ValueError(f"n_max must be in 1..{CENSUS_N_MAX}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            {
                "n": n,
                "upper": upper_bound(n),
                "connected": connected_count(n),
                "admissible": sum(1 for _, res in admissible_report(n, attempts) if res.feasible),
                "lower": lower_bound(n),
            }
        )
    return rows
