"""Property-based tests (hypothesis) for the paper's core claims.

These machine-check, over arbitrary random graphs and landmark sets:

* **Theorem 1** — whenever two vicinities intersect, the minimum of
  ``d(s, w) + d(w, t)`` over the intersection equals ``d(s, t)``
  (unweighted graphs; any per-node radius, covering the floor
  extension);
* **Lemma 1** — the boundary-restricted scan finds the same minimum;
* **Definition 1 characterisation** — ``Gamma(u) = {v : d(u,v) <= r(u)}``
  on unweighted graphs;
* **oracle exactness** — every produced distance matches BFS, and every
  produced path is a real shortest path;
* **weighted upper bound** — weighted vicinity answers never
  underestimate;
* **builder canonicalisation** — CSR invariants survive arbitrary edge
  lists.

The index-level properties draw their builder too: the offline build
and the per-node reference builder
(:func:`repro.core.reference.build_reference_index`) must both satisfy
them on the same landmark set.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import OracleConfig
from repro.core.index import VicinityIndex
from repro.core.intersect import run_kernel
from repro.core.landmarks import landmark_set_from_ids
from repro.core.oracle import VicinityOracle
from repro.core.reference import build_reference_index
from repro.graph.builder import graph_from_arrays
from repro.graph.components import largest_component
from repro.graph.traversal.bfs import bfs_distance, bfs_distances
from repro.graph.traversal.bounded import truncated_bfs_ball
from repro.graph.traversal.dijkstra import dijkstra_distances


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, max_nodes=28, weighted=False):
    """A connected graph (largest component of a random multigraph)."""
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    m = draw(st.integers(min_value=n, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.uniform(0.25, 3.0, m) if weighted else None
    graph = graph_from_arrays(src, dst, n=n, weights=weights)
    graph, _ = largest_component(graph)
    return graph


@st.composite
def graphs_with_landmarks(draw, weighted=False):
    """A connected graph plus a non-empty landmark subset."""
    graph = draw(connected_graphs(weighted=weighted))
    k = draw(st.integers(min_value=1, max_value=max(1, graph.n // 3)))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return graph, landmark_set_from_ids(graph, ids, alpha=4.0)


# ----------------------------------------------------------------------
# Definition 1 characterisation
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graphs_with_landmarks())
def test_gamma_equals_radius_ball(case):
    graph, landmarks = case
    flags = landmarks.is_landmark
    for u in range(graph.n):
        if flags[u]:
            continue
        ball = truncated_bfs_ball(graph, u, flags)
        dist = bfs_distances(graph, u)
        assert ball.radius == min(
            int(dist[l]) for l in landmarks.ids.tolist() if dist[l] >= 0
        )
        expected = {v for v in range(graph.n) if 0 <= dist[v] <= ball.radius}
        assert set(ball.gamma) == expected


# ----------------------------------------------------------------------
# Theorem 1 + Lemma 1
# ----------------------------------------------------------------------
#: Both offline builders, keyed for hypothesis to draw from.
BUILDERS = {
    "build": VicinityIndex.from_landmarks,
    "reference": lambda graph, config, landmarks: build_reference_index(
        graph, config, landmarks=landmarks
    ),
}
builders = st.sampled_from(sorted(BUILDERS))


def _build_index(graph, landmarks, builder, floor=0.0):
    config = OracleConfig(
        alpha=4.0, probability_scale=1.0, fallback="none", vicinity_floor=floor
    )
    return BUILDERS[builder](graph, config, landmarks)


@settings(max_examples=40, deadline=None)
@given(graphs_with_landmarks(), st.sampled_from([0.0, 0.5]), builders)
def test_theorem_1_intersection_minimum_is_exact(case, floor, builder):
    graph, landmarks = case
    index = _build_index(graph, landmarks, builder, floor=floor)
    flags = landmarks.is_landmark
    for s in range(graph.n):
        if flags[s]:
            continue
        vic_s = index.vicinity(s)
        dist_s = bfs_distances(graph, s)
        for t in range(s + 1, graph.n):
            if flags[t]:
                continue
            vic_t = index.vicinity(t)
            common = vic_s.members & vic_t.members
            if not common:
                continue
            best = min(vic_s.dist[w] + vic_t.dist[w] for w in common)
            assert best == dist_s[t], (s, t)


@settings(max_examples=40, deadline=None)
@given(graphs_with_landmarks(), builders)
def test_lemma_1_boundary_scan_is_sufficient(case, builder):
    graph, landmarks = case
    index = _build_index(graph, landmarks, builder)
    flags = landmarks.is_landmark
    for s in range(graph.n):
        if flags[s]:
            continue
        vic_s = index.vicinity(s)
        for t in range(s + 1, graph.n):
            if flags[t]:
                continue
            vic_t = index.vicinity(t)
            # Lemma 1's precondition: neither endpoint inside the other.
            if t in vic_s.members or s in vic_t.members:
                continue
            full_best, _, _ = run_kernel("full-source", vic_s, vic_t)
            boundary_best, _, _ = run_kernel("boundary-source", vic_s, vic_t)
            assert boundary_best == full_best, (s, t)


# ----------------------------------------------------------------------
# Oracle end-to-end exactness
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    connected_graphs(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["none", "bidirectional"]),
)
def test_oracle_distance_matches_bfs(graph, seed, fallback):
    config = OracleConfig(alpha=2.0, seed=seed, fallback=fallback)
    oracle = VicinityOracle.build(graph, config=config)
    for s in range(0, graph.n, max(1, graph.n // 6)):
        truth = bfs_distances(graph, s)
        for t in range(graph.n):
            result = oracle.query(s, t)
            if result.distance is not None:
                assert result.distance == truth[t]
            elif fallback == "bidirectional":
                assert truth[t] < 0  # only disconnection may go unanswered


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_oracle_paths_are_shortest_walks(graph, seed):
    config = OracleConfig(alpha=2.0, seed=seed, fallback="bidirectional")
    oracle = VicinityOracle.build(graph, config=config)
    rng = np.random.default_rng(seed)
    for _ in range(15):
        s, t = (int(x) for x in rng.integers(0, graph.n, 2))
        result = oracle.query(s, t, with_path=True)
        if result.path is None:
            continue
        assert result.path[0] == s and result.path[-1] == t
        assert len(result.path) - 1 == result.distance
        for a, b in zip(result.path, result.path[1:]):
            assert graph.has_edge(a, b)
        assert result.distance == bfs_distance(graph, s, t)


# ----------------------------------------------------------------------
# Weighted graphs: the surviving guarantee
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(graphs_with_landmarks(weighted=True), builders)
def test_weighted_intersection_never_underestimates(case, builder):
    graph, landmarks = case
    config = OracleConfig(alpha=4.0, probability_scale=1.0, fallback="none")
    index = BUILDERS[builder](graph, config, landmarks)
    oracle = VicinityOracle(index)
    for s in range(0, graph.n, max(1, graph.n // 5)):
        truth = dijkstra_distances(graph, s)
        for t in range(graph.n):
            result = oracle.query(s, t)
            if result.distance is not None:
                assert result.distance >= truth[t] - 1e-9


# ----------------------------------------------------------------------
# Builder canonicalisation
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
)
def test_builder_invariants(n, edges):
    edges = [(u % n, v % n) for u, v in edges]
    graph = graph_from_arrays(
        np.asarray([u for u, _ in edges], dtype=np.int64),
        np.asarray([v for _, v in edges], dtype=np.int64),
        n=n,
    )
    graph.validate()  # symmetry, sortedness, no loops, no duplicates
    simple = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    assert graph.num_edges == len(simple)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(weighted=True))
def test_weighted_ball_distances_are_true_distances(graph):
    from repro.graph.traversal.bounded import truncated_dijkstra_ball

    flags = bytearray(graph.n)
    flags[graph.n - 1] = 1
    source = 0
    if flags[source]:
        return
    ball = truncated_dijkstra_ball(graph, source, flags)
    truth = dijkstra_distances(graph, source)
    for v, d in ball.dist.items():
        assert abs(d - truth[v]) < 1e-9
