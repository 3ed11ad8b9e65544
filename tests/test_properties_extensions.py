"""Property-based tests for the §5 extensions (hypothesis).

* directed Theorem-1 analogue: intersection answers on unweighted
  digraphs are exact;
* dynamic oracle: any insertion sequence leaves queries identical to a
  frozen-landmark rebuild on the final graph by the per-node reference
  builder;
* partitioned oracle: sharding never changes a distance;
* persistence: save/load is the identity on query behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OracleConfig
from repro.core.directed import DirectedVicinityOracle
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.index import VicinityIndex
from repro.core.oracle import VicinityOracle
from repro.core.parallel import PartitionedOracle
from repro.core.reference import build_reference_index
from repro.graph.builder import digraph_from_arrays, graph_from_arrays
from repro.graph.components import largest_component
from repro.graph.traversal.bfs import bfs_distance
from repro.graph.traversal.vectorized import digraph_bfs_tree_vectorized


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    arcs = draw(st.integers(min_value=n, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return digraph_from_arrays(
        rng.integers(0, n, arcs), rng.integers(0, n, arcs), n=n
    )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    m = draw(st.integers(min_value=n, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    graph = graph_from_arrays(rng.integers(0, n, m), rng.integers(0, n, m), n=n)
    graph, _ = largest_component(graph)
    return graph


@settings(max_examples=25, deadline=None)
@given(small_digraphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_directed_answers_are_exact(graph, seed):
    oracle = DirectedVicinityOracle.build(graph, alpha=2.0, seed=seed, fallback="none")
    for s in range(graph.n):
        truth, _ = digraph_bfs_tree_vectorized(
            graph.out_indptr, graph.out_indices, graph.n, s
        )
        for t in range(graph.n):
            result = oracle.query(s, t)
            if result.distance is not None:
                assert result.distance == int(truth[t]), (s, t, result.method)


@settings(max_examples=15, deadline=None)
@given(
    small_graphs(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=1, max_size=6
    ),
)
def test_dynamic_matches_frozen_rebuild(graph, seed, raw_edges):
    dynamic = DynamicVicinityOracle.build(graph, alpha=2.0, seed=seed)
    for a, b in raw_edges:
        u, v = a % graph.n, b % graph.n
        if u != v and not dynamic.graph.has_edge(u, v):
            dynamic.add_edge(u, v)
    static = VicinityOracle(
        build_reference_index(
            dynamic.graph,
            dynamic.index.config,
            landmarks=dynamic.index.landmarks,
        )
    )
    for s in range(graph.n):
        for t in range(graph.n):
            assert (
                dynamic.query(s, t).distance == static.query(s, t).distance
            ), (s, t)


@settings(max_examples=20, deadline=None)
@given(
    small_graphs(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["hash", "range"]),
)
def test_sharding_is_transparent(graph, seed, shards, placement):
    config = OracleConfig(alpha=2.0, seed=seed, fallback="none")
    index = VicinityIndex.build(graph, config)
    single = VicinityOracle(index)
    sharded = PartitionedOracle(index, shards, placement=placement)
    for s in range(graph.n):
        for t in range(graph.n):
            assert single.query(s, t).distance == sharded.query(s, t).distance


@settings(max_examples=12, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_persistence_is_identity(tmp_path_factory, graph, seed):
    from repro.io.oracle_store import load_index, save_index

    config = OracleConfig(alpha=2.0, seed=seed, fallback="none")
    index = VicinityIndex.build(graph, config)
    path = tmp_path_factory.mktemp("oracle") / "o.npz"
    save_index(index, path)
    restored = VicinityOracle(load_index(path))
    original = VicinityOracle(index)
    for s in range(graph.n):
        for t in range(graph.n):
            a = original.query(s, t)
            b = restored.query(s, t)
            assert a.distance == b.distance and a.method == b.method
