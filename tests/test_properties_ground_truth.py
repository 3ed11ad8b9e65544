"""Ground truth for the default offline build (hypothesis).

Parity suites pin the offline build against the per-node reference
builder; this module pins it against the exact baselines instead
(:mod:`repro.baselines.exact`), so a defect both builders share still
fails here.  Over random small graphs — unweighted and weighted, often
disconnected — and on every available kernel tier:

* every answer of ``VicinityOracle.build(...)`` that claims exactness
  equals BFS (unweighted) or Dijkstra (weighted); on weighted graphs
  the intersection rung is only an upper bound (the documented
  Definition 1 caveat), so it must never underestimate;
* the fused batch lanes give the same answers as per-pair queries,
  including batches of every size from 1 to 64 with repeated and
  ``s == t`` pairs;
* with ``with_path=True`` every returned path is a real graph path
  from ``s`` to ``t`` whose length is the stated distance;
* a default-built :class:`DynamicVicinityOracle` still equals BFS on
  the updated graph after random ``add_edge`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.exact import BFSBaseline, DijkstraBaseline
from repro.core import _native
from repro.core.config import OracleConfig
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.flat import FlatIndex
from repro.core.oracle import VicinityOracle
from repro.graph.builder import graph_from_arrays

TIERS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            _native.load_library() is None,
            reason="compiled kernel extension not built",
        ),
    ),
]


@st.composite
def small_graphs(draw, weighted=False):
    """A random multigraph canonicalised to CSR, kept whole: sparse
    draws leave several components and isolated nodes."""
    n = draw(st.integers(min_value=2, max_value=26))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.25, 3.0, m) if weighted else None
    return graph_from_arrays(
        rng.integers(0, n, m), rng.integers(0, n, m), n=n, weights=weights
    )


@st.composite
def built_oracles(draw):
    weighted = draw(st.booleans())
    graph = draw(small_graphs(weighted=weighted))
    config = OracleConfig(
        alpha=draw(st.sampled_from([1.0, 2.0, 4.0])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        fallback=draw(st.sampled_from(["none", "bidirectional"])),
        vicinity_floor=0.0 if weighted else draw(st.sampled_from([0.0, 0.75])),
        landmark_per_component=draw(st.booleans()),
    )
    return VicinityOracle.build(graph, config=config)


def with_tier(oracle, tier):
    """Pin the tier on the index's probe arrays before the engine binds."""
    FlatIndex.from_index(oracle.index).set_kernels(tier)
    assert oracle.engine.kernels == tier
    return oracle


def truth_of(graph):
    baseline = DijkstraBaseline(graph) if graph.is_weighted else BFSBaseline(graph)
    return {
        (s, t): baseline.distance(s, t)
        for s in range(graph.n)
        for t in range(graph.n)
    }


def check_answer(result, truth, weighted, fallback):
    want = truth[(result.source, result.target)]
    if result.distance is None:
        if result.method == "disconnected":
            assert want is None, result
        else:
            # Only a miss without a fallback may leave a pair unanswered.
            assert result.method == "miss" and fallback == "none", result
        return
    assert want is not None, result
    if weighted and result.method == "intersection":
        assert result.distance >= want - 1e-9, (result, want)
    elif weighted:
        assert abs(result.distance - want) <= 1e-9, (result, want)
    else:
        assert result.distance == want, (result, want)


def path_length(graph, path):
    if not graph.is_weighted:
        return len(path) - 1
    return sum(graph.edge_weight(a, b) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=60, deadline=None)
@given(built_oracles())
def test_every_exact_answer_matches_the_baseline(tier, oracle):
    oracle = with_tier(oracle, tier)
    graph = oracle.graph
    config = oracle.config
    truth = truth_of(graph)
    pairs = list(truth)
    single = [oracle.query(s, t) for s, t in pairs]
    for result in single:
        check_answer(result, truth, graph.is_weighted, config.fallback)
    batch = oracle.query_batch(pairs)
    for got, want in zip(batch, single):
        assert (got.distance, got.method) == (want.distance, want.method)


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=60, deadline=None)
@given(built_oracles(), st.data())
def test_batches_of_every_size_match_the_baseline(tier, oracle, data):
    """Batches of 1..64 pairs drawn from a small pool, so repeats and
    ``s == t`` pairs are common, answer exactly as per-pair queries."""
    oracle = with_tier(oracle, tier)
    graph = oracle.graph
    config = oracle.config
    truth = truth_of(graph)
    node = st.integers(min_value=0, max_value=graph.n - 1)
    pool = data.draw(
        st.lists(
            st.one_of(st.tuples(node, node), node.map(lambda u: (u, u))),
            min_size=1,
            max_size=12,
        )
    )
    pairs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=64))
    batch = oracle.query_batch(pairs)
    assert len(batch) == len(pairs)
    for (s, t), result in zip(pairs, batch):
        assert (result.source, result.target) == (s, t)
        check_answer(result, truth, graph.is_weighted, config.fallback)
        single = oracle.query(s, t)
        assert (
            result.distance, type(result.distance), result.method,
            result.witness, result.probes,
        ) == (
            single.distance, type(single.distance), single.method,
            single.witness, single.probes,
        )


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=40, deadline=None)
@given(built_oracles())
def test_paths_are_real_paths_of_the_stated_length(tier, oracle):
    oracle = with_tier(oracle, tier)
    graph = oracle.graph
    for s in range(graph.n):
        for t in range(graph.n):
            result = oracle.query(s, t, with_path=True)
            if result.path is None:
                assert result.distance is None, result
                continue
            path = result.path
            assert path[0] == s and path[-1] == t, result
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b), (result, a, b)
            assert abs(path_length(graph, path) - result.distance) <= 1e-9, result


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=40, deadline=None)
@given(
    small_graphs(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=1, max_size=6
    ),
)
def test_dynamic_oracle_matches_bfs_after_insertions(tier, graph, seed, raw_edges):
    dynamic = DynamicVicinityOracle.build(graph, alpha=2.0, seed=seed)
    FlatIndex.from_index(dynamic.index).set_kernels(tier)
    for a, b in raw_edges:
        u, v = a % graph.n, b % graph.n
        if u != v and not dynamic.graph.has_edge(u, v):
            assert dynamic.add_edge(u, v)
    assert dynamic._oracle.engine.kernels == tier  # survives every repair
    baseline = BFSBaseline(dynamic.graph)
    for s in range(graph.n):
        for t in range(graph.n):
            assert dynamic.distance(s, t) == baseline.distance(s, t), (s, t)
