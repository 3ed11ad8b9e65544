"""dict↔flat parity: the engine must replicate the retired dict paths.

Property-style suites asserting identical :class:`QueryResult` fields —
distance, method, witness, probes, path — between
:class:`~repro.core.engine.FlatQueryEngine` (the canonical read path)
over the offline build and :mod:`repro.core.reference` (the dict probe
paths, preserved verbatim) over the per-node reference build of the
same graph, config and landmark set, across random graphs (weighted
and unweighted), every kernel, directed mode, and post-insertion
dynamic repair.
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.engine import (
    ORDER_EXACT_KERNELS,
    FlatQueryEngine,
    QueryEngine,
    ShardQueryEngine,
)
from repro.core.flat import FlatIndex, flatten_index
from repro.core.oracle import VicinityOracle
from repro.core.reference import (
    DictReferenceOracle,
    build_reference_directed,
    build_reference_index,
    directed_reference_resolve,
)
from repro.exceptions import NodeNotFoundError, QueryError

from tests.conftest import random_connected_graph, reference_twin


def fields(result):
    return (
        result.source, result.target, result.distance,
        result.method, result.witness, result.probes, result.path,
    )


def assert_field_identical(got, want, *, exact_witness=True, context=None):
    if exact_witness:
        assert fields(got) == fields(want), context
    else:
        # full-* kernels scan sorted member ids instead of dict order,
        # so a distance tie may elect a different (equally minimal)
        # witness; everything order-independent must still agree.
        assert (got.distance, got.method, got.probes) == (
            want.distance, want.method, want.probes
        ), context


def random_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(count)]


@pytest.fixture(
    scope="module", params=[False, True], ids=["unweighted", "weighted"]
)
def built(request):
    graph = random_connected_graph(220, 640, seed=33, weighted=request.param)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
    )
    return oracle.index


@pytest.fixture(scope="module")
def twin(built):
    """The per-node reference build of ``built`` (same graph, config, L)."""
    return reference_twin(built)


def dict_reference(twin, index):
    """The dict resolver over ``twin``, following ``index``'s current
    config (the suites below switch kernels on the shared fixture)."""
    twin.config = index.config
    return DictReferenceOracle(twin)


class TestSinglePairParity:
    @pytest.mark.parametrize(
        "kernel",
        ["boundary-source", "boundary-target", "boundary-smaller",
         "full-source", "full-smaller"],
    )
    def test_all_fields_match_reference(self, built, twin, kernel):
        index = built
        index.config = index.config.with_updates(kernel=kernel)
        reference = dict_reference(twin, index)
        engine = FlatQueryEngine.from_index(index)
        exact = kernel in ORDER_EXACT_KERNELS
        for s, t in random_pairs(index.n, 500, seed=9):
            got = engine.resolve(s, t, False)
            want = reference.query(s, t)
            assert_field_identical(
                got, want, exact_witness=exact, context=(kernel, s, t)
            )

    def test_paths_match_reference(self, built, twin):
        index = built
        index.config = index.config.with_updates(kernel="boundary-smaller")
        reference = dict_reference(twin, index)
        engine = FlatQueryEngine.from_index(index)
        for s, t in random_pairs(index.n, 250, seed=10):
            got = engine.resolve(s, t, True)
            want = reference.query(s, t, with_path=True)
            assert fields(got) == fields(want), (s, t)

    def test_oracle_query_is_engine_backed_and_identical(self, built):
        """The public oracle (fallback included) still equals the dict
        reference on every field."""
        graph = random_connected_graph(160, 380, seed=41)
        config = OracleConfig(alpha=0.5, seed=3, fallback="bidirectional")
        oracle = VicinityOracle.build(graph, config=config)
        reference = DictReferenceOracle(reference_twin(oracle.index))
        methods = set()
        for s, t in random_pairs(graph.n, 300, seed=11):
            got = oracle.query(s, t, with_path=True)
            want = reference.query(s, t, with_path=True)
            assert fields(got) == fields(want), (s, t)
            methods.add(got.method)
        assert "fallback" in methods  # alpha=1/2 must miss sometimes


class TestBatchParity:
    def test_batch_equals_single_resolution(self, built):
        engine = FlatQueryEngine.from_index(built)
        pairs = random_pairs(built.n, 400, seed=12)
        pairs += pairs[:100]  # duplicate tail drives the fused dedup
        batch = engine.query_batch(pairs)
        for (s, t), got in zip(pairs, batch):
            want = engine.resolve(s, t, False)
            assert fields(got) == fields(want), (s, t)

    def test_batch_with_paths_matches_dict_batch(self, built, twin):
        index = built
        index.config = index.config.with_updates(kernel="boundary-smaller")
        reference = dict_reference(twin, index)
        engine = FlatQueryEngine.from_index(index)
        pairs = random_pairs(index.n, 200, seed=13)
        got = engine.query_batch(pairs, with_path=True)
        want = reference.query_batch(pairs, with_path=True)
        for g, w in zip(got, want):
            assert fields(g) == fields(w)

    def test_landmark_lane_probe_constants(self, built):
        """Batch landmark lanes must report the same probe constants as
        the per-pair dispatch (2 for condition (1), 3 for (2))."""
        engine = FlatQueryEngine.from_index(built)
        landmark = int(built.landmarks.ids[0])
        flags = built.landmarks.is_landmark
        plain = next(u for u in range(built.n) if not flags[u])
        batch = engine.query_batch(
            [(landmark, plain), (plain, landmark), (landmark, landmark)]
        )
        assert [r.method for r in batch] == [
            "landmark-source", "landmark-target", "identical"
        ]
        assert [r.probes for r in batch] == [2, 3, 0]

    def test_validation_matches_oracle(self, built):
        engine = FlatQueryEngine.from_index(built)
        with pytest.raises(NodeNotFoundError):
            engine.query(0, built.n)
        with pytest.raises(NodeNotFoundError):
            engine.query_batch([(0, 1), (-3, 2)])

    def test_store_paths_false_strict(self):
        graph = random_connected_graph(80, 200, seed=4)
        config = OracleConfig(alpha=4.0, seed=2, store_paths=False, fallback="none")
        oracle = VicinityOracle.build(graph, config=config)
        engine = FlatQueryEngine.from_index(oracle.index)
        with pytest.raises(QueryError, match="store_paths"):
            engine.query_batch([(0, 1)], with_path=True)


class TestKernelTierParity:
    """The compiled tier must match the dict reference wherever the
    numpy tier does — same fields, same witness rules per kernel."""

    @pytest.fixture(
        params=["numpy", "native"], ids=["numpy", "native"]
    )
    def tier(self, request):
        from repro.core import _native

        if request.param == "native" and _native.load_library() is None:
            pytest.skip("compiled kernel extension not built")
        return request.param

    @pytest.mark.parametrize(
        "kernel",
        ["boundary-source", "boundary-target", "boundary-smaller",
         "full-source", "full-smaller"],
    )
    def test_all_fields_match_reference(self, built, twin, tier, kernel):
        index = built
        index.config = index.config.with_updates(kernel=kernel)
        reference = dict_reference(twin, index)
        engine = FlatQueryEngine.from_index(index, kernels=tier)
        assert engine.kernels == tier
        exact = kernel in ORDER_EXACT_KERNELS
        for s, t in random_pairs(index.n, 300, seed=9):
            got = engine.resolve(s, t, False)
            want = reference.query(s, t)
            assert_field_identical(
                got, want, exact_witness=exact, context=(tier, kernel, s, t)
            )

    def test_paths_match_reference(self, built, twin, tier):
        index = built
        index.config = index.config.with_updates(kernel="boundary-smaller")
        reference = dict_reference(twin, index)
        engine = FlatQueryEngine.from_index(index, kernels=tier)
        for s, t in random_pairs(index.n, 150, seed=10):
            got = engine.resolve(s, t, True)
            want = reference.query(s, t, with_path=True)
            assert fields(got) == fields(want), (tier, s, t)


class TestDirectedParity:
    @pytest.fixture(scope="class")
    def directed_oracle(self):
        from repro.core.directed import DirectedVicinityOracle
        from repro.graph.builder import digraph_from_arrays

        rng = np.random.default_rng(17)
        n, m = 150, 700
        graph = digraph_from_arrays(
            rng.integers(0, n, m), rng.integers(0, n, m), n=n
        )
        oracle = DirectedVicinityOracle.build(graph, alpha=2.0, seed=5)
        reference = build_reference_directed(graph, alpha=2.0, seed=5)
        assert np.array_equal(oracle.landmark_ids, reference.landmark_ids)
        return oracle, reference

    def test_engine_matches_dict_resolve(self, directed_oracle):
        oracle, reference = directed_oracle
        for s, t in random_pairs(oracle.graph.n, 400, seed=19):
            got = oracle.engine.resolve(s, t, False)
            want = directed_reference_resolve(reference, s, t)
            assert fields(got) == fields(want), (s, t)

    def test_engine_paths_match_dict_resolve(self, directed_oracle):
        oracle, reference = directed_oracle
        for s, t in random_pairs(oracle.graph.n, 200, seed=20):
            got = oracle.engine.resolve(s, t, True)
            want = directed_reference_resolve(reference, s, t, with_path=True)
            assert fields(got) == fields(want), (s, t)

    def test_batch_matches_per_pair_query(self, directed_oracle):
        oracle, _ = directed_oracle
        pairs = random_pairs(oracle.graph.n, 300, seed=21)
        batch = oracle.query_batch(pairs)
        for (s, t), got in zip(pairs, batch):
            want = oracle.query(s, t)
            assert fields(got) == fields(want), (s, t)


class TestDynamicRepairParity:
    GRAPH = dict(n=150, m=400, seed=23)
    CONFIG = OracleConfig(alpha=4.0, seed=7, fallback="none")

    def test_engine_tracks_insertions(self):
        """After every insertion the incrementally-refreshed engine must
        equal the dict reference on the repaired index."""
        graph = random_connected_graph(**self.GRAPH)
        self._track_insertions(
            VicinityOracle.build(graph, config=self.CONFIG).index
        )

    def test_engine_tracks_insertions_from_reference_build(self):
        """The same, starting from the per-node reference builder's dict
        records (discovery order) instead of the offline build's lazy
        records."""
        graph = random_connected_graph(**self.GRAPH)
        self._track_insertions(build_reference_index(graph, self.CONFIG))

    @staticmethod
    def _track_insertions(index):
        graph = index.graph
        dynamic = DynamicVicinityOracle(index)
        pairs = random_pairs(graph.n, 150, seed=24)
        dynamic.query(0, 1)  # force the engine into existence
        rng = np.random.default_rng(25)
        inserted = 0
        while inserted < 4:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v or not dynamic.add_edge(u, v):
                continue
            inserted += 1
            reference = DictReferenceOracle(dynamic.index)
            engine = dynamic._oracle.engine
            for s, t in pairs:
                got = engine.resolve(s, t, True)
                want = reference.query(s, t, with_path=True)
                assert fields(got) == fields(want), (u, v, s, t)

    def test_other_wrappers_of_a_mutated_index_stay_fresh(self):
        """Every oracle wrapping a mutated index must serve
        post-insertion answers — the dict path always read live state,
        and the flatten-generation counter preserves that."""
        graph = random_connected_graph(140, 360, seed=31)
        config = OracleConfig(alpha=4.0, seed=5, fallback="none")
        dynamic = DynamicVicinityOracle(
            VicinityOracle.build(graph, config=config).index
        )
        sibling = VicinityOracle(dynamic.index)
        pairs = random_pairs(graph.n, 120, seed=32)
        sibling.query_batch(pairs)  # cache an engine over the pre-edge state
        rng = np.random.default_rng(33)
        inserted = 0
        while inserted < 3:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v or not dynamic.add_edge(u, v):
                continue
            inserted += 1
        reference = DictReferenceOracle(dynamic.index)
        for s, t in pairs:
            got = sibling.query(s, t)
            want = reference.query(s, t)
            assert fields(got) == fields(want), (s, t)

    def test_refreshed_equals_full_reflatten(self):
        graph = random_connected_graph(130, 340, seed=26)
        config = OracleConfig(alpha=4.0, seed=9, fallback="none")
        dynamic = DynamicVicinityOracle(
            VicinityOracle.build(graph, config=config).index
        )
        dynamic.query(0, 1)
        rng = np.random.default_rng(27)
        inserted = 0
        while inserted < 3:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v or not dynamic.add_edge(u, v):
                continue
            inserted += 1
        incremental = dynamic._oracle.engine.out
        # A fresh full flatten, bypassing the index-level cache (which
        # holds the incrementally-refreshed object under test).
        rebuilt = FlatIndex.from_store_arrays(
            flatten_index(dynamic.index),
            n=dynamic.index.n,
            weighted=False,
            store_paths=True,
        )
        assert incremental is dynamic.index._flat_index  # cache kept fresh
        for name in incremental.arrays:
            assert np.array_equal(
                incremental.arrays[name], rebuilt.arrays[name]
            ), name


class TestQueryEngineProtocol:
    def test_every_consumer_satisfies_the_protocol(self, built):
        from repro.service import BatchExecutor, ShardedService

        engine = FlatQueryEngine.from_index(built)
        oracle = VicinityOracle(built)
        executor = BatchExecutor(oracle)
        assert isinstance(engine, QueryEngine)
        assert isinstance(oracle, QueryEngine)
        assert isinstance(executor, QueryEngine)
        with ShardedService(built, 2) as sharded:
            assert isinstance(sharded, QueryEngine)

    def test_shard_engines_share_the_flat_index(self, built):
        """Both shard backends execute the same engine class over the
        same arrays — the representations cannot drift apart."""
        from repro.core.parallel import shard_assignment

        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 3, "hash")
        engine = ShardQueryEngine(flat, assign, False)
        results, local, remote, trips = engine.answer_batch(
            random_pairs(built.n, 50, seed=29), with_path=True
        )
        assert local + remote == 50
        assert all(r is not None for r in results)
