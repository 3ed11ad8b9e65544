"""Compact-dtype stores: boundary widths, parity, mmap, round trips.

The dtype policy (:func:`repro.core.flat.compact_store_arrays`) must
never change an answer: every suite here pins a compact (or mapped, or
legacy-loaded) index field-identical — distance, method, witness,
probes, path — against the int64 layout it replaced or the dict
reference path over the per-node reference build
(:func:`tests.conftest.reference_twin`).
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.engine import FlatQueryEngine
from repro.core.flat import (
    FlatIndex,
    compact_store_arrays,
    flatten_index,
    float32_exact,
    id_dtype_for,
    offset_dtype_for,
    pred_sentinel,
    store_nbytes,
    widen_store,
)
from repro.core.index import VicinityIndex
from repro.core.oracle import VicinityOracle
from repro.core.reference import DictReferenceOracle
from repro.exceptions import SerializationError
from repro.graph.builder import graph_from_arrays
from repro.io.oracle_store import (
    FLAT_STORE_ARRAYS,
    load_directed_oracle,
    load_flat_index,
    load_index,
    save_directed_oracle,
    save_index,
)

from tests.conftest import random_connected_graph, reference_twin


def _pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(count)]


def _tier_params():
    """Kernel tiers runnable here (native only with the built extension)."""
    from repro.core import _native

    tiers = ["numpy"]
    if _native.load_library() is not None:
        tiers.append("native")
    return tiers


def assert_results_identical(got, want):
    for a, b in zip(got, want):
        assert (a.distance, a.method, a.witness, a.probes, a.path) == (
            b.distance, b.method, b.witness, b.probes, b.path
        )


class TestDtypePolicy:
    def test_id_dtype_boundaries(self):
        assert id_dtype_for(100) == np.uint16
        assert id_dtype_for(np.iinfo(np.uint16).max) == np.uint16
        assert id_dtype_for(np.iinfo(np.uint16).max + 1) == np.uint32
        assert id_dtype_for(np.iinfo(np.uint32).max) == np.uint32
        assert id_dtype_for(np.iinfo(np.uint32).max + 1) == np.int64

    def test_offset_dtype_boundaries(self):
        assert offset_dtype_for(0) == np.uint32
        assert offset_dtype_for(np.iinfo(np.uint32).max) == np.uint32
        assert offset_dtype_for(np.iinfo(np.uint32).max + 1) == np.int64

    def test_pred_sentinel_is_wrapped_minus_one(self):
        for dtype in (np.uint16, np.uint32):
            assert np.int64(-1).astype(dtype) == pred_sentinel(dtype)
        assert pred_sentinel(np.int64) == -1

    def test_float32_exactness_probe(self):
        assert float32_exact(np.array([0.5, 2.75, np.inf]))
        assert not float32_exact(np.array([0.1]))
        assert float32_exact(np.zeros(0))  # vacuously


class TestCompactVersusInt64:
    @pytest.fixture(scope="class")
    def built(self):
        graph = random_connected_graph(220, 640, seed=17)
        return VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=9, fallback="none")
        )

    def test_store_is_compact_and_smaller(self, built):
        store = flatten_index(built)
        assert store["vic_nodes"].dtype == np.uint16
        assert store["vic_preds"].dtype == np.uint16
        assert store["vic_offsets"].dtype == np.uint32
        assert store["vic_dists"].dtype == np.int32
        assert store["table_parent"].dtype == np.uint16
        wide = widen_store(store)
        assert store_nbytes(wide) / store_nbytes(store) >= 1.8

    def test_widen_round_trips(self, built):
        store = flatten_index(built)
        wide = widen_store(store)
        again = compact_store_arrays(wide, built.n)
        for name in FLAT_STORE_ARRAYS:
            assert again[name].dtype == store[name].dtype, name
            assert np.array_equal(again[name], store[name], equal_nan=True), name

    @pytest.mark.parametrize("tier", _tier_params())
    def test_int64_store_answers_identically(self, built, tier):
        """A FlatIndex loaded from the widened int64 layout (the legacy
        on-disk shape) answers field-identically to the compact one and
        to the dict reference — under either kernel tier."""
        store = flatten_index(built)
        compact = FlatIndex.from_store_arrays(store, n=built.n, weighted=False)
        legacy = FlatIndex.from_store_arrays(
            widen_store(store), n=built.n, weighted=False
        )
        pairs = _pairs(built.n, 600, seed=3)
        kernel = built.config.kernel
        a = FlatQueryEngine(compact, kernel=kernel, kernels=tier).query_batch(
            pairs, with_path=True
        )
        b = FlatQueryEngine(legacy, kernel=kernel, kernels=tier).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(a, b)
        c = DictReferenceOracle(reference_twin(built)).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(a, c)


class TestUint32Boundary:
    """Graphs past the uint16 id range, without building a huge oracle:
    a ring on n > 65535 nodes with a dense explicit landmark set keeps
    every ball tiny (and skips the diameter-bound table sweeps) while
    every id-width decision flips to uint32."""

    @pytest.fixture(scope="class")
    def built(self):
        from repro.core.landmarks import landmark_set_from_ids

        n = 70000
        src = np.arange(n, dtype=np.int64)
        dst = (src + 1) % n
        graph = graph_from_arrays(src, dst, n=n)
        config = OracleConfig(
            alpha=4.0, seed=5, fallback="none", landmark_tables="none"
        )
        landmarks = landmark_set_from_ids(
            graph, list(range(0, n, 8)), config.alpha
        )
        return VicinityIndex.from_landmarks(graph, config, landmarks)

    def test_uint32_ids_and_query_parity(self, built, tmp_path):
        flat = built._flat_index
        assert flat.id_dtype == np.uint32
        assert flat.vic_preds.dtype == np.uint32
        pairs = _pairs(built.n, 300, seed=11)
        want = DictReferenceOracle(reference_twin(built)).query_batch(
            pairs, with_path=True
        )
        got = FlatQueryEngine(flat, kernel=built.config.kernel).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(got, want)
        path = tmp_path / "ring.bin"
        save_index(built, path)
        mm = load_flat_index(path, mmap=True)
        assert mm.id_dtype == np.uint32
        again = FlatQueryEngine(mm, kernel=built.config.kernel).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(again, want)


class TestWeightedDistanceWidths:
    def _build(self, weights_of):
        rng = np.random.default_rng(23)
        n, m = 160, 460
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        graph = graph_from_arrays(src, dst, n=n, weights=weights_of(rng, m))
        from repro.graph.components import largest_component

        graph, _ = largest_component(graph)
        return VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=3, fallback="none")
        )

    def test_dyadic_weights_store_float32(self):
        # Multiples of 0.25: every Dijkstra sum is float32-exact.
        built = self._build(
            lambda rng, m: rng.integers(1, 16, size=m).astype(np.float64) / 4.0
        )
        store = flatten_index(built)
        assert store["vic_dists"].dtype == np.float32
        assert store["table_dist"].dtype == np.float32
        self._assert_query_parity(built, store)

    def test_lossy_weights_keep_float64(self):
        built = self._build(lambda rng, m: rng.uniform(0.5, 4.0, size=m))
        store = flatten_index(built)
        assert store["vic_dists"].dtype == np.float64
        assert store["table_dist"].dtype == np.float64
        self._assert_query_parity(built, store)

    def _assert_query_parity(self, built, store):
        pairs = _pairs(built.n, 500, seed=7)
        flat = FlatIndex.from_store_arrays(store, n=built.n, weighted=True)
        got = FlatQueryEngine(flat, kernel=built.config.kernel).query_batch(
            pairs, with_path=True
        )
        want = DictReferenceOracle(reference_twin(built)).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(got, want)


class TestMmapServing:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        graph = random_connected_graph(240, 700, seed=31)
        index = VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=13, fallback="none")
        )
        path = tmp_path_factory.mktemp("store") / "oracle.bin"
        save_index(index, path)
        return index, path

    def test_mmap_views_are_file_backed(self, saved):
        import mmap as mmap_module

        _, path = saved
        flat = load_flat_index(path, mmap=True)
        base = flat.vic_nodes
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        assert isinstance(base, (np.memmap, mmap_module.mmap))
        assert not flat.vic_nodes.flags.writeable

    @pytest.mark.parametrize("tier", _tier_params())
    def test_mmap_queries_identical(self, saved, tier):
        index, path = saved
        pairs = _pairs(index.n, 600, seed=19)
        kernel = index.config.kernel
        want = FlatQueryEngine(
            load_flat_index(path), kernel=kernel, kernels=tier
        ).query_batch(pairs, with_path=True)
        got = FlatQueryEngine(
            load_flat_index(path, mmap=True), kernel=kernel, kernels=tier
        ).query_batch(pairs, with_path=True)
        assert_results_identical(got, want)

    def test_mmap_rejected_for_legacy_npz(self, saved, tmp_path):
        index, _ = saved
        legacy = tmp_path / "legacy.npz"
        save_index(index, legacy, format="npz")
        with pytest.raises(SerializationError, match="memory-mapped"):
            load_flat_index(legacy, mmap=True)


class TestLegacyRoundTrips:
    def test_legacy_int64_npz_still_loads(self, tmp_path):
        """A PR 4-era archive (int64 arrays, -1 pred markers) loads
        through both readers with identical answers."""
        import json

        graph = random_connected_graph(180, 520, seed=41)
        index = VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=21, fallback="none")
        )
        store = widen_store(flatten_index(index))
        legacy = tmp_path / "old.npz"
        payload = {
            "magic": np.asarray("repro-oracle-v1"),
            "config": np.asarray(json.dumps(dict(index.config.__dict__))),
            "graph_n": np.asarray(graph.n, dtype=np.int64),
            "graph_indptr": graph.indptr,
            "graph_indices": graph.indices,
            **{name: store[name] for name in FLAT_STORE_ARRAYS},
        }
        np.savez_compressed(legacy, **payload)
        pairs = _pairs(graph.n, 400, seed=2)
        want = VicinityOracle(index).query_batch(pairs, with_path=True)

        flat = load_flat_index(legacy)  # upconverted to compact
        assert flat.id_dtype == id_dtype_for(graph.n)
        got = FlatQueryEngine(flat, kernel=index.config.kernel).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(got, want)

        restored = VicinityOracle(load_index(legacy)).query_batch(
            pairs, with_path=True
        )
        assert_results_identical(restored, want)

    def test_npz_format_round_trip(self, tmp_path):
        graph = random_connected_graph(150, 430, seed=43)
        index = VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=5, fallback="none")
        )
        path = tmp_path / "archive.npz"
        save_index(index, path, format="npz")
        pairs = _pairs(graph.n, 300, seed=4)
        want = VicinityOracle(index).query_batch(pairs)
        got = VicinityOracle(load_index(path)).query_batch(pairs)
        assert_results_identical(got, want)


class TestDirectedCompact:
    @pytest.fixture(scope="class")
    def oracle(self):
        from repro.core.directed import DirectedVicinityOracle
        from repro.graph.builder import digraph_from_arrays

        rng = np.random.default_rng(53)
        n, m = 200, 900
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        graph = digraph_from_arrays(src, dst, n=n)
        return DirectedVicinityOracle.build(
            graph, alpha=3.0, seed=7, fallback="none"
        )

    def test_sides_are_compact(self, oracle):
        out_store, in_store = oracle.flat_side_stores()
        for store in (out_store, in_store):
            assert store["vic_nodes"].dtype == np.uint16
            assert store["vic_preds"].dtype == np.uint16
            assert store["vic_offsets"].dtype == np.uint32

    @pytest.mark.parametrize("mmap", [False, True])
    def test_round_trip_matches(self, oracle, tmp_path, mmap):
        path = tmp_path / f"directed-{mmap}.bin"
        save_directed_oracle(oracle, path)
        loaded = load_directed_oracle(path, mmap=mmap)
        pairs = _pairs(oracle.graph.n, 300, seed=6)
        for s, t in pairs:
            a = oracle.query(s, t)
            b = loaded.query(s, t)
            assert (a.distance, a.method, a.witness) == (
                b.distance, b.method, b.witness
            )


class TestDynamicRefreshKeepsCompact:
    def test_refreshed_equals_fresh_flatten(self):
        graph = random_connected_graph(150, 400, seed=61)
        config = OracleConfig(alpha=4.0, seed=19)
        index = VicinityIndex.build(graph, config)
        dynamic = DynamicVicinityOracle(index)
        dynamic.query(0, 1)  # materialise the flat cache the repair splices
        rng = np.random.default_rng(67)
        added = 0
        while added < 4:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u != v and not dynamic.graph.has_edge(u, v):
                assert dynamic.add_edge(u, v)
                added += 1
        refreshed = index._flat_index
        assert refreshed.id_dtype == np.uint16
        assert refreshed.vic_preds.dtype == np.uint16
        index._flat_index = None
        fresh = FlatIndex.from_index(index)
        for name in refreshed.arrays:
            a, b = refreshed.arrays[name], fresh.arrays[name]
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
