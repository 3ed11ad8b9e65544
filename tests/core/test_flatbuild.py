"""The offline build: field-identical to the per-node reference builder.

The parity contract: for any ``(graph, config, landmarks)``,
:meth:`VicinityIndex.build` (batched truncated BFS through
:func:`repro.core.parallel.build_flat_store`, vectorised boundary
extraction, direct packing) produces exactly the arrays that flattening
the records of :func:`repro.core.reference.build_reference_index`
produces — members, dists, preds, boundaries (in Lemma 1 scan order),
radii and landmark tables — across weighted/unweighted graphs, the
vicinity floor, ``store_paths=False``, table-less indices, directed
mode (:func:`~repro.core.reference.build_reference_directed`), and any
worker count.
"""

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.dynamic import DynamicVicinityOracle
from repro.core.flat import (
    JOIN_MAX_SCAN,
    FlatIndex,
    calibrate_join_max_scan,
    flatten_index,
)
from repro.core.index import FlatVicinityList, VicinityIndex
from repro.core.landmarks import (
    flag_bytes,
    landmark_set_from_ids,
    sample_landmarks,
)
from repro.core.oracle import VicinityOracle
from repro.core.reference import build_reference_directed, build_reference_index
from repro.graph.traversal.batched import grow_balls
from repro.graph.traversal.bounded import truncated_bfs_ball
from repro.io.oracle_store import (
    DIRECTED_SIDE_ARRAYS,
    FLAT_STORE_ARRAYS,
    load_directed_oracle,
    load_flat_index,
    save_directed_oracle,
    save_index,
)

from tests.conftest import random_connected_graph, random_graph


def assert_stores_equal(want, got, names=FLAT_STORE_ARRAYS, context=""):
    for name in names:
        a, b = want[name], got[name]
        assert a.dtype == b.dtype, f"{context}{name}: {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b, equal_nan=(name == "radii")), (
            f"{context}{name} differs"
        )


def build_both(graph, config):
    """(reference-built index, built index) for one config."""
    dict_index = build_reference_index(graph, config)
    flat_index = VicinityIndex.build(graph, config)
    assert not isinstance(dict_index.vicinities, FlatVicinityList)
    # Same seed -> same sampling draws -> identical landmark sets.
    assert np.array_equal(dict_index.landmarks.ids, flat_index.landmarks.ids)
    return dict_index, flat_index


class TestStoreParity:
    @pytest.mark.parametrize(
        "weighted,floor,store_paths,tables",
        [
            (False, 0.0, True, "full"),
            (False, 0.75, True, "full"),
            (False, 0.0, False, "full"),
            (False, 0.75, False, "none"),
            (True, 0.0, True, "full"),
            (True, 0.0, False, "none"),
        ],
    )
    def test_field_identical_across_configs(
        self, weighted, floor, store_paths, tables
    ):
        graph = random_connected_graph(230, 680, seed=17, weighted=weighted)
        config = OracleConfig(
            alpha=4.0,
            seed=11,
            fallback="none",
            vicinity_floor=floor,
            store_paths=store_paths,
            landmark_tables=tables,
        )
        dict_index, flat_index = build_both(graph, config)
        assert_stores_equal(
            flatten_index(dict_index),
            flat_index._flat_store,
            context=f"weighted={weighted} floor={floor} paths={store_paths}: ",
        )

    def test_disconnected_graph_with_landmarkless_component(self):
        # Degenerate whole-component vicinities (radius None) must pack
        # identically; disable the per-component landmark guarantee so
        # one component really has no landmark.
        graph = random_graph(120, 200, seed=3)
        config = OracleConfig(
            alpha=4.0, seed=5, fallback="none", landmark_per_component=False
        )
        dict_index, flat_index = build_both(graph, config)
        assert_stores_equal(flatten_index(dict_index), flat_index._flat_store)

    def test_flat_index_probe_surface_identical(self):
        graph = random_connected_graph(200, 600, seed=23)
        config = OracleConfig(alpha=4.0, seed=7, fallback="none")
        dict_index, flat_index = build_both(graph, config)
        want = FlatIndex.from_index(dict_index)
        got = flat_index._flat_index
        for name in ("boundary_dists", "landmark_row"):
            assert np.array_equal(want.arrays[name], got.arrays[name]), name
        assert want.join_max_scan == got.join_max_scan


class TestProbeExtras:
    """The build emits per-boundary distances and the landmark row map
    as it packs; they must equal what the probe surface would derive
    from the persistence layout alone."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_emitted_extras_match_derivation(self, weighted):
        graph = random_connected_graph(200, 600, seed=37, weighted=weighted)
        index = VicinityIndex.build(graph, OracleConfig(alpha=4.0, seed=9))
        assert not set(index._flat_store) & {"boundary_dists", "landmark_row"}
        derived = FlatIndex.from_store_arrays(
            index._flat_store, n=graph.n, weighted=weighted
        )
        for name in ("boundary_dists", "landmark_row"):
            got = index._flat_index.arrays[name]
            assert got.dtype == derived.arrays[name].dtype, name
            assert np.array_equal(got, derived.arrays[name]), name

    def test_directed_sides_carry_extras(self):
        from repro.core.directed import DirectedVicinityOracle
        from repro.graph.builder import digraph_from_arrays
        from repro.io.oracle_store import DIRECTED_SIDE_ARRAYS

        rng = np.random.default_rng(43)
        n, arcs = 160, 900
        graph = digraph_from_arrays(
            rng.integers(0, n, arcs), rng.integers(0, n, arcs), n=n
        )
        oracle = DirectedVicinityOracle.build(graph, alpha=3.0, seed=5)
        for side in oracle.flat_side_stores():
            layout = {name: side[name] for name in DIRECTED_SIDE_ARRAYS}
            layout["landmarks"] = side["landmarks"]
            derived = FlatIndex.from_store_arrays(layout, n=n, weighted=False)
            for name in ("boundary_dists", "landmark_row"):
                assert np.array_equal(side[name], derived.arrays[name]), name


class TestMultiWorkerDeterminism:
    def test_two_workers_identical_to_one(self):
        # Small graph: the point is the spawn-pool path (shared-memory
        # CSR, chunked sources, ordered concatenation), not scale.
        graph = random_connected_graph(150, 420, seed=29)
        config = OracleConfig(alpha=4.0, seed=13, fallback="none")
        one = VicinityIndex.build(graph, config)
        two = VicinityIndex.build(graph, config, workers=2)
        assert_stores_equal(one._flat_store, two._flat_store)


class TestBatchedTraversalParity:
    @pytest.mark.parametrize("min_size", [None, 40])
    def test_matches_scalar_ball_exactly(self, min_size):
        graph = random_connected_graph(180, 520, seed=41)
        landmarks = sample_landmarks(graph, 4.0, rng=3)
        flags = np.frombuffer(landmarks.is_landmark, dtype=np.uint8)
        sources = np.flatnonzero(flags == 0).astype(np.int64)
        packed = grow_balls(
            graph.indptr, graph.indices, graph.n, sources, flags,
            min_size=min_size, batch_size=7,  # force several batches
        )
        for i, u in enumerate(sources.tolist()):
            scalar = truncated_bfs_ball(
                graph, u, landmarks.is_landmark, min_size=min_size
            )
            lo, hi = int(packed.offsets[i]), int(packed.offsets[i + 1])
            nodes = packed.nodes[lo:hi]
            assert nodes.tolist() == scalar.gamma, f"gamma order of {u}"
            assert packed.dists[lo:hi].tolist() == [
                scalar.dist[v] for v in scalar.gamma
            ]
            assert packed.preds[lo:hi].tolist() == [
                scalar.pred[v] for v in scalar.gamma
            ]
            radius = int(packed.radii[i])
            assert (None if radius < 0 else radius) == scalar.radius
            # Boundary mask reproduces compute_boundary's set and order.
            adj = graph.adjacency()
            member_set = frozenset(scalar.gamma)
            want_boundary = [
                v for v in scalar.gamma
                if any(w not in member_set for w in adj[v])
            ]
            assert nodes[packed.boundary_mask[lo:hi]].tolist() == want_boundary


class TestFlatBuiltIndexBehaviour:
    @pytest.fixture(scope="class")
    def pair(self):
        graph = random_connected_graph(240, 720, seed=53)
        config = OracleConfig(alpha=4.0, seed=19)
        return build_both(graph, config)

    def test_queries_identical_to_dict_built(self, pair):
        dict_index, flat_index = pair
        a, b = VicinityOracle(dict_index), VicinityOracle(flat_index)
        rng = np.random.default_rng(5)
        for s, t in rng.integers(0, dict_index.n, (300, 2)).tolist():
            want, got = a.query(s, t), b.query(s, t)
            assert (want.distance, want.method, want.witness, want.probes) == (
                got.distance, got.method, got.witness, got.probes
            )
        s, t = rng.integers(0, dict_index.n, 2).tolist()
        assert a.query(s, t, with_path=True).path == b.query(
            s, t, with_path=True
        ).path

    def test_lazy_records_match_dict_records(self, pair):
        dict_index, flat_index = pair
        assert isinstance(flat_index.vicinities, FlatVicinityList)
        assert len(flat_index.vicinities) == dict_index.n
        for u in range(0, dict_index.n, 7):
            want = dict_index.vicinities[u]
            got = flat_index.vicinities[u]
            assert got.node == u
            assert got.radius == want.radius
            assert got.members == want.members
            assert got.dist == want.dist
            assert got.pred == want.pred
            assert got.boundary == want.boundary  # scan order preserved

    def test_save_index_identical_and_dict_free(self, pair, tmp_path):
        from repro.io.oracle_store import load_flat_arrays

        dict_index, flat_index = pair
        a, b = tmp_path / "dict.bin", tmp_path / "flat.bin"
        save_index(dict_index, a)
        save_index(flat_index, b)
        da, _ = load_flat_arrays(a)
        db, _ = load_flat_arrays(b)
        for name in FLAT_STORE_ARRAYS:
            assert da[name].dtype == db[name].dtype, name
            assert np.array_equal(da[name], db[name], equal_nan=True), name
        loaded = load_flat_index(b)
        assert np.array_equal(
            loaded.vic_nodes, flat_index._flat_index.vic_nodes
        )

    def test_dynamic_repair_on_flat_built_index(self):
        graph = random_connected_graph(140, 380, seed=67)
        config = OracleConfig(alpha=4.0, seed=23)
        index = VicinityIndex.build(graph, config)
        dynamic = DynamicVicinityOracle(index)
        rng = np.random.default_rng(71)
        added = 0
        while added < 3:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u != v and not dynamic.graph.has_edge(u, v):
                assert dynamic.add_edge(u, v)
                added += 1
        # Mutation invalidates the stored arrays; queries must match a
        # reference build on the updated graph with the same landmark set.
        assert index._flat_store is None
        fresh = build_reference_index(
            dynamic.graph,
            config,
            landmarks=landmark_set_from_ids(
                dynamic.graph, index.landmarks.ids.tolist(), config.alpha
            ),
        )
        reference = VicinityOracle(fresh)
        for s, t in rng.integers(0, graph.n, (150, 2)).tolist():
            assert dynamic.distance(s, t) == reference.query(s, t).distance


class TestDirectedParity:
    @pytest.fixture(scope="class")
    def oracles(self):
        from repro.graph.builder import digraph_from_arrays

        rng = np.random.default_rng(83)
        n, arcs = 240, 1500
        graph = digraph_from_arrays(
            rng.integers(0, n, arcs), rng.integers(0, n, arcs), n=n
        )
        from repro.core.directed import DirectedVicinityOracle

        d = build_reference_directed(graph, alpha=4.0, seed=31)
        f = DirectedVicinityOracle.build(graph, alpha=4.0, seed=31)
        assert d._flat_sides is None and f._flat_sides is not None
        return d, f

    def test_side_stores_field_identical(self, oracles):
        d, f = oracles
        assert np.array_equal(d.landmark_ids, f.landmark_ids)
        for side, (want, got) in enumerate(
            zip(d.flat_side_stores(), f.flat_side_stores())
        ):
            assert_stores_equal(
                want, got, names=DIRECTED_SIDE_ARRAYS, context=f"side {side}: "
            )

    def test_queries_identical(self, oracles):
        d, f = oracles
        rng = np.random.default_rng(7)
        for s, t in rng.integers(0, d.graph.n, (300, 2)).tolist():
            want, got = d.query(s, t), f.query(s, t)
            assert (want.distance, want.method, want.witness, want.probes) == (
                got.distance, got.method, got.witness, got.probes
            )

    def test_save_load_round_trip(self, oracles, tmp_path):
        d, f = oracles
        path = tmp_path / "directed.npz"
        save_directed_oracle(f, path)
        loaded = load_directed_oracle(path)
        # Loaded oracles hold the arrays: the engine must build with no
        # flattening pass (records stay unmaterialised).
        assert loaded._flat_sides is not None
        rng = np.random.default_rng(11)
        for s, t in rng.integers(0, d.graph.n, (200, 2)).tolist():
            want, got = d.query(s, t), loaded.query(s, t)
            assert (want.distance, want.method, want.witness) == (
                got.distance, got.method, got.witness
            )
        s, t = rng.integers(0, d.graph.n, 2).tolist()
        assert d.query(s, t, with_path=True).path == loaded.query(
            s, t, with_path=True
        ).path


class TestJoinScanCalibration:
    def test_anchor_geometry_reproduces_the_constant(self):
        assert calibrate_join_max_scan(np.zeros(0, dtype=np.int64)) == JOIN_MAX_SCAN
        # An index shaped like the one the constant was tuned on (the
        # log2 gap between total boundary mass and the median slice
        # near the anchor) calibrates back to ~the constant.
        anchor_like = np.full(9700, 300, dtype=np.int64)
        assert (
            abs(calibrate_join_max_scan(anchor_like) - JOIN_MAX_SCAN)
            <= JOIN_MAX_SCAN // 4
        )

    def test_larger_indices_tighten_and_bounds_hold(self):
        median = 300
        small = np.full(1_000, median, dtype=np.int64)
        huge = np.full(4_000_000, median, dtype=np.int64)
        assert calibrate_join_max_scan(huge) < calibrate_join_max_scan(small)
        for counts in (small, huge, np.asarray([1]), np.full(10, 10**6)):
            assert 8 <= calibrate_join_max_scan(counts) <= 4 * JOIN_MAX_SCAN

    def test_flat_index_carries_calibrated_value(self):
        graph = random_connected_graph(160, 480, seed=97)
        index = VicinityIndex.build(graph, OracleConfig(alpha=4.0, seed=3))
        flat = index._flat_index
        assert 8 <= flat.join_max_scan <= 4 * JOIN_MAX_SCAN
        assert flat.join_max_scan == calibrate_join_max_scan(
            flat.boundary_counts
        )


class TestFlagBytes:
    def test_scatter_matches_loop(self):
        ids = [3, 0, 9, 3]
        flags = flag_bytes(12, np.asarray(ids))
        want = bytearray(12)
        for u in ids:
            want[u] = 1
        assert flags == want
        assert flag_bytes(5, np.zeros(0, dtype=np.int64)) == bytearray(5)
