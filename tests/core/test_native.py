"""Compiled kernel tier: selection, fallback, and bit-parity pinning.

The native tier must be invisible except for speed: every suite here
pins the C kernels field-identical — distance, method, witness, probes,
path — against the numpy tier across kernels, dtype widths, mmap modes
and dynamic repair, and checks the selection surface (``kernels=``
argument, ``REPRO_KERNELS``, graceful degradation without a compiled
artifact).
"""

import ctypes
import os
import subprocess
import warnings

import numpy as np
import pytest

from repro.core import _native
from repro.core.config import OracleConfig
from repro.core.engine import FlatQueryEngine, ShardQueryEngine
from repro.core.flat import FlatIndex, flatten_index, widen_store
from repro.core.index import VicinityIndex
from repro.core.oracle import METHODS, VicinityOracle
from repro.core.parallel import shard_assignment
from repro.exceptions import KernelError
from repro.io.oracle_store import load_flat_index, save_index
from repro.service.wire import RequestFrame

from tests.conftest import random_connected_graph, reference_twin

HAVE_NATIVE = _native.load_library() is not None
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled kernel extension not built"
)


def _pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(count)]


def fields(result):
    return (
        result.source, result.target, result.distance,
        result.method, result.witness, result.probes, result.path,
    )


def assert_results_identical(got, want, context=None):
    for a, b in zip(got, want):
        assert fields(a) == fields(b), context


KERNELS = (
    "boundary-source", "boundary-target", "boundary-smaller",
    "full-source", "full-smaller",
)


def typed(result):
    """``fields`` plus the distance's Python type (``1 == 1.0``)."""
    return fields(result) + (type(result.distance),)


def _batches(n, seed):
    """One pair batch of every size 1..64, with repeated pairs and
    ``s == t`` pairs mixed in."""
    rng = np.random.default_rng(seed)
    batches = []
    for size in range(1, 65):
        arr = rng.integers(0, n, (size, 2))
        repeats = size // 3
        if repeats:
            arr[size - repeats:] = arr[rng.integers(0, size - repeats, repeats)]
        arr[::5, 1] = arr[::5, 0]
        batches.append(arr.tolist())
    return batches


def _column_bytes(columns):
    """``answer_columns`` output as comparable bytes and dtypes."""
    dist, method, witness, probes, local, remote, trips = columns
    return (
        dist.dtype, dist.tobytes(), method.dtype, method.tobytes(),
        witness.dtype, witness.tobytes(), probes.dtype, probes.tobytes(),
        local, remote, trips.dtype, trips.tobytes(),
    )


def _twin_flats(flat):
    """Two independent FlatIndex objects over ``flat``'s arrays, pinned
    to the numpy and native tiers (a shared index would flip both)."""
    twins = []
    for tier in ("numpy", "native"):
        twin = FlatIndex(
            flat.arrays, n=flat.n, weighted=flat.weighted,
            store_paths=flat.store_paths,
        )
        twin.set_kernels(tier)
        twins.append(twin)
    return twins


@pytest.fixture(
    scope="module", params=[False, True], ids=["unweighted", "weighted"]
)
def built(request):
    graph = random_connected_graph(220, 640, seed=33, weighted=request.param)
    oracle = VicinityOracle.build(
        graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
    )
    return oracle.index


class TestWireConstants:
    def test_method_names_match_oracle(self):
        assert _native._METHOD_NAMES == METHODS

    def test_kernel_codes_match_engine_kernels(self):
        assert set(_native.KERNEL_CODES) == {
            "boundary-source", "boundary-target", "boundary-smaller",
            "full-source", "full-smaller",
        }
        assert sorted(_native.KERNEL_CODES.values()) == list(range(5))


class TestTierSelection:
    def test_resolve_tier_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "native")
        assert _native.resolve_tier("numpy") == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert _native.resolve_tier("native") == "native"

    def test_resolve_tier_env_fills_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert _native.resolve_tier(None) == "auto"
        assert _native.resolve_tier("auto") == "auto"
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert _native.resolve_tier(None) == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        assert _native.resolve_tier(None) == "auto"

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(KernelError, match="kernels="):
            _native.resolve_tier("fortran")
        monkeypatch.setenv("REPRO_KERNELS", "cython")
        with pytest.raises(KernelError, match="REPRO_KERNELS"):
            _native.resolve_tier(None)

    def test_set_kernels_numpy_always_works(self, built):
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels("numpy") == "numpy"
        assert flat.kernels == "numpy"
        assert flat._native is None

    @needs_native
    def test_auto_picks_native_when_available(self, built, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels(None) == "native"
        assert flat._native is not None

    @needs_native
    def test_env_numpy_disables_native(self, built, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        flat = FlatIndex.from_index(built)
        assert flat.set_kernels(None) == "numpy"
        assert flat._native is None


class TestLoaderDegradation:
    """Selection behaviour when the compiled artifact is absent/corrupt.

    Each test redirects ``library_path`` and resets the loader cache,
    restoring both afterwards so the rest of the session keeps whatever
    artifact actually exists.
    """

    @pytest.fixture(autouse=True)
    def _restore_loader(self):
        # Neutralise any forced tier (CI runs the suite under both
        # REPRO_KERNELS values): these tests exercise *auto* selection.
        # Handled by hand, not monkeypatch — this fixture's teardown
        # must run *after* the tests' own monkeypatches have restored
        # ``library_path``, and a fixture-requested monkeypatch would
        # unwind last.
        saved = os.environ.pop("REPRO_KERNELS", None)
        yield
        if saved is not None:
            os.environ["REPRO_KERNELS"] = saved
        _native._reset_loader_state()
        _native.load_library()

    def test_absent_artifact_silently_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        _native._reset_loader_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert _native.load_library() is None
        assert "not built" in _native.load_error()

    def test_absent_artifact_forced_native_raises(
        self, built, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        _native._reset_loader_state()
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None  # force re-resolution
        with pytest.raises(KernelError, match="native kernels requested"):
            flat.set_kernels("native")
        # numpy stays served
        assert flat.set_kernels("numpy") == "numpy"

    def test_corrupt_artifact_warns_once_and_falls_back(
        self, built, monkeypatch, tmp_path
    ):
        bad = tmp_path / "_kernels.so"
        bad.write_bytes(b"this is not a shared object")
        monkeypatch.setattr(_native, "library_path", lambda: bad)
        _native._reset_loader_state()
        with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
            assert _native.load_library() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second load: cached, no warning
            assert _native.load_library() is None
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None
        assert flat.set_kernels(None) == "numpy"  # auto degrades cleanly

    def test_stale_artifact_warns_once_and_falls_back(
        self, built, monkeypatch, tmp_path
    ):
        from repro.core._native import build

        compiler = build.find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        # An artifact from an older kernels.c: every entry point but
        # the newest one.
        stale = tmp_path / "_kernels.so"
        subprocess.run(
            [
                compiler, "-O0", "-shared", "-fPIC", "-std=c99",
                "-Drepro_query_many=repro_query_many_absent",
                str(build.HERE / build.SOURCE), "-o", str(stale), "-lm",
            ],
            check=True, capture_output=True,
        )
        monkeypatch.setattr(_native, "library_path", lambda: stale)
        _native._reset_loader_state()
        with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
            assert _native.load_library() is None
        assert "stale artifact, rebuild" in _native.load_error()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # cached: no second warning
            assert _native.load_library() is None
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None
        assert flat.set_kernels(None) == "numpy"

    def test_env_native_without_artifact_raises(
        self, built, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            _native, "library_path", lambda: tmp_path / "_kernels.so"
        )
        monkeypatch.setenv("REPRO_KERNELS", "native")
        _native._reset_loader_state()
        flat = FlatIndex.from_index(built)
        flat._kernels = flat._native = None
        with pytest.raises(KernelError, match="native kernels requested"):
            flat.set_kernels(None)


@needs_native
class TestLayoutGating:
    def test_hand_built_unsupported_dtype_degrades(self, built, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)  # exercise auto
        store = dict(flatten_index(built))
        flat = FlatIndex.from_store_arrays(
            widen_store(store), n=built.n, weighted=built.graph.is_weighted
        )
        # int64 ids are the legacy layout — still supported natively.
        assert _native.view_mismatch(flat) is None
        flat.arrays["vic_nodes"] = flat.arrays["vic_nodes"].astype(np.int32)
        fresh = FlatIndex(
            flat.arrays,
            n=built.n,
            weighted=built.graph.is_weighted,
            store_paths=True,
        )
        assert "dtype" in _native.view_mismatch(fresh)
        assert fresh.set_kernels(None) == "numpy"
        with pytest.raises(KernelError, match="unavailable"):
            fresh.set_kernels("native")


@needs_native
class TestScalarParity:
    @pytest.mark.parametrize(
        "kernel",
        ["boundary-source", "boundary-target", "boundary-smaller",
         "full-source", "full-smaller"],
    )
    def test_resolve_matches_numpy_tier(self, built, kernel):
        numpy_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="numpy"
        )
        native_eng = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="native"
        )
        assert native_eng._native_resolve is not None
        for s, t in _pairs(built.n, 600, seed=9):
            got = native_eng.resolve(s, t, False)
            want = numpy_eng.resolve(s, t, False)
            assert fields(got) == fields(want), (kernel, s, t)

    def test_with_path_uses_numpy_and_matches(self, built):
        numpy_eng = FlatQueryEngine.from_index(built, kernels="numpy")
        native_eng = FlatQueryEngine.from_index(built, kernels="native")
        for s, t in _pairs(built.n, 200, seed=10):
            got = native_eng.resolve(s, t, True)
            want = numpy_eng.resolve(s, t, True)
            assert fields(got) == fields(want), (s, t)

    def test_batch_matches_numpy_tier(self, built):
        pairs = _pairs(built.n, 500, seed=12)
        want = FlatQueryEngine.from_index(built, kernels="numpy").query_batch(
            pairs, with_path=True
        )
        got = FlatQueryEngine.from_index(built, kernels="native").query_batch(
            pairs, with_path=True
        )
        assert_results_identical(got, want)


@needs_native
class TestReferenceBuildParity:
    def test_native_on_build_matches_numpy_on_reference_build(self, built):
        """Both axes at once: the native tier over the offline build
        answers exactly as the numpy tier over the per-node reference
        build of the same graph, config and landmark set."""
        twin = reference_twin(built)
        pairs = _pairs(built.n, 400, seed=41)
        kernel = built.config.kernel
        want = FlatQueryEngine.from_index(
            twin, kernel=kernel, kernels="numpy"
        ).query_batch(pairs, with_path=True)
        got = FlatQueryEngine.from_index(
            built, kernel=kernel, kernels="native"
        ).query_batch(pairs, with_path=True)
        assert_results_identical(got, want)


@needs_native
class TestDtypeGridParity:
    """Every compact distance/id width through the same C entry points."""

    def _check(self, index):
        pairs = _pairs(index.n, 400, seed=21)
        kernel = index.config.kernel
        flat = FlatIndex.from_index(index)
        numpy_flat, native_flat = _twin_flats(flat)
        batches = _batches(index.n, seed=26)
        for name in KERNELS:
            want_eng = FlatQueryEngine(numpy_flat, kernel=name)
            got_eng = FlatQueryEngine(native_flat, kernel=name)
            for batch in batches:
                want = [typed(r) for r in want_eng.query_batch(batch)]
                got = [typed(r) for r in got_eng.query_batch(batch)]
                assert got == want, (name, batch)
        want = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").query_batch(
            pairs, with_path=True
        )
        got = FlatQueryEngine(flat, kernel=kernel, kernels="native").query_batch(
            pairs, with_path=True
        )
        assert_results_identical(got, want)
        for s, t in pairs[:100]:
            a = FlatQueryEngine(flat, kernel=kernel, kernels="native").resolve(
                s, t, False
            )
            b = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").resolve(
                s, t, False
            )
            assert fields(a) == fields(b), (s, t)

    def test_uint16_int32(self, built):
        self._check(built)

    def test_uint32_ids(self):
        from repro.core.landmarks import landmark_set_from_ids
        from repro.graph.builder import graph_from_arrays

        n = 70000
        src = np.arange(n, dtype=np.int64)
        graph = graph_from_arrays(src, (src + 1) % n, n=n)
        config = OracleConfig(
            alpha=4.0, seed=5, fallback="none", landmark_tables="none"
        )
        landmarks = landmark_set_from_ids(graph, list(range(0, n, 8)), config.alpha)
        index = VicinityIndex.from_landmarks(graph, config, landmarks)
        assert index._flat_index.id_dtype == np.uint32
        self._check(index)

    def test_float32_dists(self):
        index = self._weighted_index(
            lambda rng, m: rng.integers(1, 16, size=m).astype(np.float64) / 4.0
        )
        assert FlatIndex.from_index(index).vic_dists.dtype == np.float32
        self._check(index)

    def test_float64_dists(self):
        index = self._weighted_index(lambda rng, m: rng.uniform(0.5, 4.0, size=m))
        assert FlatIndex.from_index(index).vic_dists.dtype == np.float64
        self._check(index)

    def test_int64_legacy_ids(self, built):
        flat = FlatIndex.from_store_arrays(
            widen_store(flatten_index(built)),
            n=built.n,
            weighted=built.graph.is_weighted,
        )
        pairs = _pairs(built.n, 400, seed=22)
        kernel = built.config.kernel
        want = FlatQueryEngine(flat, kernel=kernel, kernels="numpy").query_batch(pairs)
        got = FlatQueryEngine(flat, kernel=kernel, kernels="native").query_batch(pairs)
        assert_results_identical(got, want)

    @staticmethod
    def _weighted_index(weights_of):
        from repro.graph.builder import graph_from_arrays
        from repro.graph.components import largest_component

        rng = np.random.default_rng(23)
        n, m = 160, 460
        graph = graph_from_arrays(
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            n=n,
            weights=weights_of(rng, m),
        )
        graph, _ = largest_component(graph)
        return VicinityIndex.build(
            graph, OracleConfig(alpha=4.0, seed=3, fallback="none")
        )


@needs_native
class TestQueryManyParity:
    """The one-call batch lane against the step-by-step lanes and the
    numpy tier: batches of 1..64 pairs, repeats and ``s == t``."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_query_batch_matches_lanes_and_numpy_tier(self, built, kernel):
        numpy_flat, native_flat = _twin_flats(FlatIndex.from_index(built))
        numpy_eng = FlatQueryEngine(numpy_flat, kernel=kernel)
        native_eng = FlatQueryEngine(native_flat, kernel=kernel)
        nk = native_flat._native
        for batch in _batches(built.n, seed=71):
            arr = np.asarray(batch, dtype=np.int64)
            assert nk.query_many(nk, arr, _native.KERNEL_CODES[kernel]) is not None
            got = [typed(r) for r in native_eng.query_batch(batch)]
            lanes = [typed(r) for r in native_eng._resolve_lanes(arr, False)]
            want = [typed(r) for r in numpy_eng.query_batch(batch)]
            assert got == lanes == want, (kernel, batch)

    def test_batch_matches_scalar_queries(self, built):
        engine = FlatQueryEngine.from_index(built, kernels="native")
        for batch in _batches(built.n, seed=72)[::7]:
            got = [typed(r) for r in engine.query_batch(batch)]
            want = [typed(engine.query(s, t)) for s, t in batch]
            assert got == want, batch

    def test_shard_columns_match_numpy_tier(self, built):
        numpy_flat, native_flat = _twin_flats(FlatIndex.from_index(built))
        assign = shard_assignment(built.n, 3, "hash")
        for replicate in (False, True):
            for reuse in (False, True):
                want_eng = ShardQueryEngine(
                    numpy_flat, assign, replicate, reuse_scratch=reuse
                )
                got_eng = ShardQueryEngine(
                    native_flat, assign, replicate, reuse_scratch=reuse
                )
                for batch in _batches(built.n, seed=73):
                    arr = np.asarray(batch, dtype=np.int64)
                    want = _column_bytes(want_eng.answer_columns(arr))
                    got = _column_bytes(got_eng.answer_columns(arr))
                    assert got == want, (replicate, reuse, batch)
                    got_objs, *got_wire = got_eng.answer_batch(batch)
                    want_objs, *want_wire = want_eng.answer_batch(batch)
                    assert [typed(r) for r in got_objs] == [
                        typed(r) for r in want_objs
                    ]
                    assert got_wire == want_wire

    def test_out_of_range_endpoint_keeps_the_lanes_error(self, built):
        flat = FlatIndex.from_index(built)
        if not flat.has_tables:
            pytest.skip("no landmark tables on this build")
        _, native_flat = _twin_flats(flat)
        nk = native_flat._native
        bad = np.asarray([[0, 1], [0, built.n]], dtype=np.int64)
        assert nk.query_many(nk, bad, 0) is None
        engine = ShardQueryEngine(
            native_flat, shard_assignment(built.n, 2, "hash"), False
        )
        with pytest.raises(IndexError):
            engine.answer_columns(bad)


@needs_native
class TestCorruptStoreBatches:
    """A weighted store whose member slice names a node its distance
    slice lacks: the C lane reports the pair, and the batch is answered
    by the step-by-step lanes exactly as before the one-call lane."""

    @staticmethod
    def _corrupt():
        graph = random_connected_graph(220, 640, seed=33, weighted=True)
        index = VicinityOracle.build(
            graph, config=OracleConfig(alpha=4.0, seed=5, fallback="none")
        ).index
        flat = FlatIndex.from_index(index)
        arrays = dict(flat.arrays)
        vic_nodes = arrays["vic_nodes"].copy()
        lm = flat.landmark_row
        for u in range(flat.n):
            if lm[u] >= 0:
                continue
            lo, hi = int(flat.vic_offsets[u]), int(flat.vic_offsets[u + 1])
            mlo, mhi = int(flat.member_offsets[u]), int(flat.member_offsets[u + 1])
            for v in flat.member_nodes[mlo:mhi].tolist():
                pos = lo + int(np.searchsorted(vic_nodes[lo:hi], v))
                floor = int(vic_nodes[pos - 1]) + 1 if pos > lo else 0
                if v == u or lm[v] >= 0 or v - 1 < floor:
                    continue
                vic_nodes[pos] = v - 1  # still sorted; v is gone
                arrays["vic_nodes"] = vic_nodes
                broken = FlatIndex(
                    arrays, n=flat.n, weighted=True, store_paths=True
                )
                broken.set_kernels("native")
                return broken, (u, v)
        pytest.skip("no corruptible member on this build")

    def test_batch_answers_match_the_step_lanes(self):
        broken, (u, v) = self._corrupt()
        nk = broken._native
        pairs = [(u, v)] + _pairs(broken.n, 40, seed=81) + [(u, v), (v, v)]
        arr = np.asarray(pairs, dtype=np.int64)
        for kernel in KERNELS:
            assert nk.query_many(nk, arr, _native.KERNEL_CODES[kernel]) is None
            engine = FlatQueryEngine(broken, kernel=kernel)
            got = [typed(r) for r in engine.query_batch(pairs)]
            want = [typed(r) for r in engine._resolve_lanes(arr, False)]
            assert got == want, kernel
        shard = ShardQueryEngine(broken, shard_assignment(broken.n, 2, "hash"), False)
        got = _column_bytes(shard.answer_columns(arr))
        dist, method, witness, probes = shard._resolve_lanes(arr)
        same = shard.assign[arr[:, 0]] == shard.assign[arr[:, 1]]
        want = _column_bytes((
            dist, method, witness, probes,
            int(same.sum()), int((~same).sum()),
            shard._trips_from_columns(arr, method, probes, same),
        ))
        assert got == want


@needs_native
class TestSavedStoreParity:
    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_round_trip_serves_identically_under_both_tiers(
        self, built, tmp_path, mmap
    ):
        path = tmp_path / "store.bin"
        save_index(built, path)
        pairs = _pairs(built.n, 400, seed=31)
        kernel = built.config.kernel
        want = FlatQueryEngine(
            load_flat_index(path, mmap=mmap), kernel=kernel, kernels="numpy"
        ).query_batch(pairs, with_path=True)
        got = FlatQueryEngine(
            load_flat_index(path, mmap=mmap), kernel=kernel, kernels="native"
        ).query_batch(pairs, with_path=True)
        assert_results_identical(got, want)


@needs_native
class TestDynamicRepairParity:
    def test_refreshed_index_keeps_the_tier_and_parity(self):
        from repro.core.dynamic import DynamicVicinityOracle

        graph = random_connected_graph(150, 400, seed=23)
        dynamic = DynamicVicinityOracle(
            VicinityOracle.build(
                graph, config=OracleConfig(alpha=4.0, seed=7, fallback="none")
            ).index
        )
        dynamic.query(0, 1)
        FlatIndex.from_index(dynamic.index).set_kernels("native")
        pairs = _pairs(graph.n, 150, seed=24)
        rng = np.random.default_rng(25)
        inserted = 0
        while inserted < 3:
            u, v = (int(x) for x in rng.integers(0, graph.n, 2))
            if u == v or not dynamic.add_edge(u, v):
                continue
            inserted += 1
            flat = dynamic.index._flat_index
            assert flat.kernels == "native"  # choice survives the splice
            engine = dynamic._oracle.engine
            assert engine._native_resolve is not None
            reference = FlatQueryEngine(flat, kernels="numpy")
            # the explicit numpy engine above flips the shared index's
            # tier; flip it back so the dynamic engine stays native
            flat.set_kernels("native")
            for s, t in pairs:
                got = engine.resolve(s, t, False)
                want = reference.resolve(s, t, False)
                assert fields(got) == fields(want), (u, v, s, t)


@needs_native
class TestShardEngineScratch:
    @staticmethod
    def _payload(resp, pairs, integral=True):
        # everything but the wall-clock exec_ns stamp
        return (
            resp.ok,
            resp.local,
            resp.remote,
            resp.trips.tolist(),
            [
                (r.distance, r.method, r.witness, r.probes, r.path)
                for r in resp.to_results(pairs.tolist(), integral=integral)
            ],
        )

    def test_scratch_reuse_is_byte_identical(self, built):
        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 3, "hash")
        plain = ShardQueryEngine(flat, assign, False)
        reusing = ShardQueryEngine(flat, assign, False, reuse_scratch=True)
        pairs = np.asarray(_pairs(built.n, 300, seed=41), dtype=np.int64)
        for chunk in np.array_split(pairs, 5):
            a = plain.run_frame(RequestFrame(1, chunk, False))
            b = reusing.run_frame(RequestFrame(1, chunk, False))
            assert self._payload(a, chunk, flat.integral) == self._payload(b, chunk, flat.integral)

    def test_scratch_grows_to_fit(self, built):
        flat = FlatIndex.from_index(built)
        assign = shard_assignment(built.n, 2, "hash")
        engine = ShardQueryEngine(flat, assign, False, reuse_scratch=True)
        small = np.asarray(_pairs(built.n, 8, seed=42), dtype=np.int64)
        large = np.asarray(_pairs(built.n, 600, seed=43), dtype=np.int64)
        baseline = ShardQueryEngine(flat, assign, False)
        for chunk in (small, large, small):
            got = engine.run_frame(RequestFrame(1, chunk, False))
            want = baseline.run_frame(RequestFrame(1, chunk, False))
            assert self._payload(got, chunk, flat.integral) == self._payload(want, chunk, flat.integral)


@needs_native
class TestScratchThreadSafety:
    def test_callpack_is_per_thread(self, built):
        flat = FlatIndex.from_index(built)
        flat.set_kernels("native")
        nk = flat._native
        import threading

        packs = {}

        def grab(key):
            packs[key] = nk.callpack()

        threads = [
            threading.Thread(target=grab, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grab("main")
        addresses = {pack[3] for pack in packs.values()}
        assert len(addresses) == len(packs)  # distinct result buffers

    def test_concurrent_resolves_match_serial(self, built):
        import threading

        engine = FlatQueryEngine.from_index(built, kernels="native")
        reference = FlatQueryEngine.from_index(built, kernels="numpy")
        pairs = _pairs(built.n, 400, seed=51)
        want = [fields(reference.resolve(s, t, False)) for s, t in pairs]
        errors = []

        def worker():
            for (s, t), expect in zip(pairs, want):
                got = fields(engine.resolve(s, t, False))
                if got != expect:
                    errors.append((s, t, got, expect))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:3]


@needs_native
class TestNativeBatchKernels:
    """The array-lane wrappers against their numpy twins, directly."""

    def test_member_probe_many(self, built):
        flat = FlatIndex.from_index(built)
        flat.set_kernels("native")
        rng = np.random.default_rng(61)
        owners = rng.integers(0, built.n, 500)
        others = rng.integers(0, built.n, 500)
        hit_n, dist_n = flat.member_probe_many(owners, others)
        flat.set_kernels("numpy")
        hit_p, dist_p = flat.member_probe_many(owners, others)
        assert np.array_equal(hit_n, hit_p)
        assert np.array_equal(dist_n[hit_n], dist_p[hit_p])

    def test_table_lookup_many(self, built):
        flat = FlatIndex.from_index(built)
        if not flat.has_tables:
            pytest.skip("no landmark tables on this build")
        landmarks = flat.landmark_ids
        rng = np.random.default_rng(62)
        endpoints = landmarks[rng.integers(0, len(landmarks), 300)].astype(np.int64)
        others = rng.integers(0, built.n, 300)
        flat.set_kernels("native")
        got = flat.table_lookup_many(endpoints, others)
        flat.set_kernels("numpy")
        want = flat.table_lookup_many(endpoints, others)
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)

    def test_intersect_payload(self, built):
        flat = FlatIndex.from_index(built)
        rng = np.random.default_rng(63)
        for _ in range(200):
            owner = int(rng.integers(0, built.n))
            target = int(rng.integers(0, built.n))
            nodes, dists = flat.boundary_payload(owner)
            flat.set_kernels("native")
            got = flat.intersect_payload(nodes, dists, target)
            flat.set_kernels("numpy")
            want = flat.intersect_payload(nodes, dists, target)
            assert got == want, (owner, target)
