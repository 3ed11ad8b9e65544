"""Partitioned serving simulation (§5) and the offline build backend.

The paper asks whether vicinity intersection can be parallelised without
replicating the data structure on every machine.  The structure
partitions naturally:

* each shard owns the vicinities of its resident nodes;
* each landmark's full table lives on the landmark's shard (optionally
  replicated everywhere for latency);
* the input graph itself is needed *nowhere* at query time — unlike the
  MapReduce/Pregel approaches the paper cites, which ship the whole
  network.

A query ``(s, t)`` is routed to ``shard(s)`` (the coordinator).  The
coordinator resolves conditions (1) and (3) of Algorithm 1 locally,
resolves (2)/(4) with one round trip to ``shard(t)``, and performs
intersection by shipping the *boundary* of ``Gamma(s)`` — the same
small set Lemma 1 licenses probing — to ``shard(t)``.  The simulation
counts messages and bytes per query and reports per-shard memory, which
is what a deployment needs to size machines.

The second half of this module is the library's only offline build
path: :func:`build_flat_store` runs the whole §2.2/§3.1 precomputation
straight into the flat store — batched truncated BFS
(:mod:`repro.graph.traversal.batched`), vectorised boundary extraction
(:func:`repro.core.vicinity.boundary_mask_packed`) and direct packing
into the persistence layout — optionally partitioned across worker
processes that share the CSR through one
:class:`~repro.io.shm.SharedArrayBundle` segment and return packed
per-source slices the coordinator concatenates straight into
:class:`~repro.core.flat.FlatIndex` arrays.  No per-node dict record is
ever materialised on this path; the per-node dict builder survives
only as the test oracle in :mod:`repro.core.reference` (pinned
field-identical in ``tests/core/test_flatbuild.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.flat import (
    compact_store_arrays,
    id_dtype_for,
    landmark_row_map,
    pred_sentinel,
)
from repro.core.index import VicinityIndex
from repro.core.intersect import scan_and_probe
from repro.core.memory import BYTES_PER_ENTRY_WITH_PATHS
from repro.core.oracle import QueryResult
from repro.core.vicinity import boundary_mask_packed
from repro.exceptions import IndexBuildError, QueryError
from repro.graph.csr import CSRGraph
from repro.graph.traversal.batched import NO_RADIUS, grow_balls

#: Modelled wire size of one (node id, distance) pair.
BYTES_PER_WIRE_ENTRY = 8
#: Modelled wire size of a control message (request/response header).
BYTES_PER_CONTROL = 64


def shard_assignment(n: int, num_shards: int, placement: str = "hash") -> np.ndarray:
    """Vectorised node-to-shard map (``shard_of`` for all of ``V`` at once).

    Element ``u`` equals :meth:`PartitionedOracle.shard_of` ``(u)`` for
    the same placement — pinned by a test, since both serving backends
    route with this array.
    """
    if num_shards < 1:
        raise QueryError("num_shards must be at least 1")
    ids = np.arange(n, dtype=np.int64)
    if placement == "hash":
        return ((ids * 2654435761 % (1 << 32)) % num_shards).astype(np.int64)
    if placement == "range":
        span = (n + num_shards - 1) // num_shards
        return np.minimum(ids // span, num_shards - 1)
    raise QueryError("placement must be 'hash' or 'range'")


def balance_summary_from_reports(reports: list["ShardReport"]) -> dict[str, float]:
    """Load-balance metrics over per-shard model memory sizes."""
    sizes = [r.model_bytes for r in reports]
    mean = sum(sizes) / len(sizes) if sizes else 0.0
    worst = max(sizes) if sizes else 0
    return {
        "shards": float(len(reports)),
        "mean_bytes": mean,
        "max_bytes": float(worst),
        "imbalance": (worst / mean) if mean else 0.0,
    }


@dataclass
class MessageLog:
    """Network traffic incurred by queries in the simulation."""

    messages: int = 0
    bytes: int = 0
    remote_queries: int = 0
    local_queries: int = 0

    def record_round_trip(self, payload_bytes: int) -> None:
        """One request/response exchange with the given payload size."""
        self.messages += 2
        self.bytes += 2 * BYTES_PER_CONTROL + payload_bytes

    @property
    def mean_messages(self) -> float:
        """Average messages per query."""
        total = self.remote_queries + self.local_queries
        return self.messages / total if total else 0.0


@dataclass
class ShardReport:
    """Memory accounting for one shard."""

    shard_id: int
    nodes: int = 0
    vicinity_entries: int = 0
    boundary_entries: int = 0
    table_entries: int = 0

    @property
    def model_bytes(self) -> int:
        """Bytes under the same cost model as :mod:`repro.core.memory`."""
        return (
            (self.vicinity_entries + self.table_entries) * BYTES_PER_ENTRY_WITH_PATHS
            + self.boundary_entries * 4
        )


class PartitionedOracle:
    """Vicinity intersection served from ``num_shards`` machines.

    Wraps a built :class:`VicinityIndex`; placement is by node id hash
    (``"hash"``) or contiguous ranges (``"range"``).  Query results are
    identical to the single-machine oracle for every method except
    fallback, which is disabled (a distributed graph search would
    require the input network the design deliberately does not ship) —
    misses are reported as such.
    """

    def __init__(
        self,
        index: VicinityIndex,
        num_shards: int,
        *,
        placement: str = "hash",
        replicate_tables: bool = False,
    ) -> None:
        if num_shards < 1:
            raise QueryError("num_shards must be at least 1")
        if placement not in ("hash", "range"):
            raise QueryError("placement must be 'hash' or 'range'")
        self.index = index
        self.num_shards = num_shards
        self.placement = placement
        self.replicate_tables = replicate_tables
        self.log = MessageLog()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def shard_of(self, u: int) -> int:
        """Return the shard owning node ``u``."""
        self.index.graph.check_node(u)
        if self.placement == "hash":
            # Multiplicative hashing: avoids pathological locality of
            # consecutive ids while staying deterministic.
            return (u * 2654435761 % (1 << 32)) % self.num_shards
        span = (self.index.n + self.num_shards - 1) // self.num_shards
        return min(u // span, self.num_shards - 1)

    def shard_reports(self) -> list[ShardReport]:
        """Per-shard memory accounting (the deployment-sizing output)."""
        reports = [ShardReport(shard_id=k) for k in range(self.num_shards)]
        for u in range(self.index.n):
            report = reports[self.shard_of(u)]
            report.nodes += 1
            vic = self.index.vicinities[u]
            report.vicinity_entries += vic.size
            report.boundary_entries += vic.boundary_size
        for landmark in self.index.tables:
            if self.replicate_tables:
                for report in reports:
                    report.table_entries += self.index.n
            else:
                reports[self.shard_of(landmark)].table_entries += self.index.n
        return reports

    # ------------------------------------------------------------------
    # query simulation
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> QueryResult:
        """Answer a query, logging the simulated traffic.

        Distances (and methods) match the single-machine oracle except
        that missing intersections report ``"miss"`` instead of running
        a fallback search.
        """
        index = self.index
        index.graph.check_node(source)
        index.graph.check_node(target)
        same_shard = self.shard_of(source) == self.shard_of(target)
        if same_shard:
            self.log.local_queries += 1
        else:
            self.log.remote_queries += 1
        probes = 0

        if source == target:
            return QueryResult(source, target, 0, None, "identical", None, 0)

        flags = index.landmarks.is_landmark
        probes += 1
        if flags[source] and source in index.tables:
            # Table lives with s on the coordinator (or everywhere).
            probes += 1
            d = index.tables[source].distance_to(target)
            method = "landmark-source" if d is not None else "disconnected"
            return QueryResult(source, target, d, None, method, None, probes)
        probes += 1
        if flags[target] and target in index.tables:
            probes += 1
            if not same_shard and not self.replicate_tables:
                self.log.record_round_trip(BYTES_PER_WIRE_ENTRY)
            d = index.tables[target].distance_to(source)
            method = "landmark-target" if d is not None else "disconnected"
            return QueryResult(source, target, d, None, method, None, probes)

        vic_s = index.vicinities[source]
        vic_t = index.vicinities[target]
        probes += 1
        if target in vic_s.members:
            return QueryResult(
                source, target, vic_s.dist[target], None,
                "target-in-source-vicinity", None, probes,
            )
        probes += 1
        if source in vic_t.members:
            if not same_shard:
                self.log.record_round_trip(BYTES_PER_WIRE_ENTRY)
            return QueryResult(
                source, target, vic_t.dist[source], None,
                "source-in-target-vicinity", None, probes,
            )

        # Intersection: ship s's boundary (with distances) to shard(t).
        if not same_shard:
            self.log.record_round_trip(len(vic_s.boundary) * BYTES_PER_WIRE_ENTRY)
        best, witness, kernel_probes = scan_and_probe(
            vic_s.boundary, vic_s.dist, vic_t.members, vic_t.dist
        )
        probes += kernel_probes
        if best is not None:
            return QueryResult(
                source, target, best, None, "intersection", witness, probes
            )
        return QueryResult(source, target, None, None, "miss", None, probes)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def balance_summary(self) -> dict[str, float]:
        """Load-balance metrics over shard memory sizes."""
        return balance_summary_from_reports(self.shard_reports())


# ======================================================================
# the offline build (vicinities + tables, dict-free)
# ======================================================================

#: Sources per vicinity work unit.  Small enough for load balance and
#: progress granularity, large enough that per-chunk overhead (one
#: pool round trip, a few array concatenations) stays negligible.
BUILD_CHUNK_SOURCES = 4096

#: Landmark tables per work unit in the table stage.
BUILD_CHUNK_TABLES = 16

#: Worker-side state for the build pool, keyed by the shared segment
#: name — workers re-attach lazily when a task references a different
#: build's segment, which is what lets one pool serve many rebuilds.
_BUILD_STATE: dict = {}


def create_build_pool(workers: int, *, start_method: Optional[str] = None):
    """A reusable :class:`ProcessPoolExecutor` for repeated flat builds.

    Spawn cost dominates multi-worker builds at small scale (each spawn
    worker re-imports numpy); a persistent pool pays it once across
    every rebuild passed via ``build_flat_store(..., pool=...)``.
    Prefers the ``fork`` start method where the platform offers it —
    forked workers skip the re-import entirely — and falls back to
    ``spawn``.  Callers own the pool's lifetime (``pool.shutdown()``).

    Memory note: each worker keeps the *last* build's shared-CSR
    mapping attached until the next build's first task replaces it (or
    the pool shuts down), so an idle pool pins roughly one graph's CSR
    in ``/dev/shm``.  Shut the pool down between builds of very large
    graphs if that residency matters more than the spawn saving.
    """
    import multiprocessing

    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    context = multiprocessing.get_context(start_method)
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def build_flat_store(
    graph: CSRGraph,
    config,
    landmarks,
    *,
    workers: int = 1,
    pool: Optional[ProcessPoolExecutor] = None,
    progress: Optional[Callable[[str, int, int], None]] = None,
    timings: Optional[dict] = None,
) -> dict[str, np.ndarray]:
    """Run the offline phase straight into the flat persistence layout.

    The backend of :meth:`repro.core.index.VicinityIndex.from_landmarks`:
    every array of :data:`repro.io.oracle_store.FLAT_STORE_ARRAYS` is produced
    directly — batched truncated BFS for the vicinities (per-node
    scalar Dijkstra on weighted graphs), vectorised boundary
    extraction, stacked single-source sweeps for the landmark tables —
    with no per-node ``Vicinity`` record in between.  The output is
    field-identical to flattening the per-node reference builder's
    records (``flatten_index(build_reference_index(...))``, see
    :mod:`repro.core.reference`) for the same ``(graph, config,
    landmarks)``.  It also carries the probe extras
    (:data:`repro.core.flat.PROBE_EXTRA_ARRAYS`: per-boundary
    distances and the landmark row map), read off the build as it
    packs, so the probe surface needs no derivation pass.

    Args:
        graph: the network (undirected CSR; weighted or not).
        config: the :class:`~repro.core.config.OracleConfig` in effect.
        landmarks: the frozen :class:`~repro.core.landmarks.LandmarkSet`.
        workers: worker processes sharing the CSR through shared
            memory; ``1`` builds in-process.  Results are identical for
            any worker count (pinned by a test).
        pool: a reusable executor from :func:`create_build_pool` —
            repeated rebuilds then skip per-build process spawn (the
            PR 4 follow-up).  Workers receive each build's shared-CSR
            spec with their tasks and re-attach only when it changes,
            so one pool serves any sequence of graphs.  Overrides
            ``workers``.
        progress: optional ``(stage, done, total)`` callback over the
            ``"vicinities"`` and ``"landmark-tables"`` stages.
        timings: optional dict that receives per-stage wall-clock
            seconds (``"vicinities"``, ``"landmark-tables"``).

    Raises:
        IndexBuildError: empty graph, or ``vicinity_floor`` on a
            weighted graph.
    """
    if graph.n == 0:
        raise IndexBuildError("cannot build an index over an empty graph")
    if workers < 1:
        raise IndexBuildError("workers must be at least 1")
    weighted = graph.is_weighted
    min_size: Optional[int] = None
    if config.vicinity_floor > 0:
        if weighted:
            raise IndexBuildError(
                "vicinity_floor requires an unweighted graph "
                "(per-node radii are only provably exact there)"
            )
        min_size = int(config.vicinity_floor * config.alpha * np.sqrt(graph.n))
    flags = np.frombuffer(landmarks.is_landmark, dtype=np.uint8)
    table_ids = landmarks.ids if config.landmark_tables != "none" else None
    meta = {
        "min_size": min_size,
        "store_paths": bool(config.store_paths),
        "weighted": weighted,
    }

    vic_bounds = _chunk_bounds(graph.n, BUILD_CHUNK_SOURCES)
    started = time.perf_counter()
    if pool is None and workers == 1:
        state = {"graph": graph, "flags": flags, **meta}
        vic_chunks = []
        for lo, hi in vic_bounds:
            vic_chunks.append(_vicinity_chunk(state, lo, hi))
            if progress is not None:
                progress("vicinities", hi, graph.n)
        if timings is not None:
            timings["vicinities"] = time.perf_counter() - started
        table_chunks, table_elapsed = _run_table_stage(
            table_ids,
            progress,
            lambda id_chunks: (_tables_chunk(state, ids) for ids in id_chunks),
        )
    else:
        from repro.io.shm import SharedArrayBundle

        shared = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "flags": flags,
        }
        if weighted:
            shared["weights"] = graph.weights
        owns_pool = pool is None
        if owns_pool:
            pool = create_build_pool(workers, start_method="spawn")
        try:
            with SharedArrayBundle.create(shared) as bundle:
                build = (bundle.spec, graph.n, meta)
                vic_chunks = []
                vic_tasks = [(*build, bounds) for bounds in vic_bounds]
                for (lo, hi), chunk in zip(
                    vic_bounds, pool.map(_build_worker_vicinities, vic_tasks)
                ):
                    vic_chunks.append(chunk)
                    if progress is not None:
                        progress("vicinities", hi, graph.n)
                if timings is not None:
                    timings["vicinities"] = time.perf_counter() - started
                table_chunks, table_elapsed = _run_table_stage(
                    table_ids,
                    progress,
                    lambda id_chunks: pool.map(
                        _build_worker_tables,
                        [(*build, ids) for ids in id_chunks],
                    ),
                )
        finally:
            if owns_pool:
                pool.shutdown()
    if timings is not None:
        timings["landmark-tables"] = table_elapsed

    return _assemble_store(
        vic_chunks, table_chunks, graph.n, weighted, landmarks
    )


def _chunk_bounds(total: int, step: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_table_stage(table_ids, progress, run_chunks):
    """Time and drive the landmark-table stage over chunked id ranges.

    ``run_chunks`` maps a list of landmark-id arrays to an in-order
    iterable of table chunk results (inline generator or pool map).
    """
    if table_ids is None or table_ids.size == 0:
        return [], 0.0
    started = time.perf_counter()
    bounds = _chunk_bounds(table_ids.size, BUILD_CHUNK_TABLES)
    id_chunks = [table_ids[lo:hi] for lo, hi in bounds]
    chunks = []
    for (lo, hi), chunk in zip(bounds, run_chunks(id_chunks)):
        chunks.append(chunk)
        if progress is not None:
            progress("landmark-tables", hi, int(table_ids.size))
    return chunks, time.perf_counter() - started


# ----------------------------------------------------------------------
# per-chunk work (shared between the inline path and pool workers)
# ----------------------------------------------------------------------
def _build_worker_state(spec, n: int, meta: dict) -> dict:
    """The worker-side state for one build, (re-)attached on demand.

    Every task carries its build's ``(spec, n, meta)``, and the worker
    keeps one attachment cached by segment name — so a long-lived pool
    (:func:`create_build_pool`) maps each build's shared CSR exactly
    once per worker, and a different build's first task transparently
    swaps the mapping.
    """
    from repro.io.shm import SharedArrayBundle

    state = _BUILD_STATE
    if state.get("segment") != spec["segment"]:
        stale = state.get("bundle")
        if stale is not None:
            stale.close()
        bundle = SharedArrayBundle.attach(spec)
        arrays = bundle.arrays
        graph = CSRGraph(
            n, arrays["indptr"], arrays["indices"], arrays.get("weights")
        )
        state.clear()
        state.update(
            {
                "segment": spec["segment"],
                "bundle": bundle,
                "graph": graph,
                "flags": arrays["flags"],
            }
        )
    state.update(meta)
    return state


def _build_worker_vicinities(task):
    spec, n, meta, (lo, hi) = task
    return _vicinity_chunk(_build_worker_state(spec, n, meta), lo, hi)


def _build_worker_tables(task):
    spec, n, meta, ids = task
    return _tables_chunk(_build_worker_state(spec, n, meta), ids)


def _vicinity_chunk(state: dict, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Build the packed store slices of every node in ``[lo, hi)``.

    Returns per-chunk counts plus concatenated entry columns; landmark
    nodes contribute empty slices and radius 0 exactly as Definition 1
    dictates.
    """
    graph: CSRGraph = state["graph"]
    flags: np.ndarray = state["flags"]
    ids = id_dtype_for(graph.n)
    span = hi - lo
    is_lm = flags[lo:hi].astype(bool)
    sources = np.arange(lo, hi, dtype=np.int64)[~is_lm]
    radii = np.zeros(span, dtype=np.float64)

    if state["weighted"]:
        packed = _weighted_sources_packed(graph, flags, sources, state["store_paths"])
        (vic_counts, vic_nodes, vic_dists, vic_preds,
         member_counts, member_nodes, boundary_counts, boundary_nodes,
         boundary_dists, source_radii) = packed
    else:
        balls = grow_balls(
            graph.indptr, graph.indices, graph.n, sources, flags,
            min_size=state["min_size"], id_dtype=ids,
        )
        ball_counts = np.diff(balls.offsets)
        local_owner = np.repeat(
            np.arange(sources.size, dtype=np.int64), ball_counts
        )
        # Within-slice sort by node id (the flat probe layout); the
        # boundary keeps the packed discovery order — Lemma 1's scan
        # order, which the kernels' witness tie-breaking depends on.
        key = local_owner * np.int64(graph.n) + balls.nodes
        order = np.argsort(key, kind="stable")
        vic_counts = member_counts = ball_counts
        vic_nodes = member_nodes = balls.nodes[order]
        vic_dists = balls.dists[order].astype(np.int32, copy=False)
        if state["store_paths"]:
            vic_preds = balls.preds[order]
        else:
            vic_preds = np.full(
                balls.preds.size, pred_sentinel(ids), dtype=ids
            )
        bmask = balls.boundary_mask
        boundary_nodes = balls.nodes[bmask]
        boundary_dists = balls.dists[bmask].astype(np.int32, copy=False)
        boundary_counts = np.bincount(
            local_owner[bmask], minlength=sources.size
        ).astype(np.int64)
        source_radii = np.where(
            balls.radii == NO_RADIUS, np.nan, balls.radii.astype(np.float64)
        )

    radii[~is_lm] = source_radii
    counts_full = np.zeros(span, dtype=np.int64)
    counts_full[~is_lm] = vic_counts
    member_full = np.zeros(span, dtype=np.int64)
    member_full[~is_lm] = member_counts
    boundary_full = np.zeros(span, dtype=np.int64)
    boundary_full[~is_lm] = boundary_counts
    return {
        "vic_counts": counts_full,
        "vic_nodes": vic_nodes,
        "vic_dists": vic_dists,
        "vic_preds": vic_preds,
        "member_counts": member_full,
        "member_nodes": member_nodes,
        "boundary_counts": boundary_full,
        "boundary_nodes": boundary_nodes,
        "boundary_dists": boundary_dists,
        "radii": radii,
    }


def _weighted_sources_packed(
    graph: CSRGraph, flags: np.ndarray, sources: np.ndarray, store_paths: bool
):
    """Weighted chunk: per-source scalar Dijkstra, packed dict-free.

    Weighted balls stay per-node (a batched Dijkstra would need a
    mergeable frontier heap), but the packing — sorted distance-table
    slices, sorted member arrays, vectorised boundary masks — runs on
    arrays, so the coordinator still never sees a ``Vicinity`` record.
    """
    from repro.core.flat import _sorted_vic_slice
    from repro.graph.traversal.bounded import truncated_dijkstra_ball

    ids = id_dtype_for(graph.n)
    sentinel = pred_sentinel(ids)
    # The scalar loop indexes the flags per neighbour; a bytearray
    # iterates unboxed where a numpy scalar would dominate the loop.
    flag_bytes = bytearray(flags.tobytes())
    vic_counts = np.zeros(sources.size, dtype=np.int64)
    member_counts = np.zeros(sources.size, dtype=np.int64)
    boundary_counts = np.zeros(sources.size, dtype=np.int64)
    radii = np.full(sources.size, np.nan, dtype=np.float64)
    vic_nodes_parts, vic_dists_parts, vic_preds_parts = [], [], []
    member_parts, boundary_parts, boundary_dist_parts = [], [], []
    single_offset = np.zeros(2, dtype=np.int64)
    for i, u in enumerate(sources.tolist()):
        result = truncated_dijkstra_ball(graph, u, flag_bytes)
        keys, values, preds = _sorted_vic_slice(result, np.float64)
        if store_paths:
            preds = preds.astype(ids)  # -1 wraps to the sentinel
        else:
            preds = np.full(keys.size, sentinel, dtype=ids)
        gamma = np.asarray(result.gamma, dtype=np.int64)
        members = np.sort(gamma)
        single_offset[1] = gamma.size
        bmask = boundary_mask_packed(
            single_offset, gamma, members, graph.indptr, graph.indices, graph.n
        )
        vic_counts[i] = keys.size
        member_counts[i] = members.size
        vic_nodes_parts.append(keys.astype(ids))
        vic_dists_parts.append(values)
        vic_preds_parts.append(preds)
        member_parts.append(members.astype(ids))
        boundary = gamma[bmask]
        boundary_counts[i] = boundary.size
        boundary_parts.append(boundary.astype(ids))
        boundary_dist_parts.append(values[np.searchsorted(keys, boundary)])
        if result.radius is not None:
            radii[i] = float(result.radius)
    empty = np.zeros(0, dtype=ids)
    return (
        vic_counts,
        np.concatenate(vic_nodes_parts) if vic_nodes_parts else empty,
        (
            np.concatenate(vic_dists_parts)
            if vic_dists_parts
            else np.zeros(0, dtype=np.float64)
        ),
        np.concatenate(vic_preds_parts) if vic_preds_parts else empty,
        member_counts,
        np.concatenate(member_parts) if member_parts else empty,
        boundary_counts,
        np.concatenate(boundary_parts) if boundary_parts else empty,
        (
            np.concatenate(boundary_dist_parts)
            if boundary_dist_parts
            else np.zeros(0, dtype=np.float64)
        ),
        radii,
    )


def _tables_chunk(state, ids: np.ndarray) -> dict[str, np.ndarray]:
    """Single-source sweeps for a chunk of landmarks, stacked."""
    graph: CSRGraph = state["graph"]
    store_paths: bool = state["store_paths"]
    dist_rows, parent_rows = [], []
    if state["weighted"]:
        from repro.graph.traversal.dijkstra import dijkstra_tree

        for landmark in ids.tolist():
            dist, parent = dijkstra_tree(graph, landmark)
            dist_rows.append(dist)
            parent_rows.append(parent.astype(np.int32))
    else:
        from repro.graph.traversal.vectorized import bfs_tree_vectorized

        for landmark in ids.tolist():
            dist, parent = bfs_tree_vectorized(graph, landmark)
            dist_rows.append(dist)
            parent_rows.append(parent)
    out = {"dist": np.stack(dist_rows)}
    out["parent"] = (
        np.stack(parent_rows)
        if store_paths
        else np.zeros((0, 0), dtype=np.int32)
    )
    return out


def _assemble_store(
    vic_chunks, table_chunks, n: int, weighted: bool, landmarks
) -> dict[str, np.ndarray]:
    """Concatenate packed chunks into the persistence layout."""
    dist_dtype = np.float64 if weighted else np.int32
    store = _assemble_vicinity_parts(vic_chunks, n, dist_dtype)
    table_dist, table_parent = _assemble_tables(table_chunks, dist_dtype)
    store.update(
        {
            "landmarks": landmarks.ids,
            "landmark_scale": np.asarray(landmarks.scale, dtype=np.float64),
            "table_dist": table_dist,
            "table_parent": table_parent,
            "landmark_row": landmark_row_map(landmarks.ids, n),
        }
    )
    # The entry columns arrive compact from the chunks; this settles
    # offsets, table parents and the weighted float32-exactness
    # decision, so build output and dict flatten share one dtype policy.
    return compact_store_arrays(store, n, weighted=weighted)


def _assemble_vicinity_parts(vic_chunks, n: int, dist_dtype) -> dict[str, np.ndarray]:
    ids = id_dtype_for(n)

    def offsets_of(count_key: str) -> np.ndarray:
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.concatenate([c[count_key] for c in vic_chunks]), out=offsets[1:]
        )
        return offsets

    def column(key: str, dtype) -> np.ndarray:
        parts = [c[key] for c in vic_chunks if c[key].size]
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.ascontiguousarray(np.concatenate(parts), dtype=dtype)

    return {
        "vic_offsets": offsets_of("vic_counts"),
        "vic_nodes": column("vic_nodes", ids),
        "vic_dists": column("vic_dists", dist_dtype),
        "vic_preds": column("vic_preds", ids),
        "member_offsets": offsets_of("member_counts"),
        "member_nodes": column("member_nodes", ids),
        "boundary_offsets": offsets_of("boundary_counts"),
        "boundary_nodes": column("boundary_nodes", ids),
        "boundary_dists": column("boundary_dists", dist_dtype),
        "radii": np.concatenate([c["radii"] for c in vic_chunks]),
    }


def _assemble_tables(table_chunks, dist_dtype):
    if table_chunks:
        table_dist = np.vstack([c["dist"] for c in table_chunks])
        parent_parts = [c["parent"] for c in table_chunks if c["parent"].size]
        table_parent = (
            np.vstack(parent_parts)
            if parent_parts
            else np.zeros((0, 0), dtype=np.int32)
        )
    else:
        table_dist = np.zeros((0, 0), dtype=dist_dtype)
        table_parent = np.zeros((0, 0), dtype=np.int32)
    return table_dist, table_parent


class _RawCSR:
    """Minimal CSR view the unweighted chunk builder can traverse.

    The directed builder hands one *orientation* of a digraph to
    :func:`_vicinity_chunk`, which only touches ``n``/``indptr``/
    ``indices`` on the unweighted path — no :class:`CSRGraph` invariants
    (symmetry) apply to a single orientation.
    """

    __slots__ = ("n", "indptr", "indices")
    is_weighted = False

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.n = int(n)


def build_directed_side_store(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    flags: np.ndarray,
    landmark_ids: np.ndarray,
    *,
    min_size: Optional[int] = None,
    tables: bool = True,
) -> dict[str, np.ndarray]:
    """Offline build of one directed orientation, straight to arrays.

    The directed analogue of :func:`build_flat_store` for a single
    side: batched truncated BFS over the orientation's CSR, vectorised
    boundary extraction, plus that orientation's stacked landmark
    tables (forward tables for the out side when given
    ``(out_indptr, out_indices)``, backward for the in side).  The
    output layout matches
    :func:`repro.core.flat.directed_side_store_arrays` on the reference
    builder's records (:mod:`repro.core.reference`), field for field.
    """
    from repro.graph.traversal.vectorized import digraph_bfs_tree_vectorized

    state = {
        "graph": _RawCSR(indptr, indices, n),
        "flags": np.asarray(flags, dtype=np.uint8),
        "weighted": False,
        "store_paths": True,
        "min_size": min_size,
    }
    chunks = [
        _vicinity_chunk(state, lo, hi)
        for lo, hi in _chunk_bounds(n, BUILD_CHUNK_SOURCES)
    ]
    store = _assemble_vicinity_parts(chunks, n, np.int32)
    ids = np.ascontiguousarray(landmark_ids, dtype=np.int64)
    store["landmarks"] = ids
    store["landmark_row"] = landmark_row_map(ids, n)
    if tables and ids.size:
        dist_rows, parent_rows = [], []
        for landmark in ids.tolist():
            dist, parent = digraph_bfs_tree_vectorized(indptr, indices, n, landmark)
            dist_rows.append(dist)
            parent_rows.append(parent)
        store["table_dist"] = np.stack(dist_rows)
        store["table_parent"] = np.stack(parent_rows)
    else:
        store["table_dist"] = np.zeros((0, 0), dtype=np.int32)
        store["table_parent"] = np.zeros((0, 0), dtype=np.int32)
    return compact_store_arrays(store, n, weighted=False)
