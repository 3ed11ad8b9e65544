"""The retired dict paths, preserved as the parity baseline.

The library has one offline build path — the batched flat pipeline
behind :meth:`~repro.core.index.VicinityIndex.build` and
:meth:`~repro.core.directed.DirectedVicinityOracle.build` — and one read
path, the flat :class:`~repro.core.engine.FlatQueryEngine`.  The
per-node dict implementations both replaced live on here, verbatim, as
an independent test oracle:

* **builders** — :func:`build_reference_index` grows one truncated
  ball per node into :class:`~repro.core.vicinity.Vicinity` records,
  plus one single-source table per landmark;
  :func:`build_reference_directed` does the same per orientation.  The build parity suites
  (``tests/core/test_flatbuild.py`` and friends) pin the flat store
  field-for-field against flattening these records, and
  ``benchmarks/bench_offline.py`` races them (the >= 3x bar);
* **resolvers** — :class:`DictReferenceOracle` and
  :func:`directed_reference_resolve` probe the dict records directly.
  The engine parity suite (``tests/core/test_engine.py``) pins every
  :class:`QueryResult` field of the engine against them, and
  ``benchmarks/bench_service.py`` races the fused flat ``query_batch``
  against the dict ``query_batch`` (the >= 2x bar).

Nothing in the serving stack may import this module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import OracleConfig
from repro.core.directed import (
    DirectedQueryResult,
    DirectedVicinityOracle,
    _truncated_directed_ball,
)
from repro.core.fallback import fallback_distance, fallback_path
from repro.core.index import (
    LandmarkTable,
    ProgressCallback,
    VicinityIndex,
    draw_landmarks,
)
from repro.core.intersect import run_kernel, scan_and_probe
from repro.core.landmarks import LandmarkSet
from repro.core.oracle import QueryResult
from repro.core.paths import (
    splice_at_witness,
    walk_parent_array,
    walk_predecessors,
)
from repro.core.vicinity import Vicinity, build_vicinity, compute_boundary
from repro.exceptions import IndexBuildError, QueryError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.traversal.bounded import truncated_bfs_ball, truncated_dijkstra_ball
from repro.graph.traversal.dijkstra import dijkstra_tree
from repro.graph.traversal.vectorized import (
    bfs_tree_vectorized,
    digraph_bfs_tree_vectorized,
)
from repro.utils.rng import RngLike


# ----------------------------------------------------------------------
# the undirected dict builder (formerly VicinityIndex._build_vicinities /
# _build_tables)
# ----------------------------------------------------------------------
def build_reference_index(
    graph: CSRGraph,
    config: Optional[OracleConfig] = None,
    *,
    landmarks: Optional[LandmarkSet] = None,
    progress: Optional[ProgressCallback] = None,
) -> VicinityIndex:
    """Run the offline phase one node at a time into dict records.

    Draws the same landmark set as :meth:`VicinityIndex.build` for the
    same ``(graph, config)`` unless ``landmarks`` pins one, so the two
    builders are directly comparable.
    """
    if config is None:
        config = OracleConfig()
    if landmarks is None:
        landmarks = draw_landmarks(graph, config)
    vicinities = _reference_vicinities(graph, config, landmarks, progress)
    tables = _reference_tables(graph, config, landmarks, progress)
    return VicinityIndex(graph, config, landmarks, vicinities, tables)


def _reference_vicinities(
    graph: CSRGraph,
    config: OracleConfig,
    landmarks: LandmarkSet,
    progress: Optional[ProgressCallback],
) -> list[Vicinity]:
    adj = graph.adjacency()
    flags = landmarks.is_landmark
    min_size: Optional[int] = None
    if config.vicinity_floor > 0:
        if graph.is_weighted:
            raise IndexBuildError(
                "vicinity_floor requires an unweighted graph "
                "(per-node radii are only provably exact there)"
            )
        min_size = int(config.vicinity_floor * config.alpha * np.sqrt(graph.n))
    vicinities: list[Vicinity] = []
    step = max(1, graph.n // 50)
    for u in range(graph.n):
        if flags[u]:
            # Definition 1: a landmark's ball is empty.
            vicinities.append(
                Vicinity(node=u, radius=0, dist={}, pred={}, members=frozenset())
            )
        else:
            if graph.is_weighted:
                result = truncated_dijkstra_ball(graph, u, flags)
            else:
                result = truncated_bfs_ball(graph, u, flags, min_size=min_size)
            vicinities.append(
                build_vicinity(
                    u,
                    result.radius,
                    result.dist,
                    result.pred,
                    result.gamma,
                    adj,
                    store_paths=config.store_paths,
                )
            )
        if progress is not None and (u + 1) % step == 0:
            progress("vicinities", u + 1, graph.n)
    return vicinities


def _reference_tables(
    graph: CSRGraph,
    config: OracleConfig,
    landmarks: LandmarkSet,
    progress: Optional[ProgressCallback],
) -> dict[int, LandmarkTable]:
    if config.landmark_tables == "none":
        return {}
    tables: dict[int, LandmarkTable] = {}
    ids = landmarks.ids.tolist()
    for done, landmark in enumerate(ids, start=1):
        if graph.is_weighted:
            dist, parent = dijkstra_tree(graph, landmark)
            parent = parent.astype(np.int32)
        else:
            dist, parent = bfs_tree_vectorized(graph, landmark)
        tables[landmark] = LandmarkTable(
            landmark=landmark,
            dist=dist,
            parent=parent if config.store_paths else None,
        )
        if progress is not None:
            progress("landmark-tables", done, len(ids))
    return tables


# ----------------------------------------------------------------------
# the directed dict builder (formerly DirectedVicinityOracle._build_side)
# ----------------------------------------------------------------------
def build_reference_directed(
    graph: DiGraph,
    *,
    alpha: float = 4.0,
    seed: RngLike = None,
    probability_scale="auto",
    fallback: str = "bidirectional",
    vicinity_floor: float = 0.0,
) -> DirectedVicinityOracle:
    """:meth:`DirectedVicinityOracle.build` one node at a time into records.

    Same arguments, same landmark set; the oracle flattens its records
    on first query (:meth:`DirectedVicinityOracle.flat_side_stores`).
    """
    ids, flags, min_size = DirectedVicinityOracle.draw_landmarks(
        graph,
        alpha=alpha,
        seed=seed,
        probability_scale=probability_scale,
        vicinity_floor=vicinity_floor,
    )
    out_adj = graph.out_adjacency()
    in_adj = graph.in_adjacency()
    out_vicinities = _reference_side(out_adj, flags, graph.n, min_size)
    in_vicinities = _reference_side(in_adj, flags, graph.n, min_size)
    forward_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    backward_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for landmark in ids.tolist():
        forward_tables[landmark] = digraph_bfs_tree_vectorized(
            graph.out_indptr, graph.out_indices, graph.n, landmark
        )
        backward_tables[landmark] = digraph_bfs_tree_vectorized(
            graph.in_indptr, graph.in_indices, graph.n, landmark
        )
    return DirectedVicinityOracle(
        graph, alpha, ids, flags, out_vicinities, in_vicinities,
        forward_tables, backward_tables, fallback,
    )


def _reference_side(
    adj: list[list[int]], flags: bytearray, n: int, min_size=None
) -> list[Vicinity]:
    """One orientation's records: ``dist[v]`` is ``d(u -> v)`` on the
    forward adjacency and ``d(v -> u)`` on the reverse one."""
    vicinities = []
    for u in range(n):
        if flags[u]:
            vicinities.append(Vicinity(u, 0, {}, {}, frozenset(), []))
            continue
        radius, dist, pred, gamma = _truncated_directed_ball(
            adj, u, flags, min_size=min_size
        )
        member_set = frozenset(gamma)
        boundary = compute_boundary(gamma, member_set, adj)
        vicinities.append(Vicinity(u, radius, dist, pred, member_set, boundary))
    return vicinities


# ----------------------------------------------------------------------
# the dict resolvers (formerly VicinityOracle._resolve and
# DirectedVicinityOracle._resolve)
# ----------------------------------------------------------------------


class DictReferenceOracle:
    """Algorithm 1 over the per-node dict records (the PR 2 read path).

    Mirrors the pre-engine ``VicinityOracle`` byte for byte — same
    resolution order, probe counting, witness tie-breaking and path
    splicing — minus the lifetime counters (parity tests compare
    per-query results, not aggregates).
    """

    def __init__(self, index) -> None:
        self.index = index

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        index = self.index
        index.graph.check_node(source)
        index.graph.check_node(target)
        if with_path and not index.config.store_paths and index.config.fallback == "none":
            raise QueryError("index was built with store_paths=False")
        return self._resolve(source, target, with_path)

    def query_batch(self, pairs, *, with_path: bool = False) -> list[QueryResult]:
        """The PR 2 dict ``query_batch``: vectorised landmark lanes,
        per-pair dict dispatch for everything else."""
        index = self.index
        graph = index.graph
        pair_list = [(int(s), int(t)) for s, t in pairs]
        if not pair_list:
            return []
        if with_path and not index.config.store_paths and index.config.fallback == "none":
            raise QueryError("index was built with store_paths=False")

        flat = np.asarray(pair_list, dtype=np.int64)
        out_of_range = (flat < 0) | (flat >= graph.n)
        if out_of_range.any():
            graph.check_node(int(flat[out_of_range][0]))

        sources, targets = flat[:, 0], flat[:, 1]
        flags = np.asarray(index.landmarks.is_landmark, dtype=np.uint8)
        source_is_landmark = flags[sources]
        target_is_landmark = flags[targets]

        tables = index.tables
        results: list[Optional[QueryResult]] = [None] * len(pair_list)
        for i, (s, t) in enumerate(pair_list):
            if s == t:
                result = QueryResult(
                    s, t, 0, [s] if with_path else None, "identical", None, 0
                )
            elif source_is_landmark[i] and s in tables:
                result = self._answer_from_table(
                    s, t, tables[s], "landmark-source", 2, with_path
                )
            elif target_is_landmark[i] and t in tables:
                result = self._answer_from_table(
                    s, t, tables[t], "landmark-target", 3, with_path
                )
            else:
                result = self._resolve(s, t, with_path)
            results[i] = result
        return results

    # ------------------------------------------------------------------
    # the dict resolution chain (formerly VicinityOracle._resolve)
    # ------------------------------------------------------------------
    def _resolve(self, source: int, target: int, with_path: bool) -> QueryResult:
        index = self.index
        probes = 0

        if source == target:
            return QueryResult(
                source, target, 0, [source] if with_path else None, "identical", None, 0
            )

        flags = index.landmarks.is_landmark
        probes += 1
        if flags[source]:
            table = index.tables.get(source)
            if table is not None:
                probes += 1
                return self._answer_from_table(
                    source, target, table, "landmark-source", probes, with_path
                )
        probes += 1
        if flags[target]:
            table = index.tables.get(target)
            if table is not None:
                probes += 1
                return self._answer_from_table(
                    source, target, table, "landmark-target", probes, with_path
                )

        vic_s = index.vicinities[source]
        vic_t = index.vicinities[target]

        probes += 1
        if target in vic_s.members:
            path = None
            if with_path:
                path = walk_predecessors(vic_s.pred, target, source)
            return QueryResult(
                source, target, vic_s.dist[target], path,
                "target-in-source-vicinity", None, probes,
            )
        probes += 1
        if source in vic_t.members:
            path = None
            if with_path:
                path = walk_predecessors(vic_t.pred, source, target)
                path.reverse()
            return QueryResult(
                source, target, vic_t.dist[source], path,
                "source-in-target-vicinity", None, probes,
            )

        best, witness, kernel_probes = run_kernel(index.config.kernel, vic_s, vic_t)
        probes += kernel_probes
        if best is not None and witness is not None:
            path = None
            if with_path:
                path = splice_at_witness(vic_s.pred, vic_t.pred, source, target, witness)
            return QueryResult(source, target, best, path, "intersection", witness, probes)

        return self._fallback(source, target, probes, with_path)

    def _answer_from_table(
        self, source, target, table, method, probes, with_path
    ) -> QueryResult:
        other = target if method == "landmark-source" else source
        distance = table.distance_to(other)
        if distance is None:
            return QueryResult(source, target, None, None, "disconnected", None, probes)
        path = None
        if with_path:
            if table.parent is None:
                raise QueryError("index was built with store_paths=False")
            if method == "landmark-source":
                path = walk_parent_array(table.parent, target, source)
            else:
                path = walk_parent_array(table.parent, source, target)
                path.reverse()
        return QueryResult(source, target, distance, path, method, None, probes)

    def _fallback(
        self, source: int, target: int, probes: int, with_path: bool
    ) -> QueryResult:
        if self.index.config.fallback == "none":
            return QueryResult(source, target, None, None, "miss", None, probes)
        graph = self.index.graph
        if with_path:
            distance, path = fallback_path(graph, source, target)
        else:
            distance, path = fallback_distance(graph, source, target), None
        if distance is None:
            return QueryResult(source, target, None, None, "disconnected", None, probes)
        return QueryResult(source, target, distance, path, "fallback", None, probes)


def directed_reference_resolve(oracle, source: int, target: int, with_path: bool = False):
    """The pre-engine ``DirectedVicinityOracle._resolve``, preserved.

    Reads the directed oracle's dict structures (out/in vicinities,
    forward/backward tables) exactly as PR 2 did, including the
    boundary-smaller scan choice and reversed-orientation path walks.
    Fallback is reported as a plain ``miss`` — the caller owns fallback
    conversion, matching the engine-backed oracle's split.
    """
    probes = 0
    if source == target:
        return DirectedQueryResult(
            source, target, 0, [source] if with_path else None, "identical", None, 0
        )
    probes += 1
    if oracle.is_landmark[source]:
        dist, parent = oracle.forward_tables[source]
        probes += 1
        d = int(dist[target])
        if d < 0:
            return DirectedQueryResult(
                source, target, None, None, "disconnected", None, probes
            )
        path = walk_parent_array(parent, target, source) if with_path else None
        return DirectedQueryResult(
            source, target, d, path, "landmark-source", None, probes
        )
    probes += 1
    if oracle.is_landmark[target]:
        dist, parent = oracle.backward_tables[target]
        probes += 1
        d = int(dist[source])
        if d < 0:
            return DirectedQueryResult(
                source, target, None, None, "disconnected", None, probes
            )
        path = None
        if with_path:
            path = walk_parent_array(parent, source, target)
            path.reverse()
        return DirectedQueryResult(
            source, target, d, path, "landmark-target", None, probes
        )

    vic_out = oracle.out_vicinities[source]
    vic_in = oracle.in_vicinities[target]
    probes += 1
    if target in vic_out.members:
        path = (
            walk_predecessors(vic_out.pred, target, source) if with_path else None
        )
        return DirectedQueryResult(
            source, target, vic_out.dist[target], path,
            "target-in-source-vicinity", None, probes,
        )
    probes += 1
    if source in vic_in.members:
        path = None
        if with_path:
            path = walk_predecessors(vic_in.pred, source, target)
            path.reverse()
        return DirectedQueryResult(
            source, target, vic_in.dist[source], path,
            "source-in-target-vicinity", None, probes,
        )

    if len(vic_out.boundary) <= len(vic_in.boundary):
        best, witness, kernel_probes = scan_and_probe(
            vic_out.boundary, vic_out.dist, vic_in.members, vic_in.dist
        )
    else:
        best, witness, kernel_probes = scan_and_probe(
            vic_in.boundary, vic_in.dist, vic_out.members, vic_out.dist
        )
    probes += kernel_probes
    if best is not None and witness is not None:
        path = None
        if with_path:
            first = walk_predecessors(vic_out.pred, witness, source)
            second = walk_predecessors(vic_in.pred, witness, target)
            second.reverse()
            path = first + second[1:]
        return DirectedQueryResult(
            source, target, best, path, "intersection", witness, probes
        )
    return DirectedQueryResult(source, target, None, None, "miss", None, probes)
