"""The online phase: Algorithm 1 over a built :class:`VicinityIndex`.

Query resolution order, exactly as §3.1 prescribes:

1. ``s == t``                         -> distance 0;
2. ``s ∈ L``  (full table at ``s``)   -> direct lookup;
3. ``t ∈ L``  (full table at ``t``)   -> direct lookup;
4. ``t ∈ Gamma(s)``                   -> stored vicinity entry;
5. ``s ∈ Gamma(t)``                   -> stored vicinity entry;
6. vicinity intersection over boundary nodes (Theorem 1 + Lemma 1);
7. configured fallback (footnote 1) or a reported miss.

Every membership/table probe is counted so Table 3's hash-look-up
column can be reproduced hardware-independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.config import OracleConfig
from repro.core.fallback import fallback_distance, fallback_path
from repro.core.index import VicinityIndex
from repro.core.memory import MemoryReport, memory_report
from repro.core.stats import IndexStats
from repro.exceptions import QueryError, UnreachableError
from repro.graph.csr import CSRGraph

Distance = Union[int, float]

#: Resolution methods, in Algorithm 1 order.  This tuple is the single
#: authoritative list of method names; downstream code (the serving
#: layer, caches, telemetry) must reference these constants rather than
#: re-listing the strings.
METHODS = (
    "identical",
    "landmark-source",
    "landmark-target",
    "target-in-source-vicinity",
    "source-in-target-vicinity",
    "intersection",
    "fallback",
    "miss",
    "disconnected",
    # Not an Algorithm 1 stage: a degraded answer from the landmark
    # triangulation upper bound, produced when the serving layer cannot
    # reach a shard (circuit breaker open) or sheds load.  Lives in the
    # authoritative tuple so wire codes, caches and telemetry treat it
    # like any other method; appended last so the codes of the real
    # resolution stages never move.
    "estimate",
)

#: Method-name <-> uint8 wire codes, derived from the METHODS order.
#: Shared by the wire frames and the column-native shard worker lane so
#: the encoder and the engine can never disagree on a code.
METHOD_CODE = {name: code for code, name in enumerate(METHODS)}
METHOD_NAME = dict(enumerate(METHODS))

#: Methods that resolve in O(1) table probes — conditions (1)-(4) of
#: Algorithm 1 plus the trivial same-node case.  Re-answering these is
#: as cheap as a cache hit, so the serving layer does not cache them.
CHEAP_METHODS = (
    "identical",
    "landmark-source",
    "landmark-target",
    "target-in-source-vicinity",
    "source-in-target-vicinity",
)

#: Methods that pay for a boundary scan (intersection) or a graph
#: search (fallback) — the expensive tail worth caching.  ``miss`` and
#: ``disconnected`` belong here because discovering either costs a full
#: failed scan.
EXPENSIVE_METHODS = (
    "intersection",
    "fallback",
    "miss",
    "disconnected",
)


@dataclass
class QueryResult:
    """Outcome of one point-to-point query.

    Attributes:
        source / target: the queried pair.
        distance: exact distance, or ``None`` when the oracle could not
            answer (``method == "miss"``) or the pair is disconnected.
        path: node sequence ``source .. target`` when requested and
            available.
        method: which stage of Algorithm 1 resolved the query (one of
            :data:`METHODS`).
        witness: the intersection node ``w`` minimising
            ``d(s, w) + d(w, t)`` when ``method == "intersection"``.
        probes: hash-table look-ups performed (Table 3's cost metric).
    """

    source: int
    target: int
    distance: Optional[Distance]
    path: Optional[list[int]] = None
    method: str = "miss"
    witness: Optional[int] = None
    probes: int = 0

    @property
    def answered(self) -> bool:
        """Whether an exact distance was produced."""
        return self.distance is not None

    def mirrored(self) -> "QueryResult":
        """Return this result reoriented as an answer to ``(target, source)``.

        On an undirected graph ``d(s, t) == d(t, s)``, so a resolved
        pair answers its mirror for free.  The serving layer uses this
        for symmetry deduplication and cache orientation.  The method
        and witness are carried over unchanged (they describe how the
        canonical orientation was resolved); ``probes`` is zero because
        the mirror costs no further look-ups.
        """
        path = None if self.path is None else list(reversed(self.path))
        return QueryResult(
            source=self.target,
            target=self.source,
            distance=self.distance,
            path=path,
            method=self.method,
            witness=self.witness,
            probes=0,
        )


@dataclass
class OracleCounters:
    """Aggregate instrumentation across an oracle's lifetime."""

    queries: int = 0
    probes: int = 0
    worst_probes: int = 0
    by_method: Counter = field(default_factory=Counter)

    def record(self, result: QueryResult) -> None:
        """Fold one query outcome into the aggregates."""
        self.queries += 1
        self.probes += result.probes
        if result.probes > self.worst_probes:
            self.worst_probes = result.probes
        self.by_method[result.method] += 1

    @property
    def mean_probes(self) -> float:
        """Average probes per query (Table 3, "average-case")."""
        return self.probes / self.queries if self.queries else 0.0

    def reset(self) -> None:
        """Zero all aggregates."""
        self.queries = 0
        self.probes = 0
        self.worst_probes = 0
        self.by_method.clear()


class VicinityOracle:
    """Answer exact shortest-path queries by vicinity intersection.

    Build either from a graph (runs the offline phase)::

        oracle = VicinityOracle.build(graph, alpha=4.0, seed=7)

    or wrap an existing :class:`VicinityIndex`::

        oracle = VicinityOracle(index)

    The read path runs on the flat
    :class:`~repro.core.engine.FlatQueryEngine` over the contiguous
    arrays the offline build writes.  The dynamic oracle repairs
    per-node records of the wrapped :class:`VicinityIndex` in place,
    then re-flattens the touched slices via :meth:`refresh_engine`.
    """

    def __init__(self, index: VicinityIndex) -> None:
        self.index = index
        self.counters = OracleCounters()
        self._engine = None
        self._engine_generation = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        *,
        alpha: float = 4.0,
        seed: Optional[int] = None,
        config: Optional[OracleConfig] = None,
        progress=None,
        workers: int = 1,
        **config_overrides,
    ) -> "VicinityOracle":
        """Run the offline phase and return a ready oracle.

        Args:
            graph: the network.
            alpha: vicinity-size parameter (ignored when ``config`` is
                given).
            seed: landmark-sampling seed (ignored when ``config`` is
                given).
            config: fully explicit configuration; overrides the
                shorthand arguments.
            progress: optional build progress callback.
            workers: worker processes for the offline build.
            **config_overrides: any other :class:`OracleConfig` field.
        """
        if config is None:
            config = OracleConfig(alpha=alpha, seed=seed, **config_overrides)
        elif config_overrides:
            raise QueryError("pass either config or keyword overrides, not both")
        return cls(
            VicinityIndex.build(
                graph,
                config,
                progress=progress,
                workers=workers,
            )
        )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The indexed graph."""
        return self.index.graph

    @property
    def config(self) -> OracleConfig:
        """The build configuration."""
        return self.index.config

    def stats(self) -> IndexStats:
        """Structural statistics of the built index (Figure 2 inputs)."""
        return IndexStats.from_index(self.index)

    def memory(self) -> MemoryReport:
        """Memory accounting for the built index (§3.2 claims)."""
        return memory_report(self.index)

    # ------------------------------------------------------------------
    # the flat engine
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The flat query engine this oracle's read path runs on.

        Built on first access over the index's probe arrays (derived
        at build or load time and cached on the index object) and
        reused for every subsequent query.  A generation counter on the index — bumped by
        :meth:`refresh_engine` after every mutation — makes *every*
        wrapper of a mutated index rebuild from the refreshed flatten,
        matching the retired dict path's always-live reads.
        """
        generation = getattr(self.index, "_flat_generation", 0)
        if self._engine is None or self._engine_generation != generation:
            from repro.core.engine import FlatQueryEngine

            self._engine = FlatQueryEngine.from_index(self.index)
            self._engine_generation = generation
        return self._engine

    def refresh_engine(self, nodes=None) -> None:
        """Re-flatten after an in-place index mutation.

        The dynamic oracle calls this after each repair with exactly
        the vicinity ids it rebuilt; only those slices (plus the
        landmark tables, which repair mutates in place) are
        re-extracted into the index-level flatten cache.  Bumping the
        index's flatten generation invalidates the engine of every
        oracle wrapping this index, not just this one.  With
        ``nodes=None`` the cache is dropped and rebuilt in full,
        lazily.
        """
        index = self.index
        cached = getattr(index, "_flat_index", None)
        if nodes is not None and cached is not None:
            index._flat_index = cached.refreshed(index, nodes)
        else:
            index._flat_index = None
        # A built index keeps its store-layout arrays for dict-free
        # persistence; any mutation invalidates them (the next flatten
        # re-extracts from the live records).
        index._flat_store = None
        index._flat_generation = getattr(index, "_flat_generation", 0) + 1
        self._engine = None

    # ------------------------------------------------------------------
    # the online phase
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> Optional[Distance]:
        """Return the exact distance, or ``None`` if unanswerable."""
        return self.query(source, target).distance

    def path(self, source: int, target: int) -> list[int]:
        """Return one exact shortest path ``source .. target``.

        Raises:
            UnreachableError: when the pair is disconnected.
            QueryError: when the oracle misses and no fallback is
                configured.
        """
        result = self.query(source, target, with_path=True)
        if result.method == "disconnected":
            raise UnreachableError(source, target)
        if result.path is None:
            raise QueryError(
                f"oracle cannot produce a path for ({source}, {target}); "
                f"method={result.method!r} "
                "(build with store_paths=True and fallback enabled)"
            )
        return result.path

    def nearest(
        self, source: int, candidates, k: int = 1
    ) -> list[tuple[int, Distance]]:
        """Return the ``k`` candidates closest to ``source``.

        The §1 "socially-sensitive search" primitive: rank content or
        users by social distance.  Unanswerable candidates (misses with
        no fallback, disconnections) are excluded.

        Args:
            source: the querying user.
            candidates: node ids to rank.
            k: how many winners to return.

        Returns:
            Up to ``k`` ``(candidate, distance)`` pairs, closest first;
            ties broken by node id for determinism.
        """
        if k < 1:
            raise QueryError("k must be at least 1")
        scored = []
        for candidate in candidates:
            distance = self.query(source, int(candidate)).distance
            if distance is not None:
                scored.append((int(candidate), distance))
        scored.sort(key=lambda item: (item[1], item[0]))
        return scored[:k]

    def explain(self, source: int, target: int) -> str:
        """Return a human-readable trace of how Algorithm 1 resolved a pair.

        Intended for debugging and teaching; the distances come from the
        same code path as :meth:`query`.
        """
        result = self.query(source, target, with_path=self.config.store_paths)
        index = self.index
        lines = [f"query ({source}, {target}) -> distance {result.distance}"]
        flags = index.landmarks.is_landmark
        lines.append(
            f"  source in L: {bool(flags[source])}; target in L: {bool(flags[target])}"
        )
        vic_s, vic_t = index.vicinities[source], index.vicinities[target]
        lines.append(
            f"  |Gamma(s)|={vic_s.size} (boundary {vic_s.boundary_size}, "
            f"radius {vic_s.radius}); "
            f"|Gamma(t)|={vic_t.size} (boundary {vic_t.boundary_size}, "
            f"radius {vic_t.radius})"
        )
        lines.append(f"  resolved by: {result.method} after {result.probes} probes")
        if result.witness is not None:
            lines.append(
                f"  witness w={result.witness}: d(s,w)={vic_s.dist.get(result.witness)}"
                f" + d(w,t)={vic_t.dist.get(result.witness)}"
            )
        if result.path is not None:
            lines.append("  path: " + " -> ".join(map(str, result.path)))
        return "\n".join(lines)

    def query_many(
        self, pairs, *, with_path: bool = False
    ) -> list[QueryResult]:
        """Answer a batch of ``(source, target)`` pairs.

        A convenience wrapper over :meth:`query` for workload-style use
        (the §2.3 protocol, bulk screening in the examples).
        """
        return [self.query(s, t, with_path=with_path) for s, t in pairs]

    def query_batch(
        self, pairs, *, with_path: bool = False
    ) -> list[QueryResult]:
        """Answer many ``(source, target)`` pairs with batch-level grouping.

        Semantically identical to mapping :meth:`query` over ``pairs``
        — same distances, methods and probe counts per pair, counters
        folded in once per pair — but executed through the engine's
        fused batch lanes: one vectorised bounds check, one landmark
        gather per table lane, two global searchsorteds for conditions
        (3)/(4), and the fused intersection join (sorted by source so
        repeated sources share one boundary payload) for the rest.
        This is the substrate the serving layer's
        :class:`~repro.service.batch.BatchExecutor` builds on (adding
        deduplication, symmetry and caching).

        Args:
            pairs: iterable of ``(source, target)`` node pairs.
            with_path: also reconstruct shortest paths.

        Returns:
            One :class:`QueryResult` per input pair, in input order.
        """
        from repro.core.engine import run_query_batch

        index = self.index
        if with_path and not index.config.store_paths and index.config.fallback == "none":
            raise QueryError("index was built with store_paths=False")
        return run_query_batch(
            self.engine,
            pairs,
            with_path,
            check_node=index.graph.check_node,
            fallback=self._fallback if index.config.fallback != "none" else None,
            record=self.counters.record,
        )

    def distances_from(self, source: int, targets) -> list[Optional[Distance]]:
        """Return distances from ``source`` to each of ``targets``.

        Landmark sources short-circuit through their full table (one
        array read per target) instead of running Algorithm 1 per pair.
        """
        index = self.index
        index.graph.check_node(source)
        table = index.tables.get(source) if index.landmarks.is_landmark[source] else None
        results: list[Optional[Distance]] = []
        for target in targets:
            if table is not None:
                index.graph.check_node(target)
                results.append(0 if target == source else table.distance_to(target))
            else:
                results.append(self.query(source, target).distance)
        return results

    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        """Run Algorithm 1 for one source-target pair.

        Args:
            source: query source node.
            target: query target node.
            with_path: also reconstruct a shortest path (requires the
                index to have been built with ``store_paths=True``
                except on the fallback route).

        Returns:
            A :class:`QueryResult`; ``distance`` is ``None`` only when
            the pair is disconnected or the oracle misses without a
            fallback.
        """
        index = self.index
        graph = index.graph
        graph.check_node(source)
        graph.check_node(target)
        if with_path and not index.config.store_paths and index.config.fallback == "none":
            raise QueryError("index was built with store_paths=False")

        result = self.engine.resolve(int(source), int(target), with_path)
        if result.method == "miss" and index.config.fallback != "none":
            result = self._fallback(source, target, result.probes, with_path)
        self.counters.record(result)
        return result

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
