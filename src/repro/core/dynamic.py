"""Dynamic vicinity oracle: edge insertions without full rebuilds.

The paper's related work cites fully-dynamic landmark techniques [17];
social networks grow continuously, so a practical deployment needs at
least incremental *insertion* support.  This module provides it for
unweighted graphs with two mechanisms:

1. **landmark-table repair** — an inserted edge can only decrease
   distances, so each landmark table is repaired with a decrease-only
   BFS seeded at the cheaper endpoint (classic dynamic-SSSP insertion
   case);
2. **conservative vicinity rebuild** — a vicinity ``Gamma(w)`` (radius
   ``r``) can change only if ``min(d'(w,u), d'(w,v)) <= r`` (``d'`` =
   post-insertion distances).  Distances/membership can change only
   when the new edge creates a strictly shorter path into the ball:
   any changed distance ``d'(w,x) <= r`` decomposes as
   ``d'(w,u) + 1 + d'(v,x)`` (or symmetrically), forcing
   ``d'(w,u) < r``.  The *boundary* can additionally change without
   any distance changing: the insertion gives ``u`` and ``v`` — and
   only them — a new neighbour, so a rim member (``d'(w,u) == r``)
   whose neighbours were all inside ``Gamma(w)`` becomes a boundary
   node, which Lemma 1's boundary-restricted scan must see.  Hence the
   non-strict test; everything else is provably untouched.

The landmark *set* is frozen across updates: sampling probabilities
drift as degrees grow, and :meth:`DynamicVicinityOracle.staleness`
reports how far the frozen set has drifted so callers can schedule a
re-sample (deletions are out of scope and raise).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import OracleConfig
from repro.core.index import VicinityIndex
from repro.core.landmarks import sampling_probabilities
from repro.core.oracle import QueryResult, VicinityOracle
from repro.core.vicinity import Vicinity, build_vicinity
from repro.exceptions import EdgeError, IndexBuildError
from repro.graph.builder import graph_from_arrays
from repro.graph.csr import CSRGraph
from repro.graph.traversal.bfs import bfs_distances
from repro.graph.traversal.bounded import truncated_bfs_ball


class DynamicVicinityOracle:
    """A vicinity oracle that absorbs edge insertions incrementally.

    Usage::

        oracle = DynamicVicinityOracle.build(graph, alpha=4.0, seed=7)
        oracle.add_edge(12, 99)
        oracle.distance(3, 1042)

    Query behaviour matches a fresh :class:`VicinityOracle` built on the
    updated graph with the *same frozen landmark set* (tested property).
    """

    def __init__(self, index: VicinityIndex) -> None:
        if index.graph.is_weighted:
            raise IndexBuildError("the dynamic oracle supports unweighted graphs")
        self.index = index
        self._oracle = VicinityOracle(index)
        self._edges_added = 0
        self._caches: list = []

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
    ) -> "DynamicVicinityOracle":
        """Build the initial index (same semantics as the static oracle)."""
        if config is None:
            config = OracleConfig(alpha=alpha, seed=seed)
        return cls(VicinityIndex.build(graph, config))

    # ------------------------------------------------------------------
    # queries (delegate to the wrapped static engine)
    # ------------------------------------------------------------------
    def query(self, source: int, target: int, *, with_path: bool = False) -> QueryResult:
        """Answer one query on the current graph."""
        return self._oracle.query(source, target, with_path=with_path)

    def query_batch(self, pairs, *, with_path: bool = False) -> list[QueryResult]:
        """Answer a batch on the current graph (the serving-layer surface).

        Makes the dynamic oracle a valid
        :class:`~repro.service.batch.BatchExecutor` backend; pair it
        with :meth:`attach_cache` so edge insertions evict stale
        entries.
        """
        return self._oracle.query_batch(pairs, with_path=with_path)

    def distance(self, source: int, target: int):
        """Return the exact distance on the current graph."""
        return self._oracle.distance(source, target)

    def path(self, source: int, target: int) -> list[int]:
        """Return one shortest path on the current graph."""
        return self._oracle.path(source, target)

    @property
    def graph(self) -> CSRGraph:
        """The current (post-insertions) graph."""
        return self.index.graph

    @property
    def edges_added(self) -> int:
        """How many edges have been absorbed since the build."""
        return self._edges_added

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------
    def attach_cache(self, cache) -> None:
        """Register a result cache for invalidation on edge insertions.

        ``cache`` is anything with ``invalidate_where(stale)`` —
        normally a :class:`~repro.service.cache.ResultCache` fronting
        this oracle through a ``BatchExecutor``.  On every
        :meth:`add_edge`, attached caches drop exactly the pairs the new
        edge can shorten (or newly connect); without this hook a cache
        keeps serving pre-insertion distances forever.
        """
        if cache not in self._caches:
            self._caches.append(cache)

    def detach_cache(self, cache) -> None:
        """Stop invalidating ``cache`` (absent caches are ignored)."""
        if cache in self._caches:
            self._caches.remove(cache)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert the undirected edge ``{u, v}`` and repair the index.

        Returns:
            ``True`` if the edge was new, ``False`` if it already
            existed (no work done).

        Raises:
            EdgeError: for self-loops or unknown endpoints.
        """
        graph = self.index.graph
        graph.check_node(u)
        graph.check_node(v)
        if u == v:
            raise EdgeError("self-loops are not allowed")
        if graph.has_edge(u, v):
            return False

        new_graph = self._rebuild_graph_with_edge(u, v)
        self.index.graph = new_graph
        self._repair_tables(new_graph, u, v)
        # Post-insertion distances from both endpoints drive both the
        # conservative vicinity-rebuild test and exact cache eviction.
        dist_u = bfs_distances(new_graph, u)
        dist_v = bfs_distances(new_graph, v)
        touched = self._rebuild_affected_vicinities(new_graph, u, v, dist_u, dist_v)
        self._invalidate_caches(dist_u, dist_v)
        # Re-flatten exactly the slices the repair touched, so the flat
        # read path keeps serving without a full rebuild (the landmark
        # tables are re-stacked inside the refresh — table repair
        # mutates them in place).
        self._oracle.refresh_engine(touched)
        self._edges_added += 1
        return True

    #: Alias matching the serving layer's "edge insertion" vocabulary.
    insert_edge = add_edge

    def _invalidate_caches(self, dist_u: np.ndarray, dist_v: np.ndarray) -> None:
        """Evict attached-cache entries the new edge can invalidate.

        A new edge ``{u, v}`` only ever *shortens* distances, and any
        shortened ``d(s, t)`` must route through it:
        ``d'(s, t) = min(d(s, t), d'(s, u) + 1 + d'(v, t),
        d'(s, v) + 1 + d'(u, t))``.  With the post-insertion BFS layers
        from both endpoints in hand, the through-edge candidate is exact
        — a cached pair is evicted iff the candidate beats its stored
        distance (or the pair was stored unanswered and is now
        reachable through the edge).
        """
        if not self._caches:
            return

        def stale(entry) -> bool:
            du_s, dv_s = int(dist_u[entry.source]), int(dist_v[entry.source])
            du_t, dv_t = int(dist_u[entry.target]), int(dist_v[entry.target])
            candidate = None
            if du_s >= 0 and dv_t >= 0:
                candidate = du_s + 1 + dv_t
            if dv_s >= 0 and du_t >= 0:
                other = dv_s + 1 + du_t
                candidate = other if candidate is None else min(candidate, other)
            if candidate is None:
                return False
            return entry.distance is None or candidate < entry.distance

        for cache in self._caches:
            cache.invalidate_where(stale)

    def _rebuild_graph_with_edge(self, u: int, v: int) -> CSRGraph:
        """Produce the post-insertion CSR graph."""
        graph = self.index.graph
        src, dst, _w = graph.edge_arrays()
        src = np.concatenate([src, [u]])
        dst = np.concatenate([dst, [v]])
        return graph_from_arrays(src, dst, n=graph.n)

    def _repair_tables(self, graph: CSRGraph, u: int, v: int) -> None:
        """Decrease-only BFS repair of every landmark table."""
        adj = graph.adjacency()
        for table in self.index.tables.values():
            dist = table.dist
            parent = table.parent
            for a, b in ((u, v), (v, u)):
                da, db = int(dist[a]), int(dist[b])
                if da < 0:
                    continue
                if db >= 0 and db <= da + 1:
                    continue
                dist[b] = da + 1
                if parent is not None:
                    parent[b] = a
                frontier = [b]
                while frontier:
                    next_frontier = []
                    for x in frontier:
                        dx = int(dist[x])
                        for y in adj[x]:
                            dy = int(dist[y])
                            if dy < 0 or dy > dx + 1:
                                dist[y] = dx + 1
                                if parent is not None:
                                    parent[y] = x
                                next_frontier.append(y)
                    frontier = next_frontier

    def _rebuild_affected_vicinities(
        self, graph: CSRGraph, u: int, v: int, dist_u: np.ndarray, dist_v: np.ndarray
    ) -> list[int]:
        """Rebuild exactly the vicinities the insertion may have changed.

        ``dist_u`` / ``dist_v`` are the post-insertion BFS distances
        from the edge endpoints (undirected, so ``d'(w, u) == d'(u, w)``).
        Returns the rebuilt vicinity ids (the slices the flat engine
        must re-flatten).
        """
        flags = self.index.landmarks.is_landmark
        adj = graph.adjacency()
        touched: list[int] = []
        for w in range(graph.n):
            if flags[w]:
                continue
            # Reads the radius without materialising an untouched record.
            radius = self.index.radius(w)
            du, dv = int(dist_u[w]), int(dist_v[w])
            nearest = min(d for d in (du, dv) if d >= 0) if (du >= 0 or dv >= 0) else -1
            if radius is None:
                # Degenerate whole-component vicinity: rebuild if the
                # edge touches the component at all.
                affected = nearest >= 0
            else:
                # Non-strict: an endpoint exactly on the rim can flip
                # from interior to boundary (see module docstring).
                affected = 0 <= nearest <= radius
            if not affected:
                continue
            result = truncated_bfs_ball(graph, w, flags)
            self.index.vicinities[w] = build_vicinity(
                w,
                result.radius,
                result.dist,
                result.pred,
                result.gamma,
                adj,
                store_paths=self.index.config.store_paths,
            )
            touched.append(w)
        return touched

    # ------------------------------------------------------------------
    # staleness diagnostics
    # ------------------------------------------------------------------
    def staleness(self) -> float:
        """Total-variation drift between frozen and ideal sampling.

        0.0 means the frozen landmark set's sampling distribution still
        matches current degrees exactly; values approaching 1.0 suggest
        re-sampling (``rebuild()``).
        """
        landmarks = self.index.landmarks
        old = landmarks.probabilities
        new = sampling_probabilities(
            self.index.graph, landmarks.alpha, scale=landmarks.scale
        )
        denominator = float(new.sum())
        if denominator == 0.0:
            return 0.0
        return float(np.abs(new - old).sum()) / denominator

    def rebuild(self) -> None:
        """Full re-sample and rebuild on the current graph."""
        self.index = VicinityIndex.build(self.index.graph, self.index.config)
        self._oracle = VicinityOracle(self.index)
