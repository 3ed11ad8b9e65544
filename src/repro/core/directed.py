"""Directed extension of vicinity intersection (§5, research challenge 2).

The paper asks whether the approach extends to directed social networks
(Twitter-style follow graphs).  It does, for unweighted digraphs, with
the following construction:

* sample landmarks with probability proportional to total degree
  (in + out);
* give every node an **out-vicinity** — the forward ball grown until
  the nearest landmark *by forward distance*, plus its out-frontier —
  and an **in-vicinity**, the same construction on the reversed graph;
* answer ``d(s -> t)`` by intersecting ``Gamma_out(s)`` with
  ``Gamma_in(t)``.

Correctness mirrors Theorem 1.  In an unweighted digraph
``Gamma_out(s) = {v : d(s->v) <= r_out(s)}`` and
``Gamma_in(t) = {v : d(v->t) <= r_in(t)}`` exactly.  If some ``w`` lies
in both, then ``d(s->t) <= r_out(s) + r_in(t)``; walking the shortest
path from ``s``, the first node ``y`` with ``d(s->y) = r_out(s)``
satisfies ``d(y->t) = d(s->t) - r_out(s) <= r_in(t)``, so ``y`` is an
on-path member of the intersection and the minimum of
``d(s->w) + d(w->t)`` over the intersection is exact (every such sum is
an upper bound by the triangle inequality).  The boundary restriction
carries over: ``y``'s successor on the path falls outside
``Gamma_out(s)``, hence ``y`` is on the out-boundary.  Both facts are
property-tested in ``tests/core/test_directed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.landmarks import flag_bytes
from repro.core.oracle import OracleCounters, QueryResult
from repro.exceptions import IndexBuildError, QueryError, UnreachableError
from repro.graph.digraph import DiGraph
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class DirectedQueryResult(QueryResult):
    """Query outcome; identical shape to the undirected result."""


def _truncated_directed_ball(
    adj: list[list[int]],
    source: int,
    is_landmark: Sequence[int],
    max_size: Optional[int] = None,
    min_size: Optional[int] = None,
) -> tuple[Optional[int], dict[int, int], dict[int, int], list[int]]:
    """Level-synchronous forward ball on the given adjacency.

    Returns ``(radius, dist, pred, gamma)`` following Definition 1
    transposed to one traversal orientation.  ``max_size`` aborts
    oversized traversals during calibration; ``min_size`` keeps
    absorbing levels past the nearest landmark until the vicinity holds
    that many nodes (exact for unweighted digraphs — the correctness
    proof in the module docstring works for any per-node radius).
    """
    if is_landmark[source]:
        return 0, {source: 0}, {source: source}, []
    dist: dict[int, int] = {source: 0}
    pred: dict[int, int] = {source: source}
    levels: list[list[int]] = [[source]]
    frontier = [source]
    level = 0
    radius: Optional[int] = None
    landmark_seen = False
    while frontier:
        if max_size is not None and len(dist) > max_size:
            gamma = [v for lvl in levels for v in lvl]
            return None, dist, pred, gamma
        level += 1
        next_frontier = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = level
                    pred[v] = u
                    next_frontier.append(v)
                    if is_landmark[v]:
                        landmark_seen = True
        if not next_frontier:
            break
        levels.append(next_frontier)
        frontier = next_frontier
        if landmark_seen and (min_size is None or len(dist) >= min_size):
            radius = level
            break
    gamma = [v for lvl in levels for v in lvl]
    return radius, dist, pred, gamma


def _side_table_map(store, ids: np.ndarray) -> dict:
    """``{landmark: (dist_row, parent_row)}`` views over stacked tables."""
    if not store["table_dist"].size:
        return {}
    return {
        landmark: (store["table_dist"][row], store["table_parent"][row])
        for row, landmark in enumerate(ids.tolist())
    }


class DirectedVicinityOracle:
    """Exact ``d(s -> t)`` queries on unweighted digraphs.

    Build with :meth:`build`.  The per-node cost doubles relative to the
    undirected oracle (two vicinities per node, two tables per
    landmark) — the price §5 anticipates for directed support.
    """

    def __init__(
        self,
        graph: DiGraph,
        alpha: float,
        landmark_ids: np.ndarray,
        is_landmark: bytearray,
        out_vicinities: Sequence,
        in_vicinities: Sequence,
        forward_tables: dict[int, tuple[np.ndarray, np.ndarray]],
        backward_tables: dict[int, tuple[np.ndarray, np.ndarray]],
        fallback: str = "bidirectional",
    ) -> None:
        self.graph = graph
        self.alpha = alpha
        self.landmark_ids = landmark_ids
        self.is_landmark = is_landmark
        self.out_vicinities = out_vicinities
        self.in_vicinities = in_vicinities
        self.forward_tables = forward_tables
        self.backward_tables = backward_tables
        self.fallback = fallback
        self.counters = OracleCounters()
        self._engine = None
        #: Store-layout side arrays when built or loaded from disk
        #: (``None`` for reference-built records until first flatten).
        self._flat_sides = None

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        *,
        alpha: float = 4.0,
        seed: RngLike = None,
        probability_scale="auto",
        fallback: str = "bidirectional",
        vicinity_floor: float = 0.0,
    ) -> "DirectedVicinityOracle":
        """Run the directed offline phase.

        ``probability_scale="auto"`` calibrates the landmark-sampling
        scale so that mean out-vicinity size meets ``alpha * sqrt(n)``,
        mirroring the undirected oracle.  Both orientations then run
        through the batched pipeline
        (:func:`repro.core.parallel.build_directed_side_store`): the
        engine's two sides come straight out of the build, so the first
        query pays no flattening pass and no per-node record is ever
        materialised.

        Raises:
            IndexBuildError: for empty or weighted digraphs (the
                directed extension is defined for the paper's unweighted
                setting).
        """
        from repro.core.parallel import build_directed_side_store

        ids, flags, min_size = cls.draw_landmarks(
            graph,
            alpha=alpha,
            seed=seed,
            probability_scale=probability_scale,
            vicinity_floor=vicinity_floor,
        )
        flags_u8 = np.frombuffer(flags, dtype=np.uint8)
        out_store = build_directed_side_store(
            graph.out_indptr, graph.out_indices, graph.n, flags_u8, ids,
            min_size=min_size,
        )
        in_store = build_directed_side_store(
            graph.in_indptr, graph.in_indices, graph.n, flags_u8, ids,
            min_size=min_size,
        )
        return cls.from_side_stores(
            graph, alpha, ids, flags, out_store, in_store, fallback
        )

    @classmethod
    def draw_landmarks(
        cls,
        graph: DiGraph,
        *,
        alpha: float,
        seed: RngLike,
        probability_scale,
        vicinity_floor: float,
    ) -> tuple[np.ndarray, bytearray, Optional[int]]:
        """Sample ``L`` as :meth:`build` does: ``(ids, flags, min_size)``.

        Shared with the reference builder
        (:func:`repro.core.reference.build_reference_directed`), so both
        draw the same landmark set for the same arguments.

        Raises:
            IndexBuildError: for empty or weighted digraphs.
        """
        if graph.n == 0:
            raise IndexBuildError("cannot build an index over an empty digraph")
        if graph.is_weighted:
            raise IndexBuildError("the directed extension supports unweighted digraphs")
        rng = ensure_rng(seed)
        total = graph.total_degrees().astype(np.float64)
        if probability_scale == "auto":
            probability_scale = cls._calibrate(graph, alpha, total, rng)
        probabilities = np.minimum(
            1.0, probability_scale * total / (alpha * np.sqrt(graph.n))
        )
        sampled = rng.random(graph.n) < probabilities
        if not sampled.any():
            sampled[int(np.argmax(total))] = True
        ids = np.flatnonzero(sampled).astype(np.int64)
        min_size = None
        if vicinity_floor > 0:
            min_size = int(vicinity_floor * alpha * np.sqrt(graph.n))
        return ids, flag_bytes(graph.n, ids), min_size

    @classmethod
    def from_side_stores(
        cls, graph, alpha, ids, flags, out_store, in_store, fallback
    ) -> "DirectedVicinityOracle":
        """Assemble an oracle from two store-layout side dicts.

        Used by :meth:`build` and the persistence layer
        (:func:`repro.io.oracle_store.load_directed_oracle`).  The
        record API stays available through lazy per-node views; the
        tables map exposes stacked-row views so diagnostics keep
        working dict-free.
        """
        from repro.core.index import FlatVicinityList

        out_vicinities = FlatVicinityList(out_store, graph.n, weighted=False)
        in_vicinities = FlatVicinityList(in_store, graph.n, weighted=False)
        forward_tables = _side_table_map(out_store, ids)
        backward_tables = _side_table_map(in_store, ids)
        oracle = cls(
            graph, alpha, ids, flags, out_vicinities, in_vicinities,
            forward_tables, backward_tables, fallback,
        )
        oracle._flat_sides = (out_store, in_store)
        return oracle

    @staticmethod
    def _calibrate(
        graph: DiGraph, alpha: float, total: np.ndarray, rng
    ) -> float:
        """Tune the sampling scale so mean out-vicinity size hits
        ``alpha * sqrt(n)`` (directed analogue of
        :func:`repro.core.landmarks.calibrate_scale`)."""
        n = graph.n
        if n < 3 or graph.num_arcs == 0:
            return 1.0
        target = float(min(alpha * np.sqrt(n), max(4.0, n / 2.0)))
        out_adj = graph.out_adjacency()
        candidates = np.flatnonzero(total > 0)
        if candidates.size == 0:
            return 1.0
        scale = 1.0
        limit = int(max(8 * target, 64))
        for _ in range(8):
            probabilities = np.minimum(1.0, scale * total / (alpha * np.sqrt(n)))
            flags_array = rng.random(n) < probabilities
            if not flags_array.any():
                flags_array[int(np.argmax(total))] = True
            flags = bytearray(flags_array.astype(np.uint8))
            probes = rng.choice(candidates, size=min(24, candidates.size), replace=False)
            sizes = []
            for u in probes.tolist():
                if flags[u]:
                    sizes.append(target)
                    continue
                _r, dist, _p, gamma = _truncated_directed_ball(
                    out_adj, int(u), flags, max_size=limit
                )
                sizes.append(float(min(len(gamma), limit)))
            mean_size = float(np.mean(sizes)) if sizes else target
            ratio = mean_size / target
            if abs(ratio - 1.0) <= 0.15:
                break
            scale = float(np.clip(scale * ratio**0.85, 1e-4, 256.0))
        return scale

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def flat_side_stores(self) -> tuple[dict, dict]:
        """Both orientations as persistence-layout arrays (cached).

        A built or disk-loaded oracle already holds them; an oracle
        over per-node records (the reference builder in
        :mod:`repro.core.reference`) pays one flattening pass on first
        use (then never again — this is also what the engine builds its
        sides from, and what
        :func:`repro.io.oracle_store.save_directed_oracle` persists).
        """
        if self._flat_sides is None:
            from repro.core.flat import directed_side_store_arrays

            self._flat_sides = (
                directed_side_store_arrays(
                    self.out_vicinities, self.landmark_ids,
                    self.forward_tables, self.graph.n,
                ),
                directed_side_store_arrays(
                    self.in_vicinities, self.landmark_ids,
                    self.backward_tables, self.graph.n,
                ),
            )
        return self._flat_sides

    @property
    def engine(self):
        """The two-sided flat engine the directed read path runs on.

        The out-vicinities and forward tables form the engine's
        *source* side, the in-vicinities and backward tables its
        *target* side; the shared
        :class:`~repro.core.engine.FlatQueryEngine` then runs the exact
        directed analogue of Algorithm 1 (boundary-smaller scan over
        the two orientations).  Built on the first query; built and
        disk-loaded oracles reuse their stored arrays directly, so only
        a reference-built oracle ever pays a flattening pass here.
        """
        if self._engine is None:
            from repro.core.engine import FlatQueryEngine
            from repro.core.flat import directed_side_flat_index

            out_store, in_store = self.flat_side_stores()
            self._engine = FlatQueryEngine(
                directed_side_flat_index(out_store, self.graph.n),
                directed_side_flat_index(in_store, self.graph.n),
                kernel="boundary-smaller",
                result_cls=DirectedQueryResult,
            )
        return self._engine

    def distance(self, source: int, target: int) -> Optional[int]:
        """Return ``d(source -> target)`` or ``None`` when unanswerable."""
        return self.query(source, target).distance

    def path(self, source: int, target: int) -> list[int]:
        """Return one shortest directed path ``source .. target``."""
        result = self.query(source, target, with_path=True)
        if result.method == "disconnected":
            raise UnreachableError(source, target)
        if result.path is None:
            raise QueryError(f"no path available for ({source}, {target})")
        return result.path

    def query(
        self, source: int, target: int, *, with_path: bool = False
    ) -> DirectedQueryResult:
        """Run the directed analogue of Algorithm 1 (on the flat engine)."""
        self.graph.check_node(source)
        self.graph.check_node(target)
        result = self.engine.resolve(int(source), int(target), with_path)
        if result.method == "miss" and self.fallback != "none":
            result = self._fallback(source, target, result.probes, with_path)
        self.counters.record(result)
        return result

    def query_batch(
        self, pairs, *, with_path: bool = False
    ) -> list[DirectedQueryResult]:
        """Answer many ``(source, target)`` pairs, in input order.

        The directed counterpart of
        :meth:`~repro.core.oracle.VicinityOracle.query_batch` — the
        same fused engine lanes over the two orientations — making the
        oracle a valid serving-layer backend
        (``BatchExecutor(..., symmetry=False)`` with
        ``ResultCache(symmetric=False)`` — ``d(s -> t)`` and
        ``d(t -> s)`` differ, so orientations must stay distinct).
        """
        from repro.core.engine import run_query_batch

        return run_query_batch(
            self.engine,
            pairs,
            with_path,
            check_node=self.graph.check_node,
            fallback=self._fallback if self.fallback != "none" else None,
            record=self.counters.record,
        )

    def _fallback(
        self, source: int, target: int, probes: int, with_path: bool
    ) -> DirectedQueryResult:
        if self.fallback == "none":
            return DirectedQueryResult(source, target, None, None, "miss", None, probes)
        outcome = directed_bidirectional_bfs(self.graph, source, target, with_path)
        if outcome is None:
            return DirectedQueryResult(
                source, target, None, None, "disconnected", None, probes
            )
        distance, path = outcome
        return DirectedQueryResult(
            source, target, distance, path, "fallback", None, probes
        )


def directed_bidirectional_bfs(
    graph: DiGraph, source: int, target: int, with_path: bool = False
) -> Optional[tuple[int, Optional[list[int]]]]:
    """Bidirectional BFS on a digraph: forward from ``source``, backward
    from ``target``.

    Returns ``(distance, path-or-None)`` or ``None`` when no directed
    path exists.
    """
    if source == target:
        return 0, ([source] if with_path else None)
    out_adj = graph.out_adjacency()
    in_adj = graph.in_adjacency()
    dist_f: dict[int, int] = {source: 0}
    dist_b: dict[int, int] = {target: 0}
    parent_f: dict[int, int] = {source: source}
    parent_b: dict[int, int] = {target: target}
    frontier_f = [source]
    frontier_b = [target]
    level_f = level_b = 0
    mu = float("inf")
    meet: Optional[int] = None
    while frontier_f and frontier_b:
        if mu <= level_f + level_b:
            break
        if len(frontier_f) <= len(frontier_b):
            frontier, adj, dist_mine, dist_other, parent = (
                frontier_f, out_adj, dist_f, dist_b, parent_f,
            )
            level_f += 1
            level = level_f
        else:
            frontier, adj, dist_mine, dist_other, parent = (
                frontier_b, in_adj, dist_b, dist_f, parent_b,
            )
            level_b += 1
            level = level_b
        next_frontier = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist_mine:
                    dist_mine[v] = level
                    parent[v] = u
                    next_frontier.append(v)
                    other = dist_other.get(v)
                    if other is not None and level + other < mu:
                        mu = level + other
                        meet = v
        if dist_mine is dist_f:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
    if meet is None:
        return None
    path = None
    if with_path:
        forward = [meet]
        node = meet
        while node != source:
            node = parent_f[node]
            forward.append(node)
        forward.reverse()
        node = meet
        while node != target:
            node = parent_b[node]
            forward.append(node)
        path = forward
    return int(mu), path
