"""The offline phase: build every vicinity and landmark table (§2.2, §3.1).

`VicinityIndex` is the complete precomputed data structure:

* for each non-landmark node ``u``: a :class:`~repro.core.vicinity.Vicinity`
  with exact distances, predecessor pointers and boundary list;
* for each landmark ``u ∈ L`` (in ``landmark_tables="full"`` mode): a
  dense single-source table over all of ``V``;
* the landmark set itself.

Landmarks own *empty* vicinities, exactly as Definition 1 dictates
(``d(u, l(u)) = 0`` makes the ball empty): with full tables they never
need one, and in ``landmark_tables="none"`` mode queries touching a
landmark endpoint either hit condition (4) of Algorithm 1 (the landmark
sits in the *other* endpoint's vicinity) or take the fallback path —
the memory/accuracy trade-off is measured in ablation benchmarks.

There is one offline build path: :meth:`VicinityIndex.build` writes
the contiguous store layout directly (batched truncated BFS,
:func:`repro.core.parallel.build_flat_store`), and per-node records
are materialised from those arrays only when something asks for them
(:class:`FlatVicinityList`).  The per-node dict builder survives only
as the test oracle in :mod:`repro.core.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import OracleConfig
from repro.core.landmarks import LandmarkSet, calibrate_scale, sample_landmarks
from repro.core.vicinity import Vicinity
from repro.exceptions import IndexBuildError
from repro.graph.csr import CSRGraph
from repro.utils.rng import ensure_rng

#: Optional progress callback: (stage, done, total).
ProgressCallback = Callable[[str, int, int], None]


def draw_landmarks(graph: CSRGraph, config: OracleConfig) -> LandmarkSet:
    """Sample the landmark set ``L`` exactly as :meth:`VicinityIndex.build` does.

    Seeded from ``config.seed``, so every builder handed the same
    ``(graph, config)`` — this module's and the reference builder in
    :mod:`repro.core.reference` — draws the same ``L``.

    Raises:
        IndexBuildError: for an empty graph.
    """
    if graph.n == 0:
        raise IndexBuildError("cannot build an index over an empty graph")
    rng = ensure_rng(config.seed)
    scale = config.probability_scale
    if scale == "auto":
        # Calibrate so the mean vicinity size meets the paper's
        # alpha * sqrt(n) target (see repro.core.landmarks).
        scale = calibrate_scale(graph, config.alpha, rng=rng)
    return sample_landmarks(
        graph,
        config.alpha,
        rng=rng,
        scale=float(scale),
        per_component=config.landmark_per_component,
        max_landmarks=config.max_landmarks,
    )


class FlatVicinityList(Sequence):
    """Per-node :class:`Vicinity` records materialised lazily from flat arrays.

    A built index stores only the contiguous arrays; consumers of
    the record API (stats, memory accounting, the partitioned
    simulation, dynamic repair) still index ``index.vicinities[u]``, so
    this view reconstructs — and caches — exactly the records they
    touch, the same extraction :func:`repro.io.oracle_store.load_index`
    performs for every node up front.  Assignment is supported because
    the dynamic oracle replaces repaired records in place; overridden
    slots shadow the stored arrays from then on.

    Like the persistence round trip, materialised ``dist`` dicts
    iterate in sorted-node order rather than the builder's discovery
    order — equivalent everywhere except the documented ``full-*``
    witness tie-break.
    """

    def __init__(self, store: Mapping[str, np.ndarray], n: int, weighted: bool) -> None:
        self._store = store
        self._n = int(n)
        self._weighted = bool(weighted)
        self._records: dict[int, Vicinity] = {}

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return (self[u] for u in range(self._n))

    def __setitem__(self, u: int, record: Vicinity) -> None:
        self._records[int(u)] = record

    def __getitem__(self, u: int) -> Vicinity:
        u = int(u)
        if u < 0:
            u += self._n
        if not 0 <= u < self._n:
            raise IndexError(u)
        record = self._records.get(u)
        if record is None:
            record = self._materialise(u)
            self._records[u] = record
        return record

    def radius(self, u: int) -> Optional[float]:
        """``self[u].radius``, without materialising the record."""
        record = self._records.get(int(u))
        if record is not None:
            return record.radius
        return self._stored_radius(int(u))

    def _stored_radius(self, u: int) -> Optional[float]:
        radius = self._store["radii"][u]
        if np.isnan(radius):
            return None
        return float(radius) if self._weighted else int(radius)

    def _materialise(self, u: int) -> Vicinity:
        store = self._store
        lo, hi = int(store["vic_offsets"][u]), int(store["vic_offsets"][u + 1])
        keys = store["vic_nodes"][lo:hi].tolist()
        values = store["vic_dists"][lo:hi].tolist()
        preds = store["vic_preds"][lo:hi].tolist()
        mlo, mhi = (
            int(store["member_offsets"][u]),
            int(store["member_offsets"][u + 1]),
        )
        blo, bhi = (
            int(store["boundary_offsets"][u]),
            int(store["boundary_offsets"][u + 1]),
        )
        return Vicinity(
            node=u,
            radius=self._stored_radius(u),
            dist=dict(zip(keys, values)),
            # Missing predecessors sit outside [0, n): -1 in legacy
            # signed stores, the all-ones sentinel in compact ones.
            pred={k: p for k, p in zip(keys, preds) if 0 <= p < self._n},
            members=frozenset(store["member_nodes"][mlo:mhi].tolist()),
            boundary=store["boundary_nodes"][blo:bhi].tolist(),
        )


@dataclass
class LandmarkTable:
    """Dense single-source table stored for one landmark.

    Attributes:
        landmark: the table's root node.
        dist: distance to every node — ``int32`` hop counts with ``-1``
            for unreachable (unweighted) or ``float64`` with ``inf``
            (weighted).
        parent: BFS/shortest-path-tree parent per node (``-1`` where
            unreachable, ``landmark`` at the root); ``None`` when the
            index was built distances-only.
    """

    landmark: int
    dist: np.ndarray
    parent: Optional[np.ndarray]

    def distance_to(self, v: int) -> Optional[float]:
        """Return the stored distance to ``v``, or ``None`` if unreachable."""
        d = self.dist[v]
        if d < 0 or d == np.inf:
            return None
        return int(d) if self.dist.dtype.kind == "i" else float(d)


class VicinityIndex:
    """The full offline data structure of the paper.

    Build with :meth:`build`; query through
    :class:`~repro.core.oracle.VicinityOracle`, which layers Algorithm 1
    on top of this index.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: OracleConfig,
        landmarks: LandmarkSet,
        vicinities: Sequence[Vicinity],
        tables: dict[int, LandmarkTable],
    ) -> None:
        self.graph = graph
        self.config = config
        self.landmarks = landmarks
        self.vicinities = vicinities
        self.tables = tables

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        config: Optional[OracleConfig] = None,
        *,
        progress: Optional[ProgressCallback] = None,
        workers: int = 1,
    ) -> "VicinityIndex":
        """Run the complete offline phase.

        Samples the landmark set, then builds straight into the flat
        store through :func:`repro.core.parallel.build_flat_store`.

        Args:
            graph: the network (undirected CSR; weighted or not).
            config: build settings; defaults to ``OracleConfig()``
                (alpha = 4, the paper's operating point).
            progress: optional callback invoked as
                ``progress(stage, done, total)`` during the two long
                stages (``"vicinities"`` and ``"landmark-tables"``).
            workers: worker processes for the build (sources
                partitioned over a shared-memory CSR); the output is
                identical for any worker count.

        Raises:
            IndexBuildError: for an empty graph or invalid settings.
        """
        if config is None:
            config = OracleConfig()
        return cls.from_landmarks(
            graph,
            config,
            draw_landmarks(graph, config),
            progress=progress,
            workers=workers,
        )

    @classmethod
    def from_landmarks(
        cls,
        graph: CSRGraph,
        config: OracleConfig,
        landmarks: LandmarkSet,
        *,
        progress: Optional[ProgressCallback] = None,
        workers: int = 1,
    ) -> "VicinityIndex":
        """Build the index for an explicit landmark set.

        Split out from :meth:`build` so persistence and the dynamic
        oracle can rebuild against a frozen ``L``, and so the parity
        suites can pin this builder and the per-node reference builder
        (:func:`repro.core.reference.build_reference_index`) on one
        landmark set.
        """
        # Local import: parallel wraps this class for the §5
        # simulation, so the build backend is imported lazily.
        from repro.core.parallel import build_flat_store

        store = build_flat_store(
            graph, config, landmarks, workers=workers, progress=progress
        )
        return cls.from_flat_store(graph, config, landmarks, store)

    @classmethod
    def from_flat_store(
        cls,
        graph: CSRGraph,
        config: OracleConfig,
        landmarks: LandmarkSet,
        store: dict,
    ) -> "VicinityIndex":
        """Wrap the offline build's store arrays as a fully functional index.

        ``store`` holds the persistence-layout arrays
        (:data:`repro.io.oracle_store.FLAT_STORE_ARRAYS`) plus the probe
        extras the build emits (per-boundary distances, landmark row
        map).  The probe surface (:class:`~repro.core.flat.FlatIndex`)
        wraps them as they are — build output is compact and
        slice-sorted, so there is nothing to derive — while the record
        API materialises per-node :class:`Vicinity` views only on
        demand.  ``save_index`` persists the stored arrays without any
        re-flattening.
        """
        from repro.core.flat import PROBE_EXTRA_ARRAYS, FlatIndex

        flat_index = FlatIndex.from_probe_arrays(
            store,
            n=graph.n,
            weighted=graph.is_weighted,
            store_paths=config.store_paths,
        )
        # The index keeps the persistence layout alone; the extras live
        # on in the probe surface.
        store = {
            name: array
            for name, array in store.items()
            if name not in PROBE_EXTRA_ARRAYS
        }
        vicinities = FlatVicinityList(store, graph.n, graph.is_weighted)
        tables: dict[int, LandmarkTable] = {}
        if store["table_dist"].size:
            has_parents = store["table_parent"].size > 0
            for row, landmark in enumerate(landmarks.ids.tolist()):
                tables[landmark] = LandmarkTable(
                    landmark=landmark,
                    dist=store["table_dist"][row],
                    parent=store["table_parent"][row] if has_parents else None,
                )
        index = cls(graph, config, landmarks, vicinities, tables)
        index._flat_store = store
        index._flat_index = flat_index
        return index

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the indexed graph."""
        return self.graph.n

    def is_landmark(self, u: int) -> bool:
        """Whether ``u`` is in the landmark set ``L``."""
        self.graph.check_node(u)
        return bool(self.landmarks.is_landmark[u])

    def vicinity(self, u: int) -> Vicinity:
        """Return the stored vicinity record of ``u``."""
        self.graph.check_node(u)
        return self.vicinities[u]

    def table(self, u: int) -> Optional[LandmarkTable]:
        """Return the full table of landmark ``u`` (``None`` if absent)."""
        return self.tables.get(u)

    def radius(self, u: int) -> Optional[float]:
        """Return the vicinity radius ``d(u, l(u))`` of ``u``."""
        self.graph.check_node(u)
        if isinstance(self.vicinities, FlatVicinityList):
            return self.vicinities.radius(u)
        return self.vicinities[u].radius

    def __repr__(self) -> str:
        return (
            f"VicinityIndex(n={self.n}, landmarks={self.landmarks.size}, "
            f"alpha={self.config.alpha}, tables={len(self.tables)})"
        )
