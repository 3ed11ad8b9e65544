"""Round-trip persistence for a built :class:`VicinityIndex`.

The offline phase is the expensive part of the paper's design; a
deployment builds once and serves forever.  This module flattens the
per-node hash tables into offset-indexed arrays (the standard CSR-of-
dicts trick) and persists them in the single-file aligned binary
container of :mod:`repro.io.flatfile` (format version 1, kind
``"vicinity-oracle"`` / ``"directed-oracle"``):

* header meta — ``n``, ``weighted`` and the :class:`OracleConfig`
  mapping (``alpha``/``fallback`` for the directed store);
* ``graph_*``   — the indexed graph's CSR arrays;
* ``landmarks`` — landmark ids; ``landmark_scale`` — calibrated scale;
* ``vic_offsets / vic_nodes / vic_dists / vic_preds`` — every node's
  distance/predecessor table, concatenated, per-slice sorted by node
  id, at the compact dtypes of
  :func:`repro.core.flat.compact_store_arrays`;
* ``member_offsets / member_nodes`` — vicinity membership;
* ``boundary_offsets / boundary_nodes / boundary_dists`` — boundary
  lists with their precomputed distances;
* ``radii``     — per-node vicinity radius (NaN = none);
* ``table_dist / table_parent`` — stacked landmark tables;
* ``landmark_row`` — node id -> table row (-1 for non-landmarks).

Because the file holds the *probe-ready* layout (sorted slices,
derived boundary distances, row map), ``load_flat_index(mmap=True)``
returns memory-mapped views that serve queries with no O(entries)
startup work at all — workers mapping the same file share pages
through the OS page cache.  The PR 2-4 compressed ``.npz`` layout
(``repro-oracle-v1``) still loads through every reader here, upconverted
to the compact in-memory layout; ``save_index(..., format="npz")``
keeps writing it for archival interchange.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.config import OracleConfig
from repro.core.flat import PROBE_EXTRA_ARRAYS, FlatIndex, flatten_index
from repro.core.index import LandmarkTable, VicinityIndex
from repro.core.landmarks import landmark_set_from_ids
from repro.core.vicinity import Vicinity
from repro.exceptions import SerializationError
from repro.graph.csr import CSRGraph
from repro.io.flatfile import is_flat_file, read_flat_file, write_flat_file

PathLike = Union[str, Path]

_MAGIC = "repro-oracle-v1"
_DIRECTED_MAGIC = "repro-directed-oracle-v1"

#: ``kind`` strings namespacing the flat-container schemas.
FLAT_KIND_INDEX = "vicinity-oracle"
FLAT_KIND_DIRECTED = "directed-oracle"

#: Per-orientation arrays persisted by :func:`save_directed_oracle`
#: (stored twice, prefixed ``out_`` / ``in_``).
DIRECTED_SIDE_ARRAYS = (
    "vic_offsets",
    "vic_nodes",
    "vic_dists",
    "vic_preds",
    "member_offsets",
    "member_nodes",
    "boundary_offsets",
    "boundary_nodes",
    "radii",
    "table_dist",
    "table_parent",
)

#: Index arrays persisted by :func:`save_index` (the flattened layout,
#: produced by :func:`repro.core.flat.flatten_index`).
FLAT_STORE_ARRAYS = (
    "landmarks",
    "landmark_scale",
    "vic_offsets",
    "vic_nodes",
    "vic_dists",
    "vic_preds",
    "member_offsets",
    "member_nodes",
    "boundary_offsets",
    "boundary_nodes",
    "radii",
    "table_dist",
    "table_parent",
)


def _resolve_format(path: PathLike, format) -> str:
    """``format=None`` infers from the suffix: ``.npz`` keeps writing
    the legacy archive (old callers and checkouts read it unchanged),
    anything else gets the flat container."""
    if format is None:
        return "npz" if str(path).endswith(".npz") else "flat"
    if format not in ("flat", "npz"):
        raise SerializationError(
            f"unknown oracle store format {format!r}; choose 'flat' or 'npz'"
        )
    return format


def save_index(index: VicinityIndex, path: PathLike, *, format: str = None) -> None:
    """Serialise a built index (graph included).

    ``format="flat"`` writes the single-file aligned binary container —
    the probe-ready layout every loader (including ``mmap=True``)
    consumes directly.  ``format="npz"`` writes the PR 2-4 compressed
    archive, widened back to the int64/-1-marker layout so pre-compact
    checkouts read it bit-compatibly.  The default infers from the
    path: ``.npz`` stays an archive, everything else is flat.  Both
    round-trip through :func:`load_index` / :func:`load_flat_index`.
    """
    from repro.core.flat import widen_store

    graph = index.graph
    config = dict(asdict(index.config))
    store = flatten_index(index)
    if _resolve_format(path, format) == "npz":
        payload = {
            "magic": np.asarray(_MAGIC),
            "config": np.asarray(json.dumps(config)),
            "graph_n": np.asarray(graph.n, dtype=np.int64),
            "graph_indptr": graph.indptr,
            "graph_indices": graph.indices,
            # The legacy magic promises the legacy layout: int64 ids
            # and -1 markers, which sign-based old readers require.
            **widen_store(store),
        }
        if graph.is_weighted:
            payload["graph_weights"] = graph.weights
        np.savez_compressed(path, **payload)
        return
    # Persist the probe layout: a FlatIndex guarantees sorted slices
    # and carries the derived boundary distances and row map.  Reuse a
    # cached one, else derive from the store just flattened — never
    # through FlatIndex.from_index, which would re-run the whole
    # record-extraction pass on an index of mutated records.
    flat = getattr(index, "_flat_index", None)
    if flat is None:
        flat = FlatIndex.from_store_arrays(
            store,
            n=graph.n,
            weighted=graph.is_weighted,
            store_paths=index.config.store_paths,
        )
        index._flat_index = flat
    arrays = {name: store[name] for name in FLAT_STORE_ARRAYS}
    for name in ("vic_nodes", "vic_dists", "vic_preds"):
        arrays[name] = flat.arrays[name]
    arrays["boundary_dists"] = flat.boundary_dists
    arrays["landmark_row"] = flat.landmark_row
    arrays["graph_indptr"] = graph.indptr
    arrays["graph_indices"] = graph.indices
    if graph.is_weighted:
        arrays["graph_weights"] = graph.weights
    meta = {
        "n": graph.n,
        "weighted": graph.is_weighted,
        "config": config,
    }
    write_flat_file(path, arrays, meta, kind=FLAT_KIND_INDEX)


def load_flat_arrays(
    path: PathLike, *, include_graph: bool = False
) -> tuple[dict[str, np.ndarray], dict]:
    """Load a saved index's raw offset-indexed arrays, dict-free.

    The serving backends probe the flattened arrays directly (see
    :class:`repro.core.flat.FlatIndex`), so they can skip
    :func:`load_index`'s per-node dict materialisation — the expensive
    part of loading — entirely.  The O(|E|) graph CSR arrays are needed
    at query time by *nothing* in the flat serving path, so they stay
    compressed unless ``include_graph`` asks for them.

    Returns:
        ``(arrays, meta)`` — the :data:`FLAT_STORE_ARRAYS` (plus the
        probe extras on flat-container files, plus the graph CSR
        arrays when ``include_graph``), and a metadata dict with
        ``n``, ``weighted``, ``store_paths`` and the full ``config``
        mapping.

    Raises:
        SerializationError: on unknown or corrupt files.
    """
    if is_flat_file(path):
        raw, file_meta, _ = read_flat_file(path, expect_kind=FLAT_KIND_INDEX)
        names = FLAT_STORE_ARRAYS + PROBE_EXTRA_ARRAYS
        missing = [name for name in names if name not in raw]
        if missing:
            raise SerializationError(f"{path} is missing arrays: {missing}")
        arrays = {name: raw[name] for name in names}
        if include_graph:
            for name in ("graph_indptr", "graph_indices", "graph_weights"):
                if name in raw:
                    arrays[name] = raw[name]
        config = file_meta["config"]
        meta = {
            "n": int(file_meta["n"]),
            "weighted": bool(file_meta["weighted"]),
            "store_paths": bool(config.get("store_paths", True)),
            "config": config,
        }
        return arrays, meta
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _MAGIC:
            raise SerializationError(f"{path} is not a {_MAGIC} snapshot")
        config = json.loads(str(data["config"]))
        arrays = {name: data[name] for name in FLAT_STORE_ARRAYS}
        weighted = "graph_weights" in data
        if include_graph:
            arrays["graph_indptr"] = data["graph_indptr"]
            arrays["graph_indices"] = data["graph_indices"]
            if weighted:
                arrays["graph_weights"] = data["graph_weights"]
        meta = {
            "n": int(data["graph_n"]),
            "weighted": weighted,
            "store_paths": bool(config.get("store_paths", True)),
            "config": config,
        }
    return arrays, meta


def load_flat_index(path: PathLike, *, mmap: bool = False):
    """Load a saved index straight into a probe-ready ``FlatIndex``.

    The dict-free loading path of the serving layer: the shard
    backends' ``from_saved`` constructors and any
    :class:`~repro.core.engine.FlatQueryEngine` consumer go through
    this instead of :func:`load_index`, skipping per-node dict
    materialisation entirely.

    With ``mmap=True`` (flat-container files only) the index's arrays
    are read-only memory-mapped views: nothing beyond the O(n) offset
    diffs is touched at load time, and every process mapping the same
    file shares pages through the OS page cache instead of holding a
    private copy.

    Raises:
        SerializationError: unknown/corrupt files, or ``mmap=True`` on
            a legacy ``.npz`` store (re-save with ``format="flat"``).
    """
    if is_flat_file(path):
        raw, file_meta, _ = read_flat_file(
            path, mmap=mmap, expect_kind=FLAT_KIND_INDEX
        )
        config = file_meta["config"]
        return FlatIndex.from_probe_arrays(
            raw,
            n=int(file_meta["n"]),
            weighted=bool(file_meta["weighted"]),
            store_paths=bool(config.get("store_paths", True)),
        )
    if mmap:
        raise SerializationError(
            f"{path} is a legacy compressed .npz store and cannot be "
            "memory-mapped; re-save it with save_index(..., format='flat')"
        )
    arrays, meta = load_flat_arrays(path)
    return FlatIndex.from_store_arrays(
        arrays,
        n=meta["n"],
        weighted=meta["weighted"],
        store_paths=meta["store_paths"],
    )


def load_store_config(path: PathLike) -> dict:
    """The saved :class:`OracleConfig` mapping, without loading arrays.

    Flat-container files answer from the header; legacy ``.npz`` files
    decompress only their ``config`` member.
    """
    if is_flat_file(path):
        from repro.io.flatfile import read_flat_header

        header, _ = read_flat_header(path)
        return header["meta"]["config"]
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _MAGIC:
            raise SerializationError(f"{path} is not a {_MAGIC} snapshot")
        return json.loads(str(data["config"]))


def load_query_engine(path: PathLike, *, mmap: bool = False, kernels: str = None):
    """Load a saved index as a ready single-machine query engine.

    The dict-free, graph-free serving path for an unsharded deployment:
    a :class:`~repro.core.engine.FlatQueryEngine` over the stored
    arrays, configured with the index's saved kernel.  Fallback
    searches are unavailable (they need the input graph), exactly as in
    sharded serving; misses are reported as such.  With ``mmap=True``
    the arrays are memory-mapped views (see :func:`load_flat_index`).
    ``kernels`` picks the compute tier (``"numpy"``/``"native"``;
    default auto-detect).
    """
    from repro.core.engine import FlatQueryEngine

    config = load_store_config(path)
    return FlatQueryEngine(
        load_flat_index(path, mmap=mmap),
        kernel=config.get("kernel", "boundary-smaller"),
        strict_paths=True,
        kernels=kernels,
    )


def save_directed_oracle(oracle, path: PathLike, *, format: str = None) -> None:
    """Serialise a :class:`~repro.core.directed.DirectedVicinityOracle`.

    Persists the digraph CSR (both orientations) plus each side's flat
    arrays in the same offset-indexed layout :func:`save_index` uses —
    the PR 3 follow-up that lets a loaded directed oracle serve its
    first query with no flattening pass at all.  A built oracle saves
    the arrays it already holds; one over per-node records (the
    reference builder) flattens once (cached on the oracle).  The single-file container (default for
    non-``.npz`` paths) also carries each side's probe-ready extras
    (sorted slices, boundary distances, landmark row map) so a
    memory-mapped load starts in O(n); ``format="npz"`` keeps the PR 4
    archive layout, widened back to int64/-1 markers for old readers.
    """
    from repro.core.flat import (
        directed_side_flat_index,
        landmark_row_map,
        widen_store,
    )

    graph = oracle.graph
    out_store, in_store = oracle.flat_side_stores()
    meta = {"alpha": float(oracle.alpha), "fallback": oracle.fallback}
    if _resolve_format(path, format) == "npz":
        payload = {
            "magic": np.asarray(_DIRECTED_MAGIC),
            "meta": np.asarray(json.dumps(meta)),
            "graph_n": np.asarray(graph.n, dtype=np.int64),
            "out_indptr": graph.out_indptr,
            "out_indices": graph.out_indices,
            "in_indptr": graph.in_indptr,
            "in_indices": graph.in_indices,
            "landmarks": oracle.landmark_ids,
        }
        for prefix, store in (("out", out_store), ("in", in_store)):
            wide = widen_store(store)
            for name in DIRECTED_SIDE_ARRAYS:
                payload[f"{prefix}_{name}"] = wide[name]
        np.savez_compressed(path, **payload)
        return
    arrays = {
        "out_indptr": graph.out_indptr,
        "out_indices": graph.out_indices,
        "in_indptr": graph.in_indptr,
        "in_indices": graph.in_indices,
        "landmarks": np.ascontiguousarray(oracle.landmark_ids, dtype=np.int64),
    }
    for prefix, store in (("out", out_store), ("in", in_store)):
        side_flat = directed_side_flat_index(store, graph.n)
        for name in DIRECTED_SIDE_ARRAYS:
            arrays[f"{prefix}_{name}"] = store[name]
        # Probe-ready overrides/extras (sorted slices, derived columns).
        for name in ("vic_nodes", "vic_dists", "vic_preds"):
            arrays[f"{prefix}_{name}"] = side_flat.arrays[name]
        arrays[f"{prefix}_boundary_dists"] = side_flat.boundary_dists
    # The row map depends only on (landmarks, n) and is shared by both
    # sides, so derive it once rather than borrowing either side's.
    arrays["landmark_row"] = landmark_row_map(arrays["landmarks"], graph.n)
    write_flat_file(
        path, arrays, {**meta, "n": graph.n}, kind=FLAT_KIND_DIRECTED
    )


def load_directed_oracle(path: PathLike, *, mmap: bool = False):
    """Load a directed oracle saved by :func:`save_directed_oracle`.

    Dict-free: both engine sides come straight from the stored arrays
    (per-node records materialise lazily only if the record API is
    touched), so queries are served immediately without re-flattening
    either orientation.  With ``mmap=True`` (single-file container
    only) both sides and the digraph CSR are read-only memory-mapped
    views sharing pages through the OS page cache.

    Raises:
        SerializationError: on unknown or corrupt files, or
            ``mmap=True`` on a legacy ``.npz`` store.
    """
    from repro.core.directed import DirectedVicinityOracle
    from repro.core.landmarks import flag_bytes

    if is_flat_file(path):
        raw, meta, _ = read_flat_file(
            path, mmap=mmap, expect_kind=FLAT_KIND_DIRECTED
        )
        n = int(meta["n"])
        ids = np.asarray(raw["landmarks"])
        sides = []
        for prefix in ("out", "in"):
            store = {
                name: raw[f"{prefix}_{name}"] for name in DIRECTED_SIDE_ARRAYS
            }
            store["boundary_dists"] = raw[f"{prefix}_boundary_dists"]
            store["landmark_row"] = raw["landmark_row"]
            store["landmarks"] = ids
            sides.append(store)
        return DirectedVicinityOracle.from_side_stores(
            _digraph_from_arrays(raw, n),
            float(meta["alpha"]),
            ids,
            flag_bytes(n, ids),
            sides[0],
            sides[1],
            meta["fallback"],
        )
    if mmap:
        raise SerializationError(
            f"{path} is a legacy compressed .npz store and cannot be "
            "memory-mapped; re-save it with save_directed_oracle(..., "
            "format='flat')"
        )
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _DIRECTED_MAGIC:
            raise SerializationError(f"{path} is not a {_DIRECTED_MAGIC} snapshot")
        meta = json.loads(str(data["meta"]))
        n = int(data["graph_n"])
        graph = _digraph_from_arrays(data, n)
        ids = np.ascontiguousarray(data["landmarks"], dtype=np.int64)
        sides = []
        for prefix in ("out", "in"):
            store = {
                name: data[f"{prefix}_{name}"] for name in DIRECTED_SIDE_ARRAYS
            }
            store["landmarks"] = ids
            sides.append(store)
    return DirectedVicinityOracle.from_side_stores(
        graph,
        float(meta["alpha"]),
        ids,
        flag_bytes(n, ids),
        sides[0],
        sides[1],
        meta["fallback"],
    )


def _digraph_from_arrays(data, n: int):
    """Both-orientation :class:`DiGraph` over stored (or mapped) CSR."""
    from repro.graph.digraph import DiGraph

    return DiGraph(
        n,
        data["out_indptr"],
        data["out_indices"],
        data["in_indptr"],
        data["in_indices"],
    )


def load_index(path: PathLike) -> VicinityIndex:
    """Load an index saved by :func:`save_index` (either format).

    Raises:
        SerializationError: on unknown or corrupt files.
    """
    data, meta = load_flat_arrays(path, include_graph=True)
    config = OracleConfig(**meta["config"])
    weights = data["graph_weights"] if "graph_weights" in data else None
    graph = CSRGraph(
        meta["n"], data["graph_indptr"], data["graph_indices"], weights
    )
    landmarks = landmark_set_from_ids(graph, data["landmarks"].tolist(), config.alpha)
    landmarks.scale = float(data["landmark_scale"])

    vic_offsets = data["vic_offsets"]
    vic_nodes = data["vic_nodes"]
    vic_dists = data["vic_dists"]
    vic_preds = data["vic_preds"]
    member_offsets = data["member_offsets"]
    member_nodes = data["member_nodes"]
    boundary_offsets = data["boundary_offsets"]
    boundary_nodes = data["boundary_nodes"]
    radii = data["radii"]
    weighted = weights is not None

    vicinities: list[Vicinity] = []
    for u in range(graph.n):
        lo, hi = int(vic_offsets[u]), int(vic_offsets[u + 1])
        keys = vic_nodes[lo:hi].tolist()
        values = vic_dists[lo:hi].tolist()
        preds = vic_preds[lo:hi].tolist()
        dist = dict(zip(keys, values))
        # Missing predecessors sit outside [0, n): -1 in legacy
        # signed stores, the all-ones sentinel in compact ones.
        pred = {k: p for k, p in zip(keys, preds) if 0 <= p < graph.n}
        mlo, mhi = int(member_offsets[u]), int(member_offsets[u + 1])
        members = frozenset(member_nodes[mlo:mhi].tolist())
        blo, bhi = int(boundary_offsets[u]), int(boundary_offsets[u + 1])
        boundary = boundary_nodes[blo:bhi].tolist()
        radius = None if np.isnan(radii[u]) else radii[u]
        if radius is not None and not weighted:
            radius = int(radius)
        vicinities.append(
            Vicinity(
                node=u,
                radius=radius,
                dist=dist,
                pred=pred,
                members=members,
                boundary=boundary,
            )
        )

    tables: dict[int, LandmarkTable] = {}
    table_dist = data["table_dist"]
    table_parent = data["table_parent"]
    if table_dist.size:
        has_parents = table_parent.size > 0
        for row, landmark in enumerate(landmarks.ids.tolist()):
            parent = None
            if has_parents:
                # Record-level tables keep the dict builder's int32
                # layout with -1 markers; compact stores widen back
                # here so round-tripped tables are array-identical.
                parent = _widen_parent_row(table_parent[row], graph.n)
            tables[landmark] = LandmarkTable(
                landmark=landmark, dist=table_dist[row], parent=parent
            )
    return VicinityIndex(graph, config, landmarks, vicinities, tables)


def _widen_parent_row(row: np.ndarray, n: int) -> np.ndarray:
    """One landmark table's parents as int32 with -1 markers restored."""
    wide = row.astype(np.int32)
    if row.dtype.kind == "u":
        wide[row >= n] = -1
    return wide
