"""Ground truth and the correctness check, run outside every timed region.

Truth is BFS from every node with the library's public traversal
function (``bfs_distances_vectorized``), kept as an ``n x n`` matrix and
cached on disk under a hash of the graph's CSR arrays, so it is computed
once per graph and never reused for a different one.

A response is classified per request:

* ``exact``   — every pair answered, not degraded, distance == BFS, and
  every returned path a real graph path of the stated length;
* ``estimate`` — correct, but some pair is a flagged (``"degraded":
  true``) answer whose distance is a valid upper bound (>= BFS);
* ``refused`` — ``overloaded``/``deadline`` error (refused or shed);
* ``error``   — any other error, or an unanswered distance (``miss``);
* ``unanswered`` — no response at all;
* ``wrong``   — a distance or path that contradicts the truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Sentinel in the truth matrix for "unreachable".
UNREACHABLE = np.iinfo(np.uint16).max

EXACT, ESTIMATE, REFUSED, ERROR, UNANSWERED, WRONG = range(6)
STATUS_NAMES = ("exact", "estimate", "refused", "error", "unanswered", "wrong")


def graph_digest(graph) -> str:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(graph.indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.indices).tobytes())
    return digest.hexdigest()[:16]


def truth_matrix(graph, cache_dir: Path) -> np.ndarray:
    """All-pairs BFS distances as uint16 (``UNREACHABLE`` for none)."""
    from repro.graph.traversal.vectorized import bfs_distances_vectorized

    path = Path(cache_dir) / f"truth-{graph_digest(graph)}.npy"
    if path.exists():
        return np.load(path)
    matrix = np.empty((graph.n, graph.n), dtype=np.uint16)
    for source in range(graph.n):
        dist = np.asarray(bfs_distances_vectorized(graph, source))
        row = np.where(dist < 0, UNREACHABLE, dist)
        matrix[source] = row.astype(np.uint16)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, matrix)
    tmp.replace(path)
    return matrix


class Checker:
    """Checks responses against the truth matrix and the graph's edges."""

    def __init__(self, graph, truth: np.ndarray) -> None:
        self.n = graph.n
        self.truth = truth
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        indices = np.asarray(graph.indices, dtype=np.int64)
        rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
        self._edges = np.sort(rows * graph.n + indices)

    def is_path(self, path, s: int, t: int, distance) -> bool:
        """Is ``path`` a walk of real edges from ``s`` to ``t`` of ``distance`` hops?"""
        if not isinstance(path, list) or not path:
            return False
        if path[0] != s or path[-1] != t or len(path) - 1 != distance:
            return False
        try:
            nodes = np.asarray(path, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return False
        if nodes.ndim != 1 or nodes.min() < 0 or nodes.max() >= self.n:
            return False
        keys = nodes[:-1] * self.n + nodes[1:]
        found = np.searchsorted(self._edges, keys)
        found = np.minimum(found, len(self._edges) - 1)
        return bool(np.all(self._edges[found] == keys))

    def classify(self, raw, pairs, with_path: bool) -> int:
        """Status of one request (``pairs`` is its ``(k, 2)`` array)."""
        if raw is None:
            return UNANSWERED
        try:
            body = json.loads(raw)
        except ValueError:
            return ERROR
        if not isinstance(body, dict):
            return ERROR
        if "error" in body:
            return REFUSED if body["error"] in ("overloaded", "deadline") else ERROR
        answers = body["results"] if "results" in body else [body]
        if not isinstance(answers, list) or len(answers) != len(pairs):
            return WRONG
        status = EXACT
        for answer, (s, t) in zip(answers, pairs.tolist()):
            if not isinstance(answer, dict) or answer.get("s") != s or answer.get("t") != t:
                return WRONG
            distance = answer.get("distance")
            if distance is None:
                return ERROR  # a miss: no distance at all
            truth = int(self.truth[s, t])
            if truth == UNREACHABLE:
                return WRONG  # the graph is connected; any distance is wrong
            if answer.get("degraded") or answer.get("method") == "estimate":
                if distance < truth:
                    return WRONG
                status = ESTIMATE
                continue
            if distance != truth:
                return WRONG
            if with_path and not self.is_path(answer.get("path"), s, t, truth):
                return WRONG
        return status


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (missed requests) sort last."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(values, q, method="inverted_cdf"))
