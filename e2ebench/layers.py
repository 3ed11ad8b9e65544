"""Per-layer metrics of one traced phase: spans plus the server's own counters.

Span times are per request: each batch run (and each of its children)
is weighted by the requests it served, then divided by the requests
that got a response.  With that weighting the layers add up:

    mean client latency = net.self_ms.mean + batch.self_ms + cache.self_ms
                          + engine.self_ms + shard.self_ms

where ``net.self_ms.mean`` is the remainder spent outside
``BatchExecutor.run`` (socket, protocol, coalescing queue, wire).  Every
request's latency contains the whole run that answered it, so that
remainder cannot be negative.
"""

from __future__ import annotations

from collections import defaultdict

from spec import METHOD_NAMES, SLO_STAGES


def _delta(after: dict, before: dict, *keys) -> float:
    for key in keys:
        after = after.get(key, {}) if isinstance(after, dict) else {}
        before = before.get(key, {}) if isinstance(before, dict) else {}
    return float(after or 0) - float(before or 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, start: float, end: float, responded: int, pairs_per_request: int) -> dict:
    """Request-weighted self times of the layers under ``BatchExecutor.run``."""
    runs = [s for s in spans if s[0] == "batch.run" and start <= s[1] <= end]
    children = defaultdict(lambda: defaultdict(float))
    resolver_pairs = 0
    for name, s0, s1, _sid, parent, size in spans:
        if parent and name != "batch.run":
            children[parent][name] += s1 - s0
            if name.endswith("query_batch"):
                children[parent]["pairs"] += size
    weighted = defaultdict(float)
    busy = defaultdict(float)
    for _name, s0, s1, sid, _parent, size in runs:
        requests = size / pairs_per_request
        kids = children.get(sid, {})
        engine = kids.get("engine.query_batch", 0.0)
        shard = kids.get("shard.query_batch", 0.0)
        cache = kids.get("cache.get", 0.0) + kids.get("cache.put", 0.0)
        duration = s1 - s0
        weighted["run"] += duration * requests
        weighted["batch"] += (duration - engine - shard - cache) * requests
        weighted["cache"] += cache * requests
        weighted["engine"] += engine * requests
        weighted["shard"] += shard * requests
        busy["engine"] += engine
        busy["shard"] += shard
        resolver_pairs += kids.get("pairs", 0)
    per_request_ms = {k: 1e3 * _ratio(v, responded) for k, v in weighted.items()}
    return {
        "runs": len(runs),
        "run_ms": per_request_ms.get("run", 0.0),
        "batch.self_ms": per_request_ms.get("batch", 0.0),
        "cache.self_ms": per_request_ms.get("cache", 0.0),
        "engine.self_ms": per_request_ms.get("engine", 0.0),
        "shard.self_ms": per_request_ms.get("shard", 0.0),
        "engine.busy_s": busy["engine"],
        "shard.busy_s": busy["shard"],
        "engine.us_per_pair": 1e6 * _ratio(busy["engine"], resolver_pairs)
        if busy["engine"] else 0.0,
    }


def counter_metrics(before: dict, after: dict, pairs_per_request: int) -> dict:
    """Layer counters of one phase: differences of two server snapshots."""
    net_b, net_a = before["net"], after["net"]
    out = {
        "net.reqs_per_flush": _ratio(
            _delta(net_a, net_b, "flushes", "pairs"),
            _delta(net_a, net_b, "flushes", "count"),
        ) / pairs_per_request,
        "net.queue_wait_ms.p50": float(net_a["queue_wait"]["p50_ms"]),
        "net.queue_wait_ms.p99": float(net_a["queue_wait"]["p99_ms"]),
        "net.peak_depth": float(net_a["queue"]["peak_depth"]),
        "batch.unique_ratio": _ratio(
            _delta(after, before, "batching", "unique_pairs"),
            _delta(after, before, "batching", "pairs_in"),
        ),
        "cache.hit_rate": _ratio(
            _delta(after, before, "cache", "hits"),
            _delta(after, before, "cache", "lookups"),
        ),
        "cache.evictions": _delta(after, before, "cache", "evictions"),
    }
    for method in METHOD_NAMES:
        out[f"engine.method.{method}"] = _delta(after, before, "by_method", method)
    for part in ("dispatch_s", "execute_s", "collect_s"):
        out[f"shard.{part}"] = _delta(after, before, "shards", part)
    queries = _delta(after, before, "shards", "local_queries") + _delta(
        after, before, "shards", "remote_queries"
    )
    out["shard.bytes_per_pair"] = _ratio(_delta(after, before, "shards", "bytes"), queries)
    slo_b, slo_a = net_b["slo"], net_a["slo"]
    out["slo.deadline_misses"] = _delta(slo_a, slo_b, "deadline", "misses")
    for stage in SLO_STAGES:
        out[f"slo.misses.{stage}"] = _delta(
            slo_a, slo_b, "deadline", "misses_by_stage", stage
        )
    out["slo.rung.estimate"] = _delta(slo_a, slo_b, "ladder", "taken", "estimate")
    out["slo.rung.shed"] = _delta(slo_a, slo_b, "ladder", "taken", "shed")
    out["slo.predicted_miss_ratio"] = _ratio(
        out["slo.misses.queue"], _delta(slo_a, slo_b, "deadline", "requests")
    )
    return out
