"""What the end-to-end socket benchmark measures: workloads and metric names.

Every workload runs against one graph (the LiveJournal Chung-Lu
stand-in at scale 0.0008: 3,878 nodes, 33.5k edges), served by a real
``NetServer`` in its own process and driven by one open-loop Poisson
client process.  Rates are absolute and frozen, so a later change is
judged on the same offered load as its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The graph every workload serves (``repro.datasets.social.generate``).
GRAPH = {"name": "livejournal", "scale": 0.0008, "seed": 7}
#: The oracle configuration (``repro.core.config.OracleConfig``).
ORACLE = {"alpha": 4.0, "seed": 7, "fallback": "none", "vicinity_floor": 0.75}
#: Kernel tier pinned on both sides of every comparison.
KERNELS = "native"
#: Distinct pairs the Zipf stream draws from.
ZIPF_POOL = 4096
#: A phase is invalid when the generator's p99 lateness exceeds this
#: share of the workload's latency limit.
LATE_FRACTION = 0.5
#: Geometric bisection steps of the max-rate search.
SEARCH_STEPS = 6
#: Attempts at a fixed-rate phase whose generator fell behind schedule;
#: the last attempt is kept and flagged invalid in the host line.
PHASE_ATTEMPTS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name / why: identity and the reason it exists.
        low / mid: the two fixed offered rates, in requests per second.
        limit_ms: the latency limit on p99 (``tcp-deadline``: each
            request's own deadline).
        pairs: pairs per request (1 sends ``{"s", "t"}``, more sends
            ``{"pairs": [...]}``).
        path_every: every n-th request asks for the path (0: never).
        deadline_ms: ``deadline_ms`` carried by every request, if any.
        zipf: Zipf(1.0) pairs over :data:`ZIPF_POOL`; otherwise uniform.
        shards: 0 serves the unsharded mmap engine; >0 the procpool
            backend at its defaults with this many shards.
        search: ``(lo, hi)`` bracket of the max-rate search.
        warmup_s: untimed traffic at ``low`` before the timed phases
            (procpool workers spawn on the first query).
    """

    name: str
    why: str
    low: float
    mid: float
    limit_ms: float
    pairs: int = 1
    path_every: int = 0
    deadline_ms: Optional[float] = None
    zipf: bool = False
    shards: int = 0
    search: tuple = (1000.0, 16000.0)
    warmup_s: float = 0.5

    @property
    def search_resolution(self) -> float:
        """Ratio between adjacent rates the search can tell apart."""
        lo, hi = self.search
        return (hi / lo) ** (1.0 / 2 ** SEARCH_STEPS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tcp-zipf-cached",
            why="Zipf(1.0) single pairs on a warmed ResultCache: time goes "
            "to service.net, protocol and coalescing (the front-end gap)",
            low=1000.0,
            mid=3000.0,
            limit_ms=10.0,
            zipf=True,
            search=(2000.0, 32000.0),
        ),
        Workload(
            name="tcp-uniform-sharded",
            why="16 uniform pairs per request, 1 in 8 with paths, on 2 "
            "procpool shards: time goes to the shard plane and worker engine",
            low=250.0,
            mid=500.0,
            limit_ms=20.0,
            pairs=16,
            path_every=8,
            shards=2,
            search=(50.0, 800.0),
            warmup_s=2.0,
        ),
        Workload(
            name="tcp-deadline",
            why="uniform single pairs each with a 50 ms deadline: deadline "
            "admission, completion predictor and landmark estimates",
            low=600.0,
            mid=1200.0,
            limit_ms=50.0,
            deadline_ms=50.0,
            search=(250.0, 4000.0),
        ),
    )
}


#: End-to-end metrics: name -> (unit, better).  Measured with tracing off.
#: ``cpu_us.*`` is the CPU time the server and its workers spend per
#: request sent at that rate: the cost an operator pays for capacity.
#: Client-side latency percentiles and the max-rate search move by more
#: than 25% between runs on a shared 2-vCPU host, so they are reported
#: by the traced run (``client.*``) and carry no bound.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_us.low": ("us", "lower"),
    "cpu_us.mid": ("us", "lower"),
    "exact_share.mid": ("ratio", "higher"),
    "in_limit_share.mid": ("ratio", "higher"),
    "ok_share": ("ratio", "higher"),
    "store_mb": ("MB", "lower"),
    "rss_mb": ("MB", "lower"),
}

#: Algorithm 1 method names counted per layer (``repro.core.oracle.METHODS``).
METHOD_NAMES = (
    "identical",
    "landmark-source",
    "landmark-target",
    "target-in-source-vicinity",
    "source-in-target-vicinity",
    "intersection",
    "fallback",
    "miss",
    "disconnected",
    "estimate",
)
#: Deadline stages (``repro.service.slo.STAGES``).
SLO_STAGES = ("queue", "coalesce", "dispatch", "execute", "collect")

#: Per-layer metrics: name -> (unit, better).  From the traced run.
PER_LAYER = {
    "net.self_ms.mean": ("ms", "lower"),
    "net.reqs_per_flush": ("count", "higher"),
    "net.queue_wait_ms.p50": ("ms", "lower"),
    "net.queue_wait_ms.p99": ("ms", "lower"),
    "net.peak_depth": ("count", "lower"),
    "batch.calls": ("count", "lower"),
    "batch.self_ms": ("ms", "lower"),
    "batch.unique_ratio": ("ratio", "lower"),
    "cache.self_ms": ("ms", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.busy_s": ("s", "lower"),
    "engine.us_per_pair": ("us", "lower"),
    **{f"engine.method.{m}": ("count", "lower") for m in METHOD_NAMES},
    "shard.self_ms": ("ms", "lower"),
    "shard.busy_s": ("s", "lower"),
    "shard.dispatch_s": ("s", "lower"),
    "shard.execute_s": ("s", "lower"),
    "shard.collect_s": ("s", "lower"),
    "shard.bytes_per_pair": ("B", "lower"),
    "slo.deadline_misses": ("count", "lower"),
    **{f"slo.misses.{s}": ("count", "lower") for s in SLO_STAGES},
    "slo.rung.estimate": ("count", "lower"),
    "slo.rung.shed": ("count", "lower"),
    "slo.predicted_miss_ratio": ("ratio", "lower"),
    "build.index_s": ("s", "lower"),
    "build.save_s": ("s", "lower"),
    "build.load_s": ("s", "lower"),
    "build.start_s": ("s", "lower"),
    "client.late_p99_ms": ("ms", "lower"),
    "client.p50_ms.low": ("ms", "lower"),
    "client.p50_ms.mid": ("ms", "lower"),
    "client.p99_ms.low": ("ms", "lower"),
    "client.p99_ms.mid": ("ms", "lower"),
    "client.max_rate_rps": ("1/s", "higher"),
    "trace.mean_ms": ("ms", "lower"),
    "trace.p50_ms.mid.traced": ("ms", "lower"),
    "trace.p50_ms.mid.untraced": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
