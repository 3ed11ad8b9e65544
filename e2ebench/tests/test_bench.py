"""The benchmark's own tests: metric contract, correctness checker, tiny passes."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
from check import ERROR, ESTIMATE, EXACT, REFUSED, UNANSWERED, WRONG, Checker, truth_matrix
from spec import END_TO_END, PER_LAYER, WORKLOADS

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

#: Every metric the benchmark reports, with its unit: changing one is a
#: change of the benchmark, not of the program.
PINNED_END_TO_END = {
    "setup_s": "s",
    "cpu_us.low": "us",
    "cpu_us.mid": "us",
    "exact_share.mid": "ratio",
    "in_limit_share.mid": "ratio",
    "ok_share": "ratio",
    "store_mb": "MB",
    "rss_mb": "MB",
}
PINNED_LAYER_UNITS = {
    "net.self_ms.mean": "ms",
    "net.reqs_per_flush": "count",
    "net.queue_wait_ms.p50": "ms",
    "net.queue_wait_ms.p99": "ms",
    "net.peak_depth": "count",
    "batch.calls": "count",
    "batch.self_ms": "ms",
    "batch.unique_ratio": "ratio",
    "cache.self_ms": "ms",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "engine.self_ms": "ms",
    "engine.busy_s": "s",
    "engine.us_per_pair": "us",
    "shard.self_ms": "ms",
    "shard.busy_s": "s",
    "shard.dispatch_s": "s",
    "shard.execute_s": "s",
    "shard.collect_s": "s",
    "shard.bytes_per_pair": "B",
    "slo.deadline_misses": "count",
    "slo.rung.estimate": "count",
    "slo.rung.shed": "count",
    "slo.predicted_miss_ratio": "ratio",
    "build.index_s": "s",
    "build.save_s": "s",
    "build.load_s": "s",
    "build.start_s": "s",
    "client.late_p99_ms": "ms",
    "client.p50_ms.low": "ms",
    "client.p50_ms.mid": "ms",
    "client.p99_ms.low": "ms",
    "client.p99_ms.mid": "ms",
    "client.max_rate_rps": "1/s",
    "trace.mean_ms": "ms",
    "trace.p50_ms.mid.traced": "ms",
    "trace.p50_ms.mid.untraced": "ms",
    "trace.overhead_ratio": "ratio",
}
PINNED_LAYER_FAMILIES = {
    "engine.method.": ("identical", "landmark-source", "landmark-target",
                       "target-in-source-vicinity", "source-in-target-vicinity",
                       "intersection", "fallback", "miss", "disconnected", "estimate"),
    "slo.misses.": ("queue", "coalesce", "dispatch", "execute", "collect"),
}


def _pinned_layers() -> dict:
    pinned = dict(PINNED_LAYER_UNITS)
    for prefix, names in PINNED_LAYER_FAMILIES.items():
        pinned.update({prefix + name: "count" for name in names})
    return pinned


# ----------------------------------------------------------------------
# the metric contract
# ----------------------------------------------------------------------
def test_end_to_end_metrics_pinned():
    assert {k: u for k, (u, _) in END_TO_END.items()} == PINNED_END_TO_END
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in declared.items()} == PINNED_END_TO_END
    for name, (unit, better) in END_TO_END.items():
        assert declared[name]["better"] == better
        assert 0 < declared[name]["bound"] <= 0.25
    assert declared["setup_s"]["bound"] == max(m["bound"] for m in declared.values())


def test_per_layer_metrics_pinned():
    pinned = _pinned_layers()
    assert {k: u for k, (u, _) in PER_LAYER.items()} == pinned
    declared = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in declared.items()} == pinned
    assert {k: m["better"] for k, m in declared.items()} == {
        k: b for k, (_, b) in PER_LAYER.items()
    }


def test_workloads_and_command_match_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "e2ebench/run.py"]
    assert BENCHMARK["paths"] == ["e2ebench"]


# ----------------------------------------------------------------------
# the correctness checker
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checker(tmp_path_factory):
    from repro.graph.builder import graph_from_edges

    # 0-1-2-3-4 with a chord 1-3: d(0, 4) = 3 via 0-1-3-4.
    graph = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)], n=5)
    return Checker(graph, truth_matrix(graph, tmp_path_factory.mktemp("truth")))


def _line(**body) -> bytes:
    return json.dumps(body).encode()


def _single(s, t):
    return np.array([[s, t]])


def test_truth_matches_bfs(checker):
    assert checker.truth[0, 4] == 3
    assert checker.truth[2, 4] == 2
    assert checker.truth[3, 3] == 0


def test_exact_answer_accepted(checker):
    raw = _line(s=0, t=4, distance=3, method="intersection", probes=2)
    assert checker.classify(raw, _single(0, 4), False) == EXACT


def test_wrong_distance_rejected(checker):
    raw = _line(s=0, t=4, distance=4, method="intersection", probes=2)
    assert checker.classify(raw, _single(0, 4), False) == WRONG


def test_estimate_below_truth_rejected(checker):
    low = _line(s=0, t=4, distance=2, method="estimate", probes=1, degraded=True)
    assert checker.classify(low, _single(0, 4), False) == WRONG
    upper = _line(s=0, t=4, distance=5, method="estimate", probes=1, degraded=True)
    assert checker.classify(upper, _single(0, 4), False) == ESTIMATE


def test_broken_paths_rejected(checker):
    pairs = np.array([[0, 4], [2, 4]])

    def batch(path):
        return _line(results=[
            {"s": 0, "t": 4, "distance": 3, "method": "intersection", "probes": 1,
             "path": path},
            {"s": 2, "t": 4, "distance": 2, "method": "intersection", "probes": 1,
             "path": [2, 3, 4]},
        ])

    assert checker.classify(batch([0, 1, 3, 4]), pairs, True) == EXACT
    assert checker.classify(batch([0, 2, 3, 4]), pairs, True) == WRONG  # 0-2 is no edge
    assert checker.classify(batch([0, 1, 2, 3, 4]), pairs, True) == WRONG  # too long
    assert checker.classify(batch([1, 3, 4]), pairs, True) == WRONG  # wrong endpoint
    assert checker.classify(batch(None), pairs, True) == WRONG


def test_mismatched_pair_and_failures(checker):
    swapped = _line(s=4, t=0, distance=3, method="intersection", probes=2)
    assert checker.classify(swapped, _single(0, 4), False) == WRONG
    assert checker.classify(_line(error="overloaded", retry_after_ms=25),
                            _single(0, 4), False) == REFUSED
    assert checker.classify(_line(error="boom"), _single(0, 4), False) == ERROR
    assert checker.classify(None, _single(0, 4), False) == UNANSWERED


# ----------------------------------------------------------------------
# traffic and statistics
# ----------------------------------------------------------------------
def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        a = run.Traffic(workload, 500, seed=3).phase(workload.low, 0.5)
        b = run.Traffic(workload, 500, seed=3).phase(workload.low, 0.5)
        c = run.Traffic(workload, 500, seed=4).phase(workload.low, 0.5)
        assert np.array_equal(a["due"], b["due"]) and a["lines"] == b["lines"]
        assert a["lines"] != c["lines"]


def test_windowed_median_ignores_one_bad_window():
    calm = np.full(1000, 2.0)
    stalled = np.full(1000, 90.0)
    assert run.windowed([calm, calm, stalled], 99) == 2.0
    assert run.windowed([np.array([True] * 990 + [False] * 10)]) == 0.99


# ----------------------------------------------------------------------
# tiny-rate passes, end to end
# ----------------------------------------------------------------------
def _tiny(workload):
    scale = 10.0 / workload.low
    return replace(
        workload,
        low=workload.low * scale,
        mid=workload.mid * scale,
        search=(workload.low * scale, workload.mid * scale * 2),
        warmup_s=0.5,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUPS", {0: 1, 1: 2})
    monkeypatch.setattr(run, "SEARCH_STEPS", 2)
    bench = run.Bench(_tiny(WORKLOADS[name]), seed=1, seconds=4, trace=trace)
    try:
        host, attempted, failed, metrics = bench.run()
    finally:
        bench.close()
    assert bench.wrong == 0
    assert attempted >= 1 and failed == 0
    table = PER_LAYER if trace else END_TO_END
    block = run._metric_block(metrics, table)
    assert set(block) == set(table)
    assert host["client_processes"] == 1 and host["connections"] <= host["nproc"]
    assert host["kernels"] == "native"
    if trace:
        parts = host["accounting_ms"]
        assert parts["net_and_wire"] >= 0
        total = sum(v for k, v in parts.items() if k != "mean_latency")
        assert total == pytest.approx(parts["mean_latency"])
    else:
        # A tiny phase can finish inside one CPU clock tick, so cpu_us may read 0.
        assert all(np.isfinite(v["value"]) and v["value"] >= 0 for v in block.values())
        assert block["setup_s"]["value"] > 0 and block["ok_share"]["value"] == 1.0
