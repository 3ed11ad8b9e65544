"""Deadlines under overload: the degrade ladder priced against capacity.

The deadline plane (PR 10) claims that *slowness* is an operational
event, not a correctness event: every admitted request either meets
its budget with an exact answer, degrades to a landmark estimate
(``"degraded": true``), or is shed with an honest ``retry_after_ms`` —
never silently late, never unanswered.  This benchmark prices that
claim on the network front end over the process backend:

* **capacity** — closed-loop TCP clients drive the undisturbed server
  flat out with no deadlines configured: the measured goodput is the
  yardstick, and every answer must be exact;
* **overload** — the workers are slowed with deterministic ``delay:*``
  latency faults (:mod:`repro.service.faults`) while open-loop paced
  clients offer ~2x the measured capacity, every request carrying (or
  inheriting) a deadline, with the SLO ladder and the AIMD adaptive
  limiter active.  Acceptance: zero unanswered requests, 100% of
  responses exact / degraded / shed-with-retry, p99 of the *exact*
  answers within the configured deadline, and goodput (exact +
  degraded answers per second) at >= 80% of the no-fault yardstick.

The server runs an *internal* budget at 40% of the external deadline —
the usual serving practice: under overload the admitted exact answers
hug the internal budget (the predictor admits exactly what still
fits), so the remaining 60% is the allowance that keeps a budget-edge
answer inside the client-measured SLO after the wire and event-loop
overhead on both sides of the socket (this harness runs the server
and the whole client fleet on one process's event loop, which
inflates that overhead well past what a real deployment sees).

Runnable as a script for CI::

    PYTHONPATH=src python benchmarks/bench_slo.py --smoke

which writes ``benchmarks/_artifacts/BENCH_slo.json`` — qps, exact
p50/p99, ladder-rung rates and the SLO/limiter counters per phase —
and exits non-zero on any acceptance failure.
"""

import asyncio
import json
import math
import multiprocessing
import time

import numpy as np

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.datasets.social import generate
from repro.experiments.reporting import render_table
from repro.service import ServiceApp, zipf_pairs
from repro.service.faults import FaultPlan
from repro.service.net import NetServer
from repro.service.slo import SloConfig

try:
    from benchmarks.conftest import write_artifact
except ImportError:  # script mode from the benchmarks directory
    from conftest import write_artifact


def _split_round_robin(items, parts):
    """Deal ``items`` across ``parts`` clients, preserving global order."""
    return [list(enumerate(items))[i::parts] for i in range(parts)]


async def _client(host, port, indexed_groups, *, window=0, interval_s=0.0,
                  deadline_ms=None):
    """One TCP client; returns ``[(global_index, latency_s, response)]``.

    Each item is ``(global_index, [pairs...])`` — one wire request: a
    single ``{"s", "t"}`` object for a one-pair group, a ``{"pairs"}``
    batch otherwise.  ``window > 0`` runs closed-loop (at most
    ``window`` outstanding, full speed — the capacity probe);
    ``interval_s > 0`` runs open-loop (send on schedule regardless of
    responses — the overload drive).  ``deadline_ms`` is attached to
    every *even* global index so both the explicit field and the
    server default are exercised.
    """
    reader, writer = await asyncio.open_connection(host, port)
    total = len(indexed_groups)
    sent = [0.0] * total
    out: list = [None] * total
    gate = asyncio.Semaphore(window) if window else None

    async def pump():
        start = time.perf_counter()
        for i, (index, group) in enumerate(indexed_groups):
            if gate is not None:
                await gate.acquire()
            elif interval_s > 0.0:
                lag = start + i * interval_s - time.perf_counter()
                if lag > 0:
                    await asyncio.sleep(lag)
            if len(group) == 1:
                (s, t), = group
                obj = {"s": int(s), "t": int(t)}
            else:
                obj = {"pairs": [[int(s), int(t)] for s, t in group]}
            if deadline_ms is not None and index % 2 == 0:
                obj["deadline_ms"] = deadline_ms
            sent[i] = time.perf_counter()
            writer.write(json.dumps(obj).encode() + b"\n")
            await writer.drain()

    async def soak():
        for i in range(total):
            line = await reader.readline()
            if not line:  # server closed: remaining slots stay None
                return
            out[i] = (time.perf_counter() - sent[i], json.loads(line))
            if gate is not None:
                gate.release()

    await asyncio.gather(pump(), soak())
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, OSError):
        pass
    return [
        (index, len(group), *payload)
        if payload is not None else (index, len(group), None, None)
        for (index, group), payload in zip(indexed_groups, out)
    ]


def _classify(response) -> str:
    if response is None:
        return "unanswered"
    if "retry_after_ms" in response and "error" in response:
        return "shed"
    results = response.get("results")
    if results is not None:  # a batch request: all-exact or all-degraded
        response = results[0] if results else {}
    if response.get("degraded"):
        return "degraded"
    if "distance" in response and "error" not in response:
        return "exact"
    return "bogus"


async def _drive(app, pairs, *, slo=None, clients=8, window=0,
                 interval_s=0.0, deadline_ms=None, warmup=256, group=1):
    """Serve ``app``, run the client fleet, return (rows, seconds, snap)."""
    server = NetServer(app, port=0, slo=slo)
    host, port = await server.start()
    groups = [pairs[i:i + group] for i in range(0, len(pairs), group)]
    try:
        if warmup:
            warm = _split_round_robin(groups[: max(1, warmup // group)], 2)
            await asyncio.gather(
                *(_client(host, port, part, window=8) for part in warm)
            )
        slices = _split_round_robin(groups, clients)
        started = time.perf_counter()
        answers = await asyncio.gather(*(
            _client(
                host, port, part, window=window,
                interval_s=interval_s, deadline_ms=deadline_ms,
            )
            for part in slices
        ))
        seconds = time.perf_counter() - started
        snap = server.snapshot()["net"]
    finally:
        await server.drain()
    rows = sorted(row for part in answers for row in part)
    return rows, seconds, snap


def _phase_metrics(rows, seconds) -> dict:
    kinds = {"exact": 0, "degraded": 0, "shed": 0, "unanswered": 0, "bogus": 0}
    exact_lat = []
    for _, npairs, latency, response in rows:
        kind = _classify(response)
        kinds[kind] += npairs
        if kind == "exact":
            exact_lat.append(latency)
    queries = sum(row[1] for row in rows)
    requests = len(rows)
    goodput = kinds["exact"] + kinds["degraded"]
    lat = (
        np.percentile(np.asarray(exact_lat) * 1e3, [50, 99])
        if exact_lat else (float("nan"), float("nan"))
    )
    return {
        "queries": queries,
        "requests": requests,
        "seconds": seconds,
        "qps": queries / seconds if seconds > 0 else float("inf"),
        "goodput_qps": goodput / seconds if seconds > 0 else float("inf"),
        # Goodput counts exact answers and landmark estimates (the
        # degraded rung) alike; report the split so an estimate-heavy
        # goodput cannot pass for exact throughput.
        "exact_goodput_qps": (
            kinds["exact"] / seconds if seconds > 0 else float("inf")
        ),
        "estimate_share": kinds["degraded"] / goodput if goodput else 0.0,
        "unanswered_rate": kinds["unanswered"] / queries if queries else 0.0,
        "exact_rate": kinds["exact"] / queries if queries else 0.0,
        "degraded_rate": kinds["degraded"] / queries if queries else 0.0,
        "shed_rate": kinds["shed"] / queries if queries else 0.0,
        "bogus": kinds["bogus"],
        "exact_p50_ms": float(lat[0]),
        "exact_p99_ms": float(lat[1]),
    }


def run_slo(
    shards: int = 2,
    queries: int = 4000,
    scale: float = 0.0008,
    deadline_ms: float = 150.0,
    delay_ms: float = 5.0,
    overload_s: float = 1.5,
    clients: int = 8,
) -> int:
    """Drive both phases and write ``BENCH_slo.json``."""
    start_method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    graph = generate("livejournal", scale=scale, seed=7)
    config = OracleConfig(alpha=4.0, seed=7, fallback="none", vicinity_floor=0.75)
    index = VicinityOracle.build(graph, config=config).index
    failures: list[str] = []
    report: dict = {
        "workload": {
            "graph": "livejournal-chung-lu",
            "nodes": graph.n,
            "shards": shards,
            "clients": clients,
            "deadline_ms": deadline_ms,
            "budget_ms": 0.4 * deadline_ms,
            "delay_ms": delay_ms,
            "zipf_exponent": 1.0,
            "start_method": start_method,
        },
    }
    common = dict(
        cache_size=0, shards=shards, backend="procpool", replicas=1,
        supervise=True, start_method=start_method, sub_batch=32,
    )

    # --- phase 0: no faults, no deadlines — the goodput yardstick ------
    pairs = zipf_pairs(graph.n, queries, exponent=1.0, seed=11)
    app = ServiceApp.from_index(index, **common)
    try:
        rows, seconds, _ = asyncio.run(
            _drive(app, pairs, clients=clients, window=16)
        )
        capacity = _phase_metrics(rows, seconds)
    finally:
        app.close()
    report["capacity"] = capacity
    if capacity["unanswered_rate"] > 0:
        failures.append("capacity: requests went unanswered with no faults")
    if capacity["exact_rate"] < 1.0:
        failures.append(
            f"capacity: only {capacity['exact_rate']:.2%} exact answers "
            "with no deadlines configured"
        )
    yardstick = capacity["goodput_qps"]

    # --- phase 1: delay faults + ~2x offered load + the SLO ladder -----
    offered = 2.0 * yardstick
    overload_n = int(min(24_000, max(2_000, offered * overload_s)))
    pairs = zipf_pairs(graph.n, overload_n, exponent=1.0, seed=13)
    group = 8  # pairs per wire request: the offered *pair* rate stays
    # ~2x capacity while the wire/event-loop message rate stays low
    # enough that client-side measurement does not swamp the budget.
    interval_s = group * clients / offered if offered > 0 else 0.0
    budget_ms = 0.4 * deadline_ms  # internal budget under the external SLO
    slo = SloConfig(
        default_deadline_ms=budget_ms,
        # The limiter chases a p99 at half the budget: completions
        # settle well inside the per-request gate, so a budget-edge
        # exact answer is the tail, not the median.
        slo_p99_ms=0.5 * budget_ms,
        ladder="exact,estimate,shed",
        adaptive_limit=True,
    )
    app = ServiceApp.from_index(
        index, faults=FaultPlan.parse(f"delay:*:{delay_ms:g}"), **common
    )
    try:
        rows, seconds, snap = asyncio.run(_drive(
            app, pairs, slo=slo, clients=clients,
            interval_s=interval_s, deadline_ms=budget_ms, group=group,
        ))
        overload = _phase_metrics(rows, seconds)
        shard_slo = app.sharded.transport_stats().get("slo", {})
    finally:
        app.close()
    overload["offered_qps"] = offered
    overload["slo"] = snap["slo"]
    overload["shard_slo"] = shard_slo
    report["overload"] = overload

    if overload["unanswered_rate"] > 0:
        failures.append(
            f"overload: unanswered_rate {overload['unanswered_rate']:.4f} > 0"
        )
    if overload["bogus"]:
        failures.append(
            f"overload: {overload['bogus']} responses are neither exact, "
            "degraded, nor shed-with-retry"
        )
    if not np.isnan(overload["exact_p99_ms"]) and (
        overload["exact_p99_ms"] > deadline_ms
    ):
        failures.append(
            f"overload: exact p99 {overload['exact_p99_ms']:.1f} ms blows "
            f"the {deadline_ms:g} ms deadline"
        )
    if overload["goodput_qps"] < 0.8 * yardstick:
        failures.append(
            f"overload: goodput {overload['goodput_qps']:.0f} q/s under 80% "
            f"of the no-fault {yardstick:.0f} q/s"
        )
    pressured = (
        overload["degraded_rate"] + overload["shed_rate"] > 0
        or snap["slo"]["deadline"]["misses"] > 0
    )
    if not pressured:
        failures.append(
            "overload: no degrades, sheds or deadline misses — the delay "
            "faults did not actually bite"
        )
    # The SLO controller counts wire requests (a batch line is one
    # admission decision), so compare against requests, not pairs.
    if snap["slo"]["deadline"]["requests"] < overload["requests"]:
        failures.append("overload: some requests carried no deadline at all")

    report["ok"] = not failures
    report["failures"] = failures
    path = write_artifact("BENCH_slo.json", json.dumps(report, indent=2))

    rows = []
    for phase in ("capacity", "overload"):
        block = report[phase]
        rows.append((
            phase,
            int(block["qps"]),
            int(block["goodput_qps"]),
            int(block["exact_goodput_qps"]),
            f"{block['estimate_share']:.3f}",
            f"{block['exact_p50_ms']:.2f}",
            f"{block['exact_p99_ms']:.2f}",
            f"{block['exact_rate']:.3f}",
            f"{block['degraded_rate']:.3f}",
            f"{block['shed_rate']:.3f}",
        ))
    print(
        render_table(
            ["phase", "resp/s", "goodput/s", "exact goodput/s",
             "estimate share", "exact p50 ms", "exact p99 ms",
             "exact", "degraded", "shed"],
            rows,
            title=(
                f"slo: {graph.n:,} nodes, {shards} shards, "
                f"{deadline_ms:g} ms deadline, delay {delay_ms:g} ms/frame, "
                f"offered ~2x capacity"
            ),
        )
    )
    limiter = report["overload"]["slo"].get("limiter")
    if limiter:
        print(
            f"limiter: window {limiter['limit']:.0f} "
            f"({limiter['increases']} raises / {limiter['decreases']} cuts)"
        )
    print(f"wrote {path}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    p99 = report["overload"]["exact_p99_ms"]
    tail = (
        f"exact p99 {p99:.1f} ms inside the {deadline_ms:g} ms deadline"
        if not math.isnan(p99) else "no exact answers under overload"
    )
    print(
        f"ok: {report['overload']['queries']:,} requests at ~2x capacity, "
        "none unanswered; goodput "
        f"{report['overload']['goodput_qps']:.0f}/{yardstick:.0f} q/s, "
        + tail
    )
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the small CI drill (same phases, tiny workload)",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--deadline-ms", type=float, default=150.0)
    parser.add_argument("--delay-ms", type=float, default=5.0)
    parser.add_argument("--clients", type=int, default=8)
    args = parser.parse_args(argv)
    queries = args.queries or (4000 if args.smoke else 12000)
    scale = args.scale or (0.0008 if args.smoke else 0.002)
    return run_slo(
        shards=args.shards,
        queries=queries,
        scale=scale,
        deadline_ms=args.deadline_ms,
        delay_ms=args.delay_ms,
        clients=args.clients,
    )


if __name__ == "__main__":
    import sys

    sys.exit(main())
