"""Process-pool execution of the §5 partitioned serving scheme.

:class:`~repro.service.sharded.ShardedService` runs shard workers as
*threads*, which buys routing fidelity and isolation but — under the
GIL — no speed (every worker interleaves on one core).  This module
promotes the same scheme to worker *processes*:

* the flattened offset-indexed arrays are copied into one
  ``multiprocessing.shared_memory`` segment and mapped zero-copy by
  every worker (no per-worker index load, no pickling) — or, on the
  mmap path, every worker maps the store file itself;
* each shard is served by one worker process per replica — the §5
  coordinator role for ``shard(s)`` — running the same
  :class:`~repro.core.engine.ShardQueryEngine` the thread backend's
  workers run, over the shared arrays;
* request/response traffic is **frames, not pickles**: the coordinator
  ships each sub-batch as one fixed-dtype
  :class:`~repro.service.wire.RequestFrame` and gets the result columns
  back as one :class:`~repro.service.wire.ResponseFrame`, each a
  length-prefixed byte string over a per-worker ``multiprocessing.Pipe``
  (:class:`PipeFrameTransport`);
* the wire *accounting* still models the per-query exchanges §5
  prescribes: workers return each round trip's payload byte count
  inside the response frame and the coordinator records them in the
  same :class:`~repro.core.parallel.MessageLog` the thread backend and
  the simulation use;
* optionally (``worker_cache_size > 0``) each worker keeps its own
  :class:`~repro.service.cache.ResultCache` over its homed pairs, so a
  repeated expensive pair is served from worker memory — skipping the
  kernel, the numpy crossings *and* the modelled round trip.  Hit
  counters ride back in every response frame's fixed header slots and
  fold into the coordinator's telemetry snapshot.

With the worker cache off (the default), results are identical to the
thread backend — distance, method, witness, probes, path, and
MessageLog totals — which the transport parity suite pins across both
backends from the same saved index.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import struct
import time
from typing import Optional

from repro.core.flat import FlatIndex
from repro.exceptions import (
    SerializationError,
    WorkerDied,
    WorkerFault,
    WorkerTimeout,
)
from repro.io.shm import SharedArrayBundle
from repro.service.faults import FaultPlan
from repro.service.shardbase import FlatShardedBase, FrameStreamTransport
from repro.service.wire import RequestFrame, ResponseFrame


def _pin_to_core(core: Optional[int]) -> None:
    """Pin the calling process to one core; silently no-op elsewhere."""
    if core is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {core})
    except (OSError, ValueError):
        pass


def _worker_main(
    conn, spec: dict, meta: dict, pin_core=None,
    worker_id: int = 0, generation: int = 0,
) -> None:
    """Worker process entry: attach the shared index, serve frames.

    ``spec`` addresses either index-sharing substrate: a shared-memory
    segment (the copy path) or the store file itself (the mmap path,
    where this worker maps the file read-only and computes its own
    shard assignment — both are cheaper than shipping them).  ``conn``
    is the worker's end of its pipe.  An empty frame is the shutdown
    sentinel, and a vanished coordinator (EOF on recv, a broken pipe
    on send) ends the loop quietly too.  ``generation`` counts
    restarts of this worker slot: a respawned worker re-attaches the
    same substrate and, under fault injection, lets once-only rules
    expire (:mod:`repro.service.faults`).
    """
    from repro.core.engine import ShardQueryEngine
    from repro.core.parallel import shard_assignment
    from repro.io.shm import MappedArrayBundle, attach_bundle
    from repro.service.cache import ResultCache
    from repro.service.faults import FaultInjector

    _pin_to_core(pin_core)
    injector = FaultInjector.from_spec(
        meta.get("faults"), worker_id, generation
    )
    bundle = attach_bundle(spec)
    if isinstance(bundle, MappedArrayBundle):
        flat = FlatIndex.from_probe_arrays(
            bundle.arrays,
            n=meta["n"],
            weighted=meta["weighted"],
            store_paths=meta["store_paths"],
        )
        assign = shard_assignment(
            meta["n"], meta["num_shards"], meta["placement"]
        )
    else:
        flat = FlatIndex(
            bundle.arrays,
            n=meta["n"],
            weighted=meta["weighted"],
            store_paths=meta["store_paths"],
        )
        assign = bundle.arrays["shard_assign"]
    # Each worker process owns its engine exclusively and serialises
    # every response frame before touching the next request, so the
    # scratch-buffer reuse is safe here (and off in the thread backend).
    engine = ShardQueryEngine(
        flat,
        assign,
        meta["replicate_tables"],
        kernels=meta.get("kernels"),
        reuse_scratch=True,
    )
    cache = (
        ResultCache(meta["worker_cache_size"])
        if meta["worker_cache_size"] > 0
        else None
    )
    try:
        frames = 0
        while True:
            buf = conn.recv_bytes()
            if not buf:
                break
            frames += 1
            if injector is not None:
                injector.before_frame(frames)
            # run_frame turns worker faults into error frames itself,
            # so one bad batch never kills the worker.
            resp = engine.run_frame(RequestFrame.from_bytes(buf), cache=cache)
            payload = resp.to_bytes()
            if injector is not None:
                for wire_payload in injector.outgoing(payload, frames):
                    conn.send_bytes(wire_payload)
            else:
                conn.send_bytes(payload)
    except (EOFError, BrokenPipeError, ConnectionResetError, KeyboardInterrupt):
        pass
    finally:
        del engine, flat
        bundle.close()
        conn.close()


#: Every transport wait re-checks worker liveness this often.  With the
#: ``fork`` start method, sibling workers inherit each other's pipe
#: ends, so a SIGKILLed worker's channel may never reach EOF — the
#: process handle, not the fd, is the truth about liveness.
LIVENESS_SLICE_S = 0.05

#: How long :meth:`PipeFrameTransport.shutdown_worker` may wait to hand
#: a wedged worker its shutdown sentinel before leaving it to the
#: caller's join/terminate.
SHUTDOWN_SEND_S = 0.5


#: The 4-byte big-endian length header ``Connection.recv_bytes`` reads
#: before each payload (request frames stay far below its 2 GiB limit).
_HEADER = struct.Struct("!i")


class PipeFrameTransport(FrameStreamTransport):
    """One length-prefixed encoded frame per write over per-worker pipes.

    Each worker owns one duplex ``multiprocessing.Pipe`` (a Unix socket
    pair).  The worker blocks in ``recv_bytes``/``send_bytes``; the
    coordinator never blocks on a full pipe.  ``query_batch`` sends
    every sub-batch frame before it reads any reply, so a worker can
    fill its response pipe and stop reading requests while the
    coordinator is still sending.  ``send`` therefore writes with
    ``MSG_DONTWAIT`` and, while the write would block, parks that
    worker's ready response frames in the pending buffer — the same
    frames :meth:`recv` would read next — until the request fits.
    Every wait re-checks worker liveness and the deadline each
    :data:`LIVENESS_SLICE_S`.

    A send or recv that times out mid-frame leaves the lane out of
    step; the supervisor kills and restarts the worker, which reopens
    the lane from a clean slate (:meth:`reset_worker`).
    """

    name = "pipe"

    def __init__(self, num_workers: int, procs: list) -> None:
        super().__init__(num_workers)
        self._procs = procs
        self._conns: list = [None] * num_workers
        self._socks: list = [None] * num_workers

    def _alive(self, worker: int) -> bool:
        if worker >= len(self._procs):
            return True  # still starting up
        return self._procs[worker].is_alive()

    def _wait(self, worker: int, events: int, deadline) -> bool:
        """Wait for the worker's pipe to report one of the poll ``events``.

        Returns ``True`` when it does and ``False`` once the monotonic
        ``deadline`` (``None`` = never) passes; raises
        :class:`WorkerDied` as soon as the worker is observed dead with
        nothing left to read — a wait on a dead worker fails in
        ~:data:`LIVENESS_SLICE_S` instead of burning the whole deadline
        (or, with no deadline, hanging forever).
        """
        poller = select.poll()
        try:
            poller.register(self._conns[worker], events)
        except (OSError, ValueError):  # the lane was closed under us
            raise WorkerDied(worker) from None
        while True:
            slice_s = LIVENESS_SLICE_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                slice_s = min(slice_s, remaining)
            if poller.poll(slice_s * 1000.0):
                return True
            if not self._alive(worker):
                # The worker may have answered and then died: drain wins.
                if poller.poll(0):
                    return True
                raise WorkerDied(worker)

    def reset_worker(self, worker: int):
        """(Re)open a worker's pipe; returns the worker's end.

        Anything still in flight on the old pipe is abandoned with it.
        The caller hands the returned end to the (re)spawned worker
        process and closes its own copy after the spawn.
        """
        self._close_lane(worker)
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conns[worker] = parent_conn
        # A socket view of the same pipe, for per-call MSG_DONTWAIT
        # writes; the descriptor's blocking mode stays untouched.
        self._socks[worker] = socket.fromfd(
            parent_conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM
        )
        self.clear_pending(worker)
        return child_conn

    def send(
        self, worker: int, frame: RequestFrame, *, timeout: Optional[float] = None
    ) -> None:
        payload = frame.to_bytes()
        self._write(worker, _HEADER.pack(len(payload)) + payload, timeout)
        self.note_sent(worker, frame.seq)

    def _write(self, worker: int, data: bytes, timeout: Optional[float]) -> None:
        """Write ``data`` whole; absorb responses while the pipe is full."""
        sock = self._socks[worker]
        view = memoryview(data)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                view = view[sock.send(view, socket.MSG_DONTWAIT):]
            except BlockingIOError:
                pass
            except OSError:
                raise WorkerDied(worker) from None
            if not view:
                return
            self._absorb(worker)
            if not self._wait(worker, select.POLLIN | select.POLLOUT, deadline):
                raise WorkerTimeout(worker, timeout)

    def _absorb(self, worker: int) -> None:
        """Park a stalled worker's ready responses (stale ones drop)."""
        conn = self._conns[worker]
        expected = self._expected[worker]
        while conn.poll(0):
            frame = self._read(worker)
            if frame.seq in expected:
                self._pending[worker][frame.seq] = frame

    def _recv_raw(
        self, worker: int, timeout: Optional[float] = None
    ) -> ResponseFrame:
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._wait(worker, select.POLLIN, deadline):
            raise WorkerTimeout(worker, timeout)
        return self._read(worker)

    def _read(self, worker: int) -> ResponseFrame:
        try:
            buf = self._conns[worker].recv_bytes()
        except (EOFError, OSError):
            raise WorkerDied(worker) from None
        try:
            return ResponseFrame.from_bytes(buf)
        except SerializationError as exc:
            raise WorkerFault(worker, f"sent an undecodable frame: {exc}") from None

    def shutdown_worker(self, worker: int) -> None:
        """Hand the worker the empty shutdown frame, if it will take it."""
        try:
            self._write(worker, _HEADER.pack(0), SHUTDOWN_SEND_S)
        except WorkerFault:
            pass

    def _close_lane(self, worker: int) -> None:
        for end in (self._socks[worker], self._conns[worker]):
            if end is not None:
                try:
                    end.close()
                except OSError:
                    pass

    def close(self) -> None:
        for worker in range(len(self._conns)):
            self._close_lane(worker)


class ProcessShardedService(FlatShardedBase):
    """Serve the §5 scheme from shard worker *processes*.

    Same API, same answers and same :class:`MessageLog` accounting as
    the thread-backed :class:`~repro.service.sharded.ShardedService`,
    but the shard workers run outside the GIL, so batches actually
    execute in parallel.  Build from an in-memory index::

        with ProcessShardedService(oracle.index, num_shards=4) as svc:
            results = svc.query_batch(pairs)

    or straight from a saved index without materialising the per-node
    dicts (:meth:`from_saved`).

    Args:
        index: a built :class:`~repro.core.index.VicinityIndex`, or
            ``None`` when ``flat`` is given.
        num_shards: shard count (workers = ``num_shards * replicas``).
        placement: ``"hash"`` or ``"range"`` node placement.
        replicate_tables: model landmark tables as replicated on every
            shard (no round trip for landmark-target hits).
        start_method: multiprocessing start method; ``"spawn"``
            (default) is safe everywhere, ``"fork"`` starts faster where
            available.
        worker_cache_size: per-worker :class:`ResultCache` capacity;
            ``0`` (default) disables worker-side caching, preserving
            exact wire-log parity with the thread backend.
        flat: a prepared :class:`FlatIndex` (used by :meth:`from_saved`).
        mmap_path: a flat-container store file to share with workers by
            memory mapping (``from_saved(..., mmap=True)`` sets this).
            No shared-memory segment is created for the index and
            nothing is copied at startup.
        sub_batch: request-frame chunk size (0 = one frame per shard
            per batch).
        replicas: worker processes per shard; sub-batches go to the
            replica with the least outstanding pairs.
        pin_workers: pin each worker to one core (round-robin over the
            coordinator's affinity mask; no-op where unsupported).
        kernels: kernel tier (``"numpy"``/``"native"``/``None`` = auto);
            the resolved tier is shipped to every worker process.
        supervise: enable worker supervision — per-sub-batch deadlines,
            retry with backoff, failover to surviving replicas, restart
            of dead workers, and per-shard circuit breakers.  ``True``
            for defaults or a
            :class:`~repro.service.supervisor.SupervisorConfig`.
        recv_deadline_s: unsupervised per-sub-batch deadline — bounds
            every transport wait and raises a typed
            :class:`~repro.exceptions.WorkerTimeout` instead of
            hanging, without enabling retries.
        faults: a deterministic fault-injection plan shipped to the
            workers — a :class:`~repro.service.faults.FaultPlan`, a
            mapping of worker ids to rule fields, or a CLI preset
            string (see :meth:`FaultPlan.parse`).  Test/bench only.
    """

    def __init__(
        self,
        index,
        num_shards: int,
        *,
        placement: str = "hash",
        replicate_tables: bool = False,
        start_method: str = "spawn",
        worker_cache_size: int = 0,
        flat: Optional[FlatIndex] = None,
        mmap_path: Optional[str] = None,
        sub_batch: int = 0,
        replicas: int = 1,
        pin_workers: bool = False,
        kernels: Optional[str] = None,
        supervise=None,
        recv_deadline_s: Optional[float] = None,
        faults=None,
    ) -> None:
        super().__init__(
            index,
            num_shards,
            placement=placement,
            replicate_tables=replicate_tables,
            flat=flat,
            sub_batch=sub_batch,
            replicas=replicas,
            kernels=kernels,
            supervise=supervise,
            recv_deadline_s=recv_deadline_s,
        )
        self.worker_cache_size = int(worker_cache_size)
        self.pin_workers = bool(pin_workers)
        self._faults = FaultPlan.coerce(faults)
        self._flat_meta = {
            "n": self.flat.n,
            "weighted": self.flat.weighted,
            "store_paths": self.flat.store_paths,
            "replicate_tables": replicate_tables,
            "worker_cache_size": self.worker_cache_size,
            "num_shards": num_shards,
            "placement": placement,
            # Ship the *resolved* tier so worker processes land on the
            # same kernels the coordinator resolved (same machine, same
            # extension artifact) instead of re-running auto-detection.
            "kernels": self.kernels,
        }
        if self._faults is not None:
            self._flat_meta["faults"] = self._faults.spec()
        self._worker_cache_stats: dict[int, dict] = {}
        num_workers = num_shards * self.replicas
        if mmap_path is not None:
            # Zero-copy startup: workers map the store file themselves.
            self._bundle = None
            spec = {"mmap_path": str(mmap_path)}
        else:
            self._bundle = SharedArrayBundle.create(
                {**self.flat.arrays, "shard_assign": self._assign}
            )
            spec = self._bundle.spec
        context = multiprocessing.get_context(start_method)
        self._context = context
        self._spec = spec
        self._procs: list = []
        self._generation = [0] * num_workers
        self._pin_cores = (
            self._pin_plan(num_workers)
            if self.pin_workers
            else [None] * num_workers
        )
        # The transport's liveness checks read this very list, so they
        # track a restarted worker the moment its slot is overwritten.
        self._transport = PipeFrameTransport(num_workers, self._procs)
        try:
            for worker in range(num_workers):
                self._start_worker(worker)
        except Exception:
            self.close()
            raise
        self._start_supervisor()

    @staticmethod
    def _pin_plan(num_workers: int) -> list:
        """Round-robin worker→core assignments over our affinity mask."""
        if not hasattr(os, "sched_getaffinity"):
            return [None] * num_workers
        cores = sorted(os.sched_getaffinity(0))
        if not cores:
            return [None] * num_workers
        return [cores[i % len(cores)] for i in range(num_workers)]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_saved(cls, path, num_shards: int, *, mmap: bool = False, **kwargs):
        """Build from a saved index; ``mmap=True`` is the zero-copy path.

        The copy path loads the flat arrays and duplicates them into a
        shared-memory segment before the first query; the mmap path
        (flat-container stores) skips both — the coordinator and every
        worker map the store file read-only and share its pages through
        the OS page cache, so cold start is independent of index size.
        """
        from repro.io.oracle_store import load_flat_index

        if mmap:
            kwargs.setdefault("mmap_path", str(path))
        return cls(
            None, num_shards, flat=load_flat_index(path, mmap=mmap), **kwargs
        )

    # ------------------------------------------------------------------
    # supervision hooks
    # ------------------------------------------------------------------
    def worker_alive(self, worker: int) -> bool:
        return self._procs[worker].is_alive()

    def kill_worker(self, worker: int) -> None:
        """Force a worker down (a poisoned worker cannot be trusted).

        After a timeout the worker's frame stream may be desynced
        mid-frame, so the only safe recovery is kill + restart — a
        restarted worker re-attaches the shared substrate and its
        transport lane is reset from a clean slate.
        """
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=2)

    def restart_worker(self, worker: int) -> bool:
        self.kill_worker(worker)
        self._generation[worker] += 1
        self._start_worker(worker)
        return True

    def _start_worker(self, worker: int) -> None:
        """Spawn a worker on a fresh pipe into its slot of ``_procs``."""
        child_conn = self._transport.reset_worker(worker)
        proc = self._context.Process(
            target=_worker_main,
            args=(
                child_conn, self._spec, self._flat_meta,
                self._pin_cores[worker], worker, self._generation[worker],
            ),
            name=f"repro-procshard-{worker}",
            daemon=True,
        )
        try:
            proc.start()
        finally:
            child_conn.close()  # the worker holds its own copy now
        if worker < len(self._procs):
            self._procs[worker] = proc
        else:
            self._procs.append(proc)

    # ------------------------------------------------------------------
    # worker-cache telemetry
    # ------------------------------------------------------------------
    def _note_worker_cache(self, worker: int, stats: dict) -> None:
        self._worker_cache_stats[worker] = stats

    def worker_cache_stats(self) -> Optional[dict]:
        """Aggregate worker-cache statistics, or ``None`` when disabled.

        Each worker reports its cumulative cache counters in every
        response frame; this sums the latest per-worker figures so the
        serving layer can fold them into its telemetry snapshot.
        """
        if self.worker_cache_size <= 0:
            return None
        totals = {
            "workers": self.num_shards * self.replicas,
            "capacity_per_worker": self.worker_cache_size,
            "size": 0,
            "lookups": 0,
            "hits": 0,
            "misses": 0,
            "insertions": 0,
            "evictions": 0,
        }
        for stats in self._worker_cache_stats.values():
            for key in ("size", "lookups", "hits", "misses", "insertions", "evictions"):
                totals[key] += stats[key]
        totals["hit_rate"] = (
            totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0
        )
        return totals

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every shared-memory resource."""
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor()
        transport = getattr(self, "_transport", None)
        if transport is not None:
            for worker in range(len(self._procs)):
                transport.shutdown_worker(worker)
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        if transport is not None:
            transport.close()
        if self._bundle is not None:
            self._bundle.close()

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
