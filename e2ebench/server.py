"""The server process: one ``NetServer`` over a saved store, built via the public API.

Run as ``python server.py --store PATH [--shards N] [--trace-out PATH]``
with ``src`` on ``PYTHONPATH``.  Prints one JSON line on stdout once it
accepts connections (port, load time, pid, config), serves until
SIGTERM, drains, and then, when tracing, writes its spans.

Tracing wraps, *after* the app is built, ``BatchExecutor.run``, the
resolver's ``query_batch`` and ``ResultCache.get``/``put`` with timing
shims.  ``functools.wraps`` keeps each wrapped signature visible,
because ``BatchExecutor`` decides whether to pass ``budget_s`` by
inspecting the resolver's ``query_batch``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import itertools
import json
import os
import signal
import sys
import threading
import time


class Tracer:
    """In-memory spans: ``(name, start, end, span_id, parent_id, pairs)``.

    Times are ``time.perf_counter()`` (the system-wide monotonic clock on
    Linux, comparable with the client process's stamps).  Parents come
    from a per-thread stack, so a cache lookup made inside a batch run
    is that run's child.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, func, pairs_arg: bool = False):
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = len(args[0]) if pairs_arg and args else 0
                spans.append((name, start, end, span_id, parent, size))

        return traced

    def install(self, app) -> None:
        """Wrap the layers of a built ``ServiceApp`` in place."""
        executor = app.executor
        executor.run = self.wrap("batch.run", executor.run, pairs_arg=True)
        resolver = executor.backend
        layer = "shard.query_batch" if app.sharded is not None else "engine.query_batch"
        resolver.query_batch = self.wrap(layer, resolver.query_batch, pairs_arg=True)
        if app.cache is not None:
            app.cache.get = self.wrap("cache.get", app.cache.get)
            app.cache.put = self.wrap("cache.put", app.cache.put)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


async def _serve(app, ready: dict) -> None:
    from repro.service.net import NetServer

    server = NetServer(app)
    _host, port = await server.start()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, server.request_shutdown)
    print(json.dumps(dict(ready, port=port)), flush=True)
    await server.serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--kernels", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.service import ServiceApp

    started = time.perf_counter()
    if args.shards:
        app = ServiceApp.from_saved(
            args.store, mmap=True, kernels=args.kernels,
            shards=args.shards, backend="procpool",
        )
    else:
        app = ServiceApp.from_saved(args.store, mmap=True, kernels=args.kernels)
    load_s = time.perf_counter() - started
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(app)
    ready = {"pid": os.getpid(), "load_s": load_s, "kernels": app.kernels}
    if app.sharded is not None:
        # The backend exposes no public accessor for its start method.
        context = getattr(app.sharded, "_context", None)
        ready["start_method"] = context.get_start_method() if context else None
        ready["transport"] = app.sharded.transport_stats()["transport"]
    try:
        asyncio.run(_serve(app, ready))
    finally:
        app.close()
        if tracer is not None:
            tracer.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
