"""The open-loop load generator: one client process, a few TCP connections.

The generator runs in its own process so the server's event loop never
shares an interpreter with its load.  Each phase is a precomputed
schedule: request ``i`` is *due* at ``due[i]`` seconds after the phase
starts and is written to connection ``i % connections`` as soon as it
is due, whether or not earlier requests were answered (open loop).
Latency is taken from the due time, so a stall in the server or in the
generator itself is charged to every request it delayed.  Responses on
one connection come back in request order (the JSON-lines protocol
guarantees it), which is how they are matched to requests.

Responses are kept as raw lines and parsed after the phase by the
caller, so parsing never delays a send.

``run.py`` starts it as ``python loadgen.py --fd N``, where ``N`` is an
inherited socket carrying pickled orders (see :func:`client_main`).
"""

from __future__ import annotations

import argparse
import json
import selectors
import socket
import time
from collections import deque
from multiprocessing.connection import Connection

import numpy as np

#: How long a phase waits for stragglers after its last due time.
DRAIN_TIMEOUT_S = 10.0
#: Longest single wait, so a late schedule is noticed promptly.
MAX_WAIT_S = 0.01


class LoadClient:
    """Connections to one server and the phase runner over them."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.socks = []
        for _ in range(connections):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []

    def run_phase(self, lines: list, due: np.ndarray) -> dict:
        """Send ``lines[i]`` at ``start + due[i]``; collect every response.

        Returns monotonic ``start``/``end`` stamps, per-request ``sent``
        and ``received`` offsets from ``start`` (NaN when never
        received) and the raw response lines (``None`` when missing).
        """
        count = len(lines)
        nconn = len(self.socks)
        sent = np.full(count, np.nan)
        received = np.full(count, np.nan)
        responses: list = [None] * count
        out = [bytearray() for _ in range(nconn)]
        # Per connection: bytes ever queued and ever written, requests
        # queued but not fully written (index, end byte), and requests
        # written but not yet answered, in order.
        queued = [0] * nconn
        written = [0] * nconn
        unsent = [deque() for _ in range(nconn)]
        waiting = [deque() for _ in range(nconn)]
        partial = [b""] * nconn
        # select(2) takes a microsecond timeout; epoll and poll round up
        # to whole milliseconds, which would make every send up to 1 ms late.
        selector = selectors.SelectSelector()
        for c, sock in enumerate(self.socks):
            selector.register(sock, selectors.EVENT_READ, c)
        writable = [False] * nconn
        due_list = due.tolist()
        start = time.perf_counter() + 0.01
        deadline = start + (due_list[-1] if count else 0.0) + DRAIN_TIMEOUT_S
        nxt = 0
        answered = 0
        try:
            while answered < count:
                now = time.perf_counter()
                if now > deadline:
                    break
                while nxt < count and start + due_list[nxt] <= now:
                    c = nxt % nconn
                    out[c] += lines[nxt]
                    queued[c] += len(lines[nxt])
                    unsent[c].append((nxt, queued[c]))
                    nxt += 1
                for c in range(nconn):
                    if out[c]:
                        written[c] += self._send(c, out[c])
                        stamp = time.perf_counter() - start
                        queue = unsent[c]
                        while queue and queue[0][1] <= written[c]:
                            index = queue.popleft()[0]
                            sent[index] = stamp
                            waiting[c].append(index)
                    want = bool(out[c])
                    if want != writable[c]:
                        events = selectors.EVENT_READ | (
                            selectors.EVENT_WRITE if want else 0
                        )
                        selector.modify(self.socks[c], events, c)
                        writable[c] = want
                timeout = MAX_WAIT_S
                if nxt < count:
                    wait = start + due_list[nxt] - time.perf_counter()
                    timeout = min(timeout, max(0.0, wait))
                for key, events in selector.select(timeout):
                    c = key.data
                    if not events & selectors.EVENT_READ:
                        continue
                    try:
                        data = self.socks[c].recv(1 << 20)
                    except BlockingIOError:
                        continue
                    if not data:
                        raise ConnectionError("server closed a load connection")
                    stamp = time.perf_counter() - start
                    chunks = (partial[c] + data).split(b"\n")
                    partial[c] = chunks.pop()
                    for line in chunks:
                        index = waiting[c].popleft()
                        received[index] = stamp
                        responses[index] = line
                        answered += 1
        finally:
            selector.close()
        return {
            "start": start,
            "end": time.perf_counter(),
            "sent": sent,
            "received": received,
            "responses": responses,
        }

    def _send(self, c: int, buf: bytearray) -> int:
        """Write what the socket takes now from ``buf``; returns the count."""
        try:
            count = self.socks[c].send(buf)
        except BlockingIOError:
            return 0
        del buf[:count]
        return count

    def command(self, obj: dict) -> dict:
        """Send one control command on the first connection; return the reply.

        Call only between phases: the reply is read as the next line.
        """
        sock = self.socks[0]
        sock.setblocking(True)
        try:
            sock.sendall(json.dumps(obj).encode() + b"\n")
            buf = b""
            while not buf.endswith(b"\n"):
                data = sock.recv(1 << 20)
                if not data:
                    raise ConnectionError("server closed the control connection")
                buf += data
        finally:
            sock.setblocking(False)
        return json.loads(buf)


def client_main(pipe) -> None:
    """Entry point of the client process: serve phase orders from ``pipe``.

    Orders are ``("connect", host, port, connections)``,
    ``("phase", lines, due)``, ``("command", obj)``, ``("disconnect",)``
    and ``None`` to exit.  Every order is answered with
    ``("ok", payload)`` or ``("error", message)``.
    """
    client = None
    try:
        while True:
            order = pipe.recv()
            if order is None:
                return
            kind = order[0]
            try:
                if kind == "connect":
                    client = LoadClient(order[1], order[2], order[3])
                    payload = None
                elif kind == "phase":
                    payload = client.run_phase(order[1], order[2])
                elif kind == "command":
                    payload = client.command(order[1])
                elif kind == "disconnect":
                    client.close()
                    client = None
                    payload = None
                else:
                    raise ValueError(f"unknown order {kind!r}")
            except (OSError, ValueError) as exc:
                pipe.send(("error", f"{type(exc).__name__}: {exc}"))
                continue
            pipe.send(("ok", payload))
    finally:
        if client is not None:
            client.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Load-generator process.")
    parser.add_argument("--fd", type=int, required=True,
                        help="inherited socket carrying the orders")
    args = parser.parse_args(argv)
    pipe = Connection(args.fd)
    try:
        client_main(pipe)
    finally:
        pipe.close()


if __name__ == "__main__":
    main()
