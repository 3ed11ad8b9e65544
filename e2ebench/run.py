"""End-to-end socket benchmark: a real ``NetServer`` driven open-loop over TCP.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tcp-zipf-cached --seed 1 --seconds 16 --trace 0

One run builds the index from the graph in memory, saves it, starts a
server process on the saved store and drives it from one separate client
process with Poisson arrivals at fixed rates.  The last stdout line is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the host and configuration.

``--trace 0``: three set-ups (``setup_s`` is their median); on each
server a warm-up, then a ``low`` and a ``mid`` phase.  The end-to-end
figures are the server's CPU per request, answer shares, sizes and the
set-up time: on a shared host they repeat within a few percent, while
client latency percentiles do not.

``--trace 1``: two set-ups.  The first server runs an untraced ``mid``,
then ``low`` and the max-rate search (client p50/p99 and
``max_rate_rps``); the second has timing shims installed and runs
``mid`` traced.
Per-layer metrics come from the traced phase; the ratio of its p50 to
the untraced one is the tracing overhead.

Every response of every phase is checked against BFS ground truth; a
wrong answer makes the run fail (exit 1).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
STORE = WORK / "store.flat"
sys.path.insert(0, str(HERE))

from check import (  # noqa: E402
    ESTIMATE,
    EXACT,
    STATUS_NAMES,
    Checker,
    percentile,
    truth_matrix,
)
from layers import counter_metrics, span_metrics  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    GRAPH,
    KERNELS,
    LATE_FRACTION,
    ORACLE,
    PER_LAYER,
    PHASE_ATTEMPTS,
    SEARCH_STEPS,
    WORKLOADS,
    ZIPF_POOL,
)

#: Requests per window of the windowed percentiles (a p99 of 1,000
#: requests has 10 beyond it).
WINDOW = 1000
#: Connections the client opens (capped by the cores available).
MAX_CONNECTIONS = 2
#: Set-ups per run, by trace mode.
SETUPS = {0: 3, 1: 2}
#: Share of ``--seconds`` given to each timed phase.  Untraced runs spend
#: it all on three servers' low and mid phases; traced runs on one low,
#: two mids and the max-rate search.
SHARE = {"low": 0.13, "mid": 0.2, "step": 0.3 / SEARCH_STEPS}
#: Attempts at a search step whose generator fell behind schedule.
SEARCH_ATTEMPTS = 2
#: Length of the Zipf stream the phases consume (wraps around).
ZIPF_STREAM = 200_000
SERVER_READY_TIMEOUT_S = 120.0
#: Seconds a stopped process tree gets to exit before it is killed.
STOP_GRACE_S = 30.0


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def build_native() -> None:
    """Build the pinned compiled kernel tier (outside every timed region)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.core._native.build"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise BenchError(f"native kernel build failed: {proc.stderr.strip()[-400:]}")


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _descendants(pid: int) -> list:
    found = []
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    kids = [int(x) for x in handle.read().split()]
            except OSError:
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def become_subreaper() -> None:
    """Adopt orphaned descendants, so every process the run starts can be reaped.

    A server's procpool workers outlive it by a moment; without this they
    would be re-parented outside the run and could outlast it.
    """
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError(f"prctl(PR_SET_CHILD_SUBREAPER): errno {ctypes.get_errno()}")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def finish(pids, grace: float = STOP_GRACE_S) -> None:
    """Wait until every process in ``pids`` has ended, reaping each.

    Sends SIGKILL to those still running after ``grace`` seconds.  A pid
    that is not a child of this process is polled instead of reaped.
    """
    pending = set(pids)
    deadline = time.monotonic() + grace
    killed = False
    while pending:
        for pid in list(pending):
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    pending.discard(pid)
            except ChildProcessError:
                if not _alive(pid):
                    pending.discard(pid)
        if not pending:
            return
        now = time.monotonic()
        if not killed and now > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            killed, deadline = True, now + 10.0
        elif killed and now > deadline:
            raise BenchError(f"processes {sorted(pending)} did not end after SIGKILL")
        time.sleep(0.02)


def stop_all() -> None:
    """Terminate and reap every descendant still present (the last step of a run)."""
    for _ in range(3):
        kids = _descendants(os.getpid())
        if not kids:
            return
        for pid in kids:
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass
        finish(kids, grace=5.0)


def pss_mb(pid: int) -> float:
    """PSS of ``pid`` and its descendants, so shared mmap pages count once."""
    total_kb = 0
    for proc in [pid, *_descendants(pid)]:
        try:
            with open(f"/proc/{proc}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and its live descendants."""
    ticks = 0
    for proc in [pid, *_descendants(pid)]:
        try:
            with open(f"/proc/{proc}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class Server:
    """One server process on a saved store."""

    def __init__(self, store: Path, workload, trace_out=None) -> None:
        cmd = [
            sys.executable, str(HERE / "server.py"), "--store", str(store),
            "--kernels", KERNELS, "--shards", str(workload.shards),
        ]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log_path = WORK / "server.log"
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(SERVER_READY_TIMEOUT_S):
                self.stop()
                raise BenchError("server did not start in time")
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - started
        if not line:
            self.stop()
            raise BenchError(f"server failed to start: {self.log_tail()}")
        self.info = json.loads(line)
        self.port = int(self.info["port"])

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text()[-800:]

    def stop(self) -> None:
        """SIGTERM (drain), then wait for the server and all its workers.

        The workers are re-parented to this process when the server exits
        (see :func:`become_subreaper`) and are reaped here, so none of
        them outlives the server.
        """
        kids = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                for pid in [self.proc.pid, *kids]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.wait(timeout=10)
        finish(kids + _descendants(self.proc.pid))
        self.proc.stdout.close()
        self._log.close()


class Client:
    """The single load-generating process (see ``loadgen.py``).

    A plain subprocess on a socket pair rather than a ``multiprocessing``
    child: spawning one would also start a resource-tracker process that
    only ends after this one has exited.
    """

    def __init__(self) -> None:
        ours, theirs = socket.socketpair()
        with ours, theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "loadgen.py"), "--fd", str(theirs.fileno())],
                cwd=ROOT, env=_env(), pass_fds=(theirs.fileno(),),
            )
            self.pipe = Connection(ours.detach())

    def order(self, *order):
        self.pipe.send(order)
        status, payload = self.pipe.recv()
        if status != "ok":
            raise BenchError(f"client: {payload}")
        return payload

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.pipe.send(None)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.pipe.close()


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def arrivals(rate: float, duration: float, rng) -> np.ndarray:
    """Poisson arrival offsets in ``[0, duration)``."""
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6 * math.sqrt(expected) + 16))
    due = np.cumsum(gaps)
    while due[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=len(gaps))) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration]


def encode(workload, pairs: np.ndarray, paths: np.ndarray) -> list:
    """One JSON line per request (``pairs`` is ``(count, k, 2)``)."""
    lines = []
    extra = f',"deadline_ms":{workload.deadline_ms:g}' if workload.deadline_ms else ""
    if workload.pairs == 1:
        for (s, t), in pairs.tolist():
            lines.append(f'{{"s":{s},"t":{t}{extra}}}\n'.encode())
        return lines
    for group, path in zip(pairs.tolist(), paths.tolist()):
        body = ",".join(f"[{s},{t}]" for s, t in group)
        flag = ',"path":true' if path else ""
        lines.append(f'{{"pairs":[{body}]{flag}{extra}}}\n'.encode())
    return lines


class Traffic:
    """Seeded request streams for one workload."""

    def __init__(self, workload, n: int, seed: int) -> None:
        from repro.service import zipf_pairs

        self.workload = workload
        self.n = n
        self.seed = seed
        self._phase = 0
        self._cursor = 0
        self._stream = None
        if workload.zipf:
            self._stream = np.asarray(
                zipf_pairs(n, ZIPF_STREAM, exponent=1.0, pool=ZIPF_POOL, seed=seed),
                dtype=np.int64,
            )

    def _rng(self):
        self._phase += 1
        return np.random.default_rng([self.seed, self._phase])

    def _pairs(self, count: int, rng) -> np.ndarray:
        from repro.service import uniform_pairs

        k = self.workload.pairs
        if self._stream is not None:
            idx = (self._cursor + np.arange(count * k)) % len(self._stream)
            self._cursor = int(idx[-1] + 1) if len(idx) else self._cursor
            flat = self._stream[idx]
        else:
            sub_seed = int(rng.integers(0, 2**31 - 1))
            flat = np.asarray(uniform_pairs(self.n, count * k, seed=sub_seed), dtype=np.int64)
        return flat.reshape(count, k, 2)

    def phase(self, rate: float, duration: float) -> dict:
        rng = self._rng()
        due = arrivals(rate, duration, rng)
        pairs = self._pairs(len(due), rng)
        every = self.workload.path_every
        paths = (np.arange(len(due)) % every == 0) if every else np.zeros(len(due), bool)
        return {"rate": rate, "due": due, "pairs": pairs, "paths": paths,
                "lines": encode(self.workload, pairs, paths)}

    def warmup(self) -> list:
        """Untimed phases that fill caches, spawn workers, train predictors."""
        phases = []
        if self._stream is not None:
            distinct = np.unique(self._stream, axis=0)
            groups = distinct[: len(distinct) // 16 * 16].reshape(-1, 16, 2)
            due = np.arange(len(groups)) / 500.0
            paths = np.zeros(len(groups), bool)
            shape = replace(self.workload, pairs=16)
            phases.append({"rate": 500.0, "due": due, "pairs": groups,
                           "paths": paths, "lines": encode(shape, groups, paths)})
        phases.append(self.phase(self.workload.low, self.workload.warmup_s))
        return phases


# ----------------------------------------------------------------------
# one phase's outcome
# ----------------------------------------------------------------------
def judge(workload, checker: Checker, traffic: dict, result: dict) -> dict:
    """Classify every request and summarise latency against the limit."""
    pairs, paths, due = traffic["pairs"], traffic["paths"], traffic["due"]
    responses = result["responses"]
    status = np.array(
        [checker.classify(raw, p, bool(w)) for raw, p, w in zip(responses, pairs, paths)],
        dtype=np.int64,
    )
    latency = result["received"] - due
    answered = (status == EXACT) | (status == ESTIMATE)
    lat = np.where(answered, latency, np.inf)
    limit = workload.limit_ms / 1e3
    in_limit = answered & (latency <= limit)
    exact_in_limit = (status == EXACT) & (latency <= limit)
    late = result["sent"] - due
    late = np.where(np.isnan(late), np.inf, late)
    late_p99 = percentile(late, 99) * 1e3 if len(late) else 0.0
    quarter = max(1, len(lat) // 4)
    first, last = percentile(lat[:quarter], 50), percentile(lat[-quarter:], 50)
    backlog = bool(last > first + limit / 2) if len(lat) >= 8 else False
    counts = {name: int(np.sum(status == i)) for i, name in enumerate(STATUS_NAMES)}
    responded = ~np.isnan(result["received"])
    lat_ms = lat * 1e3
    return {
        "rate": traffic["rate"],
        "sent": len(status),
        "counts": counts,
        "p50_ms": windowed([lat_ms], 50),
        "p99_ms": windowed([lat_ms], 99),
        "mean_ms": float(np.mean(latency[responded]) * 1e3) if responded.any() else 0.0,
        "responded": int(responded.sum()),
        "exact_share": counts["exact"] / max(1, len(status)),
        "in_limit_share": float(in_limit.mean()) if len(status) else 0.0,
        "exact_in_limit_share": float(exact_in_limit.mean()) if len(status) else 0.0,
        "late_p99_ms": late_p99,
        "valid": late_p99 <= LATE_FRACTION * workload.limit_ms,
        "backlog_grew": backlog,
        "start": result["start"],
        "end": result["end"],
        "lat_ms": lat_ms,
        "exact_in_limit": exact_in_limit,
    }


def windowed(arrays, q=None) -> float:
    """Median over windows of about :data:`WINDOW` requests of a per-window figure.

    Each phase's requests are cut into consecutive windows (a phase
    shorter than a window is one window); each window gives its
    ``q``-th latency percentile, or with ``q=None`` its mean (the share
    of a boolean array).  The median over windows keeps a few seconds of
    interference from the host from setting the whole figure.
    """
    figures = []
    for values in arrays:
        for chunk in np.array_split(values, max(1, len(values) // WINDOW)):
            if len(chunk):
                figures.append(float(np.mean(chunk)) if q is None else percentile(chunk, q))
    return statistics.median(figures) if figures else float("nan")


def _pooled_cpu_us(phases) -> float:
    """Server CPU microseconds per request sent, over all ``phases``.

    Pooled rather than a median of phases: per-pair query cost is
    heavy-tailed, so every request sampled narrows the figure.
    """
    return sum(p["cpu_us"] * p["sent"] for p in phases) / sum(p["sent"] for p in phases)


def _failures(summary: dict) -> int:
    """Requests refused, shed, failed, unanswered or wrong."""
    return sum(summary["counts"][k] for k in ("refused", "error", "unanswered", "wrong"))


def passes(summary: dict) -> bool:
    """Does a search step meet the limit with a steady backlog?

    The step passes when its generator kept to schedule, its latency did
    not climb from the first quarter to the last, and in the median
    window at least 99% of requests got an exact answer within the limit.
    """
    return (
        summary["valid"]
        and not summary["backlog_grew"]
        and windowed([summary["exact_in_limit"]]) >= 0.99
    )


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.nproc = len(os.sched_getaffinity(0))
        self.connections = min(MAX_CONNECTIONS, self.nproc)
        self.client = None
        self.server = None
        self.wrong = 0
        self.log = []
        self.graph = self.config = self.checker = self.traffic = None

    def close(self) -> None:
        """Stop the client and the server, then anything else still running."""
        try:
            if WORK.is_dir():
                (WORK / "phases.json").write_text(json.dumps(self.log, indent=1))
            if self.client is not None:
                self.client.close()
                self.client = None
            if self.server is not None:
                self.server.stop()
                self.server = None
        finally:
            stop_all()

    # -- set-up ------------------------------------------------------------
    def setup(self, trace_out=None) -> dict:
        """Graph in memory -> index -> saved store -> server accepting."""
        from repro.core.oracle import VicinityOracle
        from repro.io.oracle_store import save_index

        t0 = time.perf_counter()
        oracle = VicinityOracle.build(self.graph, config=self.config)
        t1 = time.perf_counter()
        save_index(oracle.index, STORE)
        t2 = time.perf_counter()
        # Free the dict-built index before the server starts, untimed.
        del oracle
        gc.collect()
        self.server = Server(STORE, self.workload, trace_out)
        ready_s = self.server.ready_s
        info = self.server.info
        if info.get("kernels") != KERNELS:
            raise BenchError(f"server runs kernel tier {info.get('kernels')!r}, not {KERNELS!r}")
        load_s = float(info["load_s"])
        return {
            "index_s": t1 - t0,
            "save_s": t2 - t1,
            "load_s": load_s,
            "start_s": ready_s - load_s,
            "setup_s": (t2 - t0) + ready_s,
            "server": info,
        }

    def connect(self) -> None:
        self.client.order("connect", "127.0.0.1", self.server.port, self.connections)

    def drive(self, traffic: dict, label: str) -> dict:
        """Run one phase on the connected server and judge every answer."""
        cpu_before = cpu_s(self.server.proc.pid)
        result = self.client.order("phase", traffic["lines"], traffic["due"])
        cpu = cpu_s(self.server.proc.pid) - cpu_before
        summary = judge(self.workload, self.checker, traffic, result)
        summary["cpu_us"] = 1e6 * cpu / max(1, summary["sent"])
        self.wrong += summary["counts"]["wrong"]
        if summary["counts"]["unanswered"]:
            # Late answers would be matched to the next phase's requests.
            self.client.order("disconnect")
            self.connect()
        entry = {
            k: v for k, v in summary.items()
            if k not in ("start", "end", "lat_ms", "exact_in_limit")
        }
        self.log.append(dict(entry, phase=label))
        return summary

    def measure(self, rate: float, duration: float, label: str, attempts: int) -> dict:
        """A timed phase, repeated while its generator fell behind schedule.

        The last attempt is kept even when invalid (the run must still
        report); it stays flagged ``valid: false`` in the host line.
        """
        for attempt in range(attempts):
            summary = self.drive(self.traffic.phase(rate, duration), label)
            if summary["valid"] or attempt == attempts - 1:
                return summary
            self.log[-1]["phase"] = "invalid"

    def stats(self) -> dict:
        snap = self.client.order("command", {"cmd": "stats"})
        active = snap["net"]["connections"]["active"]
        if active > self.nproc:
            raise BenchError(f"{active} client connections exceed nproc={self.nproc}")
        requests = snap["net"]["slo"]["deadline"]["requests"]
        if self.workload.deadline_ms is None and requests:
            raise BenchError(f"{requests} deadline requests on a workload that sends none")
        return snap

    def stop_server(self) -> None:
        self.client.order("disconnect")
        self.server.stop()
        self.server = None

    def run(self) -> tuple:
        """Set up, drive and check; returns ``(host, attempted, failed, metrics)``."""
        from repro.core.config import OracleConfig
        from repro.datasets.social import generate

        WORK.mkdir(exist_ok=True)
        build_native()
        self.graph = generate(GRAPH["name"], scale=GRAPH["scale"], seed=GRAPH["seed"])
        self.config = OracleConfig(**ORACLE)
        self.checker = Checker(self.graph, truth_matrix(self.graph, WORK))
        self.traffic = Traffic(self.workload, self.graph.n, self.seed)
        self.client = Client()
        w = self.workload
        host = {
            "nproc": self.nproc,
            "connections": self.connections,
            "client_processes": 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "graph": dict(GRAPH, n=self.graph.n, m=self.graph.num_edges),
            "oracle": ORACLE,
            "workload": w.name,
            "rates": {"low": w.low, "mid": w.mid, "search": list(w.search),
                      "search_resolution": w.search_resolution},
            "late_limit_ms": LATE_FRACTION * w.limit_ms,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
        }
        metrics = self._traced_run(host) if self.trace else self._plain_run(host)
        host["phases"] = self.log
        timed = [e for e in self.log if e["phase"] in ("low", "mid")]
        attempted = sum(e["sent"] for e in timed)
        failed = sum(_failures(e) for e in timed)
        return host, attempted, failed, metrics

    def _serve(self, trace_out=None) -> dict:
        """One set-up, then connect and warm the new server."""
        setup = self.setup(trace_out)
        self.connect()
        for phase in self.traffic.warmup():
            self.drive(phase, "warmup")
        return setup

    def _fixed(self, rate: float, share: str, label: str) -> dict:
        return self.measure(rate, SHARE[share] * self.seconds, label, PHASE_ATTEMPTS)

    def _plain_run(self, host) -> dict:
        w = self.workload
        setups, lows, mids, rss = [], [], [], []
        for _ in range(SETUPS[0]):
            setups.append(self._serve())
            lows.append(self._fixed(w.low, "low", "low"))
            mids.append(self._fixed(w.mid, "mid", "mid"))
            rss.append(pss_mb(self.server.proc.pid))
            self.stats()  # asserts the connection count and deadline use
            self.stop_server()
        host.update(self._config(setups))
        host["valid"] = all(p["valid"] for p in lows + mids)
        sent_mid = sum(p["sent"] for p in mids)
        sent_all = sum(p["sent"] for p in lows + mids)
        host["samples"] = {"low": sum(p["sent"] for p in lows), "mid": sent_mid}
        return {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cpu_us.low": _pooled_cpu_us(lows),
            "cpu_us.mid": _pooled_cpu_us(mids),
            "exact_share.mid": sum(p["counts"]["exact"] for p in mids) / sent_mid,
            "in_limit_share.mid": sum(p["in_limit_share"] * p["sent"] for p in mids) / sent_mid,
            "ok_share": 1.0 - sum(_failures(p) for p in lows + mids) / sent_all,
            "store_mb": STORE.stat().st_size / 1e6,
            "rss_mb": statistics.median(rss),
        }

    def _search(self) -> list:
        """Geometric bisection of the workload's bracket; one phase per step.

        Returns ``[(rate, passed)]``.  The bracket ends are never run:
        ``max_rate_rps`` is the highest rate that passed, to within
        :attr:`Workload.search_resolution`, or the floor when none did.
        """
        lo, hi = self.workload.search
        steps = []
        for _ in range(SEARCH_STEPS):
            rate = math.sqrt(lo * hi)
            summary = self.measure(
                rate, SHARE["step"] * self.seconds, "search", SEARCH_ATTEMPTS
            )
            ok = passes(summary)
            steps.append((rate, ok))
            lo, hi = (rate, hi) if ok else (lo, rate)
        return steps

    def _config(self, setups) -> dict:
        info = setups[0]["server"]
        return {
            "kernels": info.get("kernels"),
            "start_method": info.get("start_method"),
            "transport": info.get("transport"),
            "setups": [{k: v for k, v in s.items() if k != "server"} for s in setups],
        }

    def _traced_run(self, host) -> dict:
        w = self.workload
        setups, mids = [], []
        spans_path = WORK / "spans.json"
        for trace_out in (None, spans_path):
            # Both mids directly follow the warm-up, so the traced and
            # untraced p50 differ only in the timing shims.
            setups.append(self._serve(trace_out))
            before = self.stats()
            mids.append(self._fixed(w.mid, "mid", "mid"))
            after = self.stats()
            if trace_out is None:
                low = self._fixed(w.low, "low", "low")
                search = self._search()
            self.stop_server()
        host.update(self._config(setups))
        host["valid"] = all(p["valid"] for p in [low, *mids])
        passed = [rate for rate, ok in search if ok]
        host["search"] = search
        untraced, traced = mids
        spans = json.loads(spans_path.read_text())
        layer = span_metrics(spans, traced["start"], traced["end"],
                             traced["responded"], w.pairs)
        net_self = traced["mean_ms"] - layer["run_ms"]
        if net_self < 0:
            raise BenchError(f"layer times exceed the client latency by {-net_self:.3f} ms")
        metrics = counter_metrics(before, after, w.pairs)
        metrics.update({k: v for k, v in layer.items() if k in PER_LAYER})
        metrics["net.self_ms.mean"] = net_self
        metrics["batch.calls"] = float(layer["runs"])
        for part in ("index_s", "save_s", "load_s", "start_s"):
            metrics[f"build.{part}"] = statistics.median(s[part] for s in setups)
        metrics["client.late_p99_ms"] = traced["late_p99_ms"]
        metrics["client.p50_ms.low"] = low["p50_ms"]
        metrics["client.p50_ms.mid"] = untraced["p50_ms"]
        metrics["client.p99_ms.low"] = low["p99_ms"]
        metrics["client.p99_ms.mid"] = untraced["p99_ms"]
        metrics["client.max_rate_rps"] = max(passed, default=w.search[0])
        metrics["trace.mean_ms"] = traced["mean_ms"]
        metrics["trace.p50_ms.mid.traced"] = traced["p50_ms"]
        metrics["trace.p50_ms.mid.untraced"] = untraced["p50_ms"]
        metrics["trace.overhead_ratio"] = traced["p50_ms"] / untraced["p50_ms"]
        host["accounting_ms"] = {
            "mean_latency": traced["mean_ms"],
            "net_and_wire": net_self,
            "batch": layer["batch.self_ms"],
            "cache": layer["cache.self_ms"],
            "engine": layer["engine.self_ms"],
            "shard": layer["shard.self_ms"],
        }
        return metrics


def _metric_block(metrics: dict, table: dict) -> dict:
    missing = sorted(set(table) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {name: {"value": float(metrics[name]), "unit": table[name][0]} for name in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its server and client (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    try:
        become_subreaper()
        host, attempted, failed, metrics = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    table = PER_LAYER if args.trace else END_TO_END
    correct = bench.wrong == 0
    print(json.dumps({"host": host}, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(metrics, table),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
