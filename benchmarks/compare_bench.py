"""Diff fresh ``BENCH_*.json`` artifacts against committed baselines.

The smoke runs write machine-readable perf reports
(``benchmarks/_artifacts/BENCH_service.json``,
``BENCH_offline.json``); this script compares them against the
baselines committed under ``benchmarks/baselines/`` and warns on any
throughput/latency metric that regressed by more than the threshold
(default 20%) — the first piece of the ROADMAP regression dashboard.

CI boxes are noisy and heterogeneous, so regressions **warn** by
default (exit 0); pass ``--strict`` to turn warnings into a non-zero
exit for environments stable enough to gate on.  Improvements and
in-band metrics are summarised, never fatal.

``--trend`` walks the *git history* of the committed baselines instead:
every commit that touched ``benchmarks/baselines/BENCH_*.json`` becomes
a row, so a metric sliding 10% per PR — invisible to the
baseline-vs-fresh diff — shows up as a column drifting across the
table.  Needs history (a shallow ``fetch-depth: 1`` clone degrades to
the single current row).

Usage::

    python benchmarks/compare_bench.py            # default dirs
    python benchmarks/compare_bench.py --strict --threshold 0.3
    python benchmarks/compare_bench.py --trend    # history table
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Metric leaf names worth tracking, with their good direction.
#: Anything not listed is context (workload shape, byte counts, flags).
HIGHER_IS_BETTER = {
    "qps",
    "goodput_qps",
    "exact_goodput_qps",
    "nodes_per_second",
    "speedup",
    "speedup_flat_vs_dict",
    "speedup_flat_vs_dict_batch",
    "reuse_speedup",
    "hit_rate",
    "size_ratio",
}
LOWER_IS_BETTER = {
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "exact_p50_ms",
    "exact_p99_ms",
    "unanswered_rate",
    "estimate_share",
}


def collect_metrics(node, prefix: str = "") -> dict[str, float]:
    """Flatten a report to ``dotted.path -> value`` for tracked leaves."""
    metrics: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                metrics.update(collect_metrics(value, path))
            elif (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and key in (HIGHER_IS_BETTER | LOWER_IS_BETTER)
            ):
                metrics[path] = float(value)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            metrics.update(collect_metrics(value, f"{prefix}[{i}]"))
    return metrics


def compare_report(baseline: dict, fresh: dict, threshold: float):
    """Returns ``(regressions, improvements, stable_count)`` line lists."""
    base_metrics = collect_metrics(baseline)
    fresh_metrics = collect_metrics(fresh)
    regressions: list[str] = []
    improvements: list[str] = []
    stable = 0
    for path, base in sorted(base_metrics.items()):
        got = fresh_metrics.get(path)
        if got is None or base == 0:
            continue
        leaf = path.rsplit(".", 1)[-1]
        change = got / base - 1.0
        worse = -change if leaf in HIGHER_IS_BETTER else change
        line = f"{path}: {base:.4g} -> {got:.4g} ({change:+.1%})"
        if worse > threshold:
            regressions.append(line)
        elif worse < -threshold:
            improvements.append(line)
        else:
            stable += 1
    return regressions, improvements, stable


def _git(args: list[str], cwd: Path):
    """Run one git command; ``None`` on any failure (no git, no repo)."""
    try:
        proc = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def baseline_history(baseline: Path) -> list[tuple[str, str, dict]]:
    """Every committed version of one baseline, oldest first.

    Returns ``(short_sha, date, report)`` tuples.  Degrades gracefully
    to an empty list when git or the history is unavailable (shallow
    CI clones) — the caller then falls back to the worktree copy.
    """
    top = _git(["rev-parse", "--show-toplevel"], baseline.resolve().parent)
    if top is None:
        return []
    root = Path(top.strip())
    rel = baseline.resolve().relative_to(root).as_posix()
    log = _git(["log", "--format=%h %ad", "--date=short", "--", rel], root) or ""
    history = []
    for line in reversed(log.strip().splitlines()):
        sha, _, date = line.partition(" ")
        blob = _git(["show", f"{sha}:{rel}"], root)
        if blob is None:
            continue
        try:
            report = json.loads(blob)
        except json.JSONDecodeError:
            continue
        history.append((sha, date, report))
    return history


def _short(path: str) -> str:
    # Three trailing components keep sibling metrics distinguishable
    # (capacities.16.2q.hit_rate vs capacities.64.2q.hit_rate).
    parts = path.split(".")
    return ".".join(parts[-3:]) if len(parts) > 1 else path


def render_trend(
    name: str,
    history: list[tuple[str, str, dict]],
    *,
    select: str = "",
    max_cols: int = 6,
) -> str:
    """One table: baseline commits as rows, tracked metrics as columns."""
    lines = [f"{name}: {len(history)} committed snapshot(s)"]
    rows = [(sha, date, collect_metrics(report)) for sha, date, report in history]
    latest = rows[-1][2]
    paths = [p for p in sorted(latest) if select in p][:max_cols]
    if not paths:
        lines.append("  no tracked metrics match the selection")
        return "\n".join(lines)
    headers = ["commit", "date"] + [_short(p) for p in paths]
    table = [
        [sha, date] + [f"{m[p]:.4g}" if p in m else "-" for p in paths]
        for sha, date, m in rows
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table))
        for i in range(len(headers))
    ]
    lines.append(
        "  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    for row in table:
        lines.append(
            "  "
            + "  ".join(
                cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def run_trend(baselines_dir: Path, *, select: str = "", max_cols: int = 6) -> int:
    """Print trend tables over every committed ``BENCH_*.json`` baseline."""
    baselines = sorted(baselines_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {baselines_dir}; nothing to trend")
        return 0
    for path in baselines:
        history = baseline_history(path)
        if not history:
            # Shallow clone / no git: show at least the current snapshot.
            history = [("worktree", "-", json.loads(path.read_text()))]
        print(render_trend(path.name, history, select=select, max_cols=max_cols))
        print()
    return 0


def main(argv=None) -> int:
    here = Path(__file__).parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts", type=Path, default=here / "_artifacts",
        help="directory holding fresh BENCH_*.json reports",
    )
    parser.add_argument(
        "--baselines", type=Path, default=here / "baselines",
        help="directory holding committed baseline reports",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative change treated as a regression (default 0.20)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any metric regressed past the threshold",
    )
    parser.add_argument(
        "--trend", action="store_true",
        help="print each baseline's metric history across the commits "
        "that touched it, instead of diffing fresh artifacts",
    )
    parser.add_argument(
        "--select", default="",
        help="trend mode: only metric paths containing this substring",
    )
    parser.add_argument(
        "--max-cols", type=int, default=6,
        help="trend mode: max metric columns per table (default 6)",
    )
    args = parser.parse_args(argv)

    if args.trend:
        return run_trend(args.baselines, select=args.select, max_cols=args.max_cols)

    baselines = sorted(args.baselines.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baselines}; nothing to compare")
        return 0
    total_regressions = 0
    for base_path in baselines:
        fresh_path = args.artifacts / base_path.name
        if not fresh_path.exists():
            print(f"{base_path.name}: no fresh artifact at {fresh_path}, skipped")
            continue
        baseline = json.loads(base_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        regressions, improvements, stable = compare_report(
            baseline, fresh, args.threshold
        )
        total_regressions += len(regressions)
        print(
            f"{base_path.name}: {stable} stable, "
            f"{len(improvements)} improved, {len(regressions)} regressed "
            f"(threshold {args.threshold:.0%})"
        )
        for line in improvements:
            print(f"  better: {line}")
        for line in regressions:
            print(f"  WARNING regressed: {line}")
    if total_regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
