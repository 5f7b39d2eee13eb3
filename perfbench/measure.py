"""Statistics, child-process timing and provenance for the benchmark.

Nothing here imports the program under test, so the statistics the
benchmark reports do not depend on the code it measures.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

#: The tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has ``min_beyond`` samples above it.

    Returns ``(percentile, value, beyond)``.  The sample at sorted position
    ``r`` (0-based) of ``n`` has ``n - 1 - r`` samples beyond it, so the rule
    picks ``r = n - 1 - min_beyond`` and names it the ``100 * (r + 1) / n``-th
    percentile.  A tail below the median is no tail: when that rank falls
    under the median's (fewer than ``2 * min_beyond + 1`` samples), the
    maximum is returned as the 100th percentile with 0 samples beyond.
    """
    if not values:
        raise ValueError("tail() needs at least one sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 1 - min_beyond
    if rank < (n - 1) / 2:
        rank = n - 1
    return 100.0 * (rank + 1) / n, float(ordered[rank]), n - 1 - rank


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def covered_seconds(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@dataclass
class ChildRun:
    """One finished child process, timed from outside."""

    returncode: int
    started: float
    ended: float
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def wait_child(process: subprocess.Popen, started: float, timeout: float) -> ChildRun:
    """Reap ``process`` with ``wait4`` so its own peak RSS is known.

    ``ru_maxrss`` of a reaped child covers the child and the descendants it
    reaped itself (pool workers), in KiB on Linux.  A child still running
    after ``timeout`` seconds is killed.
    """
    killer = threading.Timer(timeout, process.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        killer.cancel()
    ended = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(process.returncode, started, ended, usage.ru_maxrss / 1024.0)


def run_child(argv: Sequence[str], *, cwd: Path, env: dict, stdout: Path, stderr: Path,
              timeout: float) -> ChildRun:
    """Run one command to completion; its output goes to the given files."""
    with stdout.open("wb") as out, stderr.open("wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out, stderr=err)
        return wait_child(process, started, timeout)


def tree_digest(root: Path, pattern: str = "*.py") -> str:
    """SHA-256 over the relative paths and contents of matching files."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


#: Fingerprint fields that describe the machine and toolchain; two records
#: whose values differ here were not measured under the same conditions.
MACHINE_FIELDS = ("cpu_count", "cpu_model", "python", "numpy", "platform")


def fingerprint(root: Path) -> dict:
    """Provenance stamped on every result: machine, toolchain and code."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_sha256": tree_digest(root / "src"),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
    }


def host_gauge(repeats: int = 5, loops: int = 400_000) -> float:
    """Median seconds of a fixed pure-Python loop.

    Not a metric of the program: it records how fast this host ran around a
    measurement, so that drift of a shared machine shows in the run records.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(loops):
            total += value * value
        times.append(time.perf_counter() - started)
    return median(times)


def fingerprint_mismatches(a: dict, b: dict) -> list[str]:
    """Machine fields on which two fingerprints disagree."""
    return [key for key in MACHINE_FIELDS if a.get(key) != b.get(key)]
