"""Timing core for ``repro bench``: interleaved repeats, peak memory, JSON.

A bench is a zero-argument callable plus the work one call does.
:func:`time_group` times a group of benches in rotated interleaved
rounds — every round runs each bench once, and the lead rotates — so
background-load drift and order effects (boost clocks, allocator and
cache state) hit every side of a comparison alike.  The collector is
emptied before each timed call.  Collection cost is part of what a
bench measures unless ``pause_gc`` is set; comparisons of minima (the
tracing overhead budget) pause it, so a GC cycle landing in one
bench's window does not masquerade as its cost.

Memory is measured apart from time: :func:`peak_mb` runs one extra,
*untimed* call under :mod:`tracemalloc` (tracing slows every Python
allocation, so it never wraps a timed repeat) and reports its peak.
NumPy buffers are traced; memory allocated in child processes is not.

Results serialize to the committed ``BENCH_<suite>.json`` schema::

    {"header": {"src_sha256": ..., "git_sha": ..., "cpu": ..., ...},
     "rows": [{"bench": ..., "unit": ..., "work": ..., "per_s": ...,
               "p50_s": ..., "p95_s": ..., "times_s": [...],
               "peak_mb": ..., "config": {...}}, ...]}

``per_s`` is ``work / p50_s`` in ``unit``\\ s per second.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import subprocess
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "BenchResult",
    "ParityError",
    "time_group",
    "peak_mb",
    "provenance",
    "write_bench_json",
]


class ParityError(AssertionError):
    """A fast path diverged from the reference it is gated against."""


@dataclass(frozen=True)
class BenchResult:
    """One bench's measurement: raw per-repeat seconds plus what they did."""

    bench: str
    unit: str                       # what one unit of ``work`` is
    work: int                       # units of work per call
    times_s: tuple[float, ...]
    peak_mb: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def p50_s(self) -> float:
        """Median seconds per call."""
        return float(np.percentile(self.times_s, 50))

    @property
    def p95_s(self) -> float:
        """95th-percentile seconds per call."""
        return float(np.percentile(self.times_s, 95))

    @property
    def per_s(self) -> float:
        """Throughput implied by the median, in ``unit``\\ s per second."""
        p50 = self.p50_s
        return self.work / p50 if p50 > 0 else float("inf")

    def to_dict(self) -> dict:
        """The result as a plain dict (one BENCH_*.json row)."""
        return {
            "bench": self.bench, "unit": self.unit, "work": self.work,
            "per_s": self.per_s, "p50_s": self.p50_s, "p95_s": self.p95_s,
            "times_s": list(self.times_s), "peak_mb": self.peak_mb,
            "config": dict(self.config),
        }

    def __str__(self) -> str:
        return (f"{self.bench:<28s} {self.per_s:14.1f} {self.unit}/s  "
                f"p50 {self.p50_s * 1e3:9.2f} ms  "
                f"p95 {self.p95_s * 1e3:9.2f} ms  "
                f"peak {self.peak_mb:7.1f} MiB")


def time_group(fns: list[Callable[[], object]], *, repeats: int,
               warmup: int = 1, pause_gc: bool = False) -> list[list[float]]:
    """Time ``fns`` in ``repeats`` rotated interleaved rounds.

    Each function first runs ``warmup`` times untimed.  Returns one list
    of per-repeat seconds per function.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for fn in fns:
        for _ in range(warmup):
            fn()
    times: list[list[float]] = [[] for _ in fns]
    order = list(range(len(fns)))
    for r in range(repeats):
        offset = r % len(fns)
        for i in order[offset:] + order[:offset]:
            gc.collect()
            if pause_gc:
                gc.disable()
            try:
                tic = time.perf_counter()
                fns[i]()
                times[i].append(time.perf_counter() - tic)
            finally:
                gc.enable()
    return times


def peak_mb(fn: Callable[[], object]) -> float:
    """Peak traced allocation (MiB) of one untimed call to ``fn``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    """Where a BENCH file was measured: code version and machine.

    The code version is a SHA-256 over the package's ``*.py`` files,
    plus the git commit when the package sits in a checkout (the hash
    tells an uncommitted tree from its commit).
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package.parent).as_posix().encode())
        digest.update(path.read_bytes())
    version = {"src_sha256": digest.hexdigest()}
    try:
        version["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=package, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        **version,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_bench_json(path: str | Path, results: list[BenchResult],
                     header: dict | None = None) -> Path:
    """Write one BENCH_*.json file in the schema above."""
    path = Path(path)
    doc = {"header": provenance() if header is None else header,
           "rows": [r.to_dict() for r in results]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
