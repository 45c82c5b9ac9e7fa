"""Microbenchmarks (``repro bench``).

:mod:`repro.perf.benches` registers six timed suites — ``serve``,
``infer``, ``train``, ``store``, ``fleet``, ``trace`` — each writing one
committed ``BENCH_<suite>.json``; :mod:`repro.perf.harness` is the
timing core and the file schema.  Where a fast path has a reference it
must match (a serial run, the grad-mode forward, ``np.stack``), it is
timed beside it behind a bit-parity assert.
"""

from repro.perf.benches import (
    SUITES,
    Bench,
    Group,
    Suite,
    run_bench,
    run_suite,
)
from repro.perf.harness import (
    BenchResult,
    ParityError,
    peak_mb,
    provenance,
    time_group,
    write_bench_json,
)

__all__ = [
    "BenchResult",
    "ParityError",
    "peak_mb",
    "provenance",
    "time_group",
    "write_bench_json",
    "SUITES",
    "Bench",
    "Group",
    "Suite",
    "run_bench",
    "run_suite",
]
