"""Storing and replaying telemetry: the crash-safe sharded store.

A fleet's telemetry is worth keeping: the same streams that drove live
classification can re-drive the serving stack later — to debug an
incident, to qualify a challenger model against last week's traffic, or
to rerun a drift scenario at 10x speed.  This walkthrough archives a
simulated release into :class:`repro.store.TelemetryStore` (per-shard
write-ahead logs sealed into immutable mmap'd segment files), reads it
back zero-copy, replays it deterministically through a fresh inference
server at a rate multiplier, and compacts old segments to time-bucketed
means while keeping full-trace covariance features exact via stored
moments::

    python examples/store_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.data.fulltrace import full_trace_covariance
from repro.models import make_rf_cov
from repro.serve import FleetLoadGenerator, InferenceServer
from repro.simcluster.cluster import ClusterSimulator, SimulationConfig
from repro.store import TelemetryStore, compact_store


def archive_release(root: Path) -> TelemetryStore:
    """Simulate a tiny release straight into a 4-shard store."""
    store = TelemetryStore(root, n_shards=4)
    sim = ClusterSimulator(SimulationConfig(seed=2022, trials_scale=0.01))
    jobs, _ = sim.generate(store=store)   # ingests + seals before returning
    stats = store.stats()
    print(f"archived {stats['n_trials']} trials / {stats['total_rows']} rows "
          f"across {stats['n_shards']} shards "
          f"(manifest v{stats['manifest_version']})")
    # Sealed reads are zero-copy views of the segment memmaps.
    first = store.keys()[0]
    series = store.series(*first)
    print(f"trial {first}: shape {series.shape}, dtype {series.dtype}, "
          f"view (no copy): {series.base is not None}")
    return store


def replay_fleet(store: TelemetryStore) -> None:
    """Re-drive the archived fleet against a freshly trained model."""
    ds = store.labelled_dataset(min_samples=540)
    X = np.stack([t.series[:540] for t in ds])
    y = ds.labels()
    model = make_rf_cov(n_estimators=40).fit(X, y)

    for rate in (1.0, 8.0):
        gen = FleetLoadGenerator.from_store(store, n_jobs=12, rate=rate)
        report = gen.run(InferenceServer(model, clock=gen.clock))
        print(f"rate {rate:>4}x: {report.n_predictions} predictions over "
              f"{report.sim_seconds:.0f} simulated s "
              f"({report.wall_seconds:.2f} wall s), "
              f"smoothed accuracy {report.smoothed_accuracy():.2%}")


def compact_and_verify(store: TelemetryStore) -> None:
    """Downsample history; full-trace features stay exact via moments."""
    key = store.keys()[0]
    raw = np.array(store.series(*key))
    mean, scale = raw.mean(axis=0), raw.std(axis=0) + 1e-8
    before = full_trace_covariance(raw, mean, scale)

    report = compact_store(store, bucket=10, keep_segments=0)
    print(f"compacted {report.segments_compacted} segments: "
          f"{report.rows_before} -> {report.rows_after} rows "
          f"({report.row_reduction:.0%} smaller)")

    # The compacted slice carries the original rows' (count, sum, gram)
    # moments, so covariance features survive the downsampling exactly.
    after = store.moments(*key).standardized_covariance(mean, scale)
    print(f"full-trace features preserved: "
          f"{np.allclose(before, after, rtol=1e-8, atol=1e-10)}")


def main() -> None:
    """Archive, replay, and compact inside a temp directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "telemetry"
        with archive_release(root) as store:
            replay_fleet(store)
            compact_and_verify(store)


if __name__ == "__main__":
    main()
