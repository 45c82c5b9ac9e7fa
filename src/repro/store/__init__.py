"""repro.store — crash-safe sharded telemetry store with zero-copy replay.

The system of record for simulated fleet telemetry, built from four
layers (each its own module):

* :mod:`repro.store.wal` — per-shard write-ahead log with group commit
  and CRC-framed records; a kill mid-commit loses only the torn tail.
* :mod:`repro.store.segment` — immutable columnar float32 segment files
  read through ``np.memmap``: every sealed trial is one contiguous
  row-range view, copied nowhere.
* :mod:`repro.store.manifest` — the atomically swapped segment catalog;
  the store's single commit point for sealing.
* :mod:`repro.store.store` — :class:`TelemetryStore`, the orchestrator:
  append → group commit → seal → serve, with recovery on open.

On top: :mod:`repro.store.compact` (time-bucketed downsampling with
retention, preserving full-trace moments).  Replay is
:meth:`repro.serve.FleetLoadGenerator.from_store`, which re-drives the
serving stack from sealed rows at a configurable rate.  Every durable
file here is written through :mod:`repro.utils.persist`.  ``repro bench
store`` times ingest, recovery, replay and compaction.
"""

from repro.store.compact import CompactionReport, bucket_means, compact_store
from repro.store.manifest import Manifest
from repro.store.segment import SegmentReader, SegmentWriter, TrialSlice
from repro.store.store import TelemetryStore
from repro.store.wal import WalRecord, WriteAheadLog, read_wal

__all__ = [
    "CompactionReport",
    "Manifest",
    "SegmentReader",
    "SegmentWriter",
    "TelemetryStore",
    "TrialSlice",
    "WalRecord",
    "WriteAheadLog",
    "bucket_means",
    "compact_store",
    "read_wal",
]
