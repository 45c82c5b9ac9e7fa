"""The sharded telemetry store: WAL in front, mmap segments behind.

:class:`TelemetryStore` is the crash-safe system of record for simulated
fleet telemetry.  Writes take the durability path::

    append() --stage--> shard WAL --group commit--> flush() --seal-->
    segment files --one atomic manifest swap--> WAL truncate

and reads take the zero-copy path: every sealed trial is a contiguous
row range of one ``np.memmap``-ed segment, so :meth:`series` returns a
float32 view that the serving/replay stack consumes without ever copying
the telemetry.

Crash-safety invariants (pinned by the SIGKILL suite at the
``store.wal.append`` / ``store.segment.finalize`` / ``store.manifest.swap``
fault points):

* A kill mid-commit loses only the uncommitted tail — earlier group
  commits always survive (torn WAL frames are detected by CRC and
  trimmed).
* A kill mid-flush loses *nothing*: rows stay recoverable from the WAL
  until the manifest swap lands, and stray segment files the manifest
  never referenced are invisible.
* A kill between the manifest swap and the WAL truncate double-stores
  rows; recovery dedupes by trial key, preferring the sealed copy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.dataset import LabelledDataset, LabelledTrial
from repro.data.fulltrace import TraceMoments
from repro.store.manifest import Manifest
from repro.store.segment import SegmentReader, SegmentWriter, TrialSlice, segment_paths
from repro.store.wal import WalRecord, WriteAheadLog
from repro.utils.persist import read_checked, write_checked

__all__ = ["TelemetryStore", "STORE_CONFIG_NAME"]

STORE_CONFIG_NAME = "STORECONFIG"
_CONFIG_MAGIC = "repro-store-config-v2"
_V1_CONFIG_MAGIC = "repro-store-config-v1"  # unchecked config of older releases
WAL_NAME = "wal.log"


def _v1_config(header: dict):
    """The config of an unchecked ``-v1`` STORECONFIG, else ``None``."""
    is_v1 = header.get("magic") == _V1_CONFIG_MAGIC
    return header if is_v1 and set(header) == {"magic", "n_shards"} else None


def _shard_dir_name(shard: int) -> str:
    return f"shard-{shard:02d}"


class TelemetryStore:
    """Crash-safe sharded append-only store for labelled GPU telemetry.

    Parameters
    ----------
    root:
        Store directory; created (with its shard subdirectories) when
        absent, recovered when present.
    n_shards:
        Shard count for a *new* store; an existing store keeps the count
        it was created with (a mismatch raises).  Trials land on shard
        ``job_id % n_shards``.
    fsync:
        Default durability of commits and seals.  Tests that only
        exercise logic may disable it for speed; the crash suite keeps
        it on.
    """

    def __init__(self, root: str | Path, n_shards: int = 4, *, fsync: bool = True):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.root = Path(root)
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_shards = self._load_or_init_config(n_shards)
        self.manifest = Manifest.load(self.root) or Manifest(n_shards=self.n_shards)
        if self.manifest.n_shards != self.n_shards:
            raise ValueError(
                f"store at {self.root} has {self.manifest.n_shards} shards, "
                f"asked for {self.n_shards}"
            )
        self._n_sensors: int | None = self.manifest.n_sensors
        self._wals = [
            WriteAheadLog(self._shard_dir(s) / WAL_NAME) for s in range(self.n_shards)
        ]
        #: (shard, seq) -> open segment reader, for every live segment.
        self._readers: dict[tuple[int, int], SegmentReader] = {}
        #: trial key -> (shard, seq) of the sealed segment holding it.
        self._catalog: dict[tuple[int, int], tuple[int, int]] = {}
        #: trial key -> committed-but-unsealed record (WAL-resident).
        self._wal_trials: dict[tuple[int, int], WalRecord] = {}
        self._staged: set[tuple[int, int]] = set()
        self._recover()

    # ------------------------------------------------------------------
    # open/recovery
    def _shard_dir(self, shard: int) -> Path:
        return self.root / _shard_dir_name(shard)

    def _load_or_init_config(self, n_shards: int) -> int:
        path = self.root / STORE_CONFIG_NAME
        if path.is_file():
            _, cfg = read_checked(path, _CONFIG_MAGIC, "store config",
                                  legacy=_v1_config)
            return int(cfg["n_shards"])
        write_checked(path, _CONFIG_MAGIC, {"n_shards": n_shards},
                      fsync=self.fsync)
        return n_shards

    def _recover(self) -> None:
        """Rebuild catalog from the manifest, then replay shard WALs.

        WAL records whose key already appears in a sealed segment are
        crash artifacts of a kill between the manifest swap and the WAL
        truncate; the sealed copy wins.
        """
        for shard in range(self.n_shards):
            for seq in self.manifest.shard_segments(shard):
                reader = SegmentReader(self._shard_dir(shard), seq)
                self._readers[(shard, seq)] = reader
                for key in reader.trials:
                    self._catalog[key] = (shard, seq)
        for shard, wal in enumerate(self._wals):
            for record in wal.records():
                if record.key in self._catalog or record.key in self._wal_trials:
                    continue
                self._wal_trials[record.key] = record

    # ------------------------------------------------------------------
    # write path
    def shard_of(self, job_id: int) -> int:
        """The shard a job's trials land on."""
        return int(job_id) % self.n_shards

    def append(
        self,
        job_id: int,
        series: np.ndarray,
        *,
        label: int = -1,
        model_name: str = "",
        gpu_index: int = 0,
    ) -> tuple[int, int]:
        """Stage one trial's whole series; durable after :meth:`commit`.

        The series is converted to C-order float32 — the store's native
        (and the models' training) dtype.  Returns the trial key.
        Duplicate keys and sensor-width mismatches raise ``ValueError``.
        """
        series = np.ascontiguousarray(series, dtype=np.float32)
        if series.ndim != 2 or series.shape[0] == 0:
            raise ValueError(
                f"series must be non-empty (n_rows, n_sensors), got {series.shape}"
            )
        if self._n_sensors is None:
            self._n_sensors = int(series.shape[1])
        elif series.shape[1] != self._n_sensors:
            raise ValueError(
                f"store holds {self._n_sensors}-sensor telemetry, "
                f"job {job_id} has {series.shape[1]} sensors"
            )
        key = (int(job_id), int(gpu_index))
        if key in self._catalog or key in self._wal_trials or key in self._staged:
            raise ValueError(f"trial {key} already stored (store is append-only)")
        record = WalRecord(
            job_id=key[0],
            gpu_index=key[1],
            label=int(label),
            model_name=str(model_name),
            series=series,
        )
        self._wals[self.shard_of(job_id)].stage(record)
        self._staged.add(key)
        return key

    def commit(self) -> int:
        """Group-commit every staged record (one fsync per touched shard).

        Returns the number of records made durable.
        """
        n = 0
        for wal in self._wals:
            for record in wal.commit(fsync=self.fsync):
                self._wal_trials[record.key] = record
                self._staged.discard(record.key)
                n += 1
        return n

    def flush(self) -> int:
        """Seal committed WAL rows into segments; returns segments sealed.

        Ordering gives atomicity: segments are finalized first (invisible
        until referenced), then one manifest swap makes them all live,
        then the WALs are truncated.  A crash anywhere leaves either the
        old state (rows still in WALs) or the new one (rows sealed,
        duplicates dropped on recovery) — never a torn mixture.
        """
        self.commit()
        if not self._wal_trials:
            return 0
        by_shard: dict[int, list[WalRecord]] = {}
        for record in self._wal_trials.values():
            by_shard.setdefault(self.shard_of(record.job_id), []).append(record)
        sealed: list[tuple[int, int, dict]] = []
        for shard in sorted(by_shard):
            records = by_shard[shard]
            rows = np.concatenate([r.series for r in records], axis=0)
            trials: dict[tuple[int, int], TrialSlice] = {}
            start = 0
            for r in records:
                trials[r.key] = TrialSlice(
                    row_start=start,
                    n_rows=r.series.shape[0],
                    label=r.label,
                    model_name=r.model_name,
                )
                start += r.series.shape[0]
            seq = self.manifest.allocate_seq(shard)
            SegmentWriter.write(
                self._shard_dir(shard), seq, rows, trials, fsync=self.fsync
            )
            self.manifest.add_segment(shard, seq)
            sealed.append((shard, seq, trials))
        self.manifest.n_sensors = self._n_sensors
        self.manifest.save(self.root, fsync=self.fsync)   # the commit point
        for shard, seq, trials in sealed:
            self._readers[(shard, seq)] = SegmentReader(self._shard_dir(shard), seq)
            for key in trials:
                self._catalog[key] = (shard, seq)
        for wal in self._wals:
            wal.truncate()
        self._wal_trials.clear()
        return len(sealed)

    # ------------------------------------------------------------------
    # read path
    def keys(self) -> list[tuple[int, int]]:
        """Every stored trial key ``(job_id, gpu_index)``, sorted."""
        return sorted(set(self._catalog) | set(self._wal_trials))

    def __len__(self) -> int:
        return len(self._catalog) + len(self._wal_trials)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._catalog or key in self._wal_trials

    def series(self, job_id: int, gpu_index: int = 0) -> np.ndarray:
        """One trial's float32 rows — a zero-copy memmap view when sealed."""
        key = (int(job_id), int(gpu_index))
        loc = self._catalog.get(key)
        if loc is not None:
            return self._readers[loc].series(key)
        record = self._wal_trials.get(key)
        if record is not None:
            return record.series
        raise KeyError(f"trial {key} not in store {self.root}")

    def slice_info(self, job_id: int, gpu_index: int = 0) -> TrialSlice:
        """Label/provenance metadata of one stored trial."""
        key = (int(job_id), int(gpu_index))
        loc = self._catalog.get(key)
        if loc is not None:
            return self._readers[loc].trials[key]
        record = self._wal_trials.get(key)
        if record is not None:
            return TrialSlice(
                row_start=0,
                n_rows=record.series.shape[0],
                label=record.label,
                model_name=record.model_name,
            )
        raise KeyError(f"trial {key} not in store {self.root}")

    def moments(self, job_id: int, gpu_index: int = 0) -> TraceMoments:
        """Raw trace moments of one trial.

        Compacted trials return the moments of the *original* rows
        (persisted at compaction time), so full-trace covariance features
        survive downsampling.
        """
        info = self.slice_info(job_id, gpu_index)
        if info.moments is not None:
            return info.moments
        series = self.series(job_id, gpu_index)
        return TraceMoments(series.shape[1]).update(series)

    def iter_trials(self):
        """Yield ``(key, TrialSlice, series)`` for every trial, sorted by key."""
        for key in self.keys():
            yield key, self.slice_info(*key), self.series(*key)

    def labelled_dataset(self, min_samples: int | None = None) -> LabelledDataset:
        """The store's contents as a :class:`LabelledDataset`.

        Sealed trials back their ``series`` with zero-copy float32 memmap
        views (:class:`LabelledTrial` preserves float32).  Trials shorter
        than ``min_samples`` (e.g. after compaction) are skipped when the
        bound is given.
        """
        trials = []
        for key, info, series in self.iter_trials():
            if min_samples is not None and series.shape[0] < min_samples:
                continue
            trials.append(
                LabelledTrial(
                    series=series,
                    label=info.label,
                    model_name=info.model_name,
                    job_id=key[0],
                    gpu_index=key[1],
                )
            )
        return LabelledDataset(trials)

    # ------------------------------------------------------------------
    # bulk ingest
    def ingest(self, jobs, *, flush: bool = True) -> int:
        """Append every GPU series of the given simulated jobs.

        Returns the number of trials ingested; seals them into segments
        unless ``flush=False`` (then they stay WAL-resident after one
        group commit).
        """
        n = 0
        for job in jobs:
            for gs in job.gpu_series:
                self.append(
                    job.record.job_id,
                    gs.data,
                    label=job.record.class_label,
                    model_name=job.record.architecture,
                    gpu_index=gs.gpu_index,
                )
                n += 1
        if flush:
            self.flush()
        else:
            self.commit()
        return n

    def ingest_dataset(self, dataset: LabelledDataset, *, flush: bool = True) -> int:
        """Append every trial of a labelled dataset (see :meth:`ingest`)."""
        for trial in dataset:
            self.append(
                trial.job_id,
                trial.series,
                label=trial.label,
                model_name=trial.model_name,
                gpu_index=trial.gpu_index,
            )
        if flush:
            self.flush()
        else:
            self.commit()
        return len(dataset)

    # ------------------------------------------------------------------
    # maintenance
    @property
    def n_sensors(self) -> int | None:
        """Sensor width, fixed by the first append (None when empty)."""
        return self._n_sensors

    def total_rows(self) -> int:
        """Total stored telemetry rows across segments and WALs."""
        sealed = sum(r.n_rows for r in self._readers.values())
        return sealed + sum(r.series.shape[0] for r in self._wal_trials.values())

    def stats(self) -> dict:
        """Shape summary for logs and the CLI."""
        return {
            "root": str(self.root),
            "n_shards": self.n_shards,
            "n_trials": len(self),
            "n_segments": len(self._readers),
            "wal_resident_trials": len(self._wal_trials),
            "total_rows": self.total_rows(),
            "n_sensors": self._n_sensors,
            "manifest_version": self.manifest.version,
        }

    def verify(self) -> None:
        """CRC-check every live segment; raises ``ValueError`` on damage."""
        for (shard, seq), reader in self._readers.items():
            if not reader.verify():
                raise ValueError(
                    f"segment {seq} of shard {shard} failed its CRC check"
                )

    def gc_stray(self) -> list[Path]:
        """Delete segment/tmp files the manifest does not reference.

        Strays are left by kills mid-flush; they are invisible to readers,
        so collection is safe at any time.  Returns the removed paths.
        """
        removed: list[Path] = []
        for shard in range(self.n_shards):
            shard_dir = self._shard_dir(shard)
            if not shard_dir.is_dir():
                continue
            live: set[Path] = set()
            for seq in self.manifest.shard_segments(shard):
                live.update(segment_paths(shard_dir, seq))
            for path in shard_dir.iterdir():
                if path.name == WAL_NAME or path in live:
                    continue
                if path.suffix in (".dat", ".meta", ".tmp"):
                    path.unlink()
                    removed.append(path)
        return removed

    def close(self) -> None:
        """Release every segment memory map (views become invalid)."""
        for reader in self._readers.values():
            reader.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
