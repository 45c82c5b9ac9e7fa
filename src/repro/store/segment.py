"""Immutable columnar segment files with memory-mapped zero-copy reads.

A segment is the sealed, read-optimized form of a batch of WAL records:

* ``seg-NNNNNN.dat`` — the raw telemetry: fixed-width float32 sensor
  columns, one ``(n_rows, n_sensors)`` C-order frame table.  Every
  trial occupies one contiguous row range, so a per-trial read is a
  single ``np.memmap`` slice — a zero-copy view handed straight to the
  serving/replay path.
* ``seg-NNNNNN.meta`` — the header: per-trial index (key → row range,
  label, model name), a CRC32 over the data bytes, and optional
  downsampling provenance.  A checked envelope
  (:func:`repro.utils.persist.write_checked`): either absent or intact,
  and a damaged one is rejected with ``ValueError`` naming the file.
  Metas written before the envelope (unchecked ``-v1`` headers) still
  open.

Finalization is crash-safe: both files are written with
:func:`repro.utils.persist.atomic_write_bytes` — data first (the
``store.segment.finalize`` fault point sits between its durable tmp file
and the rename), then the meta.  A segment becomes *visible* only once
the manifest references it, so a kill anywhere in this sequence leaves
at worst stray files that readers never consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.persist import (
    atomic_write_bytes,
    checksum,
    read_checked,
    write_checked,
)

__all__ = ["TrialSlice", "SegmentWriter", "SegmentReader", "segment_paths"]

_META_MAGIC = "repro-store-segment-v2"
_V1_MAGIC = "repro-store-segment-v1"     # unchecked meta of older releases
_META_KEYS = {"n_rows", "n_sensors", "dtype", "crc32", "trials"}


@dataclass(frozen=True)
class TrialSlice:
    """One trial's location and metadata inside a segment."""

    row_start: int
    n_rows: int
    label: int
    model_name: str
    downsample_bucket: int = 0          # 0 = raw cadence
    moments: object = None              # TraceMoments of the raw rows, if compacted


def segment_paths(shard_dir: str | Path, seq: int) -> tuple[Path, Path]:
    """``(dat, meta)`` paths of segment ``seq`` in ``shard_dir``."""
    shard_dir = Path(shard_dir)
    stem = f"seg-{seq:06d}"
    return shard_dir / f"{stem}.dat", shard_dir / f"{stem}.meta"


class SegmentWriter:
    """Seals rows + per-trial index into one immutable segment."""

    @staticmethod
    def write(
        shard_dir: str | Path,
        seq: int,
        rows: np.ndarray,
        trials: dict[tuple[int, int], TrialSlice],
        *,
        fsync: bool = True,
    ) -> tuple[Path, Path]:
        """Durably write segment ``seq``; returns ``(dat, meta)`` paths.

        ``rows`` is the concatenated ``(n_rows, n_sensors)`` float32
        table; ``trials`` maps trial keys to their row ranges within it.
        The data file is finalized first (tmp + fsync + rename), then the
        meta; neither is visible to the store until the manifest commits.
        """
        shard_dir = Path(shard_dir)
        shard_dir.mkdir(parents=True, exist_ok=True)
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError(f"segment rows must be 2-D, got {rows.shape}")
        dat_path, meta_path = segment_paths(shard_dir, seq)
        atomic_write_bytes(dat_path, rows, fsync=fsync,
                           replace_fault="store.segment.finalize")
        meta = {
            "n_rows": int(rows.shape[0]),
            "n_sensors": int(rows.shape[1]),
            "dtype": "float32",
            "crc32": checksum(rows),
            "trials": dict(trials),
        }
        write_checked(meta_path, _META_MAGIC, meta, fsync=fsync)
        return dat_path, meta_path


def _v1_meta(header: dict):
    """The meta of an unchecked ``-v1`` segment header, else ``None``."""
    is_v1 = header.get("magic") == _V1_MAGIC
    return header if is_v1 and set(header) == _META_KEYS | {"magic"} else None


class SegmentReader:
    """Zero-copy reads of one sealed segment via ``np.memmap``.

    The map is created lazily on first read and shared by every trial
    view, so replaying a fleet from a segment touches each page once and
    allocates nothing per batch.
    """

    def __init__(self, shard_dir: str | Path, seq: int):
        self.dat_path, self.meta_path = segment_paths(shard_dir, seq)
        self.seq = seq
        _, meta = read_checked(self.meta_path, _META_MAGIC,
                               "store segment meta", legacy=_v1_meta)
        self.n_rows: int = meta["n_rows"]
        self.n_sensors: int = meta["n_sensors"]
        self.crc32: int = meta["crc32"]
        self.trials: dict[tuple[int, int], TrialSlice] = meta["trials"]
        self._mmap: np.memmap | None = None

    @property
    def data(self) -> np.ndarray:
        """The whole segment as a read-only ``(n_rows, n_sensors)`` memmap."""
        if self._mmap is None:
            self._mmap = np.memmap(
                self.dat_path,
                dtype=np.float32,
                mode="r",
                shape=(self.n_rows, self.n_sensors),
            )
        return self._mmap

    def series(self, key: tuple[int, int]) -> np.ndarray:
        """Zero-copy view of one trial's rows (oldest first)."""
        t = self.trials[key]
        return self.data[t.row_start : t.row_start + t.n_rows]

    def verify(self) -> bool:
        """CRC32-check the data bytes against the sealed header."""
        return checksum(self.dat_path.read_bytes()) == self.crc32

    def close(self) -> None:
        """Release the memory map (views become invalid)."""
        self._mmap = None
