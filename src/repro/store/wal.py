"""Per-shard write-ahead log with group commit.

The WAL is the durability layer for freshly appended telemetry: records
are framed, CRC-protected, and appended to one log file per shard.  A
*group commit* (:meth:`WriteAheadLog.commit`) writes every staged record
and fsyncs the file once, so a batch of appends costs one disk flush.

The log is a :class:`repro.utils.persist.FramedLog` with frame magic
``RWL1``: one frame per record, whose payload is the pickled record
header plus the raw float32 series bytes.  Recovery reads records in
order and stops at the first frame that is truncated, mis-magic'd, or
fails its CRC — everything before that point was durably committed and
is served; everything after never committed (a SIGKILL mid-append leaves
exactly such a torn tail; see the ``store.wal.append`` fault point).
The torn tail is trimmed the next time the log is opened for writing,
never on read.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.persist import FramedLog, frame_payload, read_frames

__all__ = ["WalRecord", "WriteAheadLog", "read_wal"]

_MAGIC = b"RWL1"


@dataclass(frozen=True)
class WalRecord:
    """One committed telemetry append: a whole trial's series plus label.

    ``series`` is float32 C-order ``(n_rows, n_sensors)``; the pair
    ``(job_id, gpu_index)`` is the trial key, unique per store.
    """

    job_id: int
    gpu_index: int
    label: int
    model_name: str
    series: np.ndarray

    def payload(self) -> bytes:
        """The record's frame payload: pickled header plus series bytes."""
        series = np.ascontiguousarray(self.series, dtype=np.float32)
        return pickle.dumps(
            {
                "job_id": int(self.job_id),
                "gpu_index": int(self.gpu_index),
                "label": int(self.label),
                "model_name": str(self.model_name),
                "shape": series.shape,
                "data": series.tobytes(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def encode(self) -> bytes:
        """Frame this record (magic + length + payload + crc)."""
        return frame_payload(self.payload(), _MAGIC)

    @property
    def key(self) -> tuple[int, int]:
        """The trial key ``(job_id, gpu_index)``."""
        return (self.job_id, self.gpu_index)


def _encode(records: list[WalRecord]):
    return (record.payload() for record in records)


def _decode(payload) -> WalRecord:
    head = pickle.loads(payload)
    series = np.frombuffer(head["data"], dtype=np.float32).reshape(head["shape"])
    return WalRecord(
        job_id=head["job_id"],
        gpu_index=head["gpu_index"],
        label=head["label"],
        model_name=head["model_name"],
        series=series,
    )


def read_wal(path: str | Path) -> tuple[list[WalRecord], int]:
    """Read every intact record of a WAL file.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first torn/corrupt frame (== file size when the log is
    clean).  Never modifies the file.
    """
    return read_frames(path, _MAGIC, _decode)


class WriteAheadLog(FramedLog):
    """Append-only log for one shard, with staged records and group commit.

    :meth:`stage`, :meth:`commit` (fsync once per call), :meth:`truncate`
    and ``n_staged`` come from :class:`~repro.utils.persist.FramedLog`.
    """

    def __init__(self, path: str | Path):
        super().__init__(
            path, magic=_MAGIC, encode=_encode, decode=_decode,
            fault="store.wal.append",
        )

    def records(self) -> list[WalRecord]:
        """Every intact committed record currently in the log."""
        records, _ = self.read()
        return records
