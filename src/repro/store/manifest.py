"""The store's manifest: the single atomic commit point for sealed data.

The manifest records, per shard, which segment files are live and the
next segment sequence number.  It is the *only* authority readers
consult: a segment file on disk that the manifest does not reference is
invisible (a crash artifact, garbage-collected later), so sealing rows
is atomic — either the atomic replace of the manifest lands (all new
segments visible at once) or it doesn't (the WAL still holds every
committed row).  On disk it is a checked envelope
(:func:`repro.utils.persist.write_checked`), so damage is detected.

The ``store.manifest.swap`` fault point fires after segments are durable
but before the manifest replace, pinning exactly that window in the
crash tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.faults import fault_point
from repro.utils.persist import read_checked, write_checked

__all__ = ["Manifest", "MANIFEST_NAME"]

MANIFEST_NAME = "MANIFEST"
_MAGIC = "repro-store-manifest-v1"


@dataclass
class Manifest:
    """Live-segment catalog for one store; persisted atomically."""

    n_shards: int
    n_sensors: int | None = None        # fixed by the first append
    version: int = 0                    # bumped on every swap
    segments: dict[int, list[int]] = field(default_factory=dict)
    next_seq: dict[int, int] = field(default_factory=dict)

    def shard_segments(self, shard: int) -> list[int]:
        """Sequence numbers of the live segments of ``shard``, in order."""
        return list(self.segments.get(shard, []))

    def allocate_seq(self, shard: int) -> int:
        """Reserve the next segment sequence number for ``shard``."""
        seq = self.next_seq.get(shard, 1)
        self.next_seq[shard] = seq + 1
        return seq

    def add_segment(self, shard: int, seq: int) -> None:
        """Reference a freshly sealed segment (visible after save)."""
        self.segments.setdefault(shard, []).append(seq)

    def replace_segment(self, shard: int, old_seq: int, new_seq: int) -> None:
        """Swap a compacted segment for its downsampled replacement."""
        seqs = self.segments.get(shard, [])
        seqs[seqs.index(old_seq)] = new_seq

    # ------------------------------------------------------------------
    def save(self, root: str | Path, *, fsync: bool = True) -> Path:
        """Atomically persist this manifest (the store's commit point)."""
        self.version += 1
        state = {
            "n_shards": self.n_shards,
            "n_sensors": self.n_sensors,
            "version": self.version,
            "segments": self.segments,
            "next_seq": self.next_seq,
        }
        fault_point("store.manifest.swap")
        return write_checked(Path(root) / MANIFEST_NAME, _MAGIC, state,
                             fsync=fsync)

    @classmethod
    def load(cls, root: str | Path) -> "Manifest | None":
        """Load the manifest, or ``None`` when the store has never sealed.

        Raises ``ValueError`` naming the file when it is damaged —
        impossible through the atomic write path, so it indicates
        disk-level damage.
        """
        path = Path(root) / MANIFEST_NAME
        if not path.is_file():
            return None
        _, state = read_checked(path, _MAGIC, "store manifest")
        return cls(**state)
