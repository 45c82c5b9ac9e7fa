"""Bounded in-memory span store with optional WAL-backed persistence.

The sink is the single collection point for completed spans.  In-process
components (load generator, router, in-process workers) share one sink;
a :class:`~repro.fleet.worker.SubprocessWorker` child buffers into its
own private sink and :meth:`drain`\\ s it into every pipe response, so
child spans merge into the parent's sink with at most one message of
latency — and are simply lost when the child is SIGKILLed, exactly like
any other unacknowledged state (the parent marks the affected route span
failed instead; see ``tests/test_fleet_crash.py``).

Memory is bounded: beyond ``capacity`` the oldest spans are evicted and
counted in :attr:`dropped` — tracing must never be the component that
OOMs the fleet it observes.

Persistence is a :class:`repro.utils.persist.FramedLog` — the same
framed append log as the telemetry store's WAL, with its own magic
(``RTS1``) and one frame per flushed batch — so the span log has the
same torn-tail recovery rule: a crash mid-flush (the ``trace.sink.flush``
fault point) leaves a torn frame that :func:`load_spans` ignores, the
next flush trims it first, and earlier flushes stay intact.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.trace.span import Span
from repro.utils.persist import FramedLog, read_frames

__all__ = ["TraceSink", "load_spans"]

_SPAN_MAGIC = b"RTS1"
_WAL_NAME = "spans.wal"

# Span (de)serialization as plain tuples: keeps the on-disk format
# independent of dataclass internals and cheap to pickle in batches.
_FIELDS = (
    "trace_id", "span_id", "parent_id", "name", "worker_id",
    "start_s", "end_s", "wall_s", "status", "annotations",
)


def _encode_batch(spans: list[Span]) -> list[bytes]:
    """One frame payload per flush: every staged span as a tuple row."""
    rows = [tuple(getattr(s, f) for f in _FIELDS) for s in spans]
    return [pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)]


def _decode_batch(payload: bytes) -> list[Span]:
    return [Span(**dict(zip(_FIELDS, row))) for row in pickle.loads(payload)]


def load_spans(wal_dir: str | Path) -> list[Span]:
    """Read every intact flushed span from a sink's WAL directory.

    Stops at the first torn or corrupt frame (crash-mid-flush leftovers);
    everything before it was durably flushed.  Returns ``[]`` when the
    directory or log does not exist.
    """
    batches, _ = read_frames(Path(wal_dir) / _WAL_NAME, _SPAN_MAGIC,
                             _decode_batch)
    return [span for batch in batches for span in batch]


class TraceSink:
    """Collects completed spans; bounded in memory, optionally WAL-backed.

    Parameters
    ----------
    capacity:
        Maximum spans held in memory; beyond it the oldest are evicted
        (counted in :attr:`dropped`).
    wal_dir:
        When set, spans are also staged for durable flushing into
        ``<wal_dir>/spans.wal``; ``None`` keeps the sink memory-only.
    flush_every:
        Auto-flush threshold: once this many spans are staged, the next
        :meth:`append` triggers a :meth:`flush`.
    fsync:
        Whether flushes fsync (benches turn it off; crash tests leave it
        on).
    """

    def __init__(self, *, capacity: int = 65536,
                 wal_dir: str | Path | None = None,
                 flush_every: int = 256, fsync: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        self.flush_every = int(flush_every)
        self.fsync = bool(fsync)
        self.dropped = 0
        self._spans: list[Span] = []
        self._log = None if self.wal_dir is None else FramedLog(
            self.wal_dir / _WAL_NAME, magic=_SPAN_MAGIC, encode=_encode_batch,
            decode=_decode_batch, fault="trace.sink.flush",
        )

    def __len__(self) -> int:
        return len(self._spans)

    def append(self, span: Span) -> None:
        """Record one completed span (evicting the oldest at capacity)."""
        self._spans.append(span)
        if len(self._spans) > self.capacity:
            # Evict in one slice, not per-append: list.pop(0) is O(n).
            excess = len(self._spans) - self.capacity
            del self._spans[:excess]
            self.dropped += excess
        if self._log is not None:
            self._log.stage(span)
            if self._log.n_staged >= self.flush_every:
                self.flush()

    def extend(self, spans) -> None:
        """Merge spans recorded elsewhere (e.g. shipped over a worker pipe)."""
        for span in spans:
            self.append(span)

    def spans(self) -> list[Span]:
        """The retained spans, oldest first (a copy)."""
        return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return every retained span (subprocess shipping)."""
        out, self._spans = self._spans, []
        return out

    @property
    def n_staged(self) -> int:
        """Spans staged for the WAL but not yet flushed."""
        return self._log.n_staged if self._log is not None else 0

    def flush(self) -> int:
        """Write staged spans to the WAL as one frame; returns spans flushed.

        A crash mid-write (``trace.sink.flush``) leaves a torn tail that
        recovery ignores; the batch stays staged so a retry re-writes it
        whole, after re-trimming the tear.
        """
        if self._log is None:
            return 0
        return len(self._log.commit(fsync=self.fsync))
