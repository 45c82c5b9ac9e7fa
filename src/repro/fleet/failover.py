"""Session recovery: rebuild a dead worker's state from stored history.

When a worker dies, three kinds of per-job state die with it: buffered
ingress chunks, sliding-window ring contents, and the majority-vote
deque.  None of it needs replication — the telemetry itself is durable
(in :class:`~repro.store.TelemetryStore`, or re-derivable from the
deterministic load generator), and window classification is a pure
function of it.  So failover is *replay*: slice the job's first
``delivered`` rows back out of history (a zero-copy memmap view when the
source is the store), push them through a fresh session on the new
owner, re-predict every due window, and re-emit only the predictions the
dead worker never got out.

The parity claim (pinned by the fleet tests): the union of
emissions before the crash and after recovery is bit-identical, per job,
to an unfailed twin — same ``sample_index``, ``label``,
``smoothed_label``, and ``confidence`` for every window.

One honest limitation: replay trusts the router's delivered-row count,
so a job that had chunks *shed* under overload on the dead worker is
rebuilt with more history than its session ever saw.  Telemetry loss
breaks bit-parity by definition; the bench's parity scenarios therefore
run below saturation and assert zero sheds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.server import Emission

__all__ = ["FailoverEvent", "SessionRebuilder", "store_history"]


@dataclass(frozen=True)
class FailoverEvent:
    """One entry of the router's failover/scale timeline."""

    at_s: float                 # shared-clock time of the event
    kind: str                   # "failover" | "scale-up" | "scale-down"
    worker_id: str              # the worker that died / joined / left
    n_jobs: int                 # sessions moved by this event
    n_recovered: int            # emissions re-produced by history replay


class SessionRebuilder:
    """Replays per-job history into fresh sessions on surviving workers.

    Parameters
    ----------
    history:
        ``history(job_id) -> (n_rows, n_sensors)`` array of the job's
        *full* stream so far, in delivery order; the rebuilder slices the
        delivered prefix.  Typical providers: ``gen.job_stream`` (the
        deterministic load generator) or :func:`store_history` over a
        telemetry store.  ``None`` disables replay — failover still
        reroutes jobs, but their sessions restart cold (window refills
        before the next emission).
    """

    def __init__(self, history=None):
        self.history = history

    @property
    def can_rebuild(self) -> bool:
        """Whether history replay is available (vs. cold restarts)."""
        return self.history is not None

    def rebuild(
        self,
        job_id,
        delivered_rows: int,
        worker,
        *,
        emit_after_index: int = -1,
        trace=None,
    ) -> list[Emission]:
        """Adopt ``job_id`` onto ``worker``; returns recovered emissions.

        ``delivered_rows`` is the router's count of rows ever routed for
        the job; ``emit_after_index`` the last ``sample_index`` the fleet
        actually emitted — everything past it was lost in flight and is
        re-emitted by the rebuild.  ``trace`` (a trace context or None)
        is propagated into the adopting worker so the replay records a
        span in the original request's trace; it is only forwarded when
        set, so trace-unaware worker stand-ins keep working.
        """
        if self.history is None or delivered_rows <= 0:
            worker.end_session(job_id)   # at least drop any stale state
            return []
        rows = np.asarray(self.history(job_id))[:delivered_rows]
        if rows.shape[0] < delivered_rows:
            raise ValueError(
                f"history for job {job_id!r} has {rows.shape[0]} rows, "
                f"router delivered {delivered_rows}"
            )
        if trace is None:
            return worker.rebuild_session(
                job_id, rows, emit_after_index=emit_after_index
            )
        return worker.rebuild_session(
            job_id, rows, emit_after_index=emit_after_index, trace=trace
        )


def store_history(store, *, gpu_index: int = 0):
    """A :class:`SessionRebuilder` history provider over a telemetry store.

    Maps ``job_id`` straight to ``store.series(job_id, gpu_index)`` — a
    zero-copy float32 memmap view, so rebuilding even a long session
    costs one window's worth of copying, not a trace's.  Use when fleet
    job ids are store job ids (live ingest); replay-driven fleets pass
    ``gen.job_stream`` instead, which already resolves the generator's
    job→series assignment.
    """
    def history(job_id):
        return store.series(int(job_id), gpu_index)

    return history
