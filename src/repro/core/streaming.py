"""Online classification of live workloads.

The paper's deployment vision (Section VI): models that "classify snapshots
of data from live workloads running in-progress".  This module wraps any
fitted window classifier into a streaming consumer: telemetry samples
arrive incrementally, a sliding 60-second buffer re-classifies on a
configurable hop, and predictions are smoothed over time (majority vote
with confidence), exactly how an operator-facing service would run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamPrediction", "OnlineWorkloadClassifier"]


@dataclass(frozen=True)
class StreamPrediction:
    """One emission of the online classifier."""

    sample_index: int          # stream position at emission time
    label: int                 # current window's predicted class
    smoothed_label: int        # majority vote over the vote window
    confidence: float          # fraction of recent votes agreeing


@dataclass
class OnlineWorkloadClassifier:
    """Sliding-window streaming wrapper around a fitted window model.

    A single-session front for the serving path: each :meth:`push` feeds
    a :class:`~repro.serve.session.StreamSession`, classifies every
    window it cuts with ``model.predict`` and folds the label back with
    ``session.complete`` — the window/hop/vote semantics are the
    session's, so a one-stream deployment and the multi-tenant server
    emit identically.  Windows reach the model as contiguous float32
    ``(1, window, sensors)`` arrays, the dtype of the challenge ``X``
    and of the serving path.

    Parameters
    ----------
    model:
        Fitted estimator with ``predict`` on ``(n, window, sensors)``
        tensors (any pipeline from :mod:`repro.models` qualifies).
    window:
        Samples per classification window (540 for the challenge models).
    hop:
        Re-classify every ``hop`` new samples once the buffer is full.
    vote_window:
        Number of recent window predictions pooled by the majority vote.
    monitor:
        Optional per-sample tap with an ``update(row)`` method (e.g. a
        :class:`~repro.monitor.drift.SensorDriftDetector`): every pushed
        row is forwarded to it, so single-stream deployments get drift
        detection without a second consumer of the telemetry.
    """

    model: object
    window: int = 540
    hop: int = 90
    vote_window: int = 5
    monitor: object = None
    _session: object = field(default=None, repr=False)

    def __post_init__(self):
        from repro.serve.session import StreamSession  # serve imports this module

        self._session = StreamSession(None, window=self.window, hop=self.hop,
                                      vote_window=self.vote_window)
        if not hasattr(self.model, "predict"):
            raise TypeError("model must expose predict()")
        if self.monitor is not None and not hasattr(self.monitor, "update"):
            raise TypeError("monitor must expose update(row)")

    # ------------------------------------------------------------------
    def push(self, samples: np.ndarray) -> list[StreamPrediction]:
        """Feed new telemetry samples; returns any predictions emitted.

        ``samples`` is ``(k, n_sensors)`` — one or more new rows of the
        live series, in time order.  Emissions do not depend on how the
        stream is split into pushes.
        """
        samples = np.atleast_2d(samples)
        requests = self._session.push(samples)
        if self.monitor is not None:
            for row in np.asarray(samples, dtype=np.float64):
                self.monitor.update(row)
        return [
            self._session.complete(
                req, int(np.asarray(self.model.predict(req.window[None]))[0]))
            for req in requests
        ]

    def reset(self) -> None:
        """Clear buffered samples and votes (e.g. when a new job starts)."""
        self._session.reset()

    @property
    def ready(self) -> bool:
        """Whether a full window has been buffered."""
        return self._session.ready
