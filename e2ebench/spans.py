"""Layer spans recorded from the benchmark's side of each public call.

The program under test carries no tracing of its own here: every span is
opened by a wrapper that this module installs around a public method of
a layer (``FleetRouter.submit``, ``StreamSession.push``, ...) for the
duration of a traced pass, or by a ``with tracer.span(name)`` block
around a call the benchmark makes itself.  Untraced passes run the
original methods; nothing stays patched after
:meth:`LayerTracer.installed` exits.

A layer's self time is its span time minus the time of the spans opened
beneath it, so the self times of all layers plus ``unattributed`` add up
to the traced wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

__all__ = ["LayerTracer", "patched"]


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = make(original)`` for each entry while the block runs.

    ``replacements`` holds ``(owner, attr, make)`` entries; ``attr`` must
    be defined on ``owner`` itself.  The originals are restored on exit.
    """
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    for (owner, attr, make), (_, _, original) in zip(replacements, saved):
        setattr(owner, attr, make(original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTracer:
    """Self-time and count accumulator with a span stack.

    ``self_s[name]`` is the total self time of spans named ``name``;
    ``counts[name]`` holds the counters the wrappers record;
    ``covered_s`` is the total duration of top-level spans, so
    ``wall - covered_s`` is the time no layer span covers.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered_s = 0.0
        self._stack: list[list] = []          # [name, start, child_s]

    # -- recording -----------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span of layer ``name``."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counts[name] += int(n)

    # -- wrappers around public methods ---------------------------------
    def _wrapper(self, name: str, counter):
        def make(original):
            def traced(*args, **kwargs):
                frame = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(frame)
                if counter is not None:
                    counter(self, args, result)
                return result
            return traced
        return make

    def installed(self, layers):
        """Record calls of each layer method while the block runs.

        ``layers`` holds ``(owner, attr, name, counter)`` entries: every
        call of ``owner.attr`` becomes a span of layer ``name``, and
        ``counter(tracer, args, result)`` (or None) records counts from
        the call.  The original methods are back when the block exits.
        """
        return patched([(owner, attr, self._wrapper(name, counter))
                        for owner, attr, name, counter in layers])

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> tuple[dict, dict, float]:
        """``(self_s, counts, covered_s)`` copies of the current totals."""
        return dict(self.self_s), dict(self.counts), self.covered_s

    def reset(self) -> None:
        """Zero every total."""
        self.self_s.clear()
        self.counts.clear()
        self.covered_s = 0.0
