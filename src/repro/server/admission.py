"""Admission control: a bounded statement gate in front of the kernel.

The paper's MOOD kernel serves multiple interface processes from one
server; a reproduction that accepts unbounded concurrent statements would
let a burst of clients convoy on the engine latch and time each other out.
The controller caps the number of statements *inside* the engine at
``max_active`` and parks at most ``max_queue`` more on a condition
variable.  Anything beyond that is refused immediately with
``SERVER_BUSY`` -- a retryable error, so a well-behaved client backs off
and the queue never grows without bound (load shedding, not load hiding).

Metrics land in the shared registry under ``server.admission.*``:
admitted / rejected / timeouts counters and a ``queue_wait_ms`` histogram.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import ServerBusyError
from repro.obs.events import EventJournal
from repro.obs.metrics import ComponentMetrics, MetricsRegistry


class AdmissionController:
    """Counting gate: ``max_active`` statements in, ``max_queue`` waiting."""

    def __init__(
        self,
        max_active: int,
        max_queue: int,
        metrics: ComponentMetrics | None = None,
        events: EventJournal | None = None,
    ):
        if max_active < 1:
            raise ValueError("admission control needs max_active >= 1")
        if max_queue < 0:
            raise ValueError("admission control needs max_queue >= 0")
        self.max_active = max_active
        self.max_queue = max_queue
        self._events = EventJournal() if events is None else events
        self._mutex = threading.Lock()
        self._slot_freed = threading.Condition(self._mutex)
        self._active = 0
        self._queued = 0
        metrics = metrics or MetricsRegistry().component("server.admission")
        self._admitted = metrics.counter("admitted")
        self._rejected = metrics.counter("rejected")
        self._timeouts = metrics.counter("timeouts")
        self._queue_wait_ms = metrics.histogram("queue_wait_ms")

    # -- gate ----------------------------------------------------------------

    def __enter__(self):
        self.admit()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def admit(self, timeout: float | None = None) -> float:
        """Take a statement slot, queueing up to ``timeout`` seconds.

        Returns the milliseconds spent queued (0.0 on immediate entry) so
        the caller can attribute queue wait in the statement's trace.
        Raises :class:`ServerBusyError` (retryable) when the wait queue is
        already full or the queue wait exceeds the timeout.
        """
        started = time.monotonic()
        with self._mutex:
            if self._active < self.max_active:
                self._active += 1
                self._note_admitted(started)
                return 0.0
            if self._queued >= self.max_queue:
                self._rejected.inc()
                self._note_rejected("queue_full")
                raise ServerBusyError(
                    f"server at capacity ({self.max_active} active, "
                    f"{self._queued} queued)"
                )
            self._queued += 1
            try:
                deadline = None if timeout is None else started + timeout
                while self._active >= self.max_active:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self._timeouts.inc()
                        self._note_rejected("queue_timeout")
                        raise ServerBusyError(
                            f"queued {timeout:.1f}s without an execution "
                            "slot freeing up"
                        )
                    self._slot_freed.wait(remaining)
                self._active += 1
                self._note_admitted(started)
            finally:
                self._queued -= 1
            return (time.monotonic() - started) * 1e3

    def _note_rejected(self, reason: str) -> None:
        self._events.emit(
            "admission.rejected",
            reason=reason, active=self._active, queued=self._queued,
        )

    def release(self) -> None:
        """Return a slot; wakes one queued statement."""
        with self._mutex:
            self._active -= 1
            self._slot_freed.notify()

    def _note_admitted(self, started: float) -> None:
        self._admitted.inc()
        self._queue_wait_ms.observe((time.monotonic() - started) * 1e3)

    # -- introspection -------------------------------------------------------

    def active(self) -> int:
        with self._mutex:
            return self._active

    def queue_depth(self) -> int:
        with self._mutex:
            return self._queued
