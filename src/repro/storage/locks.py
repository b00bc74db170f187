"""Lock manager: shared/exclusive locks with deadlock detection.

ESM gives MOOD "controlling data access and concurrency"; the MOOD kernel
additionally locks a class's shared object while the Function Manager
rewrites it (Section 2).  This lock manager serves both: S/X locks on
arbitrary hashable resources (file ids, class names, shared-object names),
strict two-phase usage by the transaction manager, blocking waits under a
condition variable, and wait-for-graph cycle detection that raises
:class:`DeadlockError` in the requester rather than blocking forever.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Hashable

from repro.core.errors import (
    DeadlockError,
    LockCancelledError,
    LockError,
    LockTimeoutError,
)
from repro.obs.events import EventJournal
from repro.obs.metrics import ComponentMetrics, MetricsRegistry

#: Blocking waits at least this long (ms) are journaled as ``lock.wait``.
SLOW_WAIT_MS = 50.0


class LockMode(Enum):
    S = "S"
    X = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.S and requested is LockMode.S


@dataclass
class _ResourceLocks:
    granted: dict[Any, LockMode] = field(default_factory=dict)  # owner -> mode
    waiting: list[tuple[Any, LockMode]] = field(default_factory=list)


class LockManager:
    """S/X lock table with wait-for-graph deadlock detection."""

    def __init__(self, timeout: float = 10.0,
                 metrics: ComponentMetrics | None = None,
                 events: EventJournal | None = None):
        self.timeout = timeout
        #: ``locks.*`` counters plus the ``locks.wait_ms`` histogram of
        #: blocking-wait durations (a private registry when built alone).
        self.metrics = metrics or MetricsRegistry().component("locks")
        self._acquisitions = self.metrics.counter("acquisitions")
        self._waits = self.metrics.counter("waits")
        self._deadlocks = self.metrics.counter("deadlocks")
        self._timeouts = self.metrics.counter("timeouts")
        self._releases = self.metrics.counter("releases")
        self._cancels = self.metrics.counter("cancels")
        self._wait_ms = self.metrics.histogram("wait_ms")
        #: Deadlocks and slow or failed waits are journaled here.
        self._events = EventJournal() if events is None else events
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._table: dict[Hashable, _ResourceLocks] = {}
        # owner -> set of resources (for release_all)
        self._held: dict[Any, set[Hashable]] = {}
        # owners whose in-flight waits were cancelled externally; the
        # parked thread consumes (and clears) its own flag on wake-up.
        self._cancelled: set[Any] = set()

    def _note_wait_end(
        self, owner: Any, resource: Hashable, mode: LockMode,
        started: float, outcome: str,
    ) -> None:
        """Account one finished blocking wait: histogram always, journal
        when it was slow or ended badly."""
        waited_ms = (time.monotonic() - started) * 1e3
        self._wait_ms.observe(waited_ms)
        if outcome != "granted" or waited_ms >= SLOW_WAIT_MS:
            self._events.emit(
                "lock.wait",
                owner=owner, resource=repr(resource), mode=mode.value,
                waited_ms=round(waited_ms, 3), outcome=outcome,
            )

    # -- acquisition ------------------------------------------------------

    def acquire(
        self,
        owner: Any,
        resource: Hashable,
        mode: LockMode,
        timeout: float | None = None,
    ) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``owner``.

        Re-acquiring a held mode is a no-op; S->X upgrades succeed when the
        owner is the only holder.  Raises :class:`DeadlockError` when the
        wait would close a cycle, :class:`LockTimeoutError` on timeout.
        """
        deadline_timeout = self.timeout if timeout is None else timeout
        with self._condition:
            self._cancelled.discard(owner)  # stale flag from a past abort
            entry = self._table.setdefault(resource, _ResourceLocks())
            if self._try_grant(entry, owner, resource, mode):
                self._acquisitions.inc()
                return
            if deadline_timeout == 0:
                # No-wait probe (the server uses this while holding the
                # engine latch, where parking would stall every session).
                self._timeouts.inc()
                self._drop_empty(resource)
                raise LockTimeoutError(
                    f"{mode.value} on {resource!r} is not available "
                    "(no-wait)"
                )
            entry.waiting.append((owner, mode))
            self._waits.inc()
            wait_started = time.monotonic()
            try:
                if self._would_deadlock(owner):
                    self._deadlocks.inc()
                    self._events.emit(
                        "lock.deadlock",
                        victim=owner, resource=repr(resource),
                        mode=mode.value,
                        winners=sorted(
                            (repr(o) for o in entry.granted if o != owner),
                        ),
                    )
                    raise DeadlockError(
                        f"lock {mode.value} on {resource!r} by {owner!r} "
                        "would deadlock"
                    )
                granted = self._condition.wait_for(
                    lambda: owner in self._cancelled
                    or self._try_grant(entry, owner, resource, mode),
                    timeout=deadline_timeout,
                )
                if owner in self._cancelled:
                    self._cancelled.discard(owner)
                    self._cancels.inc()
                    self._note_wait_end(owner, resource, mode,
                                        wait_started, "cancelled")
                    raise LockCancelledError(
                        f"wait for {mode.value} on {resource!r} by "
                        f"{owner!r} was cancelled"
                    )
                if not granted:
                    self._timeouts.inc()
                    self._note_wait_end(owner, resource, mode,
                                        wait_started, "timeout")
                    raise LockTimeoutError(
                        f"timed out waiting for {mode.value} on {resource!r}"
                    )
                self._acquisitions.inc()
                self._note_wait_end(owner, resource, mode,
                                    wait_started, "granted")
            finally:
                if (owner, mode) in entry.waiting:
                    entry.waiting.remove((owner, mode))
                self._drop_empty(resource)

    def _drop_empty(self, resource: Hashable) -> None:
        entry = self._table.get(resource)
        if entry is not None and not entry.granted and not entry.waiting:
            del self._table[resource]

    def _try_grant(
        self, entry: _ResourceLocks, owner: Any, resource: Hashable, mode: LockMode
    ) -> bool:
        held = entry.granted.get(owner)
        if held is LockMode.X or held is mode:
            return True  # already held (idempotent)
        others = {o: m for o, m in entry.granted.items() if o != owner}
        if held is LockMode.S and mode is LockMode.X:
            # Upgrade: granted the moment the owner is the sole holder.
            # Upgrades jump the wait queue -- parking an upgrader behind
            # queued S requests that can never be granted past its own S
            # would deadlock the queue itself.
            grantable = not others
        elif mode is LockMode.S:
            # Fair (FIFO) grant: requests queued ahead count as if they
            # were already granted, so a steady stream of readers cannot
            # starve a waiting writer indefinitely.
            ahead = self._queued_ahead(entry, owner)
            grantable = (
                all(_compatible(m, mode) for m in others.values())
                and all(m is LockMode.S for m in ahead)
            )
        else:
            grantable = not others and not self._queued_ahead(entry, owner)
        if grantable:
            entry.granted[owner] = mode
            self._held.setdefault(owner, set()).add(resource)
            return True
        return False

    @staticmethod
    def _queued_ahead(entry: _ResourceLocks, owner: Any) -> list[LockMode]:
        """Modes of requests queued ahead of ``owner`` (all of them when
        ``owner`` has not queued yet)."""
        ahead: list[LockMode] = []
        for waiter, waiter_mode in entry.waiting:
            if waiter == owner:
                break
            ahead.append(waiter_mode)
        return ahead

    # -- deadlock detection ---------------------------------------------------

    def _wait_for_edges(self) -> dict[Any, set[Any]]:
        edges: dict[Any, set[Any]] = {}
        for entry in self._table.values():
            for position, (waiter, mode) in enumerate(entry.waiting):
                blockers = {
                    holder
                    for holder, held in entry.granted.items()
                    if holder != waiter and not _compatible(held, mode)
                }
                # Fair queueing also makes a waiter wait for incompatible
                # requests queued ahead of it.
                for earlier, earlier_mode in entry.waiting[:position]:
                    if earlier != waiter and not (
                        earlier_mode is LockMode.S and mode is LockMode.S
                    ):
                        blockers.add(earlier)
                if blockers:
                    edges.setdefault(waiter, set()).update(blockers)
        return edges

    def _would_deadlock(self, start: Any) -> bool:
        edges = self._wait_for_edges()
        seen: set[Any] = set()
        stack = list(edges.get(start, ()))
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False

    # -- release --------------------------------------------------------------

    def release(self, owner: Any, resource: Hashable) -> None:
        with self._condition:
            entry = self._table.get(resource)
            if entry is None or owner not in entry.granted:
                raise LockError(f"{owner!r} holds no lock on {resource!r}")
            del entry.granted[owner]
            self._held.get(owner, set()).discard(resource)
            self._releases.inc()
            if not entry.granted and not entry.waiting:
                del self._table[resource]
            self._condition.notify_all()

    def release_all(self, owner: Any) -> None:
        """Release every lock ``owner`` holds *and* retract any waits it
        has queued.

        The retraction matters when the owner is aborted externally (a
        timeout watchdog, the server's shutdown path): its thread may be
        parked inside :meth:`acquire`, and without cleanup the stale
        ``waiting`` entries would keep contributing wait-for edges --
        phantom edges that make *other* transactions' cycle checks report
        deadlocks that do not exist.  A parked waiter whose entry was
        retracted wakes up and raises :class:`LockCancelledError`.
        """
        with self._condition:
            for resource in list(self._held.get(owner, ())):
                entry = self._table.get(resource)
                if entry and owner in entry.granted:
                    del entry.granted[owner]
                    self._releases.inc()
                    self._drop_empty(resource)
            self._held.pop(owner, None)
            self._retract_waits(owner)
            self._condition.notify_all()

    def cancel_waits(self, owner: Any) -> None:
        """Retract ``owner``'s queued waits without touching held locks.

        Used on external abort paths before the owner's thread has been
        unwound; the parked thread wakes and raises
        :class:`LockCancelledError`.
        """
        with self._condition:
            if self._retract_waits(owner):
                self._condition.notify_all()

    def _retract_waits(self, owner: Any) -> bool:
        """Drop owner's waiting entries everywhere; flag it cancelled if
        any existed.  Caller holds the condition lock."""
        retracted = False
        for resource, entry in list(self._table.items()):
            before = len(entry.waiting)
            entry.waiting = [(o, m) for (o, m) in entry.waiting if o != owner]
            retracted = retracted or len(entry.waiting) != before
            self._drop_empty(resource)
        if retracted:
            self._cancelled.add(owner)
        return retracted

    # -- introspection --------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[Any, LockMode]:
        with self._lock:
            entry = self._table.get(resource)
            return dict(entry.granted) if entry else {}

    def held_by(self, owner: Any) -> set[Hashable]:
        with self._lock:
            return set(self._held.get(owner, ()))

    def mode_held(self, owner: Any, resource: Hashable) -> LockMode | None:
        """The mode ``owner`` currently holds on ``resource`` (or None)."""
        with self._lock:
            entry = self._table.get(resource)
            return entry.granted.get(owner) if entry else None

    def waiter_count(self) -> int:
        """Number of queued waits across all resources (introspection)."""
        with self._lock:
            return sum(len(entry.waiting) for entry in self._table.values())

    def dump(self) -> list[dict]:
        """The live lock table as flat rows (the SYS$LOCKS view): every
        grant (``granted=True, queue_position=-1``) and every queued wait
        in FIFO order."""
        with self._lock:
            rows: list[dict] = []
            for resource in sorted(self._table, key=repr):
                entry = self._table[resource]
                for owner in sorted(entry.granted, key=repr):
                    rows.append({
                        "resource": repr(resource),
                        "txn_id": owner if isinstance(owner, int) else -1,
                        "mode": entry.granted[owner].value,
                        "granted": True,
                        "queue_position": -1,
                    })
                for position, (owner, mode) in enumerate(entry.waiting):
                    rows.append({
                        "resource": repr(resource),
                        "txn_id": owner if isinstance(owner, int) else -1,
                        "mode": mode.value,
                        "granted": False,
                        "queue_position": position,
                    })
            return rows
