"""Write-ahead log with physical page images.

ESM provides MOOD with "backup and recovery of data".  We reproduce it with
a physical write-ahead log: every page modified by a transaction is logged
with its full before- and after-image.  Combined with strict file-level
two-phase locking (no two uncommitted transactions ever write the same
page), redo-all restart recovery over page images is sound and
idempotent, and every undo -- run-time abort, 2PC rollback, restart
rollback of a loser -- is logged as compensation page images, so a
later restart redoes it too.

The log itself is durable by construction (it survives
:meth:`~repro.storage.disk.SimulatedDisk.crash`), mirroring a log kept on a
separate stable device; ``force`` counts the log pages it writes
(``wal.pages_written``).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from repro.obs.metrics import ComponentMetrics, MetricsRegistry
from repro.storage.disk import DiskParams


class LogKind(Enum):
    BEGIN = "BEGIN"
    UPDATE = "UPDATE"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    CHECKPOINT = "CHECKPOINT"
    #: Two-phase commit vote: the transaction is *in doubt* -- all its
    #: updates are on the log, its locks are held, and only its
    #: coordinator may decide commit or abort (presumed abort: a missing
    #: decision means abort).
    PREPARE = "PREPARE"
    #: Logical move marker: a record or its body left the source OID
    #: (``before``, packed) for the target OID (``after``, packed) --
    #: oversize growth moving a body off its home page, or a relocation
    #: re-identifying a record.  Carries no page image itself: redo/undo
    #: of the move is entirely the UPDATE records that follow it, so a
    #: crash between MOVE and its page images makes the transaction a
    #: loser and leaves exactly the original placement.
    MOVE = "MOVE"


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    kind: LogKind
    txn_id: int
    volume: int = 0
    page_no: int = 0
    before: bytes | None = None
    after: bytes | None = None
    #: PREPARE only: the global transaction id the coordinator minted.
    gid: str = ""
    #: PREPARE only: the ``(resource, LockMode)`` pairs held at prepare
    #: time, so restart recovery can re-acquire each in its own mode for
    #: the resurrected in-doubt txn.
    locks: tuple = ()

    def __str__(self) -> str:
        if self.kind is LogKind.UPDATE:
            return (
                f"<{self.lsn} {self.kind.value} txn={self.txn_id} "
                f"page={self.volume}.{self.page_no}>"
            )
        return f"<{self.lsn} {self.kind.value} txn={self.txn_id}>"


class WriteAheadLog:
    """Append-only log of :class:`LogRecord`, counted into ``wal.*``."""

    def __init__(self, params: DiskParams | None = None,
                 metrics: ComponentMetrics | None = None):
        self.params = params or DiskParams()
        # ``wal.*`` counters: appended records, fsync-equivalent forces,
        # log pages written (a private registry when built alone).
        metrics = metrics or MetricsRegistry().component("wal")
        self._records_appended = metrics.counter("records")
        self._forces = metrics.counter("forces")
        self._pages_written = metrics.counter("pages_written")
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        self._forced_lsn = 0
        self._checkpoint_lsn = 0
        self._unforced_bytes = 0
        # Serialises appends and forces: concurrent server sessions commit
        # through one shared log, and LSN allocation must stay gap-free.
        self._mutex = threading.RLock()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def forced_lsn(self) -> int:
        return self._forced_lsn

    @property
    def checkpoint_lsn(self) -> int:
        """LSN of the newest checkpoint record, or 0 when none exists."""
        return self._checkpoint_lsn

    def append(
        self,
        kind: LogKind,
        txn_id: int,
        volume: int = 0,
        page_no: int = 0,
        before: bytes | None = None,
        after: bytes | None = None,
        gid: str = "",
        locks: tuple = (),
    ) -> int:
        with self._mutex:
            record = LogRecord(
                self._next_lsn, kind, txn_id, volume, page_no, before, after,
                gid, locks,
            )
            self._records.append(record)
            self._next_lsn += 1
            if kind is LogKind.CHECKPOINT:
                self._checkpoint_lsn = record.lsn
            self._unforced_bytes += 32 + len(before or b"") + len(after or b"")
            self._records_appended.inc()
            return record.lsn

    def force(self) -> None:
        """Flush the log tail to stable storage (accounted sequentially)."""
        with self._mutex:
            if self._forced_lsn == self.last_lsn:
                return
            pages = max(1, -(-self._unforced_bytes // self.params.block_size))
            self._forces.inc()
            self._pages_written.inc(pages)
            self._forced_lsn = self.last_lsn
            self._unforced_bytes = 0

    def records(self, from_lsn: int = 1) -> Iterator[LogRecord]:
        with self._mutex:
            snapshot = self._records[max(from_lsn, 1) - 1:]
        yield from snapshot

    def record(self, lsn: int) -> LogRecord:
        """The record at ``lsn`` (LSNs are dense from 1): how an undo
        reaches a transaction's own images without scanning the log."""
        return self._records[lsn - 1]
