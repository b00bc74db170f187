"""Transactions: strict two-phase locking over the write-ahead log.

A transaction takes S locks on files it reads and X locks on files it
writes, holds them to commit/abort (strict 2PL), and logs page images for
every page it dirties.  Abort undoes the transaction's page updates in
reverse LSN order from the before-images, logging each restore; commit
forces the log first (write-ahead rule).  Restart recovery rolls its
losers back through the same abort.
"""

from __future__ import annotations

import threading
from enum import Enum

from repro.core.errors import TransactionError
from repro.storage.locks import LockManager, LockMode
from repro.storage.wal import LogKind, LogRecord, WriteAheadLog


class TxnState(Enum):
    ACTIVE = "active"
    #: Voted yes in a two-phase commit: updates logged and forced, locks
    #: held, outcome owned by the coordinator (in doubt).
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """Handle for one transaction; created by :class:`TransactionManager`."""

    def __init__(self, txn_id: int, manager: "TransactionManager"):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self._manager = manager
        self.update_lsns: list[int] = []
        #: Global transaction id once prepared under 2PC ("" otherwise).
        self.gid: str = ""
        #: Per-transaction lock-wait budget in seconds. ``None`` uses the
        #: lock manager's default; ``0`` turns waits into no-wait probes
        #: (the server sets this while holding its engine latch).
        self.lock_timeout: float | None = None
        # Guards the ACTIVE -> finishing transition: the server may abort
        # a session's transaction from another thread (timeout, shutdown)
        # while the owner is still running.
        self._state_mutex = threading.Lock()
        self._completing = False

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    # Context-manager protocol: commit on success, abort on error.
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is not TxnState.ACTIVE:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:
        return f"Transaction({self.txn_id}, {self.state.value})"


class TransactionManager:
    """Begins, commits and aborts transactions against a WAL and lock table."""

    def __init__(self, wal: WriteAheadLog, locks: LockManager, apply_page_image):
        """``apply_page_image(volume, page_no, image)`` force-writes a page."""
        self.wal = wal
        self.locks = locks
        self.apply_page_image = apply_page_image
        self._next_txn_id = 1
        self._id_mutex = threading.Lock()
        #: The storage latch: serialises physical page work (statement
        #: execution, abort undo, post-abort recounts) across threads.  The
        #: storage manager shares this object as its own latch and the
        #: server's engine latch, so the three can never interleave.  It is
        #: an RLock: a session committing while it already holds the
        #: engine latch must not self-deadlock.
        self.latch = threading.RLock()
        self.active: dict[int, Transaction] = {}
        #: Prepared (in-doubt) transactions by global transaction id: they
        #: voted yes in a 2PC and hold their locks until the coordinator
        #: decides.  Excluded from :meth:`abort_all_active` -- a shutdown
        #: or crash must not presume their outcome.
        self.in_doubt: dict[str, Transaction] = {}
        #: Optional hook called after an abort's undo, before lock release
        #: (the storage manager uses it to refresh derived per-file state).
        self.on_abort = None
        #: Additional abort callbacks ``fn(txn)``, run after ``on_abort``
        #: (the object manager registers its cache invalidation here).
        self.abort_listeners: list = []

    def begin(self) -> Transaction:
        with self._id_mutex:
            txn = Transaction(self._next_txn_id, self)
            self._next_txn_id += 1
            self.active[txn.txn_id] = txn
        self.wal.append(LogKind.BEGIN, txn.txn_id)
        return txn

    def lock_shared(self, txn: Transaction, resource) -> None:
        txn._require_active()
        self.locks.acquire(txn.txn_id, resource, LockMode.S,
                           timeout=txn.lock_timeout)

    def lock_exclusive(self, txn: Transaction, resource) -> None:
        txn._require_active()
        self.locks.acquire(txn.txn_id, resource, LockMode.X,
                           timeout=txn.lock_timeout)

    def log_page_update(
        self, txn: Transaction, volume: int, page_no: int,
        before: bytes, after: bytes,
    ) -> None:
        txn._require_active()
        lsn = self.wal.append(
            LogKind.UPDATE, txn.txn_id, volume, page_no, before, after
        )
        txn.update_lsns.append(lsn)

    def _claim_completion(self, txn: Transaction) -> None:
        """Atomically claim the right to finish ``txn`` (commit or abort);
        exactly one caller wins when two threads race."""
        with txn._state_mutex:
            txn._require_active()
            if txn._completing:
                raise TransactionError(
                    f"transaction {txn.txn_id} is already completing"
                )
            txn._completing = True

    def commit(self, txn: Transaction) -> None:
        self._claim_completion(txn)
        self.wal.append(LogKind.COMMIT, txn.txn_id)
        self.wal.force()  # write-ahead: log hits stable storage first
        txn.state = TxnState.COMMITTED
        self._finish(txn)

    def abort(self, txn: Transaction) -> None:
        self._claim_completion(txn)
        # If the owner's thread is parked in a lock wait (external abort),
        # retract its waits so it wakes -- and so its queued entries stop
        # contributing phantom wait-for edges.
        self.locks.cancel_waits(txn.txn_id)
        self._undo_and_finish(txn)

    def _undo_and_finish(self, txn: Transaction) -> None:
        # The one undo routine (run-time abort, 2PC rollback, and restart
        # rollback of a loser): restore the transaction's own page images
        # in reverse LSN order, reached by LSN rather than by scanning the
        # log, logging a compensation update ahead of each restore so that
        # a later restart's redo-all replays the undo as well (the classic
        # CLR idea, at page-image granularity).  The latch keeps the page
        # restores (and the recounts/invalidation the hooks below do) from
        # interleaving with a statement another session is executing.
        with self.latch:
            for lsn in reversed(txn.update_lsns):
                record = self.wal.record(lsn)
                self.wal.append(
                    LogKind.UPDATE,
                    txn.txn_id,
                    record.volume,
                    record.page_no,
                    before=record.after,
                    after=record.before,
                )
                self.apply_page_image(
                    record.volume, record.page_no, record.before
                )
            self.wal.append(LogKind.ABORT, txn.txn_id)
            self.wal.force()
            txn.state = TxnState.ABORTED
            if self.on_abort is not None:
                self.on_abort(txn)
            for listener in self.abort_listeners:
                listener(txn)
            self._finish(txn)

    def _finish(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        self.active.pop(txn.txn_id, None)

    def abort_all_active(self) -> None:
        for txn in list(self.active.values()):
            self.abort(txn)

    # -- two-phase commit (the participant side) ------------------------------

    def prepare(self, txn: Transaction, gid: str) -> None:
        """Phase-1 vote: force a PREPARE record (with the held locks and
        their modes, for restart resurrection) and park the transaction in the in-doubt
        table.  Its locks stay held; only :meth:`commit_prepared` or
        :meth:`rollback_prepared` may finish it."""
        if not gid:
            raise TransactionError("prepare needs a non-empty gid")
        with self._id_mutex:
            if gid in self.in_doubt:
                raise TransactionError(f"gid {gid!r} is already prepared")
        with txn._state_mutex:
            txn._require_active()
            if txn._completing:
                raise TransactionError(
                    f"transaction {txn.txn_id} is already completing"
                )
            held = tuple(sorted(
                (resource, self.locks.mode_held(txn.txn_id, resource))
                for resource in self.locks.held_by(txn.txn_id)
            ))
            self.wal.append(
                LogKind.PREPARE, txn.txn_id, gid=gid, locks=held
            )
            self.wal.force()  # the yes-vote must survive a crash
            txn.state = TxnState.PREPARED
            txn.gid = gid
        self.in_doubt[gid] = txn
        self.active.pop(txn.txn_id, None)

    def commit_prepared(self, gid: str) -> bool:
        """Phase-2 commit decision; idempotent (unknown gid -> False: the
        decision was already applied, or never prepared here)."""
        txn = self.in_doubt.pop(gid, None)
        if txn is None:
            return False
        self.wal.append(LogKind.COMMIT, txn.txn_id)
        self.wal.force()
        txn.state = TxnState.COMMITTED
        self.locks.release_all(txn.txn_id)
        return True

    def rollback_prepared(self, gid: str) -> bool:
        """Phase-2 abort decision (or presumed abort); idempotent."""
        txn = self.in_doubt.pop(gid, None)
        if txn is None:
            return False
        self._undo_and_finish(txn)
        return True

    def resurrect(
        self, txn_id: int, update_lsns, prepare: LogRecord | None = None
    ) -> Transaction:
        """Rebuild a transaction restart recovery found unfinished on the
        log.  A loser (no ``prepare`` record) comes back ACTIVE, for
        :meth:`abort` to roll back; an in-doubt one comes back PREPARED,
        holding the locks its PREPARE record captured, each re-acquired
        in its own mode (uncontended at restart), until its coordinator
        decides."""
        txn = Transaction(txn_id, self)
        txn.update_lsns = list(update_lsns)
        with self._id_mutex:
            self._next_txn_id = max(self._next_txn_id, txn_id + 1)
        if prepare is None:
            self.active[txn_id] = txn
            return txn
        txn.state = TxnState.PREPARED
        txn.gid = prepare.gid
        for resource, mode in prepare.locks:
            self.locks.acquire(txn_id, resource, mode, timeout=0)
        self.in_doubt[prepare.gid] = txn
        return txn
