"""Restart recovery: redo-all, then roll losers back through ordinary abort.

With page images in the log and strict file-level two-phase locking (no two
uncommitted transactions ever write the same page), the classic physical
recovery algorithm applies:

1. **Analysis** -- one forward pass over the log learns each transaction's
   fate, and keeps the UPDATE LSNs and PREPARE record of every transaction
   still unfinished.  Losers are the transactions that neither committed
   nor aborted: a run-time abort logged compensation updates for its undo,
   so redo-all already replays it.  Transactions whose last control record
   is a 2PC ``PREPARE`` are *in doubt*: they voted yes and their outcome
   belongs to their coordinator, so they are redone but **not** undone --
   unless compensation updates follow the vote: only an abort verdict
   starts a rollback, so one that a crash cut short is a loser.
2. **Redo** -- in the same pass, reapply the after-image of every update
   since the last checkpoint, in LSN order (includes compensation
   updates).
3. **Undo** -- every unfinished transaction is resurrected as a handle
   (:meth:`TransactionManager.resurrect`).  Losers are then aborted like
   any run-time transaction: the one undo routine logs a compensation
   update ahead of restoring each before-image, in reverse LSN order, then
   ABORT.  A crash during or after this undo is therefore harmless -- the
   next restart redoes the compensations (and, if ABORT never made it to
   the log, undoes the loser again from there).  In-doubt
   transactions stay PREPARED with the locks their PREPARE record captured
   re-held; presumed abort means the coordinator resolves them later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.transactions import Transaction, TransactionManager
from repro.storage.wal import LogKind, LogRecord


@dataclass
class RecoveryReport:
    winners: list[int]
    losers: list[int]
    redone: int
    #: Page images restored for losers -- one compensation record each.
    undone: int
    #: In-doubt transactions, resurrected PREPARED with their locks re-held.
    in_doubt: list[Transaction] = field(default_factory=list)
    #: Logical moves (``LogKind.MOVE``: oversize growth or relocation)
    #: whose transaction committed: their page images were replayed, so
    #: the move survived the crash.
    moves_redone: int = 0
    #: Logical moves belonging to losers (or run-time aborts): the page
    #: images that followed them were undone, so the record sits at
    #: exactly its original placement -- one live copy either way.
    moves_undone: int = 0


def recover(txns: TransactionManager) -> RecoveryReport:
    """Run restart recovery over ``txns.wal``; ``txns.apply_page_image``
    is the storage manager's force-write primitive (it must bypass the
    buffer pool's stale frames)."""
    redo_from = txns.wal.checkpoint_lsn
    fates: dict[int, LogKind] = {}
    moves: dict[int, int] = {}
    #: UPDATE LSNs and PREPARE records of transactions not yet finished.
    updates: dict[int, list[int]] = {}
    prepares: dict[int, LogRecord] = {}
    redone = 0
    for record in txns.wal.records():
        kind, txn_id = record.kind, record.txn_id
        if kind is LogKind.UPDATE:
            updates.setdefault(txn_id, []).append(record.lsn)
            if fates.get(txn_id) is LogKind.PREPARE:
                # Only a rollback logs after the vote: the verdict was
                # abort, so a rollback cut short is finished as a loser.
                fates[txn_id] = LogKind.BEGIN
                del prepares[txn_id]
            if record.lsn > redo_from:
                txns.apply_page_image(
                    record.volume, record.page_no, record.after
                )
                redone += 1
        elif kind is LogKind.MOVE:
            moves[txn_id] = moves.get(txn_id, 0) + 1
        elif kind is not LogKind.CHECKPOINT:
            fates[txn_id] = kind
            if kind is LogKind.PREPARE:
                prepares[txn_id] = record
            elif kind is not LogKind.BEGIN:
                updates.pop(txn_id, None)
                prepares.pop(txn_id, None)

    winners = sorted(t for t, fate in fates.items() if fate is LogKind.COMMIT)
    losers = sorted(t for t, fate in fates.items() if fate is LogKind.BEGIN)
    moves_redone = sum(
        n for t, n in moves.items() if fates[t] is LogKind.COMMIT
    )
    moves_undone = sum(
        n for t, n in moves.items()
        if fates[t] in (LogKind.BEGIN, LogKind.ABORT)
    )

    # A graceful stop keeps its in-doubt handles; only a crash loses them.
    in_doubt = [
        txns.in_doubt.get(prepare.gid)
        or txns.resurrect(txn_id, updates.get(txn_id, ()), prepare)
        for txn_id, prepare in sorted(prepares.items())
    ]
    undone = 0
    for txn_id in losers:
        loser = txns.resurrect(txn_id, updates.get(txn_id, ()))
        undone += len(loser.update_lsns)
        txns.abort(loser)
    return RecoveryReport(winners, losers, redone, undone, in_doubt,
                          moves_redone, moves_undone)
