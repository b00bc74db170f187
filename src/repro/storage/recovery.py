"""Restart recovery: redo-all, undo-losers over physical page images.

With page images in the log and strict file-level two-phase locking (no two
uncommitted transactions ever write the same page), the classic physical
recovery algorithm applies:

1. **Analysis** -- read the log to learn each transaction's fate.  Losers
   are the transactions that neither committed nor aborted: a run-time abort
   logged compensation updates for its undo, so redo-all already replays it.
   Transactions whose last control record is a 2PC ``PREPARE`` are *in
   doubt*: they voted yes and their outcome belongs to their coordinator,
   so they are redone but **not** undone.
2. **Redo** -- reapply the after-image of every update since the last
   checkpoint, in LSN order (includes compensation updates).
3. **Undo** -- apply the before-image of every loser update, in reverse LSN
   order, then log an ABORT for each loser.  In-doubt transactions are
   reported (gid, update LSNs, locks from the PREPARE record) so the
   storage manager can resurrect them with their locks re-held; presumed
   abort means the coordinator resolves them later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.wal import LogKind, WriteAheadLog


@dataclass(frozen=True)
class InDoubtTransaction:
    """An in-doubt (prepared) transaction found on the log at restart."""

    gid: str
    txn_id: int
    update_lsns: tuple[int, ...]
    locks: tuple


@dataclass
class RecoveryReport:
    winners: list[int]
    losers: list[int]
    redone: int
    undone: int
    in_doubt: list[InDoubtTransaction] = field(default_factory=list)
    #: Logical moves (``LogKind.MOVE``: oversize growth or relocation)
    #: whose transaction committed: their page images were replayed, so
    #: the move survived the crash.
    moves_redone: int = 0
    #: Logical moves belonging to losers (or run-time aborts): the page
    #: images that followed them were undone, so the record sits at
    #: exactly its original placement -- one live copy either way.
    moves_undone: int = 0


def recover(wal: WriteAheadLog, apply_page_image) -> RecoveryReport:
    """Run restart recovery; ``apply_page_image(volume, page, image)`` is the
    storage manager's force-write primitive (it must bypass the buffer pool's
    stale frames).
    """
    fates = wal.transactions_on_log()
    winners = sorted(t for t, fate in fates.items() if fate is LogKind.COMMIT)
    losers = sorted(t for t, fate in fates.items() if fate is LogKind.BEGIN)
    doubted = sorted(
        t for t, fate in fates.items() if fate is LogKind.PREPARE
    )

    checkpoint_lsn = wal.last_checkpoint_lsn()
    redone = 0
    for record in wal.records(from_lsn=checkpoint_lsn + 1):
        if record.kind is LogKind.UPDATE and record.after is not None:
            apply_page_image(record.volume, record.page_no, record.after)
            redone += 1

    loser_set = set(losers)
    undone = 0
    for record in wal.records_reversed():
        if (
            record.kind is LogKind.UPDATE
            and record.txn_id in loser_set
            and record.before is not None
        ):
            apply_page_image(record.volume, record.page_no, record.before)
            undone += 1

    for txn_id in losers:
        wal.append(LogKind.ABORT, txn_id)
    wal.force()

    prepares = wal.prepare_records()
    update_lsns: dict[int, list[int]] = {t: [] for t in doubted}
    for record in wal.records():
        if record.kind is LogKind.UPDATE and record.txn_id in update_lsns:
            update_lsns[record.txn_id].append(record.lsn)
    in_doubt = [
        InDoubtTransaction(
            gid=prepares[txn_id].gid,
            txn_id=txn_id,
            update_lsns=tuple(update_lsns[txn_id]),
            locks=tuple(prepares[txn_id].locks),
        )
        for txn_id in doubted
    ]

    winner_set = set(winners)
    undone_fates = {LogKind.BEGIN, LogKind.ABORT}
    moves_redone = moves_undone = 0
    for record in wal.records():
        if record.kind is LogKind.MOVE:
            if record.txn_id in winner_set:
                moves_redone += 1
            elif fates.get(record.txn_id) in undone_fates:
                moves_undone += 1

    return RecoveryReport(winners, losers, redone, undone, in_doubt,
                          moves_redone, moves_undone)
