"""Transaction, WAL and crash-recovery tests over the storage manager."""

import pytest

from repro.core.errors import TransactionError
from repro.storage.manager import StorageManager
from repro.storage.wal import LogKind


@pytest.fixture
def sm():
    return StorageManager(buffer_capacity=16)


def test_commit_makes_updates_durable_across_crash(sm):
    f = sm.create_file("data")
    with sm.begin() as txn:
        oid = sm.insert(f, b"persist me", txn)
    sm.crash()
    report = sm.restart()
    assert report.winners
    assert sm.read(f, oid) == b"persist me"


def test_uncommitted_updates_rolled_back_on_restart(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        keep = sm.insert(f, b"committed", setup)
    txn = sm.begin()
    sm.insert(f, b"in flight", txn)
    sm.crash()  # txn never commits
    report = sm.restart()
    assert txn.txn_id in report.losers
    records = [payload for _, _, payload in sm.scan([f])]
    assert records == [b"committed"]
    assert sm.read(f, keep) == b"committed"


def test_abort_undoes_changes_immediately(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"original", setup)
    txn = sm.begin()
    sm.update(f, oid, b"scribble", txn)
    txn.abort()
    assert sm.read(f, oid) == b"original"


def test_abort_then_crash_preserves_the_undo(sm):
    """Run-time aborts log compensation records, so redo-all stays correct."""
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"v0", setup)
    txn = sm.begin()
    sm.update(f, oid, b"bad", txn)
    txn.abort()
    with sm.begin() as txn2:
        sm.update(f, oid, b"v1", txn2)
    sm.crash()
    sm.restart()
    assert sm.read(f, oid) == b"v1"


def test_abort_after_commit_on_same_page(sm):
    f = sm.create_file("data")
    with sm.begin() as t1:
        oid = sm.insert(f, b"committed", t1)
    t2 = sm.begin()
    sm.update(f, oid, b"loser write", t2)
    sm.crash()
    sm.restart()
    assert sm.read(f, oid) == b"committed"


def test_delete_rollback(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"survivor", setup)
    txn = sm.begin()
    sm.delete(f, oid, txn)
    txn.abort()
    assert sm.read(f, oid) == b"survivor"
    assert f.record_count() == 1


def test_checkpoint_bounds_redo(sm):
    f = sm.create_file("data")
    with sm.begin() as t1:
        sm.insert(f, b"one", t1)
    sm.checkpoint()
    with sm.begin() as t2:
        sm.insert(f, b"two", t2)
    sm.crash()
    report = sm.restart()
    # Only the post-checkpoint update is redone.
    assert report.redone == len(
        [r for r in sm.wal.records(sm.wal.checkpoint_lsn + 1)
         if r.kind is LogKind.UPDATE]
    )
    assert sorted(p for _, _, p in sm.scan([f])) == [b"one", b"two"]


def test_transaction_context_manager_aborts_on_exception(sm):
    f = sm.create_file("data")
    with pytest.raises(RuntimeError):
        with sm.begin() as txn:
            sm.insert(f, b"ghost", txn)
            raise RuntimeError("boom")
    assert list(sm.scan([f])) == []


def test_dead_transaction_rejected(sm):
    f = sm.create_file("data")
    txn = sm.begin()
    txn.commit()
    with pytest.raises(TransactionError):
        sm.insert(f, b"late", txn)
    with pytest.raises(TransactionError):
        txn.commit()


def test_wal_force_on_commit(sm):
    f = sm.create_file("data")
    with sm.begin() as txn:
        sm.insert(f, b"x", txn)
    assert sm.wal.forced_lsn == sm.wal.last_lsn


def test_multiple_transactions_interleaved_on_distinct_files(sm):
    fa = sm.create_file("a")
    fb = sm.create_file("b")
    t1 = sm.begin()
    t2 = sm.begin()
    oid_a = sm.insert(fa, b"from t1", t1)
    oid_b = sm.insert(fb, b"from t2", t2)
    t1.commit()
    t2.abort()
    assert sm.read(fa, oid_a) == b"from t1"
    assert not fb.exists(oid_b)


def test_restart_recounts_records(sm):
    f = sm.create_file("data")
    txn = sm.begin()
    for i in range(5):
        sm.insert(f, bytes([i]), txn)
    sm.crash()
    sm.restart()
    assert f.record_count() == 0


def test_unlogged_operations_bypass_wal(sm):
    f = sm.create_file("data")
    sm.insert(f, b"unlogged")
    assert len(sm.wal) == 0


def test_recovery_is_idempotent(sm):
    f = sm.create_file("data")
    with sm.begin() as txn:
        oid = sm.insert(f, b"stable", txn)
    sm.crash()
    sm.restart()
    sm.crash()
    sm.restart()
    assert sm.read(f, oid) == b"stable"


def test_loser_write_stays_undone_across_repeated_crashes(sm):
    """Restart rolls a loser back through the logged abort, so the next
    restart's redo-all replays the undo, not the loser's write."""
    f = sm.create_file("data")
    with sm.begin() as t1:
        oid = sm.insert(f, b"committed", t1)
    t2 = sm.begin()
    sm.update(f, oid, b"loser write", t2)
    for _ in range(3):
        sm.crash()
        sm.restart()
        assert sm.read(f, oid) == b"committed"


def test_restart_logs_one_compensation_per_undone_page(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oids = [sm.insert(f, bytes([i]) * 1500, setup) for i in range(4)]
    loser = sm.begin()
    for oid in oids:
        sm.update(f, oid, b"scribble", loser)
    sm.crash()
    tail_from = sm.wal.last_lsn + 1
    report = sm.restart()
    tail = list(sm.wal.records(tail_from))
    assert report.losers == [loser.txn_id]
    assert report.undone == len(loser.update_lsns) > 1
    assert [r.kind for r in tail] == (
        [LogKind.UPDATE] * report.undone + [LogKind.ABORT]
    )
    assert all(r.txn_id == loser.txn_id for r in tail)


class _ReadCounter(list):
    """Stands in for the log's record list, counting records read."""

    reads = 0

    def __iter__(self):
        for record in super().__iter__():
            self.reads += 1
            yield record

    def __reversed__(self):
        for record in super().__reversed__():
            self.reads += 1
            yield record

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.reads += len(got) if isinstance(index, slice) else 1
        return got


def test_undo_reads_only_the_transactions_own_records(sm):
    """Abort and restart undo reach a transaction's images by LSN: with
    2 000 committed transactions on the log, neither copies nor walks the
    log (restart reads it exactly once, for analysis and redo)."""
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"v", setup)
    for i in range(2000):
        with sm.begin() as txn:
            sm.update(f, oid, b"v%d" % i, txn)
    log = sm.wal._records = _ReadCounter(sm.wal._records)

    aborted = sm.begin()
    sm.update(f, oid, b"aborted", aborted)
    sm.insert(f, b"aborted too", aborted)
    aborted.abort()
    assert log.reads == len(aborted.update_lsns) == 2

    loser = sm.begin()
    sm.update(f, oid, b"loser", loser)
    sm.crash()
    log.reads = 0
    on_log = len(sm.wal)
    report = sm.restart()
    assert report.undone == len(loser.update_lsns) == 1
    assert log.reads == on_log + report.undone
    assert sm.read(f, oid) == b"v1999"
