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
        [r for r in sm.wal.records(sm.wal.last_checkpoint_lsn() + 1)
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
