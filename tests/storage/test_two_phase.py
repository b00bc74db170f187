"""Participant-side two-phase commit at the storage layer: PREPARE as a
forced vote, idempotent phase-2 verbs, and in-doubt resurrection across
crash-restart."""

import pytest

from repro.core.errors import LockTimeoutError, TransactionError
from repro.storage.locks import LockMode
from repro.storage.manager import StorageManager
from repro.storage.transactions import TxnState


@pytest.fixture
def sm():
    return StorageManager(buffer_capacity=16)


def _prepared_update(sm, value=b"prepared"):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"original", setup)
    txn = sm.begin()
    sm.update(f, oid, value, txn)
    sm.txns.prepare(txn, "gid-1")
    return f, oid, txn


def test_prepare_parks_txn_and_keeps_locks(sm):
    f, oid, txn = _prepared_update(sm)
    assert txn.state is TxnState.PREPARED
    assert "gid-1" in sm.txns.in_doubt
    assert txn.txn_id not in sm.txns.active
    # The branch's X locks outlive the vote: a bystander still blocks.
    other = sm.begin()
    other.lock_timeout = 0.05
    with pytest.raises(LockTimeoutError):
        sm.update(f, oid, b"bystander", other)
    other.abort()


def test_commit_prepared_releases_and_persists(sm):
    f, oid, txn = _prepared_update(sm)
    assert sm.txns.commit_prepared("gid-1") is True
    assert txn.state is TxnState.COMMITTED
    assert sm.read(f, oid) == b"prepared"
    # Idempotent: the decision was already applied.
    assert sm.txns.commit_prepared("gid-1") is False
    sm.crash()
    sm.restart()
    assert sm.read(f, oid) == b"prepared"


def test_rollback_prepared_undoes(sm):
    f, oid, txn = _prepared_update(sm)
    assert sm.txns.rollback_prepared("gid-1") is True
    assert sm.read(f, oid) == b"original"
    assert sm.txns.rollback_prepared("gid-1") is False
    # And the undo is durable.
    sm.crash()
    sm.restart()
    assert sm.read(f, oid) == b"original"


def test_phase_two_of_unknown_gid_is_a_noop(sm):
    assert sm.txns.commit_prepared("never-prepared") is False
    assert sm.txns.rollback_prepared("never-prepared") is False


def test_duplicate_gid_rejected(sm):
    _prepared_update(sm)
    txn = sm.begin()
    with pytest.raises(TransactionError):
        sm.txns.prepare(txn, "gid-1")
    txn.abort()


def test_prepare_requires_active_txn(sm):
    txn = sm.begin()
    txn.commit()
    with pytest.raises(TransactionError):
        sm.txns.prepare(txn, "gid-2")


def test_crash_resurrects_in_doubt_branch_with_locks(sm):
    f, oid, txn = _prepared_update(sm)
    sm.crash()
    report = sm.restart()
    # The branch is neither winner nor loser: it waits for the verdict.
    assert [e.gid for e in report.in_doubt] == ["gid-1"]
    assert "gid-1" in sm.txns.in_doubt
    # Its write was redone (ready to commit) but stays X-locked.
    other = sm.begin()
    other.lock_timeout = 0.05
    with pytest.raises(LockTimeoutError):
        sm.update(f, oid, b"bystander", other)
    other.abort()
    assert sm.txns.commit_prepared("gid-1") is True
    assert sm.read(f, oid) == b"prepared"


def test_resurrected_branch_can_still_abort(sm):
    f, oid, txn = _prepared_update(sm)
    sm.crash()
    sm.restart()
    assert sm.txns.rollback_prepared("gid-1") is True
    assert sm.read(f, oid) == b"original"
    # The lock is free again.
    with sm.begin() as writer:
        sm.update(f, oid, b"next", writer)
    assert sm.read(f, oid) == b"next"


def test_in_doubt_survives_repeated_crashes(sm):
    f, oid, txn = _prepared_update(sm)
    sm.crash()
    sm.restart()
    sm.crash()
    report = sm.restart()
    assert [e.gid for e in report.in_doubt] == ["gid-1"]
    assert sm.txns.commit_prepared("gid-1") is True
    assert sm.read(f, oid) == b"prepared"


def test_resurrected_branch_holds_each_lock_in_its_own_mode(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"original", setup)
    txn = sm.begin()
    sm.txns.lock_shared(txn, ("catalog",))
    sm.update(f, oid, b"prepared", txn)
    sm.txns.prepare(txn, "gid-1")
    sm.crash()
    sm.restart()
    other = sm.begin()
    # The branch read the catalog: a reader shares it after restart.
    sm.locks.acquire(other.txn_id, ("catalog",), LockMode.S, timeout=0)
    # The branch wrote the file: a writer is still refused.
    with pytest.raises(LockTimeoutError):
        sm.locks.acquire(other.txn_id, ("file", f.file_id), LockMode.X,
                         timeout=0)
    other.abort()
    assert sm.txns.commit_prepared("gid-1") is True
    assert sm.read(f, oid) == b"prepared"
