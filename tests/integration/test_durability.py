"""Integration: transactions and crash recovery under the full object
stack (the ESM functions MOOD relies on, Section 1)."""

import threading

import pytest

from repro.core.errors import DeadlockError, LockTimeoutError
from repro.storage.locks import LockMode
from repro.storage.manager import StorageManager


def test_many_transactions_random_outcomes():
    """A workload of commits and aborts recovers to exactly the committed
    effects."""
    import random

    rng = random.Random(5)
    sm = StorageManager(buffer_capacity=16)
    f = sm.create_file("ledger")
    committed = {}
    for round_number in range(40):
        txn = sm.begin()
        payload = f"round-{round_number}".encode()
        oid = sm.insert(f, payload, txn)
        if rng.random() < 0.5:
            txn.commit()
            committed[oid] = payload
        else:
            txn.abort()
        if rng.random() < 0.2:
            sm.checkpoint()
    sm.crash()
    report = sm.restart()
    assert {oid: p for _, oid, p in sm.scan([f])} == committed
    assert not set(report.winners) & set(report.losers)


def test_crash_during_mixed_updates():
    sm = StorageManager(buffer_capacity=16)
    f = sm.create_file("data")
    with sm.begin() as setup:
        oids = [sm.insert(f, f"v{i}:initial".encode(), setup)
                for i in range(10)]
    # Committed updates to the first half.
    with sm.begin() as txn:
        for oid in oids[:5]:
            sm.update(f, oid, b"committed-update", txn)
    # Uncommitted updates to the second half.
    loser = sm.begin()
    for oid in oids[5:]:
        sm.update(f, oid, b"in-flight", loser)
    sm.crash()
    sm.restart()
    for oid in oids[:5]:
        assert sm.read(f, oid) == b"committed-update"
    for index, oid in enumerate(oids[5:], start=5):
        assert sm.read(f, oid) == f"v{index}:initial".encode()


def test_two_phase_locking_serialises_writers():
    """Two threads increment a shared counter under transactions; strict
    2PL (file-level X locks) makes the result serial."""
    sm = StorageManager(buffer_capacity=16)
    f = sm.create_file("counter")
    with sm.begin() as setup:
        oid = sm.insert(f, b"0", setup)

    errors = []

    def increment(times):
        for _ in range(times):
            try:
                with sm.begin() as txn:
                    value = int(sm.read(f, oid, txn))
                    sm.update(f, oid, str(value + 1).encode(), txn)
            except (DeadlockError, LockTimeoutError) as exc:
                errors.append(exc)

    threads = [threading.Thread(target=increment, args=(25,))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    final = int(sm.read(f, oid))
    # Every successful transaction's increment is present exactly once.
    assert final == 50 - len(errors)
    assert final > 0


def test_reader_blocks_writer_until_commit():
    sm = StorageManager(buffer_capacity=16)
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"stable", setup)
    reader = sm.begin()
    assert sm.read(f, oid, reader) == b"stable"
    writer = sm.begin()
    with pytest.raises(LockTimeoutError):
        sm.txns.locks.acquire(writer.txn_id, ("file", f.file_id),
                              LockMode.X, timeout=0.05)
    reader.commit()
    sm.update(f, oid, b"changed", writer)
    writer.commit()
    assert sm.read(f, oid) == b"changed"


def test_catalog_and_data_survive_reload_cycle():
    """Full kernel: define schema + data, flush, rebuild every in-memory
    structure from storage, query again."""
    from repro.core.database import MoodDatabase

    db = MoodDatabase(buffer_capacity=64)
    db.execute("CREATE CLASS Doc TUPLE (title String(32), stars Integer) "
               "METHODS (shout () String { return self.title.upper() })")
    for i in range(20):
        db.execute(f"NEW Doc <'doc-{i}', {i % 5}>")
    db.execute("CREATE INDEX doc_stars ON Doc (stars)")
    before = sorted(db.query(
        "SELECT d.title FROM Doc d WHERE d.stars = 3").scalars())

    db.kernel.catalog.reload()
    db.kernel.objects.rebuild_page_map()
    after = sorted(db.query(
        "SELECT d.title FROM Doc d WHERE d.stars = 3").scalars())
    assert after == before
    doc = db.extent("Doc")[0]
    assert db.invoke(doc, "shout") == doc.state["title"].upper()
