"""The crash-safe relocation primitive: new identities, WAL MOVE records.

Relocation re-identifies a record: it gets a fresh OID on the target page
and its old slot is freed in the same write -- no stub stays behind (the
caller rewrites references in the same transaction).  The only stub left
in the storage layer is the oversize-growth one, always one hop.  These
tests pin down those semantics, the counters, and -- through the
manager's failpoint -- that a crash at any point of a move leaves exactly
one live copy.
"""

import pytest

from repro.core.errors import (
    PageFullError,
    RecordNotFoundError,
    StorageError,
)
from repro.storage.manager import StorageManager
from repro.storage.wal import LogKind


@pytest.fixture
def sm():
    return StorageManager(buffer_capacity=16)


def _live_copies(storage_file, payload):
    return [oid for oid, body in storage_file.scan() if body == payload]


def _counter(sm, name):
    return sm.metrics.counters().get(f"storage.{name}", 0.0)


# -- the primitive ----------------------------------------------------------

def test_relocate_moves_record_under_a_new_identity(sm):
    f = sm.create_file("data")
    oid = f.insert(b"payload")
    target = f.allocate_page()
    new_oid = f.relocate(oid, target)
    assert new_oid != oid
    assert new_oid.page == target
    assert f.read(new_oid) == b"payload"
    assert not f.exists(oid)
    assert f.record_count() == 1
    assert f.oids() == [new_oid]


def test_relocate_frees_old_slot_and_counts(sm):
    """No stub stays behind: the old slot is free in the same write and
    reused by the next insert on its page."""
    f = sm.create_file("data")
    oid = f.insert(b"v")
    new_oid = f.relocate(oid, f.allocate_page())
    assert _counter(sm, "relocations") == 1
    with pytest.raises(RecordNotFoundError):
        f.read(oid)
    assert f.read(new_oid) == b"v"
    assert f.record_count() == 1
    assert f.insert(b"next") == oid


def test_relocate_same_page_is_a_noop(sm):
    f = sm.create_file("data")
    oid = f.insert(b"stay")
    assert f.relocate(oid, oid.page) == oid
    assert f.oids() == [oid]


def test_relocate_to_foreign_page_refused(sm):
    f = sm.create_file("data")
    other = sm.create_file("other")
    oid = f.insert(b"x")
    foreign = other.allocate_page()
    with pytest.raises(StorageError):
        f.relocate(oid, foreign)


def test_relocate_full_target_raises_and_leaves_record_in_place(sm):
    f = sm.create_file("data")
    oid = f.insert(b"v" * 100)
    target = f.allocate_page()
    filler = f.max_payload() - 50
    page = f._page(target)
    page.insert(bytes([0]) + b"f" * filler)
    f.buffer.unpin(f.volume, target, dirty=True)
    with pytest.raises(PageFullError):
        f.relocate(oid, target)
    assert f.read(oid) == b"v" * 100
    assert _live_copies(f, b"v" * 100) == [oid]


def test_update_and_delete_after_relocation_use_the_new_oid(sm):
    f = sm.create_file("data")
    oid = f.insert(b"v0")
    new_oid = f.relocate(oid, f.allocate_page())
    with pytest.raises(RecordNotFoundError):
        f.update(oid, b"v1")        # the old identity is gone
    f.update(new_oid, b"v1")
    assert f.read(new_oid) == b"v1"
    f.delete(new_oid)
    assert not f.exists(new_oid)
    assert f.record_count() == 0


def test_relocate_consolidates_oversize_stub(sm):
    """A forwarded record relocates as one DATA record; its stub and its
    MOVED body are both freed."""
    f = sm.create_file("data")
    big = f.max_payload() - 40
    a = f.insert(b"a" * 100)
    f.insert(b"b" * (f.max_payload() - 200))   # crowd the page
    f.update(a, b"A" * big)                    # forces FWD -> MOVED
    assert f.read(a) == b"A" * big
    target = f.allocate_page()
    new_oid = f.relocate(a, target)
    assert f.read(new_oid) == b"A" * big
    assert not f.exists(a)
    # Exactly one copy of the body remains.
    assert _live_copies(f, b"A" * big) == [new_oid]


def test_relocating_a_stale_oid_is_refused(sm):
    """Once moved, only the new OID names the record: relocating the old
    one again must fail rather than fork the caller's old->new mapping."""
    f = sm.create_file("data")
    oid = f.insert(b"v")
    new_oid = f.relocate(oid, f.allocate_page())
    with pytest.raises(RecordNotFoundError):
        f.relocate(oid, f.allocate_page())
    assert f.oids() == [new_oid]


def test_forwarding_stays_one_hop(sm):
    """Growing a forwarded record again re-points its one stub; a read
    follows exactly one hop however often the body has moved."""
    f = sm.create_file("data")
    big = f.max_payload() - 40
    a = f.insert(b"a" * 100)
    f.insert(b"b" * (f.max_payload() - 200))   # crowd the page
    f.update(a, b"A" * big)                    # the body leaves home
    f.insert(b"c" * (f.max_payload() - 200))   # crowd the body's page
    f.update(a, b"Z" * big)                    # ... and moves again
    assert _counter(sm, "relocations") == 2
    followed = _counter(sm, "forwards_followed")
    assert f.read(a) == b"Z" * big
    assert _counter(sm, "forwards_followed") == followed + 1
    body = f._stub_target(f._read_raw(a))
    # A body is reachable through its stub only.
    with pytest.raises(RecordNotFoundError):
        f.read(body)
    assert _live_copies(f, b"Z" * big) == [a]


# -- WAL + recovery ---------------------------------------------------------

def test_committed_relocation_survives_crash(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"mover", setup)
    with sm.begin() as txn:
        new_oid = sm.relocate(f, oid, f.allocate_page(), txn)
    sm.crash()
    report = sm.restart()
    assert report.moves_redone == 1
    assert report.moves_undone == 0
    assert not f.exists(oid)
    assert sm.read(f, new_oid) == b"mover"
    assert _live_copies(f, b"mover") == [new_oid]


def test_crash_between_move_record_and_page_writes(sm):
    """The MOVE record hits the log, the crash lands before any page
    write: recovery must leave exactly one live copy at the source."""
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"solo", setup)
    sm.checkpoint()
    txn = sm.begin()

    class Crashed(Exception):
        pass

    def failpoint():
        raise Crashed

    sm._move_failpoint = failpoint
    with pytest.raises(Crashed):
        sm.relocate(f, oid, f.allocate_page(), txn)
    sm._move_failpoint = None
    sm.crash()                       # txn never commits
    report = sm.restart()
    assert txn.txn_id in report.losers
    assert report.moves_undone == 1
    assert report.moves_redone == 0
    assert sm.read(f, oid) == b"solo"
    assert _live_copies(f, b"solo") == [oid]


def test_crash_after_page_writes_before_commit(sm):
    """Page images made it to the log but the transaction never
    committed: undo restores the original placement, one live copy."""
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"undone", setup)
    txn = sm.begin()
    sm.relocate(f, oid, f.allocate_page(), txn)
    sm.crash()                       # after the move, before commit
    report = sm.restart()
    assert txn.txn_id in report.losers
    assert report.moves_undone == 1
    assert sm.read(f, oid) == b"undone"
    assert _live_copies(f, b"undone") == [oid]


def test_move_log_record_carries_source_and_target(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"logged", setup)
    target = f.allocate_page()
    with sm.begin() as txn:
        sm.relocate(f, oid, target, txn)
    moves = [r for r in sm.wal.records() if r.kind is LogKind.MOVE]
    assert len(moves) == 1
    from repro.storage.file import _FWD
    assert _FWD.unpack(moves[0].before) == (oid.volume, oid.page, oid.slot)
    assert _FWD.unpack(moves[0].after) == (oid.volume, target, 0)


def test_abort_rolls_back_relocation(sm):
    f = sm.create_file("data")
    with sm.begin() as setup:
        oid = sm.insert(f, b"keep", setup)
    txn = sm.begin()
    new_oid = sm.relocate(f, oid, f.allocate_page(), txn)
    txn.abort()
    assert sm.read(f, oid) == b"keep"
    assert not f.exists(new_oid)
    assert _live_copies(f, b"keep") == [oid]
