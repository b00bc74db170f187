"""Crash matrix over the one logged-write path's two kinds of move.

A record changes page in two ways: oversize growth moves its body away
from home behind a forwarding stub (identity kept), and relocation gives
it a new OID on a chosen page (no stub).  Both are ordinary logged
writes: a ``MOVE`` record, then the page images.  Every cell crashes at
one point of one move and checks, after restart, that the file holds
exactly the committed state -- one live copy of every record, and every
stub one hop from the one body it owns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PageFullError
from repro.storage.disk import DiskParams
from repro.storage.file import _TAG_FWD, _TAG_MOVED, StorageFile
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


class Crashed(Exception):
    pass


def assert_one_hop_stubs(f: StorageFile) -> None:
    """Every stub points at a MOVED body, and every body has one stub."""
    stubs, bodies = [], []
    for page_no in f.pages:
        page = f._page(page_no)
        try:
            entries = page.records()
        finally:
            f.buffer.unpin(f.volume, page_no)
        for slot, raw in entries:
            if raw[0] == _TAG_FWD:
                stubs.append(f._stub_target(raw))
            elif raw[0] == _TAG_MOVED:
                bodies.append(OID(f.volume, page_no, slot))
    assert sorted(stubs) == sorted(bodies)


def grow(sm, f, oid, txn, fraction=0.5):
    """Grow ``oid`` past what its crowded home page can hold."""
    payload = b"G" * int(f.max_payload() * fraction)
    sm.update(f, oid, payload, txn)
    return lambda state: {**state, oid: payload}


def relocate(sm, f, oid, txn, target):
    new_oid = sm.relocate(f, oid, target, txn)
    return lambda state: {
        (new_oid if key == oid else key): value
        for key, value in state.items()
    }


def _forward(sm, f, oid):
    """Commit a growth that moves ``oid``'s body away from home."""
    with sm.begin() as txn:
        grow(sm, f, oid, txn)


#: name -> (committed set-up, the move under test)
MOVES = {
    "grow": (None, lambda sm, f, oid, txn, spare: grow(sm, f, oid, txn)),
    "grow_forwarded": (
        _forward,
        lambda sm, f, oid, txn, spare: grow(sm, f, oid, txn, 0.66),
    ),
    "relocate": (None, relocate),
    "relocate_forwarded": (_forward, relocate),
}


@pytest.mark.parametrize("point", ["move", "written", "aborted",
                                   "committed"])
@pytest.mark.parametrize("move", sorted(MOVES))
def test_crash_leaves_exactly_the_committed_state(move, point):
    sm = StorageManager(buffer_capacity=16)
    f = sm.create_file("data")
    with sm.begin() as txn:
        oid = sm.insert(f, b"s" * 40, txn)
        sm.insert(f, b"c" * (f.max_payload() * 2 // 3), txn)  # crowd it
        spare = sm.allocate_page(f, txn)
    setup, act = MOVES[move]
    if setup is not None:
        setup(sm, f, oid)
    sm.checkpoint()
    before = dict(f.scan())
    after = None

    def failpoint():
        raise Crashed

    txn = sm.begin()
    if point == "move":
        sm._move_failpoint = failpoint
    try:
        after = act(sm, f, oid, txn, spare)(before)
    except Crashed:
        pass
    finally:
        sm._move_failpoint = None
    if point == "aborted":
        txn.abort()
    elif point == "committed":
        txn.commit()
    sm.crash()
    report = sm.restart()

    expected = after if point == "committed" else before
    assert dict(f.scan()) == expected
    assert f.record_count() == len(expected)
    assert_one_hop_stubs(f)
    committed_setup_moves = 0 if setup is None else 1
    if point == "committed":
        assert report.moves_redone == committed_setup_moves + 1
        assert report.moves_undone == 0
    else:
        assert report.moves_redone == committed_setup_moves
        assert report.moves_undone == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "relocate"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=60,
))
def test_property_moves_keep_one_hop_stubs(ops):
    """Random growth, shrinkage, deletes and relocations on small pages:
    the file always matches a dict model, and stubs never chain."""
    sm = StorageManager(DiskParams(block_size=256), buffer_capacity=8)
    f = sm.create_file("data")
    model: dict[OID, bytes] = {}
    for op, n in ops:
        # A few victims take every hit, so bodies move again and again.
        victim = sorted(model)[n % min(len(model), 4)] if model else None
        if op == "insert" or victim is None:
            payload = bytes([n % 251]) * (n % 60)
            model[f.insert(payload)] = payload
        elif op == "update":
            payload = bytes([n % 251]) * (n % f.max_payload())
            try:
                f.update(victim, payload)
            except PageFullError:
                continue  # a tiny record on a full page: no room to stub
            model[victim] = payload
        elif op == "delete":
            f.delete(victim)
            del model[victim]
        else:
            target = (f.pages[n % len(f.pages)] if n % 3
                      else f.allocate_page())
            try:
                new_oid = f.relocate(victim, target)
            except PageFullError:
                continue
            model[new_oid] = model.pop(victim)
    assert dict(f.scan()) == model
    assert f.record_count() == len(model)
    assert_one_hop_stubs(f)
