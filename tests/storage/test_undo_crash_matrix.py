"""Crash matrix over the one undo routine.

Run-time abort, 2PC rollback and restart rollback of a loser all restore
before-images through ``TransactionManager._undo_and_finish``, which logs
a compensation update ahead of every image it restores.  Every cell
crashes right after the k-th page image an undo applies -- for every k --
and then runs further crash/restart cycles.  After every restart the
visible state must equal the committed model: no crash point may bring
a loser's write back.
"""

from __future__ import annotations

import pytest

from repro.storage.manager import StorageManager
from repro.storage.transactions import TransactionManager


class Crashed(Exception):
    pass


class UndoCrash:
    """Wraps ``StorageManager._apply_page_image``: once armed with ``k``,
    raises :class:`Crashed` right after the k-th image an undo applies
    (images that restart redo applies are not counted)."""

    def __init__(self, monkeypatch):
        self.k: int | None = None
        self.applied = 0
        self.fired = False
        self._undoing = False
        apply = StorageManager._apply_page_image
        undo = TransactionManager._undo_and_finish

        def applying(sm, volume, page_no, image):
            apply(sm, volume, page_no, image)
            if self._undoing and self.k is not None:
                self.applied += 1
                if self.applied == self.k:
                    self.k, self.fired = None, True
                    raise Crashed

        def undoing(txns, txn):
            self._undoing = True
            try:
                undo(txns, txn)
            finally:
                self._undoing = False

        monkeypatch.setattr(StorageManager, "_apply_page_image", applying)
        monkeypatch.setattr(TransactionManager, "_undo_and_finish", undoing)

    def run(self, k: int, step) -> None:
        """Run ``step()`` with the crash armed at the k-th undo image."""
        self.k, self.applied, self.fired = k, 0, False
        try:
            step()
        except Crashed:
            pass
        finally:
            self.k = None


@pytest.fixture
def undo_crash(monkeypatch):
    return UndoCrash(monkeypatch)


def committed_files(sm):
    """Two files of committed records, ~2 per page, so an undo restores
    several pages."""
    a, b = sm.create_file("a"), sm.create_file("b")
    with sm.begin() as txn:
        for i in range(6):
            sm.insert(a, b"a%d" % i * 500, txn)
            sm.insert(b, b"b%d" % i * 500, txn)
    return a, b


def scribble(sm, f, txn) -> None:
    """Update a record on every page, delete one and insert one."""
    oids = [oid for oid, _ in f.scan()]
    for oid in oids[::2]:
        sm.update(f, oid, b"X" * 700, txn)
    sm.delete(f, oids[1], txn)
    sm.insert(f, b"new" * 300, txn)


def restart_loser(sm, undo):
    a, b = committed_files(sm)
    expected = {a: dict(a.scan()), b: dict(b.scan())}
    scribble(sm, a, sm.begin())
    sm.crash()
    undo(sm.restart)
    return expected, None


def runtime_abort(sm, undo):
    a, b = committed_files(sm)
    expected = {a: dict(a.scan()), b: dict(b.scan())}
    txn = sm.begin()
    scribble(sm, a, txn)
    undo(txn.abort)
    return expected, None


def prepared_rolled_back(sm, undo):
    a, b = committed_files(sm)
    expected = {a: dict(a.scan()), b: dict(b.scan())}
    txn = sm.begin()
    scribble(sm, a, txn)
    sm.txns.prepare(txn, "gid-1")
    sm.crash()
    sm.restart()
    undo(lambda: sm.txns.rollback_prepared("gid-1"))

    def settled():
        # A rollback the crash cut short is finished by restart (the
        # branch's verdict was abort), so the gid is resolved either way.
        assert "gid-1" not in sm.txns.in_doubt
        assert sm.txns.rollback_prepared("gid-1") is False

    return expected, settled


def prepared_committed(sm, undo):
    """A prepared branch on ``b`` shares the crash with a loser on ``a``:
    restart undoes the loser and keeps the branch in doubt."""
    a, b = committed_files(sm)
    branch = sm.begin()
    scribble(sm, b, branch)
    sm.txns.prepare(branch, "gid-1")
    expected = {a: dict(a.scan()), b: dict(b.scan())}
    scribble(sm, a, sm.begin())
    sm.crash()
    undo(sm.restart)

    def decide():
        assert "gid-1" in sm.txns.in_doubt
        assert sm.txns.commit_prepared("gid-1") is True

    return expected, decide


def loser_move(sm, undo):
    """A loser that grows a record off its crowded home page (a MOVE)."""
    a, b = committed_files(sm)
    expected = {a: dict(a.scan()), b: dict(b.scan())}
    loser = sm.begin()
    home = next(iter(expected[a]))
    sm.update(a, home, b"G" * (a.max_payload() // 2), loser)
    scribble(sm, a, loser)
    sm.crash()
    undo(sm.restart)
    return expected, None


CASES = {
    "restart_loser": restart_loser,
    "runtime_abort": runtime_abort,
    "prepared_rolled_back": prepared_rolled_back,
    "prepared_committed": prepared_committed,
    "loser_move": loser_move,
}


def assert_committed(sm, expected) -> None:
    for f, model in expected.items():
        assert dict(f.scan()) == model
        assert f.record_count() == len(model)


@pytest.mark.parametrize("cycles", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_during_undo_never_revives_a_write(case, cycles, undo_crash):
    k = 0
    while True:
        k += 1
        sm = StorageManager(buffer_capacity=16)
        expected, after_cycles = CASES[case](
            sm, lambda step: undo_crash.run(k, step)
        )
        fired = undo_crash.fired
        for _ in range(cycles):
            sm.crash()
            report = sm.restart()
            assert_committed(sm, expected)
            if case == "loser_move":
                assert report.moves_undone == 1
        if after_cycles is not None:
            after_cycles()
            for _ in range(cycles):
                sm.crash()
                sm.restart()
                assert_committed(sm, expected)
        if not fired:
            break
    # Every k up to the undo's full length crashed; the last run did not.
    assert k > 4, f"the undo restored only {k - 1} page image(s)"
