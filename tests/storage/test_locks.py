"""Tests for the S/X lock manager and deadlock detection."""

import threading

import pytest

from repro.core.errors import DeadlockError, LockError, LockTimeoutError
from repro.storage.locks import LockManager, LockMode


def test_shared_locks_compatible():
    lm = LockManager()
    lm.acquire("t1", "r", LockMode.S)
    lm.acquire("t2", "r", LockMode.S)
    assert set(lm.holders("r")) == {"t1", "t2"}


def test_exclusive_blocks_shared():
    lm = LockManager(timeout=0.05)
    lm.acquire("t1", "r", LockMode.X)
    with pytest.raises(LockTimeoutError):
        lm.acquire("t2", "r", LockMode.S, timeout=0.05)


def test_reacquire_is_idempotent():
    lm = LockManager()
    lm.acquire("t1", "r", LockMode.S)
    lm.acquire("t1", "r", LockMode.S)
    lm.acquire("t1", "r2", LockMode.X)
    lm.acquire("t1", "r2", LockMode.X)
    assert lm.held_by("t1") == {"r", "r2"}


def test_x_holder_may_take_s():
    lm = LockManager()
    lm.acquire("t1", "r", LockMode.X)
    lm.acquire("t1", "r", LockMode.S)  # no-op: X covers S
    assert lm.holders("r") == {"t1": LockMode.X}


def test_upgrade_when_sole_holder():
    lm = LockManager()
    lm.acquire("t1", "r", LockMode.S)
    lm.acquire("t1", "r", LockMode.X)
    assert lm.holders("r") == {"t1": LockMode.X}


def test_release_unheld_rejected():
    lm = LockManager()
    with pytest.raises(LockError):
        lm.release("t1", "r")


def test_release_wakes_waiter():
    lm = LockManager(timeout=2.0)
    lm.acquire("t1", "r", LockMode.X)
    acquired = threading.Event()

    def waiter():
        lm.acquire("t2", "r", LockMode.X)
        acquired.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    assert not acquired.wait(timeout=0.1)
    lm.release("t1", "r")
    assert acquired.wait(timeout=2.0)
    thread.join()


def test_release_all():
    lm = LockManager()
    lm.acquire("t1", "a", LockMode.S)
    lm.acquire("t1", "b", LockMode.X)
    lm.release_all("t1")
    assert lm.held_by("t1") == set()
    lm.acquire("t2", "b", LockMode.X)  # immediately grantable


def test_deadlock_detected():
    lm = LockManager(timeout=2.0)
    lm.acquire("t1", "a", LockMode.X)
    lm.acquire("t2", "b", LockMode.X)

    results = {}

    def t1_wants_b():
        try:
            lm.acquire("t1", "b", LockMode.X, timeout=1.0)
            results["t1"] = "got"
        except (DeadlockError, LockTimeoutError) as exc:
            results["t1"] = type(exc).__name__

    thread = threading.Thread(target=t1_wants_b)
    thread.start()
    import time

    time.sleep(0.05)  # let t1 enqueue its wait
    # t2 requesting a closes the cycle t2 -> t1 -> t2.
    with pytest.raises(DeadlockError):
        lm.acquire("t2", "a", LockMode.X, timeout=1.0)
    # Resolve: t2 aborts and releases, t1 proceeds.
    lm.release_all("t2")
    thread.join()
    assert results["t1"] == "got"


def test_upgrade_deadlock_between_two_s_holders():
    lm = LockManager(timeout=0.5)
    lm.acquire("t1", "r", LockMode.S)
    lm.acquire("t2", "r", LockMode.S)

    outcome = {}

    def t1_upgrade():
        try:
            lm.acquire("t1", "r", LockMode.X, timeout=0.5)
            outcome["t1"] = "got"
        except (DeadlockError, LockTimeoutError) as exc:
            outcome["t1"] = type(exc).__name__

    thread = threading.Thread(target=t1_upgrade)
    thread.start()
    import time

    time.sleep(0.05)
    with pytest.raises(DeadlockError):
        lm.acquire("t2", "r", LockMode.X, timeout=0.5)
    lm.release_all("t2")
    thread.join()
    assert outcome["t1"] == "got"


# -- wait cancellation & fair queueing (server-era additions) ----------------

def test_cancel_waits_wakes_parked_waiter_with_cancelled_error():
    from repro.core.errors import LockCancelledError

    lm = LockManager(timeout=30.0)
    lm.acquire("holder", "r", LockMode.X)
    outcome = {}
    parked = threading.Event()

    def waiter():
        parked.set()
        try:
            lm.acquire("victim", "r", LockMode.X, timeout=30.0)
            outcome["victim"] = "got"
        except LockCancelledError:
            outcome["victim"] = "cancelled"

    thread = threading.Thread(target=waiter)
    thread.start()
    parked.wait()
    import time

    time.sleep(0.05)  # let the waiter actually enqueue and park
    lm.cancel_waits("victim")
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcome["victim"] == "cancelled"
    assert lm.metrics.counter("cancels").value == 1


def test_release_all_retracts_queued_waits_no_phantom_edges():
    """An externally-aborted waiter must not leave wait-for edges behind:
    stale edges make *other* transactions' cycle checks report deadlocks
    that do not exist (phantom deadlocks)."""
    lm = LockManager(timeout=30.0)
    lm.acquire("t1", "a", LockMode.X)
    started = threading.Event()

    def t2_waits_for_a():
        started.set()
        try:
            lm.acquire("t2", "a", LockMode.X, timeout=30.0)
        except Exception:
            pass

    thread = threading.Thread(target=t2_waits_for_a)
    thread.start()
    started.wait()
    import time

    time.sleep(0.05)
    assert lm.waiter_count() == 1
    # t2 is aborted externally: release_all must retract its queued wait.
    lm.release_all("t2")
    thread.join(timeout=10)
    assert lm.waiter_count() == 0
    assert lm._wait_for_edges() == {}
    # With the phantom edge gone, t1 -> (nothing): no deadlock for anyone.
    assert lm._would_deadlock("t1") is False


def test_no_wait_probe_raises_immediately():
    lm = LockManager(timeout=30.0)
    lm.acquire("t1", "r", LockMode.X)
    import time

    before = time.monotonic()
    with pytest.raises(LockTimeoutError):
        lm.acquire("t2", "r", LockMode.S, timeout=0)
    assert time.monotonic() - before < 1.0
    # The probe left no residue in the lock table.
    assert lm.waiter_count() == 0
    lm.release_all("t1")
    lm.acquire("t2", "r", LockMode.S, timeout=0)  # now grantable


def test_fair_queueing_prevents_writer_starvation():
    """A steady stream of readers must not starve a queued writer: new S
    requests queue behind a waiting X instead of jumping it."""
    lm = LockManager(timeout=30.0)
    lm.acquire("reader1", "r", LockMode.S)
    order = []
    writer_queued = threading.Event()

    def writer():
        writer_queued.set()
        lm.acquire("writer", "r", LockMode.X, timeout=30.0)
        order.append("writer")
        lm.release_all("writer")

    def late_reader():
        lm.acquire("reader2", "r", LockMode.S, timeout=30.0)
        order.append("reader2")
        lm.release_all("reader2")

    wt = threading.Thread(target=writer)
    wt.start()
    writer_queued.wait()
    import time

    time.sleep(0.05)  # writer is parked behind reader1
    rt = threading.Thread(target=late_reader)
    rt.start()
    time.sleep(0.05)
    # reader2 must be queued, not granted, despite S being compatible
    # with reader1's held S -- the writer is ahead of it in the queue.
    assert lm.waiter_count() == 2
    lm.release_all("reader1")
    wt.join(timeout=10)
    rt.join(timeout=10)
    assert order == ["writer", "reader2"]


def test_mode_held_introspection():
    lm = LockManager()
    lm.acquire("t1", "r", LockMode.S)
    assert lm.mode_held("t1", "r") is LockMode.S
    assert lm.mode_held("t1", "other") is None
    lm.acquire("t1", "r", LockMode.X)  # sole-holder upgrade
    assert lm.mode_held("t1", "r") is LockMode.X
    lm.release_all("t1")
    assert lm.mode_held("t1", "r") is None
