"""Concurrency stress: lost updates, phantom deadlocks, serial equivalence.

Invariants checked (tier-1-safe sizes, a few seconds wall clock):

* **No lost updates** -- concurrent ``value = value + 1`` increments through
  the session layer never stomp each other: the final counter equals the
  number of committed increments, i.e. the schedule is equivalent to the
  serial replay of the committed history.
* **No phantom deadlocks** -- single-statement autocommit transactions
  acquire their whole (sorted) lock closure up front, so the wait-for
  graph can never cycle among them; any ``DeadlockError`` here would be a
  bookkeeping bug (e.g. stale wait entries from an aborted waiter).
* **Real deadlocks are detected and retryable** -- two multi-statement
  transactions locking two extents in opposite orders must produce one
  DEADLOCK victim (not a timeout, not a hang), and the victim's retry
  must succeed.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.database import MoodDatabase
from repro.core.errors import (
    DeadlockError,
    LockCancelledError,
    LockTimeoutError,
    MoodError,
)
from repro.server.session import SessionManager

WRITERS = 4
READERS = 2
INCREMENTS_PER_WRITER = 12
SLOTS = 3


@pytest.fixture()
def manager():
    db = MoodDatabase(buffer_capacity=128)
    db.execute(
        "CREATE CLASS StressCounter TUPLE (slot Integer, value Integer)"
    )
    for slot in range(SLOTS):
        db.execute(f"new StressCounter <{slot}, 0>")
    return SessionManager(db)


def test_no_lost_updates_and_no_phantom_deadlocks(manager):
    committed = [[0] * SLOTS for _ in range(WRITERS)]
    deadlocks: list[str] = []
    failures: list[str] = []
    start = threading.Barrier(WRITERS + READERS)

    def writer(index: int) -> None:
        session = manager.open_session()
        start.wait()
        for i in range(INCREMENTS_PER_WRITER):
            slot = (index + i) % SLOTS
            try:
                manager.execute(
                    session,
                    "UPDATE StressCounter c SET value = c.value + 1 "
                    f"WHERE c.slot = {slot}",
                )
                committed[index][slot] += 1
            except DeadlockError as exc:
                deadlocks.append(str(exc))
            except (LockTimeoutError, LockCancelledError):
                pass  # retryable; simply drop this increment
            except MoodError as exc:
                failures.append(f"writer {index}: {exc}")
        manager.close_session(session)

    def reader(index: int) -> None:
        session = manager.open_session()
        start.wait()
        for _ in range(INCREMENTS_PER_WRITER):
            try:
                rows = manager.execute(
                    session,
                    "SELECT c.slot, c.value FROM StressCounter c",
                )[0].rows
                # Snapshot sanity: values are non-negative and bounded by
                # the total increments possibly committed so far.
                assert all(value >= 0 for _, value in rows)
            except (LockTimeoutError, LockCancelledError):
                pass
            except MoodError as exc:
                failures.append(f"reader {index}: {exc}")
        manager.close_session(session)

    threads = [
        threading.Thread(target=writer, args=(i,)) for i in range(WRITERS)
    ] + [
        threading.Thread(target=reader, args=(i,)) for i in range(READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress worker hung"

    assert not failures, failures
    # Conservative single-statement 2PL cannot deadlock: every closure is
    # acquired in sorted order before execution.  A deadlock here means
    # phantom wait-for edges (stale waiter bookkeeping).
    assert deadlocks == []

    # Serial-replay equivalence: the committed history, replayed serially,
    # yields exactly the observed final counters -- increments commute, so
    # equivalence reduces to the per-slot committed count.
    session = manager.open_session()
    rows = manager.execute(
        session, "SELECT c.slot, c.value FROM StressCounter c"
    )[0].rows
    finals = {slot: value for slot, value in rows}
    for slot in range(SLOTS):
        expected = sum(committed[w][slot] for w in range(WRITERS))
        assert finals[slot] == expected, (
            f"slot {slot}: final {finals[slot]} != {expected} committed "
            "increments (lost update)"
        )
    # And nothing leaked: no active transactions, no queued waiters.
    assert manager.kernel.storage.txns.active == {}
    assert manager.kernel.storage.locks.waiter_count() == 0


def test_opposite_order_transactions_deadlock_and_retry(manager):
    db = manager.db
    db.execute("CREATE CLASS Left TUPLE (value Integer)")
    db.execute("CREATE CLASS Right TUPLE (value Integer)")
    db.execute("new Left <0>")
    db.execute("new Right <0>")

    first_updates = threading.Barrier(2, timeout=60)
    outcomes: dict[str, str] = {}

    def transact(name: str, first: str, second: str) -> None:
        session = manager.open_session()
        for attempt in (1, 2):
            try:
                manager.begin(session)
                manager.execute(
                    session,
                    f"UPDATE {first} t SET value = t.value + 1",
                )
                if attempt == 1:
                    # Both transactions hold their first X lock before
                    # either requests its second: the classic cycle.
                    first_updates.wait()
                manager.execute(
                    session,
                    f"UPDATE {second} t SET value = t.value + 1",
                )
                manager.commit(session)
                outcomes[name] = "committed" if attempt == 1 else "retried"
                break
            except DeadlockError:
                outcomes[name] = "victim"
                # Session layer already rolled the transaction back;
                # loop once more to retry from scratch.
            except MoodError as exc:  # pragma: no cover - diagnostic
                outcomes[name] = f"unexpected: {exc}"
                break
        manager.close_session(session)

    threads = [
        threading.Thread(
            target=transact, args=("A", "Left", "Right"), daemon=True
        ),
        threading.Thread(
            target=transact, args=("B", "Right", "Left"), daemon=True
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "deadlock test hung"

    # Exactly one victim, detected (not timed out); its retry succeeded.
    assert sorted(outcomes.values()) == ["committed", "retried"], outcomes
    assert manager.kernel.storage.metrics.value("locks.deadlocks") >= 1

    session = manager.open_session()
    left = manager.execute(session, "SELECT t.value FROM Left t")[0].rows
    right = manager.execute(session, "SELECT t.value FROM Right t")[0].rows
    # Both transactions eventually committed exactly once each.
    assert left == [(2,)]
    assert right == [(2,)]
