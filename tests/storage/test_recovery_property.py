"""Property-based crash-recovery testing.

Hypothesis drives random transactional histories (inserts/updates/deletes,
commits/aborts, checkpoints) and crashes at an arbitrary point; after
restart recovery the visible state must equal exactly the committed model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.manager import StorageManager

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.binary(min_size=1, max_size=24),
        st.booleans(),                  # commit (True) or abort (False)
        st.booleans(),                  # checkpoint after this txn
    ),
    min_size=1,
    max_size=25,
)


def play(sm, f, history, crash_after) -> dict:
    """Run ``history`` as one transaction per operation; at index
    ``crash_after`` leave one transaction in flight instead (a loser at
    the crash) and stop.  Return the committed model."""
    committed: dict = {}
    live_oids: list = []

    for index, (op, payload, commit, checkpoint) in enumerate(history):
        if index == crash_after:
            # Leave one transaction in flight at the crash point.
            loser = sm.begin()
            if live_oids:
                sm.update(f, live_oids[0], b"IN-FLIGHT", loser)
            else:
                sm.insert(f, b"IN-FLIGHT", loser)
            break
        txn = sm.begin()
        shadow = dict(committed)
        if op == "insert" or not live_oids:
            oid = sm.insert(f, payload, txn)
            shadow[oid] = payload
            new_oid = oid
        elif op == "update":
            oid = live_oids[len(payload) % len(live_oids)]
            sm.update(f, oid, payload, txn)
            shadow[oid] = payload
            new_oid = None
        else:  # delete
            oid = live_oids[len(payload) % len(live_oids)]
            sm.delete(f, oid, txn)
            shadow.pop(oid, None)
            new_oid = None
        if commit:
            txn.commit()
            committed = shadow
            if new_oid is not None:
                live_oids.append(new_oid)
            if op == "delete" and oid in live_oids:
                live_oids.remove(oid)
        else:
            txn.abort()
        if checkpoint:
            sm.checkpoint()
    return committed


@settings(max_examples=40, deadline=None)
@given(operations, st.integers(0, 24))
def test_property_recovery_equals_committed_state(history, crash_after):
    sm = StorageManager(buffer_capacity=8)
    f = sm.create_file("data")
    committed = play(sm, f, history, crash_after)
    sm.crash()
    sm.restart()
    assert {oid: p for _, oid, p in sm.scan([f])} == committed


@settings(max_examples=25, deadline=None)
@given(operations, st.integers(0, 24))
def test_property_double_crash_recovery_stable(history, crash_after):
    """Recovery is idempotent under repeated crash/restart cycles, also
    when a loser (an in-flight insert, or an update of a committed
    record) was rolled back by the first restart."""
    sm = StorageManager(buffer_capacity=8)
    f = sm.create_file("data")
    committed = play(sm, f, history, crash_after)
    for _ in range(3):
        sm.crash()
        sm.restart()
        assert {oid: p for _, oid, p in sm.scan([f])} == committed
