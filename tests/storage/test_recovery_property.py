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


@settings(max_examples=40, deadline=None)
@given(operations, st.integers(0, 24))
def test_property_recovery_equals_committed_state(history, crash_after):
    sm = StorageManager(buffer_capacity=8)
    f = sm.create_file("data")
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

    sm.crash()
    sm.restart()
    assert {oid: p for _, oid, p in sm.scan([f])} == committed


@settings(max_examples=25, deadline=None)
@given(operations)
def test_property_double_crash_recovery_stable(history):
    """Recovery is idempotent under repeated crash/restart cycles."""
    sm = StorageManager(buffer_capacity=8)
    f = sm.create_file("data")
    committed: dict = {}
    for op, payload, commit, checkpoint in history:
        txn = sm.begin()
        oid = sm.insert(f, payload, txn)
        if commit:
            txn.commit()
            committed[oid] = payload
        else:
            txn.abort()
        if checkpoint:
            sm.checkpoint()
    for _ in range(3):
        sm.crash()
        sm.restart()
        assert {oid: p for _, oid, p in sm.scan([f])} == committed
