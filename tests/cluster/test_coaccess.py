"""The access log: first-touch order per class, one feed, bounded."""

from repro.cluster import coaccess
from repro.cluster.coaccess import CoAccessLog
from repro.core.database import MoodDatabase
from repro.storage.oid import OID


def _oid(n):
    return OID(1, n, 0)


def test_first_touch_order_per_class():
    log = CoAccessLog()
    for n, cls in ((1, "A"), (10, "B"), (2, "A"), (1, "A"), (11, "B")):
        log.note([(_oid(n), cls)])
    # A repeat touch keeps its first position.
    assert log.take() == {
        "A": [_oid(1), _oid(2)], "B": [_oid(10), _oid(11)],
    }


def test_frontiers_and_single_derefs_share_one_sequence():
    log = CoAccessLog()
    log.note([(_oid(1), "A"), (_oid(2), "A"), (_oid(9), "B"), (_oid(3), "A")])
    log.note([(_oid(4), "A")])
    log.note([(_oid(2), "A"), (_oid(5), "A")])
    assert log.take()["A"] == [_oid(n) for n in (1, 2, 3, 4, 5)]


def test_overflow_drops_oldest_first(monkeypatch):
    monkeypatch.setattr(coaccess, "MAX_NOTED", 3)
    log = CoAccessLog()
    log.note((_oid(n), "A") for n in range(1, 6))
    assert len(log) == 3
    assert log.take() == {"A": [_oid(3), _oid(4), _oid(5)]}


def test_take_starts_the_log_empty():
    log = CoAccessLog()
    log.note([(_oid(1), "A")])
    assert log.take() == {"A": [_oid(1)]}
    assert len(log) == 0
    assert log.take() == {}


def test_traversal_notes_parts_in_widget_order_with_cache_on_or_off():
    """Both feeds -- a cached traversal's hop frontier and an uncached
    one's single chases -- log the Parts in the order Widgets reach them."""
    sequences = []
    for cache in (True, False):
        db = MoodDatabase(buffer_capacity=16, cache_enabled=cache)
        db.execute("CREATE CLASS Part TUPLE (pid Integer)")
        db.execute(
            "CREATE CLASS Widget TUPLE (wid Integer, part REFERENCE (Part))"
        )
        parts = [db.new_object("Part", {"pid": i}) for i in range(6)]
        for wid, pid in enumerate((4, 1, 4, 0, 5)):
            db.new_object("Widget", {"wid": wid, "part": parts[pid]})
        db.kernel.coaccess.take()
        db.query("SELECT w.wid, w.part.pid FROM Widget w")
        sequence = db.kernel.coaccess.take()["Part"]
        assert sequence == [parts[pid].oid for pid in (4, 1, 0, 5)]
        sequences.append(sequence)
    assert sequences[0] == sequences[1]
