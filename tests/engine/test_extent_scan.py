"""Extent scans read a class closure in physical page order.

``paperdb`` inserts ``Vehicle``, ``Automobile`` and ``JapaneseAuto``
objects interleaved (``i % 5``, ``i % 2``), so the three extents own
alternating pages.  A closure scan sweeps the union of their pages once,
ascending, so a cold ``SELECT ... FROM Vehicle`` costs the paper's
SEQCOST(n) -- one random read and n - 1 sequential ones -- instead of a
random read per page.  The sweep must not change *what* is read: every
live object exactly once, under its home OID, whatever NEW, oversize
growth (``FWD -> MOVED``) and DELETE did to the pages.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.errors import LockTimeoutError
from repro.model.serde import decode
from repro.storage.disk import DiskParams

MEMBERS = ("Vehicle", "Automobile", "JapaneseAuto")
SCHEMA = (
    "CREATE CLASS Vehicle TUPLE (id Integer, pad String(2000));"
    "CREATE CLASS Automobile INHERITS FROM Vehicle;"
    "CREATE CLASS JapaneseAuto INHERITS FROM Automobile;"
)


def _member(i: int) -> str:
    """``paperdb``'s interleaved class assignment."""
    return ("JapaneseAuto" if i % 5 == 0
            else "Automobile" if i % 2 == 0 else "Vehicle")


def _hierarchy_db(cache_enabled: bool = True, n: int = 300) -> MoodDatabase:
    db = MoodDatabase(buffer_capacity=64, cache_enabled=cache_enabled)
    db.execute_script(SCHEMA)
    for i in range(n):
        db.new_object(_member(i), {"id": i, "pad": "x" * 150})
    db.analyze()
    return db


def _closure_pages(db: MoodDatabase) -> list[int]:
    return sorted(
        page for member in MEMBERS
        for page in db.kernel.catalog.extent_file(member).pages
    )


def _go_cold(db: MoodDatabase) -> None:
    storage = db.kernel.storage
    storage.buffer.flush_all()
    storage.buffer.drop_all()
    db.kernel.objects.invalidate_cache()


def _row_key(obj) -> tuple:
    return obj.oid, obj.class_name, tuple(sorted(obj.state.items()))


@pytest.mark.parametrize("cache_enabled", [True, False])
def test_cold_closure_scan_charges_seqcost(cache_enabled):
    db = _hierarchy_db(cache_enabled)
    pages = _closure_pages(db)
    n = len(pages)
    # The interleaved inserts leave the closure one contiguous page run
    # that no single member file covers.
    assert pages == list(range(pages[0], pages[0] + n))
    assert all(
        db.kernel.catalog.extent_file(m).nbpages() < n for m in MEMBERS
    )
    _go_cold(db)
    storage = db.kernel.storage
    before = storage.io_snapshot()
    result = db.query("SELECT v FROM Vehicle v")
    delta = storage.io_stats.since(before)
    assert (delta.random_reads, delta.sequential_reads) == (1, n - 1)
    params = storage.params
    assert delta.elapsed_ms == pytest.approx(
        params.rnd_cost(1) + (n - 1) * params.ebt
    )

    scanned = Counter(_row_key(row[0]) for row in result.rows)
    concatenated = Counter(
        (oid, member, tuple(sorted(decode(payload).items())))
        for member in MEMBERS
        for oid, payload in db.kernel.catalog.extent_file(member).scan()
    )
    assert scanned == concatenated
    assert sum(scanned.values()) == 300


def test_explain_analyze_of_paper_id_selection_is_one_sweep():
    """Scale 400: ``v.id = 17`` reads Vehicle's closure, 10 interleaved
    pages, as one sequential sweep -- 37.74 ms, not 10 random reads
    (260.41 ms)."""
    db = MoodDatabase()
    build_paper_database(db, scale=400)
    db.analyze()
    _go_cold(db)
    report = db.explain("SELECT v FROM Vehicle v WHERE v.id = 17").report
    assert report.total_actual_pages == 10
    assert report.total_actual_ms == pytest.approx(37.74125)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.integers(0, 99)),
        st.tuples(st.just("grow"), st.integers(0, 10 ** 6),
                  st.integers(600, 900)),
        st.tuples(st.just("delete"), st.integers(0, 10 ** 6)),
    ),
    min_size=20, max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_closure_scan_yields_each_live_object_once(ops):
    # 1 KiB pages: a few grown records overflow a page, so growth moves
    # bodies behind FWD stubs.
    db = MoodDatabase(DiskParams(block_size=1024), buffer_capacity=16)
    db.execute_script(SCHEMA)
    objects = db.kernel.objects
    model: dict = {}
    for step, op in enumerate(ops):
        if op[0] == "new":
            state = {"id": step, "pad": "n" * op[1]}
            obj = objects.new_object(_member(op[1]), state)
            model[obj.oid] = (obj.class_name, obj.state)
        elif model and op[0] == "grow":
            oid = sorted(model)[op[1] % len(model)]
            obj = objects.deref(oid)
            obj.state["pad"] = "g" * op[2]
            objects.update_object(obj)
            model[oid] = (obj.class_name, obj.state)
        elif model and op[0] == "delete":
            oid = sorted(model)[op[1] % len(model)]
            objects.delete_object(oid)
            del model[oid]
    scanned = list(objects.iter_extent("Vehicle"))
    assert Counter(obj.oid for obj in scanned) == Counter(set(model))
    assert {obj.oid: (obj.class_name, obj.state) for obj in scanned} == model
    homes = [obj.oid.page for obj in scanned]
    assert homes == sorted(homes)


def test_session_scan_fails_before_the_first_row_on_a_locked_member():
    """Another transaction holds X on JapaneseAuto's extent: a Vehicle
    scan under a session transaction raises the retryable lock error
    before it yields any row of the other members."""
    db = _hierarchy_db(n=40)
    storage = db.kernel.storage
    writer = storage.begin()
    storage.txns.lock_exclusive(
        writer, ("file", db.kernel.catalog.extent_file("JapaneseAuto")
                 .file_id)
    )
    reader = storage.begin()
    reader.lock_timeout = 0
    db.kernel.objects.current_txn = reader
    scan = db.kernel.objects.iter_extent("Vehicle")
    yielded = []
    with pytest.raises(LockTimeoutError) as caught:
        for obj in scan:
            yielded.append(obj)
    assert caught.value.retryable
    assert yielded == []
    db.kernel.objects.current_txn = None
    reader.abort()
    writer.abort()


def test_growing_update_of_the_hierarchy_updates_each_object_once():
    db = _hierarchy_db(n=120)
    storage = db.kernel.storage
    moved_before = storage.storage_counters.relocations.value
    grown = "g" * 1500
    result = db.execute(
        f"UPDATE Vehicle v SET id = v.id + 1000, pad = '{grown}'"
    )
    assert result.count == 120
    # Most records outgrew their page: the bodies moved behind stubs.
    assert storage.storage_counters.relocations.value - moved_before > 60
    rows = list(db.kernel.objects.iter_extent("Vehicle"))
    assert sorted(obj.state["id"] for obj in rows) == \
        list(range(1000, 1120))
    assert all(obj.state["pad"] == grown for obj in rows)
    assert Counter(obj.class_name for obj in rows) == \
        Counter(_member(i) for i in range(120))
