"""The ``deref_many`` contract inside a session transaction, and PROJECT's
path warming.

A session transaction changes no charge: a frontier is still read once per
distinct miss, grouped by extent in ascending page order.  What the
transaction adds are the object cache's two visibility rules, kept per
extent instead of per OID:

* rule 1 -- the S lock on an extent is taken before any of its cached
  entries is looked at, so a cache hit cannot slip past a writer's X lock;
* rule 2 -- misses from an extent the transaction itself writes (it holds
  X) are not put in the shared cache.
"""

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.errors import LockTimeoutError
from repro.engine.objcache import DEFAULT_CAPACITY
from repro.server.session import SessionManager


def _cold(db) -> None:
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    db.kernel.objects.invalidate_cache()


def _acquisitions(db) -> float:
    return db.kernel.storage.metrics.counters().get(
        "locks.acquisitions", 0.0)


@pytest.fixture
def db():
    database = MoodDatabase(buffer_capacity=4)
    build_paper_database(database, scale=120, seed=3)
    database.analyze()
    return database


def _oids(db, class_name: str) -> list:
    return [obj.oid for obj in db.extent(class_name)]


def test_rule1_cached_batch_still_waits_for_a_writers_x_lock(db):
    objects = db.kernel.objects
    storage = db.kernel.storage
    companies = _oids(db, "Company")
    objects.deref_many(companies)           # every OID is now cached
    assert all(oid in objects.cache for oid in companies)
    writer = storage.begin()
    extent = db.kernel.catalog.extent_file("Company")
    storage.txns.lock_exclusive(writer, ("file", extent.file_id))
    reader = storage.begin()
    reader.lock_timeout = 0                 # the server's no-wait probe
    objects.current_txn = reader
    try:
        with pytest.raises(LockTimeoutError):
            objects.deref_many(companies)
    finally:
        objects.current_txn = None
        reader.abort()
        writer.abort()


def test_rule2_writer_reads_its_own_writes_and_the_cache_gains_nothing(db):
    objects = db.kernel.objects
    storage = db.kernel.storage
    engines = _oids(db, "VehicleEngine")
    companies = _oids(db, "Company")[:10]
    txn = storage.begin()
    objects.current_txn = txn
    try:
        target = objects.deref(engines[0])
        target.state["cylinders"] = 99
        objects.update_object(target)       # X lock on the engine extent
        objects.invalidate_cache()
        fetched = objects.deref_many(engines + companies)
        assert fetched[0].state["cylinders"] == 99
        assert [obj.oid for obj in fetched] == engines + companies
        assert not any(oid in objects.cache for oid in engines)
        # An extent the transaction only reads still feeds the cache.
        assert all(oid in objects.cache for oid in companies)
    finally:
        objects.current_txn = None
        txn.abort()
    assert objects.deref(engines[0]).state["cylinders"] != 99


@pytest.mark.parametrize("warm", [False, True])
def test_one_s_lock_acquisition_per_extent_per_batch(db, warm):
    objects = db.kernel.objects
    batch = _oids(db, "Company")[:40] + _oids(db, "VehicleEngine")
    batch += batch[::3]                     # duplicates change nothing
    if warm:
        objects.deref_many(batch)
    txn = db.kernel.storage.begin()
    objects.current_txn = txn
    try:
        before = _acquisitions(db)
        objects.deref_many(batch)
        assert _acquisitions(db) - before == 2
    finally:
        objects.current_txn = None
        txn.commit()


SCANS = (
    "SELECT v.id, v.manufacturer.name FROM Vehicle v "
    "WHERE v.drivetrain.engine.cylinders = 8",
    "SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v "
    "WHERE v.weight > 1000 AND v.weight <= 3000",
    "SELECT v.id, v.manufacturer.name FROM Vehicle v",
    "SELECT v.id FROM Vehicle v ORDER BY v.manufacturer.name",
)


@pytest.mark.parametrize("sql", SCANS)
def test_session_and_embedded_scans_charge_the_same(db, sql):
    """One charging policy: the same statement costs the same simulated
    disk time with and without a session transaction around it."""
    manager = SessionManager(db)
    session = manager.open_session()
    _cold(db)
    probe = db.io_probe()
    embedded = db.execute(sql)
    embedded_ms = db.io_since(probe).elapsed_ms
    _cold(db)
    probe = db.io_probe()
    served = manager.execute(session, sql)[-1]
    served_ms = db.io_since(probe).elapsed_ms
    manager.close_session(session)
    assert served.rows == embedded.rows
    assert embedded_ms > 0
    assert served_ms == embedded_ms


# --------------------------------------------------------------------------
# PROJECT warms its paths (|Vehicle| = 2400: 580 pages, cold buffer)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_db():
    database = MoodDatabase()
    build_paper_database(database, scale=2400)
    database.analyze()
    return database


def test_explain_analyze_charges_projection_paths_inside_the_plan(big_db):
    """A path projection is chased inside the PROJECT span, so the root
    row of the report accounts for the statement's whole disk delta."""
    _cold(big_db)
    probe = big_db.io_probe()
    result = big_db.explain(
        "SELECT v.id, v.manufacturer.name FROM Vehicle v "
        "WHERE v.drivetrain.engine.cylinders = 8"
    )
    delta = big_db.io_since(probe)
    root = result.report.lines[0]
    assert root.operator == "PROJECT"
    assert root.act_pages == delta.page_ios
    assert root.act_sim_ms == pytest.approx(delta.elapsed_ms)
    assert root.act_self_pages > 0          # the manufacturers' pages


def test_projection_frontier_larger_than_the_object_cache(big_db):
    """2400 manufacturers through a 256-entry cache: the warm pass evicts
    most of the frontier again before the rows are built, so result
    building chases what it lost once more -- from the buffer pool the
    page-ordered warm pass filled.  It must demand no more pages than
    chasing row by row did (528 from a cold buffer), and almost none of
    its reads are random: short gaps between wanted pages are read
    through instead of sought."""
    objects = big_db.kernel.objects
    objects.set_cache_enabled(False)
    objects._cache_capacity = 256
    objects.set_cache_enabled(True)
    try:
        _cold(big_db)
        probe = big_db.io_probe()
        rows = big_db.query(
            "SELECT v.id, v.manufacturer.name FROM Vehicle v").rows
        delta = big_db.io_since(probe)
    finally:
        objects.set_cache_enabled(False)
        objects._cache_capacity = DEFAULT_CAPACITY
        objects.set_cache_enabled(True)
    assert len(rows) == 2400
    assert all(name is not None for _, name in rows)
    assert delta.page_reads - delta.read_through <= 528
    assert delta.random_reads <= 2
    # Row-by-row chasing charged 12 265 ms for the same 528 pages;
    # seeking every gap between wanted pages, 934 ms.
    assert delta.elapsed_ms == pytest.approx(746.28, abs=0.01)
