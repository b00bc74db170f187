"""A larger-scale smoke: thousands of objects, a small buffer pool, and the
whole query pipeline still correct and accounted."""

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase


@pytest.fixture(scope="module")
def big_db():
    # A deliberately small buffer pool: everything spills and re-reads.
    db = MoodDatabase(buffer_capacity=24)
    build_paper_database(db, scale=400, seed=31)
    return db


def test_population(big_db):
    assert big_db.kernel.objects.count("Vehicle", deep=True) == 400
    assert big_db.kernel.objects.count("Company") == 4000


def test_selective_path_query_correct_at_scale(big_db):
    result = big_db.query(
        "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    )
    expected = sorted(
        v.oid for v in big_db.extent("Vehicle")
        if big_db.get(
            big_db.get(v.state["drivetrain"]).state["engine"]
        ).state["cylinders"] == 2
    )
    assert sorted(o.oid for (o,) in result.rows) == expected
    assert len(expected) > 0


def test_buffer_pool_cycles_under_pressure(big_db):
    metrics = big_db.kernel.storage.metrics
    before = metrics.snapshot()
    big_db.query("SELECT c FROM Company c WHERE c.name = 'BMW'")
    counts = metrics.since(before)
    # 4000 companies cannot fit in 24 frames: evictions must happen.
    assert counts["buffer.evictions"] > 0
    assert counts["buffer.misses"] > 24


def test_io_accounting_scales_with_extent(big_db):
    big_db.kernel.storage.buffer.flush_all()
    big_db.kernel.storage.buffer.drop_all()
    probe = big_db.io_probe()
    big_db.query("SELECT c FROM Company c WHERE c.location = 'Ankara'")
    company_io = big_db.io_since(probe)
    big_db.kernel.storage.buffer.flush_all()
    big_db.kernel.storage.buffer.drop_all()
    probe = big_db.io_probe()
    big_db.query("SELECT e FROM VehicleEngine e WHERE e.size > 2000")
    engine_io = big_db.io_since(probe)
    # Company's extent is 20x VehicleEngine's: the scan I/O reflects it.
    assert company_io.page_reads > 4 * engine_io.page_reads


def test_ordered_grouped_query_at_scale(big_db):
    result = big_db.query(
        "SELECT v.weight FROM Vehicle v WHERE v.weight > 1200 "
        "GROUP BY v.weight ORDER BY v.weight DESC"
    )
    weights = result.scalars()
    assert weights == sorted(set(weights), reverse=True)
    assert all(w > 1200 for w in weights)


def test_mass_updates_then_query(big_db):
    touched = big_db.execute(
        "UPDATE Vehicle v SET weight = v.weight + 10000 "
        "WHERE v.drivetrain.transmission = 'CVT'"
    )
    assert touched.count > 0
    heavy = big_db.query("SELECT v FROM Vehicle v WHERE v.weight > 10000")
    assert len(heavy) == touched.count
    big_db.execute(
        "UPDATE Vehicle v SET weight = v.weight - 10000 "
        "WHERE v.weight > 10000"
    )
