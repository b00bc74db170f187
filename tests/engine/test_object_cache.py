"""Tests for the deref fast path: the object cache and batch dereferencing.

The invariant under test everywhere: the cache only ever serves an object's
*committed* state.  Every write path -- update, delete, insert-over-a-
recycled-slot, transaction abort, crash/restart recovery, page-map rebuild
-- must leave the cache unable to answer stale; and cached execution must
be observationally identical to the paper-faithful uncached execution.
"""

import random

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.errors import MoodError
from repro.engine.joins import PipelinedLeaf, forward_traversal
from repro.engine.objcache import ObjectCache


def _cold_buffer(db) -> None:
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()


@pytest.fixture
def small_db():
    db = MoodDatabase(buffer_capacity=64)
    build_paper_database(db, scale=40, seed=11)
    return db


# --------------------------------------------------------------------------
# The fast path itself
# --------------------------------------------------------------------------

def test_repeat_deref_charges_no_io(small_db):
    oid = small_db.extent("VehicleEngine")[0].oid
    small_db.kernel.objects.invalidate_cache()
    _cold_buffer(small_db)
    small_db.get(oid)  # charged read, populates the cache
    _cold_buffer(small_db)
    probe = small_db.io_probe()
    again = small_db.get(oid)
    assert small_db.io_since(probe).page_ios == 0
    assert again.oid == oid


def test_cached_object_is_isolated_from_caller_mutation(small_db):
    oid = small_db.extent("VehicleEngine")[0].oid
    first = small_db.get(oid)
    first.state["cylinders"] = -999  # mutated but never saved
    assert small_db.get(oid).state["cylinders"] != -999


def test_deref_many_returns_one_object_per_oid_in_caller_order():
    """``deref_many`` answers every entry in caller order, duplicates
    included; the store decides the charge: with the cache off exactly a
    per-OID ``deref`` loop, with it on each distinct OID read once and one
    read per page from a cold buffer."""
    db = MoodDatabase(buffer_capacity=4)
    build_paper_database(db, scale=120, seed=5)
    objects = db.kernel.objects
    # Shuffled across pages, so the uncached charge depends on the order.
    oids = sorted((o.oid for o in db.extent("Company")),
                  key=lambda o: (o.slot, o.page))
    batch = oids + oids
    pages = {oid.page for oid in oids}

    db.set_cache_enabled(False)
    _cold_buffer(db)
    probe = db.io_probe()
    for oid in batch:
        objects.deref(oid)
    loop = db.io_since(probe)
    _cold_buffer(db)
    probe = db.io_probe()
    fetched = objects.deref_many(batch)
    uncached = db.io_since(probe)
    assert [obj.oid for obj in fetched] == batch
    assert (uncached.random_reads, uncached.sequential_reads) == \
        (loop.random_reads, loop.sequential_reads)
    assert uncached.elapsed_ms == pytest.approx(loop.elapsed_ms)
    assert uncached.page_reads > len(pages)

    db.set_cache_enabled(True)
    _cold_buffer(db)
    probe = db.io_probe()
    before = db.kernel.storage.metrics.snapshot()
    fetched = objects.deref_many(batch)
    assert [obj.oid for obj in fetched] == batch
    assert db.io_since(probe).page_reads == len(pages)
    counts = db.kernel.storage.metrics.since(before)
    assert (counts["objcache.misses"], counts["objcache.batches"],
            counts["objcache.batched_oids"]) == (len(oids), 1, len(oids))


def test_warm_charges_nothing_with_the_cache_off():
    """``warm`` is free without a cache; with one it charges the walk once
    and leaves every object on the path resident."""
    db = MoodDatabase(buffer_capacity=4)
    build_paper_database(db, scale=40, seed=11)
    objects = db.kernel.objects
    vehicles = db.extent("Vehicle")
    path = ("drivetrain", "engine", "cylinders")

    db.set_cache_enabled(False)
    _cold_buffer(db)
    probe = db.io_probe()
    objects.warm(vehicles, path)
    assert db.io_since(probe).page_ios == 0

    db.set_cache_enabled(True)
    _cold_buffer(db)
    probe = db.io_probe()
    objects.warm(vehicles, path)
    assert db.io_since(probe).page_ios > 0
    probe = db.io_probe()
    for vehicle in vehicles:
        objects.deref(objects.deref(vehicle.state["drivetrain"])
                      .state["engine"])
    assert db.io_since(probe).page_ios == 0


def test_deref_many_clusters_reads_by_page():
    """A cold batch over a whole extent charges one read per *page*, where
    per-OID chasing with the cache off charges one per *object*."""
    db = MoodDatabase(buffer_capacity=4)
    build_paper_database(db, scale=120, seed=5)
    oids = [o.oid for o in db.extent("Company")]
    pages = {oid.page for oid in oids}
    assert len(pages) > 1 and len(oids) > 2 * len(pages)

    db.set_cache_enabled(False)
    _cold_buffer(db)
    probe = db.io_probe()
    # Shuffled per-OID chases: the paper's access pattern.
    for oid in sorted(oids, key=lambda o: (o.slot, o.page)):
        db.get(oid)
    uncached = db.io_since(probe).page_reads

    db.set_cache_enabled(True)
    _cold_buffer(db)
    probe = db.io_probe()
    db.kernel.objects.deref_many(oids)
    batched = db.io_since(probe).page_reads

    assert batched == len(pages)
    assert batched < uncached


def test_lru_eviction_respects_capacity(small_db):
    objects = small_db.kernel.objects
    objects.set_cache_enabled(False)
    objects._cache_capacity = 8
    objects.set_cache_enabled(True)
    cache = objects.cache
    companies = small_db.extent("Company")[:20]
    before = small_db.kernel.storage.metrics.snapshot()
    for company in companies:
        objects.deref(company.oid)
    assert len(cache) == 8
    evictions = small_db.kernel.storage.metrics.since(before)[
        "objcache.evictions"]
    assert evictions == 12
    # Most recent distinct derefs survive, oldest were evicted.
    assert companies[-1].oid in cache
    assert companies[0].oid not in cache


def test_lru_recency_on_hit(small_db):
    objects = small_db.kernel.objects
    objects._cache_capacity = 4
    objects.set_cache_enabled(False)
    objects.set_cache_enabled(True)
    companies = small_db.extent("Company")[:5]
    for company in companies[:4]:
        objects.deref(company.oid)
    objects.deref(companies[0].oid)      # refresh: now MRU
    objects.deref(companies[4].oid)      # evicts companies[1], not [0]
    assert companies[0].oid in objects.cache
    assert companies[1].oid not in objects.cache


# --------------------------------------------------------------------------
# Invalidation: every write path must evict
# --------------------------------------------------------------------------

def test_update_evicts_and_rereads(small_db):
    vehicle = small_db.extent("Vehicle")[0]
    assert small_db.get(vehicle.oid).state["weight"] == \
        vehicle.state["weight"]  # cached now
    vehicle.state["weight"] = 4321
    small_db.save(vehicle)
    # Stale-read regression: a cache that missed the invalidation would
    # still answer with the pre-update weight here.
    assert small_db.get(vehicle.oid).state["weight"] == 4321


def test_delete_evicts(small_db):
    engine = small_db.new_object("VehicleEngine",
                                 {"size": 1, "cylinders": 2})
    small_db.get(engine.oid)  # cached
    small_db.delete(engine.oid)
    assert engine.oid not in small_db.object_cache
    with pytest.raises(MoodError):
        small_db.get(engine.oid)


def test_insert_invalidates_recycled_slot(small_db):
    """Slotted files reuse slots: after delete + insert the same OID can
    name a different object, so insert must evict it."""
    first = small_db.new_object("VehicleEngine", {"size": 7, "cylinders": 4})
    small_db.get(first.oid)  # cached
    small_db.delete(first.oid)
    second = small_db.new_object("VehicleEngine",
                                 {"size": 8, "cylinders": 6})
    if second.oid == first.oid:  # the slot actually was recycled
        assert small_db.get(second.oid).state["size"] == 8
    else:  # recycling did not occur; the delete eviction still holds
        assert first.oid not in small_db.object_cache


def test_abort_clears_cache(small_db):
    vehicle = small_db.extent("Vehicle")[0]
    original = small_db.get(vehicle.oid).state["weight"]
    txn = small_db.kernel.storage.txns.begin()
    changed = small_db.get(vehicle.oid)
    changed.state["weight"] = original + 1000
    small_db.kernel.objects.update_object(changed, txn)
    txn.abort()
    # The before-image was restored underneath the cache; a stale entry
    # would answer with the aborted weight.
    assert small_db.get(vehicle.oid).state["weight"] == original


def test_crash_and_restart_clear_cache(small_db):
    vehicle = small_db.extent("Vehicle")[0]
    # Flush first: the fixture's inserts are non-transactional, so without
    # a checkpoint a crash would genuinely lose them (by design).
    small_db.kernel.storage.checkpoint()
    small_db.get(vehicle.oid)
    assert vehicle.oid in small_db.object_cache
    small_db.kernel.storage.crash()
    assert len(small_db.object_cache) == 0
    small_db.get(vehicle.oid)  # repopulate from the recovered pages
    small_db.kernel.storage.restart()
    assert len(small_db.object_cache) == 0
    assert small_db.get(vehicle.oid).state["id"] == vehicle.state["id"]


def test_rebuild_page_map_clears_cache(small_db):
    vehicle = small_db.extent("Vehicle")[0]
    small_db.get(vehicle.oid)
    small_db.kernel.objects.rebuild_page_map()
    assert len(small_db.object_cache) == 0


def test_alter_class_migration_invalidates(small_db):
    """RENAME rewrites every stored instance through the storage manager
    directly (bypassing the object manager); the migration must keep the
    cache honest."""
    engine = small_db.extent("VehicleEngine")[0]
    cached = small_db.get(engine.oid)  # cached under the old schema
    assert "size" in cached.state
    small_db.execute(
        "ALTER CLASS VehicleEngine RENAME ATTRIBUTE size TO displacement"
    )
    after = small_db.get(engine.oid).state
    assert "displacement" in after and "size" not in after


# --------------------------------------------------------------------------
# Before-image reads are skipped when nobody needs them
# --------------------------------------------------------------------------

def _count_storage_reads(db, monkeypatch):
    calls = []
    storage = db.kernel.storage
    original = storage.read

    def counting_read(extent, oid, txn=None):
        calls.append(oid)
        return original(extent, oid, txn)

    monkeypatch.setattr(storage, "read", counting_read)
    return calls


def test_update_without_observers_skips_before_image(small_db, monkeypatch):
    objects = small_db.kernel.objects
    objects.set_cache_enabled(False)
    vehicle = small_db.extent("Vehicle")[0]
    calls = _count_storage_reads(small_db, monkeypatch)

    monkeypatch.setattr(objects, "observers", [])
    vehicle.state["weight"] = 1111
    objects.update_object(vehicle)
    assert calls == []  # no observer -> no before-image read

    events = []
    monkeypatch.setattr(
        objects, "observers", [lambda *event: events.append(event)]
    )
    vehicle.state["weight"] = 2222
    objects.update_object(vehicle)
    assert len(calls) == 1  # observer present -> exactly one read
    assert events[0][0] == "update"
    assert events[0][2]["weight"] == 1111  # the before-image it needed


def test_delete_without_observers_skips_deref(small_db, monkeypatch):
    objects = small_db.kernel.objects
    objects.set_cache_enabled(False)
    engine = small_db.new_object("VehicleEngine",
                                 {"size": 3, "cylinders": 8})
    calls = _count_storage_reads(small_db, monkeypatch)
    monkeypatch.setattr(objects, "observers", [])
    objects.delete_object(engine.oid)
    assert calls == []


def test_update_with_cache_serves_before_image_without_read(
        small_db, monkeypatch):
    objects = small_db.kernel.objects
    assert objects.observers  # index maintenance is registered
    vehicle = small_db.extent("Vehicle")[0]
    small_db.get(vehicle.oid)  # before-image now cached
    calls = _count_storage_reads(small_db, monkeypatch)
    vehicle.state["weight"] = 3333
    objects.update_object(vehicle)
    assert calls == []  # the cache supplied the observers' before-image


# --------------------------------------------------------------------------
# Cached and uncached execution are observationally identical
# --------------------------------------------------------------------------

def _forced_forward_rows(db, sql):
    """Execute ``sql`` with every join forced to FORWARD_TRAVERSAL -- the
    pointer-chasing method the cache and deref_many batching accelerate
    (the planner itself prefers backward traversal at these scales)."""
    from repro.engine.executor import Executor
    from repro.optimizer.plan import JoinNode
    from repro.sql.parser import parse

    plan = db.kernel.planner().plan_query(parse(sql))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    executor = Executor(
        objects=db.kernel.objects,
        evaluator=db.kernel.evaluator,
        catalog=db.kernel.catalog,
        index_manager=db.kernel.indexes,
    )
    return sorted(
        tuple(sorted(
            (var, value.oid if hasattr(value, "oid") else value)
            for var, value in row.items()
        ))
        for row in executor.execute_plan(plan)
    )


PATH_QUERY_TEMPLATES = [
    "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = {cyl}",
    "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders > {cyl}",
    "SELECT v.id FROM Vehicle v WHERE v.manufacturer.location = '{loc}' "
    "ORDER BY v.id",
    "SELECT c FROM Automobile c WHERE c.drivetrain.transmission = '{tx}' "
    "AND c.drivetrain.engine.cylinders > {cyl}",
    "SELECT v FROM Vehicle v WHERE v.manufacturer.president.age > {age}",
]


def _row_key(row):
    return tuple(
        cell.oid if hasattr(cell, "oid") else cell for cell in row
    )


def test_property_cached_equals_uncached_on_random_path_queries():
    """Property: for randomized path queries over the same database, the
    cached and uncached executions return identical rows."""
    rng = random.Random(20260806)
    cached = MoodDatabase(buffer_capacity=32)
    uncached = MoodDatabase(buffer_capacity=32, cache_enabled=False)
    build_paper_database(cached, scale=48, seed=13)
    build_paper_database(uncached, scale=48, seed=13)
    assert cached.kernel.objects.cache_enabled
    assert not uncached.kernel.objects.cache_enabled

    for trial in range(12):
        template = rng.choice(PATH_QUERY_TEMPLATES)
        sql = template.format(
            cyl=rng.choice([2, 4, 8, 16, 24]),
            loc=rng.choice(["Munich", "Tokyo", "Detroit"]),
            tx=rng.choice(["AUTOMATIC", "MANUAL"]),
            age=rng.randrange(25, 65),
        )
        # Interleave writes so the cache must keep up with churn.
        if trial % 3 == 2:
            for db in (cached, uncached):
                victim = db.extent("Vehicle")[trial % 48]
                victim.state["weight"] = 5000 + trial
                db.save(victim)
        # Planner-chosen plans agree...
        left = sorted(map(_row_key, cached.query(sql).rows))
        right = sorted(map(_row_key, uncached.query(sql).rows))
        assert left == right, sql
        # ...and so do forced forward traversals (the plans the fast path
        # actually accelerates), for whole-object templates.
        if sql.startswith(("SELECT v FROM", "SELECT c FROM")):
            assert _forced_forward_rows(cached, sql) == \
                _forced_forward_rows(uncached, sql), sql

    assert cached.kernel.storage.metrics.value("objcache.hits") > 0


# --------------------------------------------------------------------------
# Mid-batch invalidation: a fused (left-deep) chain must never serve stale
# hops
# --------------------------------------------------------------------------

def _hop(db, rows, left_var, attr, right_var, class_name):
    return forward_traversal(
        rows, left_var, attr, PipelinedLeaf(right_var, class_name, (), ()),
        right_var, db.kernel.objects, db.kernel.evaluator,
    )


def _run_fused_chain(db, mutate):
    """Run the Example 8.2 chain as the fused plan runs it -- two
    forward traversals, one frontier each -- invoking ``mutate(db)``
    *between* the hops: after the drivetrain batch materialized, before
    the engine frontier is dereferenced.  The engine extent is pre-warmed
    into the cache first, so any invalidation the mutation misses would
    be served stale from the warm entries."""
    if db.object_cache is not None:
        db.kernel.objects.deref_many(
            [obj.oid for obj in db.extent("VehicleEngine")]
        )
    rows = _hop(db, [{"v": obj} for obj in db.extent("Vehicle")],
                "v", "drivetrain", "d", "VehicleDriveTrain")
    assert rows, "the drivetrain hop must materialize before the mutation"
    mutate(db)
    return _hop(db, rows, "d", "engine", "e", "VehicleEngine")


def test_fused_hop_sees_committed_update_mid_batch(small_db):
    engine = small_db.extent("VehicleEngine")[0]

    def mutate(db):
        engine.state["cylinders"] = 999
        db.save(engine)

    rows = _run_fused_chain(small_db, mutate)
    hits = [row for row in rows if row["e"].oid == engine.oid]
    assert hits, "every engine is reachable through some drivetrain"
    assert all(row["e"].state["cylinders"] == 999 for row in hits)


def test_fused_hop_ignores_aborted_txn_mid_batch(small_db):
    engine = small_db.extent("VehicleEngine")[0]
    original = engine.state["cylinders"]

    def mutate(db):
        txn = db.kernel.storage.txns.begin()
        changed = db.get(engine.oid)
        changed.state["cylinders"] = original + 1000
        db.kernel.objects.update_object(changed, txn)
        txn.abort()

    rows = _run_fused_chain(small_db, mutate)
    hits = [row for row in rows if row["e"].oid == engine.oid]
    assert hits
    # The before-image was restored underneath; a cache entry surviving
    # the abort would answer with the aborted cylinder count here.
    assert all(row["e"].state["cylinders"] == original for row in hits)


def test_fused_hop_survives_crash_restart_mid_batch(small_db):
    small_db.kernel.storage.checkpoint()
    baseline_db = MoodDatabase(buffer_capacity=64, cache_enabled=False)
    build_paper_database(baseline_db, scale=40, seed=11)
    baseline = sorted(
        (row["v"].oid, row["e"].oid, row["e"].state["cylinders"])
        for row in _run_fused_chain(baseline_db, lambda db: None)
    )

    def mutate(db):
        db.kernel.storage.crash()
        db.kernel.storage.restart()
        assert len(db.object_cache) == 0

    rows = _run_fused_chain(small_db, mutate)
    assert sorted(
        (row["v"].oid, row["e"].oid, row["e"].state["cylinders"])
        for row in rows
    ) == baseline


def test_fused_hop_sees_alter_rename_mid_batch(small_db):
    def mutate(db):
        db.execute(
            "ALTER CLASS VehicleEngine RENAME ATTRIBUTE size TO displacement"
        )

    rows = _run_fused_chain(small_db, mutate)
    assert rows
    for row in rows:
        state = row["e"].state
        assert "displacement" in state and "size" not in state


def test_fused_hop_update_equivalent_when_batching_disabled(small_db):
    """The same mid-traversal write with the cache off (so ``deref_many``
    chases per OID) yields the same rows -- the invalidation story does
    not depend on how the store charges a batch."""
    engine = small_db.extent("VehicleEngine")[0]

    def mutate(db):
        engine.state["cylinders"] = 777
        db.save(engine)

    small_db.set_cache_enabled(False)
    rows = _run_fused_chain(small_db, mutate)
    hits = [row for row in rows if row["e"].oid == engine.oid]
    assert hits
    assert all(row["e"].state["cylinders"] == 777 for row in hits)


# --------------------------------------------------------------------------
# Observability and configuration
# --------------------------------------------------------------------------

def test_explain_analyze_shows_cache_counters(small_db):
    """EXPLAIN ANALYZE surfaces the statement's own cache-counter deltas."""
    from repro.optimizer.plan import JoinNode
    from repro.sql.parser import parse

    sql = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    small_db.analyze()

    def forced_plan():
        plan = small_db.kernel.planner().plan_query(parse(sql))

        def force(node):
            if isinstance(node, JoinNode):
                node.method = "FORWARD_TRAVERSAL"
            for child in node.children():
                force(child)

        force(plan.root)
        return plan

    small_db.kernel.analyze_plan(forced_plan())  # warm: populate the cache
    result = small_db.kernel.analyze_plan(forced_plan())
    stats = result.report.cache_stats
    assert stats is not None and stats["enabled"] == 1.0
    assert stats["hits"] > 0
    assert stats["batches"] > 0
    text = result.report.render()
    assert "object cache: hits=" in text
    assert "hit-ratio=" in text
    assert "(disabled)" not in text

    # The statement-level route carries the same counters.
    statement = small_db.explain(sql)
    assert statement.report.cache_stats is not None
    assert "object cache: hits=" in statement.render()


def test_explain_analyze_marks_cache_disabled(small_db):
    small_db.set_cache_enabled(False)
    result = small_db.explain(
        "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
    )
    stats = result.report.cache_stats
    assert stats is not None and stats["enabled"] == 0.0
    assert stats["hits"] == 0.0 and stats["misses"] == 0.0
    assert "(disabled)" in result.render()


def test_cache_toggle_round_trip(small_db):
    oid = small_db.extent("Vehicle")[0].oid
    small_db.get(oid)
    small_db.set_cache_enabled(False)
    assert small_db.object_cache is None
    _cold_buffer(small_db)
    probe = small_db.io_probe()
    small_db.get(oid)
    assert small_db.io_since(probe).page_reads >= 1  # charged again
    small_db.set_cache_enabled(True)  # restarts cold
    assert len(small_db.object_cache) == 0


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        ObjectCache(0)
