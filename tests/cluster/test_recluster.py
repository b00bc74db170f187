"""Online reclustering, engine level: correctness, crash safety, caches.

The load-bearing property: reclustering is purely *physical*.  Whatever
the workload that trained the access log, queries return the same
row multiset before and after a reclustering pass, with the object cache
on or off -- while named roots, indexes and stored references all follow
the moved objects to their new identities.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import MoodDatabase


def _build(n_parts, n_widgets, seed, cache):
    db = MoodDatabase(buffer_capacity=32, cache_enabled=cache)
    db.execute("CREATE CLASS Part TUPLE (pid Integer, pad String(240))")
    db.execute(
        "CREATE CLASS Widget TUPLE (wid Integer, part REFERENCE (Part))"
    )
    rng = random.Random(seed)
    pad = "x" * 120
    parts = [
        db.new_object("Part", {"pid": i, "pad": pad}) for i in range(n_parts)
    ]
    widgets = [
        db.new_object("Widget", {"wid": i, "part": rng.choice(parts)})
        for i in range(n_widgets)
    ]
    return db, parts, widgets


QUERY = "SELECT w.wid, w.part.pid FROM Widget w"


def _train(db):
    """Drive deref traffic through both coaccess sources."""
    cached = db.object_cache is not None
    db.query(QUERY)                   # cached: frontier pairs
    db.set_cache_enabled(False)
    rows = sorted(db.query(QUERY).rows)   # uncached: single pairs
    db.set_cache_enabled(cached)
    return rows


def test_recluster_moves_objects_and_preserves_rows():
    db, parts, _ = _build(60, 60, seed=3, cache=True)
    rows = _train(db)
    stats = db.recluster()
    assert stats["state"] == "ok"
    assert stats["moves"] > 0
    assert sorted(db.query(QUERY).rows) == rows
    status = db.reclusterer.status()
    assert status["moves"] == stats["moves"]
    # Each move freed its old slot: no stub resolves a pre-move OID.
    extent = db.kernel.catalog.extent_file("Part")
    assert sum(not extent.exists(p.oid) for p in parts) == stats["moves"]
    assert status["last_error"] == ""


def test_direct_api_sees_relocated_objects():
    """Relocation leaves no stub to resolve a pre-move OID through, so
    the engine must have rewritten every stored reference it holds."""
    db, parts, widgets = _build(40, 40, seed=5, cache=True)
    _train(db)
    assert db.recluster()["moves"] > 0
    # Every widget's stored reference now points at a live Part.
    for w in db.extent("Widget", deep=False):
        part = db.get(w.state["part"])
        assert part.class_name == "Part"
    assert len(db.extent("Part", deep=False)) == 40


def test_indexes_follow_relocation():
    db, parts, _ = _build(50, 50, seed=9, cache=True)
    db.execute("CREATE INDEX part_pid ON Part (pid)")
    rows = _train(db)
    assert db.recluster()["moves"] > 0
    result = db.query("SELECT p.pid FROM Part p WHERE p.pid = 17")
    assert result.rows == [(17,)]
    assert sorted(db.query(QUERY).rows) == rows


def test_named_roots_follow_relocation():
    db, parts, _ = _build(40, 40, seed=11, cache=True)
    db.execute("NEW Part <999, 'named'> AS favourite")
    _train(db)
    assert db.recluster()["state"] == "ok"
    bound = db.kernel.catalog.lookup_name("favourite")
    assert db.get(bound).state["pid"] == 999


def test_second_run_converges_to_no_work():
    db, _, _ = _build(60, 60, seed=13, cache=True)
    _train(db)
    first = db.recluster()
    assert first["moves"] > 0
    _train(db)    # same workload retrains the decayed graph
    second = db.recluster()
    assert second["moves"] == 0   # already co-located: plan filters it


def test_variable_record_sizes_converge_in_one_pass():
    """Regression: with records of 20 to 500 bytes a page's capacity is
    only an average, so a pass fills its pages unevenly.  The next pass
    must still find the class packed and move nothing (the co-access
    graph moved 187, 50, 108 and 12 objects on four identical passes)."""
    db = MoodDatabase(buffer_capacity=32)
    db.execute("CREATE CLASS Part TUPLE (pid Integer, pad String(500))")
    db.execute(
        "CREATE CLASS Widget TUPLE (wid Integer, part REFERENCE (Part))"
    )
    rng = random.Random(0)
    parts = [
        db.new_object("Part", {"pid": i, "pad": "x" * rng.randint(20, 500)})
        for i in range(300)
    ]
    for i in range(300):
        db.new_object("Widget", {"wid": i, "part": rng.choice(parts)})
    moves = []
    for _ in range(4):
        rows = _train(db)
        moves.append(db.recluster()["moves"])
        assert sorted(db.query(QUERY).rows) == rows
    assert moves[0] > 0 and moves[1:] == [0, 0, 0]


def _recluster_bench():
    path = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
            / "bench_shape_recluster.py")
    spec = importlib.util.spec_from_file_location("bench_shape_recluster",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selective_cached_traversal_repays_reclustering():
    """The reclusterer's standing decision rule, on the bench's 5 %
    selective traversal with the cache on: one pass makes the cold
    traversal at least 2x cheaper, and its relocation I/O pays for itself
    within 1 000 traversals."""
    bench = _recluster_bench()
    cell = bench.measure_cell(bench.SELECTIVE, cache=True)
    assert cell["ms_before"] >= 2 * cell["ms_after"]
    assert cell["payoff"] is not None and cell["payoff"] <= 1000


def test_yielded_batch_returns_its_objects_to_the_log():
    """A batch that times out on its locks moves nothing and hands its
    OIDs back to the access log, so the next pass retries them."""
    db, _, _ = _build(40, 40, seed=23, cache=True)
    rows = _train(db)
    storage = db.kernel.storage
    blocker = storage.begin()
    storage.txns.lock_shared(
        blocker, ("file", db.kernel.catalog.extent_file("Part").file_id))
    db.reclusterer.lock_timeout = 0.05
    try:
        stats = db.recluster()
    finally:
        blocker.commit()
    assert (stats["moves"], stats["lock_timeouts"]) == (0, 1)
    assert len(db.kernel.coaccess) > 0
    assert db.recluster()["moves"] > 0
    assert sorted(db.query(QUERY).rows) == rows


def test_recluster_with_cache_disabled():
    db, _, _ = _build(50, 50, seed=17, cache=False)
    rows = _train(db)
    stats = db.recluster()
    assert stats["moves"] > 0
    assert sorted(db.query(QUERY).rows) == rows


def test_extent_growth_keeps_page_map_incrementally():
    """Satellite: allocating new extent pages must register them in the
    page map directly instead of rebuilding it (a rebuild would flush the
    whole object cache -- the PR 4 cache-storm signature)."""
    db = MoodDatabase(buffer_capacity=32)
    db.execute("CREATE CLASS Fat TUPLE (n Integer, pad String(2000))")
    pad = "y" * 1500   # a couple of objects per page: steady extent growth
    first = db.new_object("Fat", {"n": 0, "pad": pad})
    db.get(first.oid)  # warm the cache
    metrics = db.kernel.storage.metrics
    hits_before = metrics.value("objcache.hits")
    inval_before = metrics.value("objcache.invalidations")
    for n in range(1, 30):
        db.new_object("Fat", {"n": n, "pad": pad})
    # The warm entry survived every page allocation...
    db.get(first.oid)
    assert metrics.value("objcache.hits") == hits_before + 1
    # ...and no wholesale flush was charged against the cache.
    assert metrics.value("objcache.invalidations") == inval_before
    # New pages resolve without a rebuild: deref an object on a late page.
    last = db.new_object("Fat", {"n": 99, "pad": pad})
    assert db.get(last.oid).state["n"] == 99


def test_crash_during_recluster_batch_loses_nothing():
    """Kill the engine between a batch's MOVE record and its page writes:
    restart leaves the pre-recluster state, every row intact."""
    db, _, _ = _build(40, 40, seed=19, cache=True)
    rows = _train(db)
    storage = db.kernel.storage
    storage.checkpoint()

    class Crashed(Exception):
        pass

    calls = {"n": 0}

    def failpoint():
        calls["n"] += 1
        if calls["n"] == 10:       # partway into the batch
            raise Crashed

    storage._move_failpoint = failpoint
    with pytest.raises(Crashed):
        db.recluster()
    storage._move_failpoint = None
    storage.crash()
    report = storage.restart()
    assert report.moves_undone > 0
    assert sorted(db.query(QUERY).rows) == rows
    assert len(db.extent("Part", deep=False)) == 40


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_parts=st.integers(min_value=10, max_value=80),
    n_widgets=st.integers(min_value=10, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
    cache=st.booleans(),
)
def test_property_reclustered_rows_equal_unclustered(
    n_parts, n_widgets, seed, cache
):
    """For random schema sizes, reference wirings and cache settings, a
    reclustering pass never changes any query's row multiset."""
    db, parts, widgets = _build(n_parts, n_widgets, seed, cache)
    rng = random.Random(seed + 1)
    # Interleave some foreground writes before training.
    for w in rng.sample(widgets, k=min(5, len(widgets))):
        obj = db.get(w.oid)
        obj.state["part"] = rng.choice(parts).oid
        db.save(obj)
    expected = _train(db)
    stats = db.recluster()
    assert stats["state"] == "ok"
    db.set_cache_enabled(False)
    assert sorted(db.query(QUERY).rows) == expected
    db.set_cache_enabled(cache)
    assert sorted(db.query(QUERY).rows) == expected
    # And the physical invariant: one live Part per pid.
    pids = sorted(p.state["pid"] for p in db.extent("Part", deep=False))
    assert pids == list(range(n_parts))
