"""The versioned plan cache and the staged compile pipeline.

Covers the `PlanCache` in isolation (LRU, version stamps, counters), the
kernel integration (hits skip optimize, DDL/ANALYZE invalidate, disabled
mode bypasses), parameter binding, and — the contract that matters —
a property test that caching is semantically invisible: a database with
the cache on and one with it off return identical rows under arbitrary
interleavings of inserts, DDL, ANALYZE, and prepared execution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import MoodDatabase
from repro.core.errors import (
    ExecutionError,
    MoodSqlError,
    UnknownPreparedStatementError,
)
from repro.core.prepare import (
    PlanCache,
    PreparedRegistry,
    compile_statement,
    render_statement,
)
from repro.sql.parser import parse


# -- PlanCache in isolation -------------------------------------------------

def test_lookup_miss_then_store_then_hit():
    cache = PlanCache(capacity=4)
    assert cache.lookup("k", 1, 1) is None
    cache.store("k", "PLAN", 1, 1)
    entry = cache.lookup("k", 1, 1)
    assert entry.plan == "PLAN"
    assert entry.hits == 1
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["stores"] == 1


def test_stamp_mismatch_drops_the_entry():
    cache = PlanCache(capacity=4)
    cache.store("k", "PLAN", schema_version=1, stats_version=1)
    assert cache.lookup("k", 2, 1) is None       # schema moved
    assert len(cache) == 0
    cache.store("k", "PLAN", 1, 1)
    assert cache.lookup("k", 1, 9) is None       # statistics moved
    assert cache.stats()["invalidations"] == 2


def test_lru_eviction_at_capacity():
    cache = PlanCache(capacity=2)
    cache.store("a", 1, 1, 1)
    cache.store("b", 2, 1, 1)
    cache.lookup("a", 1, 1)                      # refresh a
    cache.store("c", 3, 1, 1)                    # evicts b (LRU)
    assert cache.lookup("b", 1, 1) is None
    assert cache.lookup("a", 1, 1).plan == 1
    assert cache.stats()["evictions"] == 1


def test_disabled_cache_is_a_no_op():
    cache = PlanCache(capacity=4, enabled=False)
    cache.store("k", "PLAN", 1, 1)
    assert cache.lookup("k", 1, 1) is None
    assert len(cache) == 0
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0


def test_invalidate_all_reports_and_counts():
    cache = PlanCache(capacity=8)
    cache.store("a", 1, 1, 1)
    cache.store("b", 2, 1, 1)
    assert cache.invalidate_all("DDL") == 2
    assert len(cache) == 0
    assert cache.stats()["invalidations"] == 2


def test_rows_report_validity_against_live_stamps():
    cache = PlanCache(capacity=8)
    cache.store("old", 1, 1, 1)
    cache.store("new", 2, 2, 2)
    rows = cache.rows(schema_version=2, stats_version=2)
    by_key = {row["statement"]: row["valid"] for row in rows}
    assert by_key == {"old": False, "new": True}


# -- compile artifact and binding ------------------------------------------

def test_compile_collects_params_and_renders_sql():
    prepared = compile_statement(
        "q", parse("SELECT v.id FROM Vehicle v WHERE v.weight > :w")
    )
    assert prepared.param_names == ("w",)
    assert ":w" in prepared.sql
    bound = prepared.bind({"w": 100})
    assert ":w" not in render_statement(bound)
    assert "100" in render_statement(bound)


def test_bind_rejects_wrong_arity_and_unknown_names():
    prepared = compile_statement(
        "q", parse("SELECT v.id FROM Vehicle v WHERE v.weight > ?")
    )
    with pytest.raises(ExecutionError):
        prepared.bind([])
    with pytest.raises(ExecutionError):
        prepared.bind([1, 2])
    with pytest.raises(ExecutionError):
        prepared.bind({"w": 1})      # positional param has no name
    named = compile_statement(
        "q", parse("SELECT v.id FROM Vehicle v WHERE v.weight > :w")
    )
    with pytest.raises(ExecutionError):
        named.bind({"w": 1, "extra": 2})


def test_explain_cannot_be_prepared():
    with pytest.raises(MoodSqlError):
        compile_statement(
            "q", parse("EXPLAIN SELECT v.id FROM Vehicle v")
        )


def test_registry_get_and_deallocate_unknown():
    registry = PreparedRegistry()
    with pytest.raises(UnknownPreparedStatementError):
        registry.get("nope")
    with pytest.raises(UnknownPreparedStatementError):
        registry.deallocate("nope")


# -- kernel integration -----------------------------------------------------

def _vehicle_db(**kwargs) -> MoodDatabase:
    db = MoodDatabase(buffer_capacity=128, **kwargs)
    db.execute("CREATE CLASS P TUPLE (x Integer, y Integer)")
    for i in range(8):
        db.execute(f"NEW P <{i}, {i * 10}>")
    return db


def test_repeated_select_hits_the_cache():
    db = _vehicle_db()
    sql = "SELECT p.x FROM P p WHERE p.x > 3"
    db.query(sql)
    result = db.query(sql)
    assert any(e.operator == "PLAN_CACHE" for e in result.trace)
    assert db.kernel.plan_cache.stats()["hits"] >= 1


def test_ddl_invalidates_eagerly_and_via_stamps():
    db = _vehicle_db()
    sql = "SELECT p.x FROM P p WHERE p.x > 3"
    db.query(sql)
    assert len(db.kernel.plan_cache) == 1
    db.execute("CREATE INDEX px ON P (x) USING btree")
    assert len(db.kernel.plan_cache) == 0          # eager invalidation
    before = db.kernel.plan_cache.stats()["invalidations"]
    assert before >= 1
    # And the re-planned query caches again under the new stamps.
    db.query(sql)
    assert len(db.kernel.plan_cache) == 1


def test_analyze_invalidates():
    db = _vehicle_db()
    db.query("SELECT p.x FROM P p WHERE p.x > 3")
    assert len(db.kernel.plan_cache) == 1
    db.execute("ANALYZE")
    assert len(db.kernel.plan_cache) == 0


def test_disabled_mode_never_caches():
    db = _vehicle_db(cache_enabled=False)
    sql = "SELECT p.x FROM P p WHERE p.x > 3"
    first = db.query(sql)
    second = db.query(sql)
    assert first.rows == second.rows
    stats = db.kernel.plan_cache.stats()
    assert not stats["enabled"]
    assert stats["hits"] == 0 and stats["stores"] == 0
    assert len(db.kernel.plan_cache) == 0


def test_prepared_execution_and_non_constant_args():
    db = _vehicle_db()
    db.execute("PREPARE q AS SELECT p.y FROM P p WHERE p.x = ?")
    assert db.execute("EXECUTE q (3)").rows == [(30,)]
    assert db.execute("EXECUTE q (2 + 2)").rows == [(40,)]  # folds
    with pytest.raises(ExecutionError):
        db.execute("EXECUTE q (p.x)")          # not a constant
    with pytest.raises(UnknownPreparedStatementError):
        db.execute("EXECUTE missing (1)")
    db.execute("DEALLOCATE q")
    with pytest.raises(UnknownPreparedStatementError):
        db.execute("EXECUTE q (3)")


def test_implicit_analyze_is_journaled_and_counted():
    db = MoodDatabase()
    db.execute("CREATE CLASS P TUPLE (x Integer)")
    db.execute("NEW P <1>")
    db.query("SELECT p.x FROM P p WHERE p.x > 0")
    events = [e for e in db.kernel.storage.events.recent()
              if e.kind == "implicit_analyze"]
    assert len(events) == 1
    assert events[0].fields["io_pages"] >= 0
    snapshot = db.kernel.storage.metrics.snapshot()
    assert snapshot.get("kernel.implicit_analyze") == 1


def test_unbound_parameter_cannot_reach_the_optimizer():
    from repro.core.errors import OptimizerError

    db = _vehicle_db()
    statement = parse("SELECT p.x FROM P p WHERE p.x > ?")
    with pytest.raises(OptimizerError):
        db.kernel.execute_statement(statement)


# -- the semantic-invisibility property ------------------------------------

_OPS = st.lists(
    st.sampled_from(
        ["new", "analyze", "index", "exec_lo", "exec_hi", "select", "update"]
    ),
    min_size=1,
    max_size=20,
)


def _apply(db: MoodDatabase, op: str, state: dict):
    """One workload step; returns rows for comparable (read) ops."""
    if op == "new":
        i = state["next"]
        db.execute(f"NEW P <{i}, {i * 10}>")
        return None
    if op == "analyze":
        db.execute("ANALYZE")
        return None
    if op == "index":
        if state["indexed"]:
            db.execute("DROP INDEX px")
        else:
            db.execute("CREATE INDEX px ON P (x) USING btree")
        return None
    if op == "update":
        db.execute("UPDATE P p SET y = p.y + 1 WHERE p.x = 1")
        return None
    if op == "exec_lo":
        return sorted(db.execute("EXECUTE q (2)").rows)
    if op == "exec_hi":
        return sorted(db.execute("EXECUTE q (5)").rows)
    return sorted(db.query("SELECT p.y FROM P p WHERE p.x > 3").rows)


@settings(max_examples=15, deadline=None)
@given(ops=_OPS)
def test_cached_equals_uncached_under_interleaved_ddl(ops):
    """Warm (cached) and cold (cache-disabled) databases return identical
    rows for every read, under any interleaving of inserts, index DDL,
    ANALYZE, updates, and prepared execution."""
    warm = _vehicle_db()
    cold = _vehicle_db(cache_enabled=False)
    for db in (warm, cold):
        db.execute("PREPARE q AS SELECT p.x, p.y FROM P p WHERE p.x > ?")
    state_warm = {"next": 8, "indexed": False}
    state_cold = {"next": 8, "indexed": False}
    for op in ops:
        rows_warm = _apply(warm, op, state_warm)
        rows_cold = _apply(cold, op, state_cold)
        if op == "new":
            state_warm["next"] += 1
            state_cold["next"] += 1
        if op == "index":
            state_warm["indexed"] = not state_warm["indexed"]
            state_cold["indexed"] = not state_cold["indexed"]
        assert rows_warm == rows_cold, (op, ops)
    assert cold.kernel.plan_cache.stats()["stores"] == 0
