"""Statistics that survive a write.

The kernel refreshes its Table 8 statistics before every plan
(``MoodKernel.refresh_statistics``): |C| and nbpages(C) are read live from
the extent files, a class is re-measured alone once its NEW/UPDATE/DELETE
churn passes ``CHURN_BASE + CHURN_FRACTION * |C|``, and the whole base is
collected only when statistics are missing, after a catalog change, or on
an explicit ANALYZE.  These tests pin that policy, its isolation under
concurrent sessions, and that answers never depend on it.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from moodbench import gen, spec
from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.core.kernel import CHURN_BASE, CHURN_FRACTION
from repro.server.session import SessionManager


def _counters(db) -> tuple[float, float]:
    """(whole-base collections, per-class re-measures) so far."""
    metrics = db.kernel.storage.metrics
    return (metrics.value("kernel.implicit_analyze"),
            metrics.value("kernel.statistics_refreshes"))


def _events(db, trigger: str) -> list:
    return [e for e in db.kernel.storage.events.of_kind("implicit_analyze")
            if e.fields["trigger"] == trigger]


# -- (a) an OLTP stream re-measures, never re-collects ----------------------

def test_oltp_stream_does_no_whole_base_collection():
    """500 server-oltp transactions (30 % write transactions, each an
    UPDATE of one Vehicle then a read) through the session layer.  The
    parent collected the whole base once per write -> read pair."""
    workload = spec.WORKLOAD_BY_NAME["server-oltp"]
    db = MoodDatabase()
    build_paper_database(db, scale=workload.scale)
    db.analyze()
    manager = SessionManager(db)
    session = manager.open_session()
    for name, sql in gen.TEMPLATES.items():
        manager.prepare(session, name, sql)
    txns = gen.first_txns(workload, seed=1, count=500)
    collected, refreshed = _counters(db)
    collections = []                    # every call of the one entry point
    analyze = db.kernel.analyze

    def counting_analyze(*args):
        collections.append(args)
        return analyze(*args)

    db.kernel.analyze = counting_analyze
    for txn in txns:
        if txn.atomic:
            manager.begin(session)
        for step in txn.steps:
            manager.execute_prepared(session, step.template,
                                     list(step.params))
        if txn.atomic:
            manager.commit(session)
    vehicle_writes = sum(step.template in gen.WRITES
                         for txn in txns for step in txn.steps)
    assert vehicle_writes > 130
    whole_base = [args for args in collections if not args or args[0] is None]
    assert whole_base == []
    after_collected, after_refreshed = _counters(db)
    assert after_collected == collected
    assert after_refreshed - refreshed == len(collections)
    assert len(collections) <= math.ceil(vehicle_writes / 130)
    for event in _events(db, "churn"):
        assert set(event.fields["classes"]) <= {
            "Vehicle", "Automobile", "JapaneseAuto"}


# -- (b) a re-measure ignores another session's X lock ----------------------

def _two_class_db() -> MoodDatabase:
    db = MoodDatabase(buffer_capacity=64)
    db.execute_script(
        "CREATE CLASS Hot TUPLE (x Integer);"
        "CREATE CLASS Cold TUPLE (y Integer);"
    )
    for i in range(10):
        db.execute(f"NEW Hot <{i}>")
        db.execute(f"NEW Cold <{i}>")
    db.analyze()
    return db


def test_remeasure_under_another_sessions_x_lock():
    """B churns Hot past the threshold without committing, so it holds the
    X lock on Hot's extent.  A's SELECT on Cold triggers Hot's re-measure:
    the statement runs latched with no-wait lock probes, so the re-measure
    must read outside A's transaction or the S-lock probe would fail."""
    db = _two_class_db()
    manager = SessionManager(db)
    a, b = manager.open_session(), manager.open_session()
    manager.begin(b)
    for _ in range(6):                  # 60 updates > 50 + 0.2 * 10
        manager.execute(b, "UPDATE Hot h SET x = h.x + 100")
    assert db.kernel.objects.churn["Hot"] == 60
    collected, refreshed = _counters(db)
    sql = "SELECT c.y FROM Cold c WHERE c.y >= 5"
    manager.begin(a)
    first = manager.execute(a, sql)[0].rows
    assert _counters(db) == (collected, refreshed + 1)
    (event,) = _events(db, "churn")
    assert event.fields["classes"] == ["Hot"]
    assert db.kernel.stats.max("x", "Hot") == 609   # B's uncommitted state
    manager.rollback(b)
    again = manager.execute(a, sql)[0].rows
    manager.commit(a)
    assert sorted(first) == sorted(again) == [(y,) for y in range(5, 10)]
    assert db.kernel.stats.card("Hot") == 10


# -- (c) live |C|, and a new class plans at once ----------------------------

def test_card_is_live_without_any_collection():
    db = _two_class_db()
    collected, refreshed = _counters(db)
    version = db.kernel.stats.version
    db.execute("NEW Hot <99>")
    db.new_object("Hot", {"x": 100})
    assert db.kernel.stats.card("Hot") == 12
    assert db.kernel.stats.nbpages("Hot") == \
        db.kernel.catalog.extent_file("Hot").nbpages()
    db.query("SELECT h FROM Hot h WHERE h.x > 3")
    assert db.kernel.stats.card("Hot") == 12
    assert _counters(db) == (collected, refreshed)
    assert db.kernel.stats.version == version
    assert db.kernel.objects.churn["Hot"] == 2


def test_cached_plan_survives_dml():
    db = _two_class_db()
    sql = "SELECT h.x FROM Hot h WHERE h.x = 3"
    db.query(sql)
    db.execute("UPDATE Hot h SET x = 30 WHERE h.x = 4")
    db.execute("NEW Hot <3>")
    hits = db.kernel.storage.metrics.value("plancache.hits")
    assert sorted(db.query(sql).rows) == [(3,), (3,)]
    assert db.kernel.storage.metrics.value("plancache.hits") == hits + 1


def test_churn_past_threshold_remeasures_one_class():
    assert (CHURN_BASE, CHURN_FRACTION) == (50, 0.2)
    db = _two_class_db()
    version = db.kernel.stats.version
    for i in range(65):                 # 65 < 50 + 0.2 * 75
        db.new_object("Hot", {"x": 1000 + i})
    db.query("SELECT c FROM Cold c")
    assert db.kernel.stats.version == version
    assert db.kernel.stats.dist("x", "Hot") == 10       # not re-measured
    db.new_object("Hot", {"x": 2000})   # 66 > 50 + 0.2 * 76
    db.query("SELECT c FROM Cold c")
    assert db.kernel.stats.version > version
    assert db.kernel.stats.dist("x", "Hot") == 76
    assert "Hot" not in db.kernel.objects.churn
    assert _counters(db)[1] == 1
    (event,) = _events(db, "churn")
    assert event.fields["classes"] == ["Hot"]


def test_create_class_then_select_plans():
    db = _two_class_db()
    db.execute("CREATE CLASS Fresh TUPLE (z Integer)")
    db.execute("NEW Fresh <7>")
    assert db.query("SELECT f.z FROM Fresh f WHERE f.z = 7").rows == [(7,)]
    assert db.kernel.stats.card("Fresh") == 1
    (event,) = _events(db, "schema")
    assert "Fresh" in event.fields["classes"]


def test_first_plan_collects_missing_statistics():
    db = MoodDatabase()
    db.execute("CREATE CLASS P TUPLE (x Integer)")
    db.execute("NEW P <1>")
    db.execute("EXPLAIN SELECT p FROM P p WHERE p.x = 1")
    (event,) = _events(db, "missing")
    assert event.fields["classes"] == ["P"]
    assert _counters(db) == (1, 0)


# -- equivalence: answers never depend on the refresh policy ----------------

QUERIES = [
    "SELECT h.x FROM Hot h WHERE h.x > 3",
    "SELECT h.x FROM Hot h WHERE h.x = 2",
    "SELECT h.x, h.link.y FROM Hot h WHERE h.link.y < 4",
    "SELECT c.y FROM Cold c WHERE c.y >= 1",
]
PREPARED = {
    "hot_gt": "SELECT h.x FROM Hot h WHERE h.x > ?",
    "via_link": "SELECT h.x FROM Hot h WHERE h.link.y = ?",
}

_ops = st.one_of(
    st.tuples(st.just("new"), st.integers(0, 9)),
    st.tuples(st.just("update"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("new_cold"), st.integers(0, 9)),
    st.tuples(st.just("alter"),),
    st.tuples(st.just("select"), st.integers(0, len(QUERIES) - 1)),
    st.tuples(st.just("execute"), st.sampled_from(sorted(PREPARED)),
              st.integers(0, 9)),
)


def _statement(op, altered: bool) -> str | None:
    kind = op[0]
    if kind == "new":
        return f"NEW Hot <{op[1]}, NULL{', 0' if altered else ''}>"
    if kind == "update":
        return f"UPDATE Hot h SET x = {op[2]} WHERE h.x = {op[1]}"
    if kind == "delete":
        return f"DELETE FROM Hot h WHERE h.x = {op[1]}"
    if kind == "new_cold":
        return f"NEW Cold <{op[1]}>"
    if kind == "alter":
        return None if altered else "ALTER CLASS Hot ADD ATTRIBUTE w Integer"
    if kind == "select":
        return QUERIES[op[1]]
    return None


class _Embedded:
    def __init__(self, db, analyze_first: bool):
        self.db = db
        self.analyze_first = analyze_first
        for name, sql in PREPARED.items():
            db.kernel.prepare(sql, name)

    def run(self, sql: str):
        if self.analyze_first and sql.startswith("SELECT"):
            self.db.analyze()
        return self.db.execute(sql)

    def execute(self, name: str, value: int):
        if self.analyze_first:
            self.db.analyze()
        return self.db.kernel.execute_prepared(name, [value])


class _Sessions:
    def __init__(self, db):
        self.manager = SessionManager(db)
        self.session = self.manager.open_session()
        for name, sql in PREPARED.items():
            self.manager.prepare(self.session, name, sql)

    def run(self, sql: str):
        return self.manager.execute(self.session, sql)[-1]

    def execute(self, name: str, value: int):
        return self.manager.execute_prepared(self.session, name, [value])


def _linked_db() -> MoodDatabase:
    db = MoodDatabase(buffer_capacity=32)
    db.execute_script(
        "CREATE CLASS Cold TUPLE (y Integer);"
        "CREATE CLASS Hot TUPLE (x Integer, link REFERENCE (Cold));"
    )
    colds = [db.new_object("Cold", {"y": i}) for i in range(6)]
    for i in range(12):
        db.new_object("Hot", {"x": i % 10, "link": colds[i % 6]})
    return db


def _play(target, ops) -> list:
    answers, altered = [], False
    for op in ops:
        if op[0] == "execute":
            answers.append(Counter(target.execute(op[1], op[2]).rows))
            continue
        sql = _statement(op, altered)
        if sql is None:
            continue
        altered = altered or op[0] == "alter"
        result = target.run(sql)
        if op[0] == "select":
            answers.append(Counter(result.rows))
    return answers


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_ops, min_size=1, max_size=120))
@example([("new", i % 10) for i in range(70)]            # crosses the churn
         + [("select", 0), ("execute", "via_link", 2),   # threshold, then
            ("alter",), ("new", 1), ("select", 1)])      # the catalog moves
def test_refresh_policy_never_changes_answers(ops):
    """Random NEW / UPDATE / DELETE / ALTER CLASS / SELECT interleavings,
    literal and prepared, embedded and through sessions, return the same
    row multisets as a twin that runs ANALYZE before every read."""
    twin = _play(_Embedded(_linked_db(), analyze_first=True), ops)
    assert _play(_Embedded(_linked_db(), analyze_first=False), ops) == twin
    assert _play(_Sessions(_linked_db()), ops) == twin
