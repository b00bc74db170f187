"""Cluster-wide observability: distributed traces through the router's
fast paths and 2PC, federated SYS$ views with a shard column, SYS$TXNS,
the hot-shard detector, and the merged STATS/Prometheus exports -- all
over real TCP against in-process shards."""

from __future__ import annotations

import pytest

from repro.moodview.monitor import ClusterMonitorPanel
from repro.obs.promtext import parse_prometheus
from repro.server import (
    MoodClient,
    MoodServerError,
    RouterConfig,
    ShardedServer,
)
from repro.server.worker import LocalShard


def _router(shards: int = 2, **config):
    backends = [LocalShard(i, shards, {}) for i in range(shards)]
    router = ShardedServer(
        RouterConfig(host="127.0.0.1", port=0, shards=shards,
                     backend="local", **config),
        backends=backends,
    )
    router.start()
    return router, backends


@pytest.fixture()
def sharded():
    """Two shards serving the Item class, ids 0..7 placed by id % 2."""
    router, backends = _router(2)
    host, port = router.address
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
        for i in range(8):
            client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
    yield router, backends, host, port
    router.stop()


def _federated_traces(client: MoodClient) -> list[tuple]:
    return client.query(
        "SELECT s.shard, s.trace_id, s.kind, s.status FROM SYS$STATEMENTS s"
    ).rows


# -- trace propagation --------------------------------------------------------

def test_raw_relay_carries_trace_to_shard(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        relays_before = router.metrics.value("shard.raw_relays")
        rows = client.query(
            "SELECT i.val FROM Item i WHERE i.id = 3", shard_key=3
        )
        assert rows.scalars() == [30]
        trace_id = client.last_trace_id
        # The statement took the byte-for-byte relay path...
        assert router.metrics.value("shard.raw_relays") > relays_before
        # ...and its client-minted trace id still reached shard 1's ring,
        # visible through the federated view with the shard column.
        traced = [r for r in _federated_traces(client) if r[1] == trace_id]
        assert (1, trace_id) in {(r[0], r[1]) for r in traced}
        # The router recorded its own routing trace under the same id.
        assert router.statement_log.find(trace_id) is not None


def test_prepared_statement_traces_both_paths(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.prepare("by_id", "SELECT i.val FROM Item i WHERE i.id = ?")
        # First execution lazily propagates the PREPARE to shard 0, the
        # second takes the raw relay -- both must land their trace.
        client.execute_prepared("by_id", [0], shard_key=0)
        first_trace = client.last_trace_id
        relays_before = router.metrics.value("shard.raw_relays")
        client.execute_prepared("by_id", [2], shard_key=2)
        second_trace = client.last_trace_id
        assert router.metrics.value("shard.raw_relays") > relays_before
        shard_traces = {
            (r[0], r[1]) for r in _federated_traces(client)
        }
        assert (0, first_trace) in shard_traces
        assert (0, second_trace) in shard_traces


def test_cross_shard_commit_is_one_trace(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        txn = client.txn_trace_id
        assert txn is not None
        client.execute("UPDATE Item i SET val = 100 WHERE i.id = 0",
                       shard_key=0)
        client.execute("UPDATE Item i SET val = 200 WHERE i.id = 1",
                       shard_key=1)
        client.commit()
        assert client.txn_trace_id is None
        assert client.last_txn_trace_id == txn

        by_shard: dict[int, set] = {}
        for shard, trace_id, kind, _ in _federated_traces(client):
            if isinstance(trace_id, str) and trace_id.startswith(txn):
                by_shard.setdefault(shard, set()).add((trace_id, kind))
        # Statements derived child ids on their own shards...
        assert (f"{txn}.1", "UPDATE") in by_shard[0]
        assert (f"{txn}.2", "UPDATE") in by_shard[1]
        # ...and every participant recorded its 2PC verbs under the
        # parent id itself.
        for shard in (0, 1):
            assert (txn, "PREPARE_TXN") in by_shard[shard]
            assert (txn, "COMMIT_PREPARED") in by_shard[shard]
        # The router's COMMIT trace carries the full 2PC span tree.
        trace = router.statement_log.find(txn)
        assert trace is not None and trace.kind == "COMMIT"
        (root,) = trace.spans
        assert root.operator == "2PC"
        votes = [s for s in root.walk() if s.operator == "2PC:PREPARE"]
        assert len(votes) == 2 and all("vote=yes" in s.detail for s in votes)
        assert root.find("2PC:DECISION", "verdict=COMMIT") is not None
        assert len([s for s in root.walk()
                    if s.operator == "2PC:PHASE2"]) == 2
        # Lifecycle events journaled with the trace id; phase latency
        # histograms populated.
        kinds = {e.kind for e in router.events.recent()
                 if txn in e.detail()}
        assert {"twopc.prepare", "twopc.decision",
                "twopc.phase2", "twopc.total"} <= kinds
        dumps = router.metrics.histogram_dumps()
        for phase in ("prepare", "decision", "phase2", "total"):
            assert dumps[f"twopc.{phase}_ms"]["count"] >= 1


# -- router-side failure accounting (the satellite fix) -----------------------

def test_router_counts_scatter_failures(sharded):
    router, backends, host, port = sharded
    backends[1].stop()
    with MoodClient(host, port) as client:
        failed_before = router.metrics.value("server.statements_failed")
        with pytest.raises(MoodServerError) as exc:
            client.query("SELECT i.id FROM Item i")  # unhinted: scatters
        assert exc.value.code == "SHARD_UNAVAILABLE"
        assert router.metrics.value("server.statements_failed") \
            == failed_before + 1
        assert router.metrics.value(
            "server.errors.SHARD_UNAVAILABLE") >= 1
        # The failure is traced too, status carrying the error code.
        trace = router.statement_log.find(client.last_trace_id)
        assert trace is not None and trace.status == "SHARD_UNAVAILABLE"


# -- federated views ----------------------------------------------------------

def test_federated_views_carry_shard_column(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        counters = client.query(
            "SELECT c.shard, c.name FROM SYS$COUNTERS c "
            "WHERE c.name = 'server.statements'"
        ).rows
        assert {r[0] for r in counters} >= {-1, 0, 1}
        sessions = client.query(
            "SELECT s.shard, s.session_id FROM SYS$SESSIONS s"
        ).rows
        assert -1 in {r[0] for r in sessions}  # the router's own session
        # WHERE on the shard column filters like any attribute.
        only_zero = client.query(
            "SELECT s.shard FROM SYS$STATEMENTS s WHERE s.shard = 0"
        ).scalars()
        assert set(only_zero) == {0}


def test_hinted_sys_query_drills_into_one_shard(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        # A shard-hinted SYS$ query answers from that worker's local
        # view: no shard column, rows from one engine only.
        rows = client.query(
            "SELECT s.trace_id, s.session_id FROM SYS$STATEMENTS s",
            shard=0,
        )
        assert "shard" not in rows.columns
        assert len(rows) > 0


def test_sys_txns_reports_active_and_in_doubt(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 0",
                       shard_key=0)
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 1",
                       shard_key=1)
        with MoodClient(host, port) as observer:
            active = observer.query(
                "SELECT t.gid, t.shard, t.state FROM SYS$TXNS t "
                "WHERE t.state = 'active'"
            ).rows
            assert {r[1] for r in active} == {0, 1}
            assert all(r[0] == client.txn_trace_id for r in active)
        client.rollback()

    # Park a branch in doubt directly on shard 0 (prepare a vote the
    # router knows nothing about) -- SYS$TXNS must surface it.
    worker = backends[0].connect()
    try:
        worker.call({"op": "BEGIN"})
        worker.call({"op": "EXECUTE",
                     "sql": "UPDATE Item i SET val = 2 WHERE i.id = 0"})
        worker.call({"op": "PREPARE_TXN", "gid": "orphan-gid-1"})
        with MoodClient(host, port) as observer:
            in_doubt = observer.query(
                "SELECT t.gid, t.shard, t.state FROM SYS$TXNS t "
                "WHERE t.state = 'in_doubt'"
            ).rows
            assert ("orphan-gid-1", 0, "in_doubt") in in_doubt
        worker.call({"op": "ROLLBACK_PREPARED", "gid": "orphan-gid-1"})
    finally:
        worker.close()


# -- hot-shard detection ------------------------------------------------------

def test_shard_health_flags_hot_shard():
    router, backends = _router(2)
    host, port = router.address
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
        # Skew the load: every statement pinned to shard 0.
        for i in range(30):
            client.execute(f"new Item <{i}, 0>", shard=0)
        rows = client.query(
            "SELECT h.shard, h.alive, h.stmt_per_s, h.skew, h.hot "
            "FROM SYS$SHARD_HEALTH h"
        ).rows
        by_shard = {r[0]: r for r in rows}
        assert by_shard[0][1] and by_shard[1][1]        # both alive
        assert by_shard[0][3] > by_shard[1][3]          # skew ordering
        assert by_shard[0][4] is True                   # shard 0 is hot
        assert by_shard[1][4] is False
        assert router.metrics.value("shard_health.hot_shards") >= 1
        assert router.metrics.value("shard_health.checks") >= 1
        hot_events = [e for e in router.events.recent()
                      if e.kind == "shard_health.hot"]
        assert len(hot_events) == 1 and "shard=0" in hot_events[0].detail()
        # A persisting imbalance journals once, not per poll.
        client.query("SELECT h.hot FROM SYS$SHARD_HEALTH h")
        assert len([e for e in router.events.recent()
                    if e.kind == "shard_health.hot"]) == 1
    router.stop()


def test_shard_health_marks_dead_shard(sharded):
    router, backends, host, port = sharded
    backends[1].crash()
    with MoodClient(host, port) as client:
        rows = client.query(
            "SELECT h.shard, h.alive FROM SYS$SHARD_HEALTH h"
        ).rows
        assert (0, True) in rows and (1, False) in rows
        assert router.metrics.value("cluster.telemetry_failures") >= 1


# -- merged exports -----------------------------------------------------------

def test_stats_merges_per_shard_histograms(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        stats = client.stats()
        merged = stats["histograms"]["server.statement_ms"]
        per_shard = stats["per_shard"]
        assert set(per_shard) == {"0", "1"}
        # Exact federation: the cluster count is the sum of the shards'.
        assert merged["count"] == sum(
            shard["server.statement_ms"]["count"]
            for shard in per_shard.values()
        )
        assert merged["count"] > 0 and merged["p99"] >= merged["p50"]
        assert "server.admission.queue_wait_ms" in stats["histograms"]
        assert any(name.startswith("twopc.") or name.startswith("server.")
                   for name in stats["metrics"])


def test_merged_prometheus_scrape(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.query("SELECT i.id FROM Item i", shard_key=1)
        samples = parse_prometheus(client.metrics())
    # Router sample unlabelled, worker samples labelled per shard.
    assert samples["mood_server_statements"] > 0
    assert samples['mood_server_statements{shard="0"}'] > 0
    assert samples['mood_server_statements{shard="1"}'] > 0
    # Cluster-wide quantiles merged from the shards' raw buckets.
    assert 'mood_server_statement_ms{shard="cluster",quantile="0.99"}' \
        in samples
    assert samples['mood_server_statement_ms_count{shard="0"}'] > 0


def test_telemetry_verb(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        payload = client.telemetry()
        assert payload["counters"]["shard.forwarded"] > 0
        dump = payload["histograms"]["server.statement_ms"]
        assert dump["count"] > 0 and len(dump["buckets"]) == \
            len(dump["bounds"]) + 1
        rows = client.telemetry("SYS$SHARDS")["rows"]
        assert {row["shard"] for row in rows} == {0, 1}
        # Unknown views answer empty rather than erroring (a router can
        # poll workers from a newer release than theirs).
        assert client.telemetry("SYS$NOT_A_VIEW")["rows"] == []


def test_router_slow_statement_is_journalled():
    router, backends = _router(1)
    router.slow_log.threshold_ms = 0.0
    backends[0].db.kernel.slow_log.threshold_ms = 0.0
    try:
        with MoodClient(*router.address) as client:
            client.execute("CREATE CLASS Item TUPLE (id Integer)")
            client.query("SELECT i.id FROM Item i")
            trace_id = client.last_trace_id
            rows = client.query(
                "SELECT e.shard, e.detail FROM SYS$EVENTS e "
                "WHERE e.kind = 'statement.slow'"
            ).rows
    finally:
        router.stop()
    fields = ("session=", "statement_kind=", "total_ms=",
              f"trace_id={trace_id}")
    for shard in (-1, 0):
        details = [detail for s, detail in rows
                   if s == shard and f"trace_id={trace_id}" in detail]
        assert len(details) == 1, (shard, rows)
        assert all(field in details[0] for field in fields)


# -- monitor panel ------------------------------------------------------------

def test_cluster_monitor_panel(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.query("SELECT i.id FROM Item i", shard_key=0)
    report = ClusterMonitorPanel(router).render()
    assert "== SHARDS ==" in report
    assert "== SHARD HEALTH ==" in report
    assert "== TXNS ==" in report
    assert "== STATEMENTS ==" in report
