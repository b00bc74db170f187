"""The sharded deployment's routing front end: statement routing, hints,
scatter-gather, DDL broadcast, SYS$SHARDS, error passthrough and the
client retry loop -- all over real TCP against in-process shards."""

from __future__ import annotations

import zlib

import pytest

from repro.core.errors import ProtocolError, TransactionError
from repro.server import (
    MoodClient,
    MoodServerError,
    RouterConfig,
    ShardedServer,
    shard_of_key,
)
from repro.server.worker import LocalShard
from repro.storage.oid import SHARD_PAGE_SPAN


def _router(shards: int = 2, options: dict | None = None):
    backends = [LocalShard(i, shards, options or {}) for i in range(shards)]
    router = ShardedServer(
        RouterConfig(host="127.0.0.1", port=0, shards=shards,
                     backend="local"),
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
        client.execute(
            "CREATE CLASS Item TUPLE (id Integer, val Integer)"
        )
        for i in range(8):
            client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
    yield router, backends, host, port
    router.stop()


# -- key and OID partitioning -------------------------------------------------

def test_shard_of_key_int_is_modulo():
    assert [shard_of_key(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_shard_of_key_hashes_non_ints():
    for key in ("alpha", "beta", 3.5, None):
        expected = zlib.crc32(str(key).encode("utf-8")) % 4
        assert shard_of_key(key, 4) == expected


# -- routing ------------------------------------------------------------------

def test_ddl_broadcast_and_hinted_placement(sharded):
    _, backends, host, port = sharded
    # The CREATE CLASS reached every shard: each holds its own slice.
    for index, backend in enumerate(backends):
        local = backend.db.query("SELECT i.id FROM Item i").rows
        assert sorted(r[0] % 2 for r in local) == [index] * 4


def test_scatter_select_merges_all_shards(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query("SELECT i.id, i.val FROM Item i").rows
    assert sorted(rows) == [(i, i * 10) for i in range(8)]


def test_scatter_reapplies_order_by(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query(
            "SELECT i.id FROM Item i ORDER BY i.id DESC"
        ).scalars()
    assert rows == list(range(7, -1, -1))


def test_hinted_query_stays_on_one_shard(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query("SELECT i.id FROM Item i", shard_key=3).scalars()
        assert sorted(rows) == [1, 3, 5, 7]
        rows = client.query("SELECT i.id FROM Item i", shard=0).scalars()
        assert sorted(rows) == [0, 2, 4, 6]
    assert router.metrics.snapshot().get("shard.forwarded", 0) > 0


def test_multi_statement_script_fast_path(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        results = client.execute(
            "UPDATE Item i SET val = 999 WHERE i.id = 2; "
            "SELECT i.val FROM Item i WHERE i.id = 2",
            shard_key=2,
        )
    assert len(results) == 2
    assert results[1].rows == [(999,)]


def test_unhinted_write_broadcasts_and_merges_count(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        outcome = client.execute("UPDATE Item i SET val = 1")[0]
        assert outcome.count == 8  # summed across both shards
        rows = client.query("SELECT i.val FROM Item i").scalars()
    assert rows == [1] * 8


def test_unhinted_new_round_robins(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Gadget TUPLE (name String)")
        client.execute("new Gadget <'g0'>")
        client.execute("new Gadget <'g1'>")
        names = client.query("SELECT g.name FROM Gadget g").rows
        per_shard = [
            client.query("SELECT g.name FROM Gadget g", shard=i).rows
            for i in range(2)
        ]
    assert sorted(n for (n,) in names) == ["g0", "g1"]
    assert sorted(len(rows) for rows in per_shard) == [1, 1]


def test_sys_shards_view(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        rows = client.query(
            "SELECT s.shard, s.alive, s.page_base FROM SYS$SHARDS s "
            "ORDER BY s.shard"
        ).rows
    assert [(r[0], bool(r[1])) for r in rows] == [(0, True), (1, True)]
    assert [r[2] for r in rows] == [0, SHARD_PAGE_SPAN]


def test_stats_reports_shards_and_metrics(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.query("SELECT i.id FROM Item i")
        stats = client.stats()
    assert len(stats["shards"]) == 2
    assert all(s["alive"] for s in stats["shards"])
    assert stats["pending_decisions"] == 0
    assert stats["metrics"]["shard.scatter_queries"] >= 1


def test_prepared_statements_propagate_lazily(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.prepare("by_id", "SELECT i.val FROM Item i WHERE i.id = ?")
        assert client.execute_prepared(
            "by_id", [3], shard_key=3).rows == [(30,)]
        assert client.execute_prepared(
            "by_id", [4], shard_key=4).rows == [(40,)]
        # Same name, repeat execution: the raw-relay path after the
        # handle exists on the target shard.
        assert client.execute_prepared(
            "by_id", [3], shard_key=3).rows == [(30,)]
        client.deallocate("by_id")
        with pytest.raises(MoodServerError) as excinfo:
            client.execute_prepared("missing", [1], shard_key=1)
    assert excinfo.value.code == "UNKNOWN_PREPARED"


# -- one fan-out for literal and prepared statements ---------------------------

ORDERED = "SELECT i.id FROM Item i WHERE i.id < ? ORDER BY i.id DESC"


def test_unhinted_prepared_scatter_merges_order_like_its_literal_twin(
        sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        literal = client.query(ORDERED.replace("?", "6")).scalars()
        client.prepare("ordered", ORDERED)
        before = router.metrics.value("shard.scatter_queries")
        prepared = client.execute_prepared("ordered", [6]).scalars()
        after = router.metrics.value("shard.scatter_queries")
    assert literal == [5, 4, 3, 2, 1, 0]
    assert prepared == literal
    assert after == before + 1


def test_unhinted_sql_text_execute_is_refused_not_answered_by_one_shard(
        sharded):
    """An unhinted SQL-text EXECUTE would broadcast and answer from the
    first shard: half the rows of a SELECT, a write outside 2PC with half
    the count.  The router refuses it with a stable code instead; the
    EXECUTE_PREPARED verb and a hinted EXECUTE keep working."""
    _, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("PREPARE ge AS SELECT i.id FROM Item i "
                       "WHERE i.val >= ?")
        client.execute("PREPARE bump AS UPDATE Item i SET val = i.val + 1 "
                       "WHERE i.val >= ?")
        for sql in ("EXECUTE ge (0)", "EXECUTE bump (0)"):
            with pytest.raises(MoodServerError) as excinfo:
                client.execute(sql)
            assert excinfo.value.code == "PROTOCOL"
            assert "EXECUTE_PREPARED" in str(excinfo.value)
            assert "shard hint" in str(excinfo.value)
        # Nothing ran: every value is still the seeded one.
        for backend in backends:
            rows = backend.db.query("SELECT i.id, i.val FROM Item i").rows
            assert all(val == i * 10 for i, val in rows)
        # A hinted EXECUTE is forwarded to its shard.
        (result,) = client.execute("EXECUTE ge (0)", shard=1)
        assert sorted(result.scalars()) == [1, 3, 5, 7]
        client.prepare("ge_wire", "SELECT i.id FROM Item i WHERE i.val >= ?")
        assert sorted(client.execute_prepared("ge_wire", [0]).scalars()) \
            == list(range(8))


BUMP = "UPDATE Item i SET val = i.val + 1 WHERE i.id < 4"


@pytest.mark.parametrize("form", ["literal", "prepared"])
def test_unhinted_autocommit_write_is_atomic_and_keeps_its_timeout(
        sharded, form):
    """Shard 1's Item extent is X-locked by another session: the
    broadcast UPDATE must time out on the client's budget (not the 30 s
    default) and leave shard 0 untouched."""
    import time

    _, backends, host, port = sharded
    with MoodClient(host, port) as holder, MoodClient(host, port) as client:
        holder.begin()
        holder.execute("UPDATE Item i SET val = 111 WHERE i.id = 1",
                       shard_key=1)
        if form == "prepared":
            client.prepare("bump", BUMP.replace("4", "?"))
        started = time.monotonic()
        with pytest.raises(MoodServerError) as excinfo:
            if form == "prepared":
                client.execute_prepared("bump", [4], timeout=0.3)
            else:
                client.execute(BUMP, timeout=0.3)
        elapsed = time.monotonic() - started
        holder.rollback()
    assert excinfo.value.code == "LOCK_TIMEOUT"
    assert elapsed < 1.0
    shard0 = backends[0].db.query(
        "SELECT i.id, i.val FROM Item i WHERE i.id < 4").rows
    assert sorted(shard0) == [(0, 0), (2, 20)]


def test_voted_down_autocommit_broadcast_write_fails(sharded, monkeypatch):
    """The internal 2PC of an autocommit broadcast write aborts when a
    shard votes no: the client must see the failure, not ``ok``."""
    _, backends, host, port = sharded
    sessions = backends[1].server.sessions

    def vote_no(session, gid, trace_id=None):
        sessions.rollback(session)
        raise TransactionError(f"shard 1 votes no on {gid}")

    monkeypatch.setattr(sessions, "prepare_transaction", vote_no)
    with MoodClient(host, port) as client:
        with pytest.raises(MoodServerError) as excinfo:
            client.execute("UPDATE Item i SET val = 1")
    assert excinfo.value.code == "TRANSACTION"
    for backend in backends:
        rows = backend.db.query("SELECT i.id, i.val FROM Item i").rows
        assert all(val == i * 10 for i, val in rows)


# -- error identity across the relay -----------------------------------------

def test_shard_error_passes_through_verbatim(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        with pytest.raises(MoodServerError) as excinfo:
            client.query("SELECT x.nope FROM Missing x", shard_key=0)
    assert excinfo.value.code == "UNKNOWN_CLASS"
    assert excinfo.value.errno == 1602
    assert excinfo.value.retryable is False


def test_down_shard_raises_retryable_shard_unavailable(sharded):
    _, backends, host, port = sharded
    backends[1].stop()
    with MoodClient(host, port) as client:
        with pytest.raises(MoodServerError) as excinfo:
            client.query("SELECT i.id FROM Item i", shard_key=1)
        assert excinfo.value.code == "SHARD_UNAVAILABLE"
        assert excinfo.value.errno == 2008
        assert excinfo.value.retryable is True
        # The other shard keeps serving.
        assert client.query(
            "SELECT i.id FROM Item i", shard_key=0
        ).rows != []


def test_two_phase_ops_rejected_from_clients(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        for op in ("PREPARE_TXN", "COMMIT_PREPARED", "ROLLBACK_PREPARED",
                   "IN_DOUBT"):
            with pytest.raises(MoodServerError) as excinfo:
                client._call(op, gid="gid-x")
            assert excinfo.value.code == "PROTOCOL"


def test_client_retry_loop_rides_out_a_shard_restart(sharded):
    _, backends, host, port = sharded
    state = {"crashed": False}

    def body(client):
        if not state["crashed"]:
            state["crashed"] = True
            backends[0].crash()
        elif backends[0].server is None:
            backends[0].restart()
        return client.query(
            "SELECT i.val FROM Item i WHERE i.id = 0", shard_key=0
        ).scalars()

    with MoodClient(host, port) as client:
        result, attempts = client.run_transaction(body)
    assert result == [0]
    assert attempts == 2


# -- distributed transactions -------------------------------------------------

def test_cross_shard_commit_is_atomic_and_visible(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 100 WHERE i.id = 0", shard_key=0)
        client.execute(
            "UPDATE Item i SET val = 200 WHERE i.id = 1", shard_key=1)
        client.commit()
        rows = client.query(
            "SELECT i.id, i.val FROM Item i WHERE i.val >= 100").rows
        assert sorted(rows) == [(0, 100), (1, 200)]
        stats = client.stats()
    assert stats["pending_decisions"] == 0
    assert stats["metrics"]["shard.twopc_commits"] == 1


def test_cross_shard_rollback_undoes_both_branches(sharded):
    _, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 100 WHERE i.id = 0", shard_key=0)
        client.execute(
            "UPDATE Item i SET val = 200 WHERE i.id = 1", shard_key=1)
        client.rollback()
        rows = client.query(
            "SELECT i.id, i.val FROM Item i WHERE i.id < 2").rows
    assert sorted(rows) == [(0, 0), (1, 10)]


def test_single_shard_transaction_uses_plain_commit(sharded):
    router, _, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute(
            "UPDATE Item i SET val = 77 WHERE i.id = 2", shard_key=2)
        client.commit()
        assert client.query(
            "SELECT i.val FROM Item i WHERE i.id = 2", shard_key=2
        ).scalars() == [77]
    assert router.metrics.snapshot().get("shard.twopc_commits", 0) == 0


def test_ddl_inside_txn_hits_every_shard_with_schema_bump(sharded):
    _, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Extra TUPLE (n Integer)")
        client.execute("new Extra <1>", shard_key=0)
        client.execute("new Extra <2>", shard_key=1)
        rows = client.query("SELECT e.n FROM Extra e").scalars()
    assert sorted(rows) == [1, 2]
    for backend in backends:
        assert backend.db.query("SELECT e.n FROM Extra e") is not None
