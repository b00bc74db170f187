"""One statement record: every statement a worker or the router runs is
traced, counted and failed by ``MoodKernel.statement`` -- foreign
exceptions included -- so the ``server.*`` ledgers agree with the trace
ring they count."""

from __future__ import annotations

import pytest

from repro.core.database import MoodDatabase
from repro.server import (
    MoodClient,
    MoodServer,
    MoodServerError,
    RouterConfig,
    ShardedServer,
)
from repro.server.worker import LocalShard
from repro.sql.ast import UpdateStmt


def _item_database() -> MoodDatabase:
    db = MoodDatabase(buffer_capacity=64)
    db.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
    for i in range(4):
        db.execute(f"new Item <{i}, {i * 10}>")
    return db


def _router():
    backends = [LocalShard(i, 2, {}) for i in range(2)]
    router = ShardedServer(
        RouterConfig(host="127.0.0.1", port=0, shards=2, backend="local"),
        backends=backends,
    )
    router.start()
    host, port = router.address
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
        for i in range(8):
            client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
    return router, backends


@pytest.fixture()
def routed():
    router, backends = _router()
    yield router, backends, *router.address
    router.stop()


def _failed(metrics) -> float:
    return metrics.value("server.statements_failed")


# -- a foreign exception is a failed statement -------------------------------

def test_foreign_exception_surrenders_its_transaction(monkeypatch):
    """An UPDATE whose handler raises a non-MOOD exception is answered
    with ``MOOD``, filed and counted as failed, and gives up its
    autocommit transaction: the X lock it took does not wedge the class
    for the next session."""
    db = _item_database()
    server = MoodServer(db)
    crasher, other = server.open_session(), server.open_session()
    kernel = db.kernel
    metrics = kernel.storage.metrics

    def crash(statement, spans):
        raise RuntimeError("handler bug")

    failed_before = _failed(metrics)
    with monkeypatch.context() as patch:
        patch.setitem(kernel._handlers, UpdateStmt, (crash, None))
        response = server.handle_request(crasher, {
            "op": "EXECUTE", "trace": "crash-1",
            "sql": "UPDATE Item i SET val = 1 WHERE i.id = 0",
        })
    assert response["ok"] is False
    assert response["error"]["code"] == "MOOD"
    assert "RuntimeError" in response["error"]["message"]
    assert kernel.storage.txns.active == {}
    assert _failed(metrics) == failed_before + 1

    response = server.handle_request(other, {
        "op": "EXECUTE", "timeout": 1.0,
        "sql": "UPDATE Item i SET val = 2 WHERE i.id = 0",
    })
    assert response["ok"] is True
    assert response["results"][0]["count"] == 1
    status = db.execute(
        "SELECT s.status FROM SYS$STATEMENTS s "
        "WHERE s.trace_id = 'crash-1'"
    ).scalars()
    assert status == ["MOOD"]
    server.stop()


def test_router_answers_a_foreign_exception_mid_commit(routed):
    """A non-MOOD exception inside the router's COMMIT is answered with
    an error frame: the client keeps its connection, and the router files
    and counts the COMMIT as failed with status ``MOOD``."""
    router, _, host, port = routed

    def crash():
        raise RuntimeError("coordinator bug")

    router.failpoints["after_decision"] = crash
    failed_before = _failed(router.metrics)
    with MoodClient(host, port) as client:
        client.begin()
        txn = client.txn_trace_id
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 0",
                       shard_key=0)
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 1",
                       shard_key=1)
        with pytest.raises(MoodServerError) as excinfo:
            client.commit()
        assert excinfo.value.code == "MOOD"
        assert client.ping() is True
        status = client.query(
            "SELECT s.status FROM SYS$STATEMENTS s "
            f"WHERE s.shard = -1 AND s.trace_id = '{txn}' "
            "AND s.kind = 'COMMIT'"
        ).scalars()
    assert status == ["MOOD"]
    assert _failed(router.metrics) == failed_before + 1


# -- the ledgers agree with the ring -----------------------------------------

def _assert_ledgers_agree(metrics, statement_log) -> None:
    """Every filed trace is counted once, as a success or a failure, and
    timed once."""
    filed = len(statement_log)
    assert 0 < filed < statement_log.capacity
    counted = (metrics.value("server.statements")
               + metrics.value("server.statements_failed"))
    assert counted == filed
    assert metrics.histogram("server.statement_ms").count == filed
    failures = sum(1 for trace in statement_log.recent()
                   if trace.status != "OK")
    assert metrics.value("server.statements_failed") == failures


def test_worker_ledgers_agree_with_its_trace_ring():
    db = _item_database()
    server = MoodServer(db)
    session = server.open_session()
    requests = [
        {"op": "EXECUTE", "sql": "new Item <9, 90>"},
        {"op": "QUERY", "sql": "SELECT i.id FROM Item i WHERE i.val > 5"},
        {"op": "QUERY", "sql": "SELECT n.x FROM Nope n"},        # fails
        {"op": "PREPARE", "name": "q",
         "sql": "SELECT i.val FROM Item i WHERE i.id = ?"},
        {"op": "EXECUTE_PREPARED", "name": "q", "params": [2]},
        {"op": "DEALLOCATE", "name": "q"},
        {"op": "BEGIN"},
        {"op": "EXECUTE", "sql": "UPDATE Item i SET val = 5 WHERE i.id = 1"},
        {"op": "PREPARE_TXN", "gid": "g-1"},
        {"op": "COMMIT_PREPARED", "gid": "g-1"},
    ]
    oks = [server.handle_request(session, request)["ok"]
           for request in requests]
    assert oks == [True, True, False] + [True] * 7
    kinds = {trace.kind for trace in db.kernel.statement_log.recent()}
    assert {"PREPARE", "DEALLOCATE", "PREPARE_TXN",
            "COMMIT_PREPARED"} <= kinds
    _assert_ledgers_agree(db.kernel.storage.metrics, db.kernel.statement_log)
    server.stop()


def test_router_and_shard_ledgers_agree_with_their_trace_rings(routed):
    router, backends, host, port = routed
    with MoodClient(host, port) as client:
        client.query("SELECT i.val FROM Item i WHERE i.id = 3", shard_key=3)
        client.query("SELECT i.id FROM Item i")                  # scatter
        with pytest.raises(MoodServerError):
            client.query("SELECT n.x FROM Nope n")               # fails
        client.prepare("by_id", "SELECT i.val FROM Item i WHERE i.id = ?")
        client.execute_prepared("by_id", [2], shard_key=2)
        client.begin()
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 0",
                       shard_key=0)
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 1",
                       shard_key=1)
        client.commit()                                   # two-phase
    _assert_ledgers_agree(router.metrics, router.statement_log)
    for backend in backends:
        kernel = backend.db.kernel
        _assert_ledgers_agree(kernel.storage.metrics, kernel.statement_log)
