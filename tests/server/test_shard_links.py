"""Shard links of in-process shards: a link is a call into the shard's
server, so a crash must look to the router exactly as a severed socket
did, and a local shard runs no listener or thread of its own."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import ShardUnavailableError
from repro.server import (
    MoodClient,
    MoodServerError,
    RouterConfig,
    ShardedServer,
)
from repro.server.worker import LocalShard


def _router(shards: int = 2):
    backends = [LocalShard(i, shards, {}) for i in range(shards)]
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
        client.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
        for i in range(8):
            client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
    yield router, backends, host, port
    router.stop()


def _val(client: MoodClient, item: int) -> int:
    return client.query(
        f"SELECT i.val FROM Item i WHERE i.id = {item}", shard_key=item
    ).scalars()[0]


def _in_doubt(router, shard: int) -> list:
    return router._admin_call(shard, {"op": "IN_DOUBT"})["gids"]


def test_crashed_shard_answers_unavailable_until_restart(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.begin()
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 0",
                       shard_key=0)
        client.execute("UPDATE Item i SET val = 1 WHERE i.id = 1",
                       shard_key=1)
        unavailable = router.metrics.value("shard.unavailable")
        backends[1].crash()
        with pytest.raises(MoodServerError) as excinfo:
            client.execute("UPDATE Item i SET val = 2 WHERE i.id = 1",
                           shard_key=1)
        assert excinfo.value.code == "SHARD_UNAVAILABLE"
        assert excinfo.value.retryable is True
        assert router.metrics.value("shard.unavailable") == unavailable + 1
        client.rollback()

        backends[1].restart()
        # The session redials the restarted shard; the crashed branch is
        # gone and its update with it.
        client.execute("UPDATE Item i SET val = 11 WHERE i.id = 1",
                       shard_key=1)
        assert _val(client, 1) == 11
        assert _val(client, 0) == 0


def test_stale_link_close_leaves_restarted_shard_alone(sharded):
    router, backends, host, port = sharded
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Note TUPLE (id Integer, val Integer)")
        client.execute("new Note <3, 30>", shard_key=3)
    # Two links of shard 1's server at the crash: one holds a prepared
    # branch the router never decided, the other an active branch.
    prepared = backends[1].connect()
    active = backends[1].connect()
    prepared.call({"op": "BEGIN"})
    prepared.call({"op": "EXECUTE",
                   "sql": "UPDATE Item i SET val = 5 WHERE i.id = 1"})
    assert prepared.call({"op": "PREPARE_TXN", "gid": "stale-gid"})["ok"]
    active.call({"op": "BEGIN"})
    assert active.call({"op": "EXECUTE",
                        "sql": "UPDATE Note n SET val = 6 WHERE n.id = 3"}
                       )["ok"]

    backends[1].crash()
    with pytest.raises(ShardUnavailableError):
        active.call({"op": "PING"})
    backends[1].restart()
    assert _in_doubt(router, 1) == ["stale-gid"]
    # Closing a stale link ends no session on the restarted server: the
    # in-doubt branch stays for recovery to resolve ...
    prepared.close()
    assert _in_doubt(router, 1) == ["stale-gid"]
    assert router.recover()["swept"] == 1
    assert _in_doubt(router, 1) == []

    with MoodClient(host, port) as client:
        client.execute("UPDATE Note n SET val = 77 WHERE n.id = 3",
                       shard_key=3)
        # ... and a write committed since the restart stays committed.
        active.close()
        assert client.query("SELECT n.val FROM Note n",
                            shard_key=3).scalars() == [77]
        assert _val(client, 1) == 10


def test_local_shards_run_no_listener_or_threads():
    """A router over two in-process shards serving one client runs two
    threads of its own -- its accept thread and the client's connection
    thread -- and the shards none: no listener, port or socket."""
    threads_before = threading.active_count()
    router, backends = _router(2)
    try:
        host, port = router.address
        with MoodClient(host, port) as client:
            client.execute("CREATE CLASS Item TUPLE (id Integer, val Integer)")
            for i in range(4):
                client.execute(f"new Item <{i}, {i * 10}>", shard_key=i)
            assert len(client.query("SELECT i.id FROM Item i").rows) == 4
            client.begin()
            client.execute("UPDATE Item i SET val = 1 WHERE i.id = 0",
                           shard_key=0)
            client.execute("UPDATE Item i SET val = 1 WHERE i.id = 1",
                           shard_key=1)
            client.commit()
            assert router.metrics.value("shard.twopc_commits") == 1
            assert threading.active_count() <= threads_before + 2
        assert not any(hasattr(backend, "address") for backend in backends)
    finally:
        router.stop()
