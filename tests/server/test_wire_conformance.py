"""One wire layer: the same frame gets the same answer from a
``MoodServer`` and from a 1-shard ``ShardedServer``, and no malformed
frame closes the connection it arrived on."""

from __future__ import annotations

import ast
import socket
from pathlib import Path

import pytest

from repro import MoodDatabase
from repro.server import MoodServer, RouterConfig, ServerConfig, ShardedServer
from repro.server.protocol import VERBS, recv_frame, send_frame
from repro.server.worker import LocalShard

SERVER_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "server"

SCHEMA = "CREATE CLASS Item TUPLE (id Integer, val Integer)"

#: ``(case, frame, expected ok, expected error code)``.
CASES = [
    ("unknown op", {"op": "FOO"}, False, "PROTOCOL"),
    ("non-string op", {"op": 5}, False, "PROTOCOL"),
    ("missing op", {"sql": "SELECT i FROM Item i"}, False, "PROTOCOL"),
    ("unhashable prepared name",
     {"op": "EXECUTE_PREPARED", "name": ["x"], "params": []},
     False, "PROTOCOL"),
    ("unhashable deallocate name", {"op": "DEALLOCATE", "name": ["x"]},
     False, "PROTOCOL"),
    ("non-string deallocate name", {"op": "DEALLOCATE", "name": 7},
     False, "PROTOCOL"),
    ("string timeout",
     {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "timeout": "x"},
     False, "PROTOCOL"),
    ("negative timeout",
     {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "timeout": -1},
     False, "PROTOCOL"),
    ("unknown recluster action", {"op": "RECLUSTER", "action": "zzz"},
     False, "PROTOCOL"),
    ("negative recluster interval",
     {"op": "RECLUSTER", "action": "start", "interval": -1},
     False, "PROTOCOL"),
    ("string shard hint",
     {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "shard": "0"},
     False, "PROTOCOL"),
    ("non-string sql", {"op": "EXECUTE", "sql": 5}, False, "PROTOCOL"),
    ("non-string trace",
     {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "trace": 5},
     False, "PROTOCOL"),
    ("non-string view", {"op": "TELEMETRY", "view": 5}, False, "PROTOCOL"),
    ("scalar params",
     {"op": "EXECUTE_PREPARED", "name": "by_id", "params": 5},
     False, "PROTOCOL"),
    ("prepare without name",
     {"op": "PREPARE", "sql": "SELECT i.id FROM Item i"},
     False, "PROTOCOL"),
    ("unknown prepared name",
     {"op": "EXECUTE_PREPARED", "name": "missing", "params": []},
     False, "UNKNOWN_PREPARED"),
    ("well-formed query",
     {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "shard": 0,
      "trace": "conf-1", "timeout": 5},
     True, None),
    ("well-formed telemetry", {"op": "TELEMETRY", "view": "SYS$NOPE"},
     True, None),
    ("recluster status", {"op": "RECLUSTER", "action": "status"},
     True, None),
]


class _Conn:
    """One raw frame connection, so a severed socket shows as such."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)

    def call(self, frame: dict) -> dict:
        send_frame(self.sock, frame)
        response = recv_frame(self.sock)
        assert response is not None, f"connection closed after {frame!r}"
        return response

    def close(self) -> None:
        self.sock.close()


@pytest.fixture(scope="module")
def servers():
    """A ``MoodServer`` and a 1-shard router, both holding the Item
    class."""
    server = MoodServer(MoodDatabase(buffer_capacity=32),
                        ServerConfig(port=0))
    server.start()
    router = ShardedServer(
        RouterConfig(port=0, shards=1, backend="local"),
        backends=[LocalShard(0, 1)],
    )
    router.start()
    addresses = {"server": server.address, "router": router.address}
    for address in addresses.values():
        conn = _Conn(address)
        assert conn.call({"op": "EXECUTE", "sql": SCHEMA})["ok"]
        conn.close()
    yield addresses
    router.stop()
    server.stop()


@pytest.fixture()
def both(servers):
    """One fresh connection to each server, holding a prepared
    ``by_id``."""
    conns = {label: _Conn(address) for label, address in servers.items()}
    for conn in conns.values():
        assert conn.call({"op": "PREPARE", "name": "by_id",
                          "sql": "SELECT i.val FROM Item i WHERE i.id = ?"}
                         )["ok"]
    yield conns
    for conn in conns.values():
        conn.close()


def _outcome(response: dict):
    return response["ok"], (response.get("error") or {}).get("code")


@pytest.mark.parametrize("frame, ok, code",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_same_answer_from_both_servers(both, frame, ok, code):
    answers = {label: _outcome(conn.call(dict(frame)))
               for label, conn in both.items()}
    assert answers == {"server": (ok, code), "router": (ok, code)}
    for conn in both.values():
        assert conn.call({"op": "PING"})["pong"] is True


@pytest.mark.parametrize("op", sorted(
    op for op, verb in VERBS.items() if verb.internal
))
def test_router_refuses_internal_verbs(both, op):
    response = both["router"].call({"op": op, "gid": "gid-x"})
    assert _outcome(response) == (False, "PROTOCOL")
    assert both["router"].call({"op": "PING"})["ok"]


def test_shard_range_is_checked_by_the_router_only(both):
    """Workers receive relayed ``shard: i`` hints, so only the router,
    which knows the topology, checks the range."""
    frame = {"op": "EXECUTE", "sql": "SELECT i.id FROM Item i", "shard": 1}
    assert _outcome(both["router"].call(frame)) == (False, "PROTOCOL")
    assert _outcome(both["server"].call(frame)) == (True, None)


def test_undecodable_payload_is_answered_without_hanging_up(both):
    for conn in both.values():
        payload = b"not json"
        conn.sock.sendall(len(payload).to_bytes(4, "big") + payload)
        assert _outcome(recv_frame(conn.sock)) == (False, "PROTOCOL")
        assert conn.call({"op": "PING"})["ok"]


# -- guard: one listener, one validator ----------------------------------------

def test_socketserver_lives_only_in_protocol():
    users = sorted(path.name for path in SERVER_SRC.glob("*.py")
                   if "socketserver" in path.read_text(encoding="utf-8"))
    assert users == ["protocol.py"]


def test_dispatch_reads_validated_fields_without_isinstance():
    """``handle_request`` / ``_dispatch`` read request fields that
    ``validate_request`` has already typed: no inline type checks."""
    checked = []
    for name in ("server.py", "router.py"):
        tree = ast.parse((SERVER_SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("handle_request", "_dispatch")):
                checked.append((name, node.name))
                calls = [
                    call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                ]
                assert "isinstance" not in calls, (name, node.name)
    assert len(checked) == 4
