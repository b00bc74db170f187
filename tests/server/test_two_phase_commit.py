"""Presumed-abort two-phase commit across shards: coordinator and worker
crashes between PREPARE and COMMIT, decision-log recovery, and lost-update
invariants under concurrent cross-shard transfers."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import MoodError
from repro.server import (
    CoordinatorLog,
    MoodClient,
    MoodServerError,
    RouterConfig,
    ShardedServer,
)
from repro.server.txlog import Decision
from repro.server.worker import LocalShard

ACCOUNTS = 12  # ids 0..11; even ids on shard 0, odd on shard 1
OPENING = 100


class CoordinatorCrash(Exception):
    """Raised from a failpoint to kill the router mid-protocol."""


def _build(backends=None, txlog=None):
    if backends is None:
        backends = [LocalShard(i, 2, {}) for i in range(2)]
    router = ShardedServer(
        RouterConfig(host="127.0.0.1", port=0, shards=2, backend="local"),
        backends=backends,
        txlog=txlog if txlog is not None else CoordinatorLog(),
    )
    router.start()
    return router, backends


def _seed_accounts(host, port):
    with MoodClient(host, port) as client:
        client.execute("CREATE CLASS Acct TUPLE (id Integer, bal Integer)")
        for i in range(ACCOUNTS):
            client.execute(f"new Acct <{i}, {OPENING}>", shard_key=i)


def _balances(host, port) -> dict:
    with MoodClient(host, port) as client:
        rows = client.query("SELECT a.id, a.bal FROM Acct a").rows
    return dict(rows)


def _in_doubt(router) -> list:
    gids = []
    for shard in range(2):
        gids.extend(router._admin_call(shard, {"op": "IN_DOUBT"})["gids"])
    return gids


def _transfer(client, src: int, dst: int) -> None:
    client.execute(
        f"UPDATE Acct a SET bal = a.bal - 1 WHERE a.id = {src}",
        shard_key=src)
    client.execute(
        f"UPDATE Acct a SET bal = a.bal + 1 WHERE a.id = {dst}",
        shard_key=dst)


@pytest.fixture()
def ledger():
    router, backends = _build()
    host, port = router.address
    _seed_accounts(host, port)
    yield router, backends, host, port
    router.stop()


def _crash_commit(router, host, port, point: str):
    """Run a cross-shard transfer whose commit kills the coordinator at
    ``point``; returns after the client has seen the connection die."""
    def boom():
        raise CoordinatorCrash(point)

    router.failpoints[point] = boom
    client = MoodClient(host, port)
    client.begin()
    _transfer(client, 0, 1)
    with pytest.raises((MoodError, OSError)):
        client.commit()


# -- coordinator crashes ------------------------------------------------------

def test_coordinator_crash_after_decision_redrives_commit(ledger):
    router, backends, host, port = ledger
    txlog = router.txlog
    _crash_commit(router, host, port, "after_decision")
    # The commit point was reached: the decision survives the crash.
    assert len(txlog.pending()) == 1
    assert txlog.pending()[0].verdict == "COMMIT"

    router2, _ = _build(backends=backends, txlog=txlog)
    try:
        assert router2.last_recovery["redriven"] == 1
        assert txlog.pending() == []
        assert _in_doubt(router2) == []
        balances = _balances(*router2.address)
        assert balances[0] == OPENING - 1
        assert balances[1] == OPENING + 1
    finally:
        router2.stop()


def test_coordinator_crash_before_decision_presumes_abort(ledger):
    router, backends, host, port = ledger
    txlog = router.txlog
    _crash_commit(router, host, port, "before_decision")
    # No decision ever hit the log; both branches sit in doubt.
    assert txlog.pending() == []
    assert len(_in_doubt(router)) == 2

    router2, _ = _build(backends=backends, txlog=txlog)
    try:
        assert router2.last_recovery["swept"] == 2
        assert _in_doubt(router2) == []
        balances = _balances(*router2.address)
        assert balances[0] == OPENING
        assert balances[1] == OPENING
    finally:
        router2.stop()


def test_recovery_during_a_live_commit_leaves_its_gid_alone(ledger):
    """A coordinator between its last PREPARE and its decision looks like
    an abandoned gid from the shards' side; recovery must not sweep it."""
    router, backends, host, port = ledger
    reports = []

    def recover_mid_commit():
        router.failpoints.pop("before_decision", None)
        assert len(_in_doubt(router)) == 2
        reports.append(router.recover())

    router.failpoints["before_decision"] = recover_mid_commit
    with MoodClient(host, port) as client:
        client.begin()
        _transfer(client, 0, 1)
        client.commit()
    assert reports == [{"redriven": 0, "swept": 0}]
    balances = _balances(host, port)
    assert balances[0] == OPENING - 1
    assert balances[1] == OPENING + 1
    assert router.txlog.pending() == []
    assert _in_doubt(router) == []


# -- worker crashes -----------------------------------------------------------

def test_worker_crash_mid_prepare_aborts_cleanly(ledger):
    router, backends, host, port = ledger
    client = MoodClient(host, port)
    client.begin()
    _transfer(client, 0, 1)
    backends[1].crash()
    with pytest.raises(MoodServerError) as excinfo:
        client.commit()
    assert excinfo.value.code == "TXN_IN_DOUBT"
    assert excinfo.value.retryable is True
    client.close()

    backends[1].restart()
    router.recover()
    assert router.txlog.pending() == []
    assert _in_doubt(router) == []
    balances = _balances(host, port)
    assert balances[0] == OPENING and balances[1] == OPENING


def test_worker_crash_after_vote_commits_on_restart(ledger):
    router, backends, host, port = ledger
    client = MoodClient(host, port)
    client.begin()
    _transfer(client, 0, 1)

    def boom():
        # Both shards voted yes and the COMMIT decision is logged; shard 1
        # dies before phase 2 reaches it.
        router.failpoints.pop("after_decision", None)
        backends[1].crash()

    router.failpoints["after_decision"] = boom
    client.commit()  # succeeds: the decision is the commit point
    client.close()
    assert len(router.txlog.pending()) == 1

    backends[1].restart()  # restart recovery resurrects the in-doubt branch
    assert len(_in_doubt(router)) == 1
    report = router.recover()
    assert report["redriven"] == 1
    assert router.txlog.pending() == []
    assert _in_doubt(router) == []
    balances = _balances(host, port)
    assert balances[0] == OPENING - 1
    assert balances[1] == OPENING + 1


def test_a_no_vote_aborts_every_branch_and_logs_nothing(ledger):
    router, backends, host, port = ledger
    aborts = router.metrics.snapshot().get("shard.twopc_aborts", 0)
    client = MoodClient(host, port)
    client.begin()
    txn = client.txn_trace_id
    _transfer(client, 0, 1)
    # A failing statement drops shard 1's branch, so shard 1 votes no.
    with pytest.raises(MoodServerError) as excinfo:
        client.execute("UPDATE Nope n SET x = 1", shard_key=1)
    assert excinfo.value.code == "UNKNOWN_CLASS"
    with pytest.raises(MoodServerError) as excinfo:
        client.commit()
    assert excinfo.value.code == "TRANSACTION"
    client.close()

    balances = _balances(host, port)
    assert balances[0] == OPENING and balances[1] == OPENING
    assert _in_doubt(router) == []
    assert router.txlog.pending() == []
    assert router.metrics.snapshot()["shard.twopc_aborts"] == aborts + 1
    trace = router.statement_log.find(txn)
    assert trace is not None and trace.kind == "COMMIT"
    (root,) = trace.spans
    votes = [s.detail for s in root.walk() if s.operator == "2PC:PREPARE"]
    assert any("vote=no" in vote for vote in votes)
    assert root.find("2PC:DECISION") is None


def test_phase_two_verbs_are_idempotent_at_the_worker(ledger):
    router, backends, host, port = ledger
    for verb in ("COMMIT_PREPARED", "ROLLBACK_PREPARED"):
        response = router._admin_call(0, {"op": verb, "gid": "never-seen"})
        assert response["ok"]
        detail = response["results"][0]["detail"]
        assert "already resolved" in detail


# -- the decision log on disk -------------------------------------------------

def test_decision_log_replays_from_its_file_past_a_torn_tail(tmp_path):
    path = str(tmp_path / "txlog.jsonl")
    log = CoordinatorLog(path)
    log.log_decision("g1", [0, 1])
    log.log_decision("g2", [1, 0])
    log.log_done("g1")
    expected = [Decision("g2", "COMMIT", (0, 1))]
    assert log.pending() == expected
    assert CoordinatorLog(path).pending() == expected

    # A crash cut the third record's append short: its log_decision
    # never returned, so presumed abort covers it.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "DECISION", "gid": "g3", "verd')
    reopened = CoordinatorLog(path)
    assert reopened.pending() == expected
    # The torn bytes are cut off: the next record starts its own line.
    reopened.log_decision("g4", [0, 1])
    assert [d.gid for d in CoordinatorLog(path).pending()] == ["g2", "g4"]


def test_decision_log_refuses_a_bad_record_before_its_tail(tmp_path):
    path = tmp_path / "txlog.jsonl"
    path.write_text('{"kind": "DECISION", "gid": "g1", "verd\n'
                    '{"kind": "DONE", "gid": "g1"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        CoordinatorLog(str(path))


# -- concurrent transfers: the money never leaks ------------------------------

def _run_transfer_threads(host, port, threads: int, rounds: int,
                          retries: int = 12) -> list:
    errors = []

    def worker(index: int) -> None:
        try:
            with MoodClient(host, port) as client:
                for n in range(rounds):
                    src = (2 * (index + n)) % ACCOUNTS          # even
                    dst = (2 * (index + n) + 1) % ACCOUNTS      # odd
                    client.run_transaction(
                        lambda c: _transfer(c, src, dst),
                        retries=retries,
                    )
        except (MoodError, OSError) as exc:
            errors.append(f"client {index}: {exc}")

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return errors


def test_concurrent_cross_shard_transfers_conserve_total(ledger):
    router, backends, host, port = ledger
    errors = _run_transfer_threads(host, port, threads=4, rounds=5)
    assert errors == []
    balances = _balances(host, port)
    assert sum(balances.values()) == ACCOUNTS * OPENING
    assert router.txlog.pending() == []
    assert _in_doubt(router) == []
    assert router.metrics.snapshot().get("shard.twopc_commits", 0) >= 20


@pytest.mark.shardload
def test_transfers_survive_worker_crash_storm():
    """Concurrent cross-shard transfers while a shard repeatedly crashes
    and restarts: every retry either lands atomically or aborts whole --
    the grand total never drifts and no gid stays in doubt."""
    router, backends = _build()
    host, port = router.address
    _seed_accounts(host, port)
    stop = threading.Event()
    chaos_errors = []

    def chaos() -> None:
        try:
            for round_no in range(4):
                if stop.wait(0.15):
                    return
                shard = round_no % 2
                backends[shard].crash()
                backends[shard].restart()
                router.recover()  # drain decisions + presumed-abort sweep
        except MoodError as exc:
            chaos_errors.append(repr(exc))

    chaos_thread = threading.Thread(target=chaos, daemon=True)
    chaos_thread.start()
    try:
        errors = _run_transfer_threads(host, port, threads=4, rounds=8,
                                       retries=16)
    finally:
        stop.set()
        chaos_thread.join(timeout=30)

    router.recover()
    try:
        assert chaos_errors == []
        assert errors == []
        balances = _balances(host, port)
        assert sum(balances.values()) == ACCOUNTS * OPENING, balances
        assert router.txlog.pending() == []
        assert _in_doubt(router) == []
    finally:
        router.stop()
