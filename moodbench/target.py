"""Systems under test and the client-side connections that drive them.

A *target* is one set-up of a workload's system: an in-process
``MoodDatabase`` (embedded) or a server child process (plain or sharded).
A *connection* runs generated transactions against it and hands back
``(rows, count)`` per statement for the oracle.  Process-tree CPU and RSS
are read from ``/proc`` (Linux only, like the rest of the benchmark).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

from moodbench import ROOT, child_env, require_repro
from moodbench.gen import TEMPLATES, Txn
from moodbench.oracle import MARKER_SQL, ORACLE_SQL, Oracle
from moodbench.spec import Workload

require_repro()

from repro import MoodDatabase, QueryResult  # noqa: E402
from repro.bench.paperdb import build_paper_database  # noqa: E402
from repro.core.errors import MoodError  # noqa: E402
from repro.obs.metrics import merge_histogram_dumps  # noqa: E402
from repro.server import MoodClient, MoodServerError, QueryRows  # noqa: E402

#: Retry budget of one transaction (deadlock victim, lock timeout, busy).
RETRIES = 8
BACKOFF = 0.02
#: Metric families only the router keeps.
ROUTER_METRICS = ("shard.", "twopc.")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


# --------------------------------------------------------------------------
# Connections
# --------------------------------------------------------------------------

def run_txn(conn, txn: Txn, oracle: Oracle, rng) -> tuple:
    """Run one transaction to commit, then verify every statement's result.
    Returns ``(ok, attempts, committed, latency_ms)``: the latency is the
    client-observed time to commit including retries (verification is
    outside it); a transaction that errors, exhausts its retries or fails
    an oracle check is not ok."""
    started = time.perf_counter()
    try:
        results, attempts = conn.transact(
            lambda: [conn.step(step) for step in txn.steps], txn.atomic, rng
        )
    except (MoodError, OSError) as exc:
        conn.errors.append(f"{txn.kind}: {exc!r}")
        latency_ms = (time.perf_counter() - started) * 1e3
        return False, RETRIES + 1, False, latency_ms
    latency_ms = (time.perf_counter() - started) * 1e3
    for step, (rows, count) in zip(txn.steps, results):
        if not oracle.check(step.expect, rows, count):
            conn.mismatches += 1
            conn.errors.append(
                f"{txn.kind}: oracle mismatch on {step.template}{step.params}"
            )
            return False, attempts, True, latency_ms
    return True, attempts, True, latency_ms


class Conn:
    """What drives one entry point of the system.  ``call`` is the entry
    point itself (the only part the replay ladder times), ``unpack`` turns
    its return value into ``(rows, count)`` for the oracle."""

    def __init__(self):
        self.errors: list = []      # first causes, for the detail line
        self.mismatches = 0         # results the oracle rejected

    def prepare_step(self, step) -> None:
        """Untimed work a rung needs before ``call`` (e.g. encoding)."""

    def call(self, step):
        raise NotImplementedError

    def unpack(self, result) -> tuple:
        if isinstance(result, (QueryResult, QueryRows)):
            return result.rows, None
        return None, result.count

    def step(self, step) -> tuple:
        self.prepare_step(step)
        return self.unpack(self.call(step))

    def begin(self) -> None:
        """Open / commit a transaction at this entry point (nothing to do
        where the entry point has no transactions)."""

    def commit(self) -> None:
        pass

    def transact(self, body, atomic: bool, rng) -> tuple:
        """Run ``body`` to commit; returns ``(results, attempts)``.  Only
        the wire client retries: a single in-process client meets no
        conflict."""
        if atomic:
            self.begin()
        results = body()
        if atomic:
            self.commit()
        return results, 1

    def close(self) -> None:
        pass


class EmbeddedConn(Conn):
    """``MoodDatabase.execute`` in the caller's thread (literal SQL); the
    embedded API has no session transaction."""

    def __init__(self, db: MoodDatabase):
        super().__init__()
        self.db = db

    def call(self, step):
        return self.db.execute(step.sql)


class WireConn(Conn):
    """One ``MoodClient`` connection; prepared or literal statements."""

    def __init__(self, address: tuple, prepared: bool):
        super().__init__()
        self.client = MoodClient(*address)
        self.prepared = prepared
        if prepared:
            for name, sql in TEMPLATES.items():
                self.client.prepare(name, sql)

    def call(self, step):
        if self.prepared:
            return self.client.execute_prepared(
                step.template, list(step.params), shard_key=step.key
            )
        return self.client.execute(step.sql, shard_key=step.key)[-1]

    def transact(self, body, atomic: bool, rng) -> tuple:
        if atomic:
            return self.client.run_transaction(
                lambda _client: body(), retries=RETRIES, backoff=BACKOFF,
                rng=rng,
            )
        # An autocommit statement can be refused too (lock timeout under a
        # writer, admission); retry it on the same schedule.
        delay = BACKOFF
        for attempt in range(1, RETRIES + 2):
            try:
                return body(), attempt
            except MoodServerError as exc:
                if not exc.retryable or attempt > RETRIES:
                    raise
                time.sleep(delay * (0.5 + rng.random()))
                delay *= 2

    def close(self) -> None:
        self.client.close()


# --------------------------------------------------------------------------
# Targets
# --------------------------------------------------------------------------

def sum_counters(parts: list) -> dict:
    total: dict = {}
    for counters in parts:
        for name, value in counters.items():
            total[name] = total.get(name, 0.0) + value
    return total


def _merge_histograms(parts: list) -> dict:
    names = {name for histograms in parts for name in histograms}
    return {
        name: merge_histogram_dumps(
            [h[name] for h in parts if name in h]
        )
        for name in names
    }


class EmbeddedTarget:
    """The object base in this process; no server, no wire."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.db: MoodDatabase | None = None

    def start(self) -> None:
        self.db = MoodDatabase()
        build_paper_database(self.db, scale=self.workload.scale)
        self.db.analyze()

    def connect(self) -> EmbeddedConn:
        return EmbeddedConn(self.db)

    def load_oracle(self) -> Oracle:
        return Oracle([self.db.query(ORACLE_SQL).rows], weights_mutable=False)

    def markers_left(self) -> int:
        return len(self.db.query(MARKER_SQL).rows)

    def telemetry(self) -> tuple[dict, dict]:
        metrics = self.db.kernel.storage.metrics
        return metrics.counters(), metrics.histogram_dumps()

    def server_pids(self) -> list:
        return []               # the engine's CPU is the generator's own

    def stop(self) -> None:
        self.db = None


class ServerTarget:
    """A ``MoodServer`` (or ``ShardedServer`` + process shards) in a child
    process started by :mod:`moodbench.serverproc`."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.proc: subprocess.Popen | None = None
        self.address: tuple | None = None
        self.shard_addresses: list = []

    def start(self) -> None:
        """Returns once the first PING is answered."""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "moodbench.serverproc",
             "--scale", str(self.workload.scale),
             "--shards", str(self.workload.shards)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("server child did not report ready")
            info = json.loads(line)
            self.address = (info["host"], info["port"])
            self.shard_addresses = [tuple(a) for a in info["shards"]]
            with MoodClient(*self.address) as client:
                if not client.ping():
                    raise RuntimeError("server child did not answer PING")
        except BaseException:
            self.stop()
            raise

    def connect(self) -> WireConn:
        return WireConn(self.address, self.workload.prepared)

    def _shard_queries(self, sql: str) -> list:
        """``sql``'s rows per shard (one entry for an unsharded server)."""
        with MoodClient(*self.address) as client:
            if not self.shard_addresses:
                return [client.query(sql).rows]
            return [client.query(sql, shard=index).rows
                    for index in range(len(self.shard_addresses))]

    def load_oracle(self) -> Oracle:
        return Oracle(self._shard_queries(ORACLE_SQL),
                      weights_mutable=self.workload.mutates_weight)

    def markers_left(self) -> int:
        return sum(len(rows) for rows in self._shard_queries(MARKER_SQL))

    def telemetry(self) -> tuple[dict, dict]:
        """``(counters, histogram dumps)``: summed and merged over the
        engine processes; behind a router, plus the router's own routing
        and 2PC metrics (its ``server.*`` twins of the engines' metrics
        are left out, they would count every statement twice)."""
        def fetch(address: tuple) -> dict:
            with MoodClient(*address) as client:
                return client.telemetry()

        engines = [fetch(a) for a in self.shard_addresses or [self.address]]
        counters = sum_counters([e["counters"] for e in engines])
        histograms = _merge_histograms([e["histograms"] for e in engines])
        if self.shard_addresses:
            router = fetch(self.address)
            for kind, merged in (("counters", counters),
                                 ("histograms", histograms)):
                merged.update({name: value
                               for name, value in router[kind].items()
                               if name.startswith(ROUTER_METRICS)})
        return counters, histograms

    def server_pids(self) -> list:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=STOP_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            # Whatever is left of the child's session (a wedged shard
            # worker, the multiprocessing resource tracker) goes with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            proc.stdout.close()


def make_target(workload: Workload):
    if workload.target == "embedded":
        return EmbeddedTarget(workload)
    return ServerTarget(workload)


# --------------------------------------------------------------------------
# /proc accounting
# --------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the
    # last ')'.  Index 0 here is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list:
    """``root`` and all its live descendants."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list) -> float:
    """User + system CPU consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


def peak_rss_mb(pids: list) -> float:
    """Sum of each process's peak resident set (VmHWM)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii",
                      errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0
