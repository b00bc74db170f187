"""The replay ladder: where a statement's time goes, layer by layer.

A separate in-process, single-client run replays a fixed number of
transactions of the seeded stream through every entry point, transaction
by transaction, deepest first::

    MoodClient over TCP -> ShardedServer.handle_request ->
    MoodServer.handle_request -> SessionManager.execute ->
    MoodDatabase.execute -> MoodKernel.execute_prepared

Every call is wrapped in a span *from outside* (spans inside the program
are a later change), so a layer's self time is its entry minus the next
deeper entry over the same statements.  One client, fixed N and no timers
make the registry counts, taken around one more replay of the top entry
point, repeat exactly.

The same in-process system, started cold, also yields the paper's model
cost (``charged_io_ms_per_txn``) for the untraced run.
"""

from __future__ import annotations

import json
import os
import random
import socket
import statistics
import time

from moodbench import OUT_DIR, gen
from moodbench.oracle import ORACLE_SQL, Oracle
from moodbench.spec import Workload
from moodbench.target import (
    Conn, EmbeddedConn, WireConn, run_txn, sum_counters,
)
from repro import MoodDatabase
from repro.bench.paperdb import build_paper_database
from repro.server import (
    MoodServer, MoodServerError, RouterConfig, ServerConfig, ShardedServer,
    shard_of_key,
)
from repro.server.protocol import (
    decode_frame, decode_value, recv_frame, send_frame,
)
from repro.sql.ast import SelectQuery
from repro.sql.parser import parse_script


# --------------------------------------------------------------------------
# The in-process system
# --------------------------------------------------------------------------

class LocalSystem:
    """The workload's system inside this process, so that every layer's
    entry point (and every engine's registry) can be reached directly."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.router = None
        self.servers: list = []
        if workload.target == "sharded":
            self.router = ShardedServer(RouterConfig(
                shards=workload.shards, backend="local",
                worker_options={"build_paper": True, "scale": workload.scale,
                                "analyze": True},
            ))
            self.address = self.router.start()
            self.servers = [b.server for b in self.router.backends]
            self.dbs = [b.db for b in self.router.backends]
            return
        db = MoodDatabase()
        build_paper_database(db, scale=workload.scale)
        db.analyze()
        self.dbs = [db]
        if workload.target == "server":
            self.servers = [MoodServer(db, ServerConfig())]
            self.address = self.servers[0].start()

    def shards_for(self, key) -> list:
        """Indexes of the engines a statement with this hint runs on."""
        if key is None or len(self.dbs) == 1:
            return list(range(len(self.dbs)))
        return [shard_of_key(key, len(self.dbs))]

    def load_oracle(self) -> Oracle:
        return Oracle([db.query(ORACLE_SQL).rows for db in self.dbs],
                      weights_mutable=self.workload.mutates_weight)

    def go_cold(self) -> None:
        """Write back and empty every buffer pool and object cache: the
        defined state the model-cost replay starts from."""
        for db in self.dbs:
            db.kernel.storage.buffer.flush_all()
            db.kernel.storage.buffer.drop_all()
            db.kernel.objects.invalidate_cache()

    def counters(self) -> dict:
        """Registry counters summed over every engine (and the router)."""
        registries = [db.kernel.storage.metrics for db in self.dbs]
        if self.router is not None:
            registries.append(self.router.metrics)
        return sum_counters([r.counters() for r in registries])

    def close(self) -> None:
        if self.router is not None:
            self.router.stop()
        elif self.servers:
            self.servers[0].stop()


# --------------------------------------------------------------------------
# One connection class per rung (same surface as target.WireConn)
# --------------------------------------------------------------------------

def _unpack_frame(response) -> tuple:
    """``(rows, count)`` of a response frame (dict or relayed bytes)."""
    if isinstance(response, bytes):
        response = decode_frame(response)
    if not response.get("ok"):
        error = response.get("error") or {}
        raise MoodServerError(error.get("code", "MOOD"),
                              int(error.get("errno", 0)),
                              bool(error.get("retryable", False)),
                              error.get("message", "server error"))
    results = response.get("results") or [{}]
    item = results[-1]
    if item.get("type") == "query":
        return [tuple(decode_value(row)) for row in item["rows"]], None
    return None, item.get("count", 0)


def _merge(parts: list) -> tuple:
    """Concatenate per-shard ``(rows, count)`` results (scatter)."""
    if len(parts) == 1:
        return parts[0]
    if parts[0][0] is not None:
        return [row for rows, _ in parts for row in rows], None
    return None, sum(count for _, count in parts)


class _ShardedConn(Conn):
    """A rung below the router: a hinted statement runs on its shard's
    engine, an unhinted one on every engine in turn (as the router's
    scatter does), and the results are concatenated."""

    def __init__(self, system: LocalSystem):
        super().__init__()
        self.system = system
        self.prepared = system.workload.prepared

    def call_shard(self, shard: int, step):
        raise NotImplementedError

    def call(self, step) -> list:
        return [self.call_shard(shard, step)
                for shard in self.system.shards_for(step.key)]

    def unpack(self, results: list) -> tuple:
        return _merge([super(_ShardedConn, self).unpack(r) for r in results])


def _frame(step, prepared: bool) -> dict:
    """The request frame a ``MoodClient`` would send for ``step``."""
    frame = {"trace": "moodbench"}
    if prepared:
        frame.update(op="EXECUTE_PREPARED", name=step.template,
                     params=list(step.params))
    else:
        frame.update(op="EXECUTE", sql=step.sql)
    if step.key is not None:
        frame["shard_key"] = step.key
    return frame


class RouterConn(Conn):
    """``ShardedServer.handle_request`` with the wire payload alongside,
    exactly as the router's connection handler calls it (so the raw-relay
    fast path is exercised)."""

    def __init__(self, system: LocalSystem):
        super().__init__()
        self.router = system.router
        self.prepared = system.workload.prepared
        self.session = self.router.open_session()
        self._request = None
        if self.prepared:
            for name, sql in gen.TEMPLATES.items():
                self._control({"op": "PREPARE", "name": name, "sql": sql})

    def _control(self, frame: dict) -> None:
        _unpack_frame(self.router.handle_request(self.session, frame))

    def prepare_step(self, step) -> None:
        raw = json.dumps(_frame(step, self.prepared),
                         separators=(",", ":")).encode()
        self._request = (decode_frame(raw), raw)

    def call(self, step):
        return self.router.handle_request(self.session, *self._request)

    def unpack(self, response) -> tuple:
        return _unpack_frame(response)

    def begin(self) -> None:
        self._control({"op": "BEGIN"})

    def commit(self) -> None:
        self._control({"op": "COMMIT"})

    def close(self) -> None:
        self.router.close_session(self.session)


class ServerConn(_ShardedConn):
    """``MoodServer.handle_request``, one session per shard engine."""

    def __init__(self, system: LocalSystem):
        super().__init__(system)
        self.sessions = [s.sessions.open_session() for s in system.servers]
        #: Response frames of the statements, for the framing micro-span.
        self.responses: list = []
        if self.prepared:
            for name, sql in gen.TEMPLATES.items():
                self._control({"op": "PREPARE", "name": name, "sql": sql})

    def _control(self, frame: dict) -> None:
        for server, session in zip(self.system.servers, self.sessions):
            _unpack_frame(server.handle_request(session, dict(frame)))

    def call_shard(self, shard: int, step):
        return self.system.servers[shard].handle_request(
            self.sessions[shard], _frame(step, self.prepared))

    def unpack(self, responses: list) -> tuple:
        self.responses.extend(responses)
        return _merge([_unpack_frame(r) for r in responses])

    def begin(self) -> None:
        self._control({"op": "BEGIN"})

    def commit(self) -> None:
        self._control({"op": "COMMIT"})

    def close(self) -> None:
        for server, session in zip(self.system.servers, self.sessions):
            server.sessions.close_session(session)


class SessionConn(_ShardedConn):
    """``SessionManager.execute`` / ``execute_prepared``: lock closure,
    engine latch, transaction and WAL, but no frames and no admission."""

    def __init__(self, system: LocalSystem):
        super().__init__(system)
        self.managers = [server.sessions for server in system.servers]
        self.sessions = [m.open_session() for m in self.managers]
        if self.prepared:
            for manager, session in zip(self.managers, self.sessions):
                for name, sql in gen.TEMPLATES.items():
                    manager.prepare(session, name, sql)

    def call_shard(self, shard: int, step):
        manager, session = self.managers[shard], self.sessions[shard]
        if self.prepared:
            return manager.execute_prepared(
                session, step.template, list(step.params))
        return manager.execute(session, step.sql)[-1]

    def begin(self) -> None:
        for manager, session in zip(self.managers, self.sessions):
            manager.begin(session)

    def commit(self) -> None:
        for manager, session in zip(self.managers, self.sessions):
            manager.commit(session)

    def close(self) -> None:
        for manager, session in zip(self.managers, self.sessions):
            manager.close_session(session)


class DatabaseConn(_ShardedConn):
    """``MoodDatabase.execute`` on SQL text: the literal statement, or
    ``EXECUTE name (args)`` where the workload is prepared."""

    def __init__(self, system: LocalSystem):
        super().__init__(system)
        self._sql = ""
        if self.prepared:
            for db in system.dbs:
                for name, sql in gen.TEMPLATES.items():
                    db.execute(f"PREPARE {name} AS {sql}")

    def prepare_step(self, step) -> None:
        self._sql = step.sql
        if self.prepared:
            marks = ", ".join("?" * len(step.params))
            self._sql = gen.render(f"EXECUTE {step.template} ({marks})",
                                   step.params)

    def call_shard(self, shard: int, step):
        return self.system.dbs[shard].execute(self._sql)

    def close(self) -> None:
        for db in self.system.dbs:
            db.kernel.prepared.clear()


class KernelConn(_ShardedConn):
    """``MoodKernel.execute_prepared``: bind + plan-cache lookup (optimize
    on a miss) + execution; no parse.  A literal statement is compiled
    with ``MoodKernel.prepare`` before the timed call.

    ``MoodDatabase.execute`` (and the session above it) re-runs ANALYZE
    before the first read that follows a write; the kernel entry point
    does not, so this rung does it by hand inside the timed call.  Every
    rung then pays ANALYZE on the same statements, and the difference to
    the rung above stays what that rung adds."""

    LITERAL = "moodbench_literal"

    def __init__(self, system: LocalSystem):
        super().__init__(system)
        #: Whether each timed call missed the plan cache (it then paid the
        #: optimizer inside its execution time).
        self.missed: list = []
        self._misses = 0.0
        self._stale = [False] * len(system.dbs)
        if self.prepared:
            for db in system.dbs:
                for name, sql in gen.TEMPLATES.items():
                    db.kernel.prepare(sql, name)

    def _plan_misses(self) -> float:
        return sum(db.kernel.storage.metrics.value("plancache.misses")
                   for db in self.system.dbs)

    def prepare_step(self, step) -> None:
        if not self.prepared:
            for shard in self.system.shards_for(step.key):
                self.system.dbs[shard].kernel.prepare(step.sql, self.LITERAL)
        self._misses = self._plan_misses()

    def call_shard(self, shard: int, step):
        db = self.system.dbs[shard]
        if step.template in gen.WRITES:
            self._stale[shard] = True
        elif self._stale[shard]:
            db.analyze()
            self._stale[shard] = False
        if self.prepared:
            return db.kernel.execute_prepared(step.template, step.params)
        return db.kernel.execute_prepared(self.LITERAL)

    def unpack(self, results: list) -> tuple:
        self.missed.append(self._plan_misses() > self._misses)
        return super().unpack(results)

    def close(self) -> None:
        for db in self.system.dbs:
            db.kernel.prepared.clear()


# --------------------------------------------------------------------------
# Replaying one rung
# --------------------------------------------------------------------------

class SpanLog:
    """Spans kept in memory, written out when the benchmark ends."""

    def __init__(self):
        self.spans: list = []

    def add(self, name: str, start: float, end: float, parent, txn) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end,
                           "parent": parent, "txn": txn})
        return len(self.spans) - 1


class Rung:
    """One entry point under replay: wraps ``conn`` so that every call
    into the entry point is timed (and, with ``spans``, recorded), and
    keeps the per-statement times, rows returned and failures."""

    def __init__(self, name: str, conn, oracle: Oracle,
                 spans: SpanLog | None):
        self.name = name
        self.conn = conn
        self.oracle = oracle
        self.spans = spans
        self.times_ms: list = []
        self.rows = 0
        self.failed = 0
        self._rng = random.Random(0)   # never drawn: one client, no conflict
        self._txn = self._parent = None
        entry, unpack = conn.call, conn.unpack

        def timed_call(step):
            start = time.perf_counter()
            try:
                return entry(step)
            finally:
                end = time.perf_counter()
                self.times_ms.append((end - start) * 1e3)
                if spans is not None:
                    spans.add(name, start, end, self._parent, self._txn)

        def counted_unpack(result):
            rows, count = unpack(result)
            if rows is not None:
                self.rows += len(rows)
            return rows, count

        conn.call, conn.unpack = timed_call, counted_unpack

    @property
    def median_ms(self) -> float:
        return statistics.median(self.times_ms) if self.times_ms else 0.0

    def run(self, index: int, txn) -> None:
        """Run transaction ``index`` of the stream through the entry point."""
        if self.spans is not None:
            # The transaction span is opened first so statements can name
            # it as parent; its end is patched in when the commit returns.
            self._txn = index
            self._parent = self.spans.add(
                f"{self.name}:txn:{txn.kind}", time.perf_counter(), 0.0,
                None, index)
        ok = run_txn(self.conn, txn, self.oracle, self._rng)[0]
        if self.spans is not None:
            self.spans.spans[self._parent]["end"] = time.perf_counter()
        self.failed += not ok


def replay(rung: Rung, txns: list, system: LocalSystem) -> dict:
    """Run ``txns`` through ``rung`` one after the other; returns what the
    registry counters moved by."""
    before = system.counters()
    for index, txn in enumerate(txns):
        rung.run(index, txn)
    after = system.counters()
    return {name: after[name] - before.get(name, 0.0) for name in after}


# --------------------------------------------------------------------------
# The model-cost replay (untraced run)
# --------------------------------------------------------------------------

def charged_io_ms_per_txn(workload: Workload, seed: int) -> tuple:
    """The paper's model cost: simulated-disk time charged per transaction
    over a fixed single-client replay.  Returns ``(ms_per_txn, failed)``.

    Tables 16/17 charge a query from a cold buffer.  Here transactions
    are charged in pairs: buffer pools and object caches are emptied, the
    first of the pair pays the paper's cold path, the second finds what
    the first left behind, so cache reuse is in the figure too.  Measured
    over ten seeds on embedded-traverse: emptied before every transaction
    the figure is one constant (300.42, the keys do not matter); emptied
    once per replay it is the number of distinct pages the stream happens
    to touch, divided by N (27% spread at N = 300); in pairs it spreads by
    1.8%.  No timer and no second thread: it repeats exactly for a seed."""
    system = LocalSystem(workload)
    try:
        oracle = system.load_oracle()
        conn = (SessionConn(system) if system.servers
                else EmbeddedConn(system.dbs[0]))
        txns = gen.first_txns(workload, seed, workload.replay_txns)
        rung = Rung("model", conn, oracle, None)
        charged = 0.0
        for start in range(0, len(txns), 2):
            system.go_cold()
            charged += replay(rung, txns[start:start + 2],
                              system).get("disk.elapsed_ms", 0.0)
        conn.close()
        return charged / len(txns), rung.failed
    finally:
        system.close()


# --------------------------------------------------------------------------
# The traced run
# --------------------------------------------------------------------------

def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _median_ms(fn, items) -> float:
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times) if times else 0.0


def run_ladder(workload: Workload, seed: int) -> dict:
    """Returns ``{"metrics": {...}, "failed": n, "attempted": n}`` and
    writes ``out/trace-<workload>.json``."""
    system = LocalSystem(workload)
    try:
        return _run_ladder(system, workload, seed)
    finally:
        system.close()


def _run_ladder(system: LocalSystem, workload: Workload, seed: int) -> dict:
    oracle = system.load_oracle()
    n = workload.ladder_txns
    txns = gen.first_txns(workload, seed, n)
    steps = [step for txn in txns for step in txn.steps]
    spans = SpanLog()

    def cold_plans() -> None:
        for db in system.dbs:
            db.kernel.plan_cache.invalidate_all("moodbench rung")

    # Deepest first.  The top entry point is replayed twice, with the
    # benchmark's spans on and off.
    kernel_conn = KernelConn(system)
    server_conn = None
    ladder = [Rung("core.kernel.execute_prepared_ms", kernel_conn, oracle,
                   spans)]
    if system.servers:
        server_conn = ServerConn(system)
        ladder += [
            Rung("core.database.execute_ms", DatabaseConn(system), oracle,
                 spans),
            Rung("server.session.execute_ms", SessionConn(system), oracle,
                 spans),
            Rung("server.server.handle_ms", server_conn, oracle, spans),
        ]
        if system.router is not None:
            ladder.append(Rung("server.router.handle_ms", RouterConn(system),
                               oracle, spans))
        top = "server.client.call_ms"
        connect = lambda: WireConn(system.address, workload.prepared)
    else:
        top = "core.database.execute_ms"
        connect = lambda: DatabaseConn(system)
    ladder += [Rung(top, connect(), oracle, spans),
               Rung(top + ":spans-off", connect(), oracle, None)]
    # Transaction by transaction, every rung in turn: the rungs of one
    # statement run within a fraction of a second of each other, so a slow
    # spell of the box stretches all of them alike and the differences
    # between rungs survive it.  Each rung finds an empty plan cache
    # (otherwise every rung but the first would find the plans its
    # predecessor compiled for this very statement).
    for index, txn in enumerate(txns):
        for rung in ladder:
            cold_plans()
            rung.run(index, txn)
    for rung in ladder:
        rung.conn.close()
    rungs = {rung.name: rung for rung in ladder}
    unspanned = rungs[top + ":spans-off"]

    # The exact counts: the top entry point once more, one transaction
    # after the other from an empty plan cache, with the caches in the
    # state the stream itself leaves them in.
    cold_plans()
    counted = Rung(top + ":counts", connect(), oracle, None)
    counts = replay(counted, txns, system)
    counted.conn.close()
    rungs[counted.name] = counted

    # -- micro-spans ---------------------------------------------------------
    kernel = system.dbs[0].kernel
    texts = [gen.TEMPLATES[s.template] if workload.prepared else s.sql
             for s in steps]
    parse_ms = _median_ms(parse_script, texts)
    compile_ms = _median_ms(
        lambda text: kernel.prepare(text, KernelConn.LITERAL), texts)
    selects = [stmt for stmt in (parse_script(s.sql)[0] for s in steps)
               if isinstance(stmt, SelectQuery)]
    plan_ms = _median_ms(lambda q: kernel.planner().plan_query(q), selects)
    kernel.prepared.clear()
    analyze_ms = _median_ms(lambda db: db.analyze(), system.dbs * 3)
    frame_ms = frame_bytes = 0.0
    if server_conn is not None:
        left, right = socket.socketpair()
        with left, right:
            def ship(response):
                send_frame(left, response)
                recv_frame(right)
            frame_ms = _median_ms(ship, server_conn.responses)
        frame_bytes = statistics.median(
            len(json.dumps(r, separators=(",", ":")))
            for r in server_conn.responses)
    objects = kernel.objects
    start = time.perf_counter()
    vehicles = list(objects.iter_extent("Vehicle"))
    iter_extent_ms = (time.perf_counter() - start) * 1e3 / len(vehicles)
    oids = [v.state["manufacturer"] for v in vehicles[:256]]
    deref_ms = _median_ms(objects.deref, oids)
    deref_many_ms = _median_ms(
        objects.deref_many, [oids[i:i + 64] for i in range(0, 256, 64)])

    # -- the ladder ----------------------------------------------------------
    def entry(name: str) -> float:
        return rungs[name].median_ms if name in rungs else 0.0

    def between(upper: str, lower: str) -> float:
        """Self time of the layers between two rungs: the median over the
        statements of (upper entry - lower entry).  Pairing by statement
        cancels what a statement costs below both rungs, so a stray
        scheduler or collector pause moves one sample, not the median."""
        if upper not in rungs:
            return 0.0
        return statistics.median(
            u - l for u, l in zip(rungs[upper].times_ms,
                                  rungs[lower].times_ms))

    call = entry("server.client.call_ms")
    router = entry("server.router.handle_ms")
    server = entry("server.server.handle_ms")
    database = entry("core.database.execute_ms")
    kernel_rung = rungs["core.kernel.execute_prepared_ms"]
    # A statement that missed the plan cache paid the optimizer inside its
    # kernel time; charge that part to compile, the rest to execution.
    planned = [plan_ms if missed else 0.0 for missed in kernel_conn.missed]
    self_sql = 0.0 if workload.prepared else parse_ms
    top_server = ("server.router.handle_ms" if system.router is not None
                  else "server.server.handle_ms")
    selfs = {
        "self.wire_ms": between("server.client.call_ms", top_server),
        "self.router_ms": between("server.router.handle_ms",
                                  "server.server.handle_ms"),
        "self.session_ms": between("server.server.handle_ms",
                                   "core.database.execute_ms"),
        "self.sql_ms": self_sql,
        "self.compile_ms": statistics.median(planned),
        "self.exec_ms": statistics.median(
            t - p for t, p in zip(kernel_rung.times_ms, planned)),
        # What MoodDatabase.execute spends that is neither parse nor the
        # kernel call (statement resolution, statistics freshness check).
        "self.unattributed_ms": between(
            "core.database.execute_ms", "core.kernel.execute_prepared_ms"
        ) - self_sql,
    }

    def d(name: str) -> float:
        return counts.get(name, 0.0)

    derefs = d("objcache.hits") + d("objcache.misses")
    metrics = {
        "server.client.call_ms": call,
        "server.router.handle_ms": router,
        "server.server.handle_ms": server,
        "server.session.execute_ms": entry("server.session.execute_ms"),
        "core.database.execute_ms": database,
        "core.database.analyze_ms": analyze_ms,
        "core.kernel.execute_prepared_ms": kernel_rung.median_ms,
        "sql.parser.parse_ms": parse_ms,
        "core.prepare.compile_ms": compile_ms,
        "optimizer.planner.plan_ms": plan_ms,
        "server.protocol.frame_ms": frame_ms,
        "server.protocol.frame_bytes": frame_bytes,
        "engine.objects.deref_ms": deref_ms,
        "engine.objects.deref_many_ms": deref_many_ms,
        "engine.objects.iter_extent_ms": iter_extent_ms,
        **selfs,
        "storage.disk.page_reads_per_txn": d("disk.page_reads") / n,
        "storage.disk.page_writes_per_txn": d("disk.page_writes") / n,
        "storage.buffer.hit_ratio":
            _ratio(d("buffer.hits"), d("buffer.misses")),
        "storage.buffer.evictions_per_txn": d("buffer.evictions") / n,
        "engine.objcache.hit_ratio":
            _ratio(d("objcache.hits"), d("objcache.misses")),
        "engine.objcache.evictions_per_txn": d("objcache.evictions") / n,
        "engine.objcache.invalidations_per_txn":
            d("objcache.invalidations") / n,
        "engine.objcache.mean_batch":
            d("objcache.batched_oids") / d("objcache.batches")
            if d("objcache.batches") else 0.0,
        "engine.objects_touched_per_row":
            derefs / counted.rows if counted.rows else 0.0,
        "core.plancache.hit_ratio":
            _ratio(d("plancache.hits"), d("plancache.misses")),
        "storage.wal.records_per_txn": d("wal.records") / n,
        "storage.wal.forces_per_txn": d("wal.forces") / n,
        "storage.wal.pages_written_per_txn": d("wal.pages_written") / n,
        "storage.locks.acquisitions_per_txn": d("locks.acquisitions") / n,
        "bench.trace_overhead_pct":
            between(top, top + ":spans-off") / unspanned.median_ms * 100.0,
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": seed, "txns": n,
            "spans": spans.spans,
            "counters": counts,
        }, handle)
    return {
        "metrics": metrics,
        "attempted": n * len(rungs),
        "failed": sum(rung.failed for rung in rungs.values()),
    }
