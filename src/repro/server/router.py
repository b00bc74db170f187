"""The routing front end of a sharded MOOD deployment.

The OID space is range-partitioned over N shard engines (see
:mod:`repro.storage.oid`); this module is the coordinator that makes
them look like one server.  Clients speak the ordinary frame protocol to
the router; the router classifies each statement and either

* **forwards** it whole to a single shard (the fast path -- a raw frame
  relay, so a 1-shard deployment of process shards adds only one socket
  hop; an in-process shard's hop is a call),
* **broadcasts** it (DDL, ANALYZE, and unhinted writes -- every shard
  holds the same schema, with writes made atomic by an internal
  two-phase commit), or
* **scatters** it (unhinted SELECT/EXPLAIN: every shard runs the query,
  the router concatenates the row streams and re-applies simple ORDER
  BYs).

Literal and prepared statements take the same fan-out
(:meth:`ShardedServer._fan_out`), and every frame a shard receives goes
through one per-shard step (:meth:`ShardedServer._on_shard`).

Requests carry optional routing hints: ``shard`` pins a statement to a
shard index, ``shard_key`` hashes an application key to one
(``int % N``; strings via crc32).  ``NEW`` without a hint round-robins.

Cross-shard transactions commit with **presumed-abort two-phase
commit**: every participant forces a PREPARE record (votes yes, keeps
its locks), the router forces a COMMIT decision into its
:class:`~repro.server.txlog.CoordinatorLog` -- the commit point -- then
drives the idempotent phase-2 verbs.  A failed prepare round logs
nothing: the yes-voters are rolled back and any branch out of reach is
presumed aborted.  :meth:`ShardedServer.recover` re-drives pending
decisions after a router crash and sweeps the shards' in-doubt gids
that no coordinator is still running and no decision names, so no
transaction stays in doubt longer than one restart.

A ``SELECT ... FROM SYS$SHARDS`` is answered by the router itself (it is
the only party that knows the topology); every other ``SYS$`` view
scatters to the shards like any query.
"""

from __future__ import annotations

import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field

from repro.core.database import MoodDatabase
from repro.core.errors import (
    MoodError,
    ProtocolError,
    ShardUnavailableError,
    TransactionError,
    TransactionInDoubtError,
    UnknownPreparedStatementError,
    describe_error,
)
from repro.obs.metrics import merge_histogram_dumps, summarize_dump
from repro.obs.promtext import render_prometheus
from repro.obs.spans import Span
from repro.server.protocol import (
    FrameListener,
    decode_frame,
    error_response,
    ok_response,
    telemetry_response,
    validate_request,
)
from repro.server.telemetry import (
    ROUTER_ONLY_VIEWS,
    STATS_HISTOGRAMS,
    ClusterTelemetry,
)
from repro.server.server import _encode_result
from repro.server.txlog import CoordinatorLog
from repro.server.worker import LocalShard, ProcessShard
from repro.sql.ast import (
    AlterClass,
    AnalyzeStmt,
    CreateClass,
    CreateIndex,
    CreateMethod,
    DeleteStmt,
    DropClass,
    DropIndex,
    DropMethod,
    ExecuteStmt,
    ExplainStmt,
    NewObject,
    SelectQuery,
    UpdateStmt,
)
from repro.sql.parser import parse_script
from repro.storage.oid import SHARD_PAGE_SPAN

_BROADCAST_STATEMENTS = (
    CreateClass, DropClass, AlterClass,
    CreateIndex, DropIndex, CreateMethod, DropMethod,
    AnalyzeStmt,
)

def shard_of_key(key, shard_count: int) -> int:
    """Deterministically map an application sharding key to a shard:
    integers partition by ``key % N`` (matching the benchmark's
    id-partitioned dataset), everything else by a stable crc32 hash."""
    if isinstance(key, bool) or not isinstance(key, int):
        return zlib.crc32(str(key).encode("utf-8")) % shard_count
    return key % shard_count


@dataclass
class RouterConfig:
    """Knobs for one sharded deployment."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral, read back after start()
    shards: int = 1
    backend: str = "process"      # "process" or "local" (in-process) workers
    worker_options: dict = field(default_factory=dict)
    txlog_path: str | None = None # coordinator decision log (None: in-memory)


def _close_links(links: dict) -> None:
    for link in links.values():
        link.close()
    links.clear()


class RouterSession:
    """Per-connection routing state: lazy shard links, the distributed
    transaction's participant set, and client-prepared statements."""

    def __init__(self, session_id: int):
        self.session_id = session_id
        self.links: dict = {}
        self.in_txn = False
        #: Shards holding an open branch of the current transaction.
        self.participants: set[int] = set()
        #: Client-prepared statements: name -> SQL, the parse of the
        #: first statement (for routing without re-parsing), and the
        #: shards each one has been propagated to (lazily, on first
        #: execution there).
        self.prepared_sql: dict[str, str] = {}
        self.prepared_first: dict[str, object] = {}
        self.prepared_on: dict[str, set[int]] = {}
        #: Router-side per-session telemetry (the SYS$SESSIONS shard=-1
        #: rows): statements routed, last trace id, the transaction-level
        #: trace id carried by BEGIN, and spans the current statement's
        #: dispatch produced (the 2PC phase tree).
        self.statements = 0
        self.last_trace_id = ""
        self.txn_trace: str | None = None
        self.pending_spans: list = []


class ShardedServer:
    """N shard workers behind one routing listener."""

    def __init__(
        self,
        config: RouterConfig | None = None,
        backends: list | None = None,
        txlog: CoordinatorLog | None = None,
    ):
        self.config = config or RouterConfig()
        if backends is not None:
            self.backends = list(backends)
            self._owns_backends = False
        else:
            cls = LocalShard if self.config.backend == "local" else ProcessShard
            self.backends = [
                cls(i, self.config.shards, self.config.worker_options)
                for i in range(self.config.shards)
            ]
            self._owns_backends = True
        self.shard_count = len(self.backends)
        if self.shard_count < 1:
            raise MoodError("a sharded server needs at least one shard")
        self.txlog = txlog or CoordinatorLog(self.config.txlog_path)
        #: Gids whose coordinator is running (recovery leaves them be).
        self._live_gids: set[str] = set()
        #: Test hooks: ``failpoints[name] = fn`` runs ``fn()`` at the
        #: named point in the commit protocol (tests raise from it to
        #: simulate a coordinator crash at exactly that instant).
        self.failpoints: dict = {}
        # A miniature local database evaluates SYS$SHARDS with the
        # standard system-view machinery (WHERE/projection/ORDER BY all
        # work); its metrics registry doubles as the router's.
        self._viewdb = MoodDatabase(buffer_capacity=16)
        self.metrics = self._viewdb.kernel.storage.metrics
        component = self.metrics.component("shard")
        self._m_forwarded = component.counter("forwarded")
        self._m_broadcasts = component.counter("broadcasts")
        self._m_scatter = component.counter("scatter_queries")
        self._m_2pc_commits = component.counter("twopc_commits")
        self._m_2pc_aborts = component.counter("twopc_aborts")
        self._m_2pc_in_doubt = component.counter("twopc_in_doubt")
        self._m_2pc_recovered = component.counter("twopc_recovered")
        self._m_unavailable = component.counter("unavailable")
        self._m_raw_relays = component.counter("raw_relays")
        # Per-phase 2PC latency distributions (prepare votes, the
        # decision-log force, phase-2 verbs, whole protocol).
        twopc = self.metrics.component("twopc")
        self._m_twopc_ms = {
            "prepare": twopc.histogram("prepare_ms"),
            "decision": twopc.histogram("decision_ms"),
            "phase2": twopc.histogram("phase2_ms"),
            "total": twopc.histogram("total_ms"),
        }
        # The view database's journal and trace rings double as the
        # router's (its SYS$ views read them as the shard = -1 rows).
        self.events = self._viewdb.kernel.storage.events
        self.statement_log = self._viewdb.kernel.statement_log
        self.slow_log = self._viewdb.kernel.slow_log
        self._per_shard_statements = [0] * self.shard_count
        #: Live router sessions by id, for SYS$SESSIONS / SYS$TXNS.
        self._sessions: dict[int, RouterSession] = {}
        self._viewdb.kernel.system_views.register(
            "SYS$SHARDS",
            [("shard", "Integer"), ("host", "String"), ("port", "Integer"),
             ("alive", "Boolean"), ("page_base", "Integer"),
             ("statements", "Integer")],
            self._shard_rows,
            "every shard worker: address, liveness, OID page range, "
            "statements routed to it",
        )
        self._mutex = threading.Lock()
        self._admin_links: dict = {}
        # One lock per admin link: federated SYS$ queries scatter from
        # arbitrary client threads, and interleaved frames on a shared
        # link would desynchronise its stream.
        self._admin_locks = [threading.Lock() for _ in self.backends]
        self._next_session = 1
        self._round_robin = 0
        self._listener: FrameListener | None = None
        self._stopped = False
        #: Report of the in-doubt resolution run by the last start().
        self.last_recovery = {"redriven": 0, "swept": 0}
        # Installed last: re-registers the view database's SYS$ views as
        # federated cluster views and adds SYS$TXNS / SYS$SHARD_HEALTH.
        self.telemetry = ClusterTelemetry(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the shards (when owned), resolve leftover in-doubt
        transactions, then open the routing listener."""
        if self._listener is not None:
            raise MoodError("router already started")
        for backend in self.backends:
            if not backend.alive:
                backend.start()
        self.last_recovery = self.recover()
        self._listener = FrameListener(
            self, (self.config.host, self.config.port), "mood-router-accept"
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise MoodError("router not started")
        return self._listener.address

    def stop(self) -> None:
        if self._listener is not None and not self._stopped:
            self._stopped = True
            self._listener.close()
        _close_links(self._admin_links)
        if self._owns_backends:
            for backend in self.backends:
                backend.stop()

    def __enter__(self) -> "ShardedServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- coordinator recovery -------------------------------------------------

    def recover(self) -> dict:
        """Re-drive the decision log, then presumed-abort sweep the shards.

        Phase 1: every logged decision without a DONE is re-driven (the
        phase-2 verbs are idempotent, so re-driving an already-applied
        decision is harmless).  Phase 2: any gid a shard holds in doubt
        with *no* logged decision never reached the commit point --
        presumed abort says roll it back.  Both phases skip the gids
        whose coordinator is still running: it decides them itself.  The
        live set is read after the shards' in-doubt lists and before the
        log, because a coordinator logs its decision before it leaves
        the set.
        """
        in_doubt = []
        for shard in range(self.shard_count):
            try:
                response = self._admin_call(shard, {"op": "IN_DOUBT"})
            except ShardUnavailableError:
                continue
            in_doubt += [(shard, gid) for gid in response.get("gids", [])]
        with self._mutex:
            live = set(self._live_gids)
        pending = [d for d in self.txlog.pending() if d.gid not in live]
        redriven = 0
        for decision in pending:
            verb = ("COMMIT_PREPARED" if decision.verdict == "COMMIT"
                    else "ROLLBACK_PREPARED")
            if self._phase_two(None, decision.gid, verb, decision.shards, []):
                self.txlog.log_done(decision.gid)
                self._m_2pc_recovered.inc()
                self.events.emit(
                    "twopc.recovered",
                    gid=decision.gid, verdict=decision.verdict,
                    shards=len(decision.shards),
                )
                redriven += 1
        settled = live | {d.gid for d in pending}
        swept = 0
        for shard, gid in in_doubt:
            if gid not in settled and self._phase_two(
                    None, gid, "ROLLBACK_PREPARED", [shard], []):
                self.events.emit("twopc.swept", gid=gid, shard=shard)
                swept += 1
        return {"redriven": redriven, "swept": swept}

    def _admin_call(self, shard: int, request: dict) -> dict:
        """Router-initiated call outside any client session (recovery,
        liveness, telemetry scatter); reconnects once on a stale cached
        link.  Serialised per shard: concurrent federated queries must
        not interleave frames on the shared admin link."""
        with self._admin_locks[shard]:
            try:
                return self._link_call(self._admin_links, shard, request)
            except ShardUnavailableError:
                return self._link_call(self._admin_links, shard, request)

    def _link_call(self, links: dict, shard: int, request):
        """One frame over ``links``' link to ``shard``, connected on first
        use; a dead link is discarded so the next call reconnects."""
        link = links.get(shard)
        if link is None:
            link = links[shard] = self.backends[shard].connect()
        try:
            return link.call(request)
        except ShardUnavailableError:
            link.close()
            links.pop(shard, None)
            raise

    # -- session plumbing -----------------------------------------------------

    def open_session(self) -> RouterSession:
        with self._mutex:
            session = RouterSession(self._next_session)
            self._next_session += 1
            self._sessions[session.session_id] = session
            return session

    def sessions(self) -> list[RouterSession]:
        with self._mutex:
            return sorted(self._sessions.values(),
                          key=lambda s: s.session_id)

    def _session_rows(self) -> list[dict]:
        """The router's own SYS$SESSIONS rows (shard = -1 in the
        federated view); a router session has no engine transaction of
        its own and is never queued by admission."""
        return [
            {
                "session_id": session.session_id,
                "state": "txn" if session.in_txn else "autocommit",
                "txn_id": -1,
                "statements": session.statements,
                "admitted": True,
                "last_trace_id": session.last_trace_id,
            }
            for session in self.sessions()
        ]

    def close_session(self, session: RouterSession) -> None:
        with self._mutex:
            self._sessions.pop(session.session_id, None)
        if session.in_txn:
            for shard in list(session.participants):
                try:
                    self._call_shard(session, shard, {"op": "ROLLBACK"})
                except (MoodError, ShardUnavailableError):
                    pass
            session.in_txn = False
            session.participants.clear()
        _close_links(session.links)

    def _call_shard(self, session: RouterSession, shard: int, request):
        """One frame (a dict, or raw bytes relayed verbatim) over the
        session's link to ``shard``, a failure counted as unavailable."""
        try:
            return self._link_call(session.links, shard, request)
        except ShardUnavailableError:
            self._m_unavailable.inc()
            raise

    def _call_checked(self, session: RouterSession, shard: int, request):
        """Like :meth:`_call_shard` but a shard-side error response is
        raised locally as :class:`_ShardErrorResponse` (carrying the
        verbatim error payload).  Relayed bytes pass through unchecked:
        their errors reach the client verbatim anyway."""
        response = self._call_shard(session, shard, request)
        if isinstance(response, dict) and not response.get("ok", False):
            raise _ShardErrorResponse(response)
        return response

    # -- request dispatch -----------------------------------------------------

    def handle_request(self, session: RouterSession, request: dict,
                       raw: bytes | None = None):
        """Route one decoded request; ``raw`` is its wire payload, which
        single-shard routes relay untouched (the return value is then the
        shard's response bytes rather than a dict).

        A statement verb is recorded by the view database's kernel -- the
        router's own trace rings and ``server.*`` ledgers -- whatever its
        outcome, its status the response's error code, so failures the
        router itself produces (a scatter partial failure,
        SHARD_UNAVAILABLE, a routing rejection) count like a worker's."""
        session.pending_spans = []
        try:
            verb = validate_request(request)
        except MoodError as exc:
            return error_response(describe_error(exc))
        if not verb.statement:
            return self._answer(session, verb, request, raw)
        statement = request.get("sql") or request.get("name") or request["op"]
        with self._viewdb.kernel.statement(
            session.session_id, str(statement), request["op"],
            request.get("trace"),
        ) as trace:
            response = self._answer(session, verb, request, raw)
            trace.status = _response_error_code(response) or "OK"
            trace.spans = session.pending_spans
        session.statements += 1
        session.last_trace_id = trace.trace_id
        return response

    def _answer(self, session: RouterSession, verb, request: dict,
                raw: bytes | None):
        """Dispatch one valid request.  Every failure is answered, never
        raised: a shard's error frame verbatim, any other exception --
        a foreign one as ``MOOD`` -- described in an error frame."""
        try:
            if verb.internal:
                raise ProtocolError(f"{request['op']} is a router-to-shard "
                                    "operation, not a client one")
            return self._dispatch(session, request["op"], request, raw)
        except _ShardErrorResponse as exc:
            return exc.response
        except Exception as exc:
            return error_response(describe_error(exc))

    def _dispatch(self, session: RouterSession, op: str, request: dict,
                  raw: bytes | None):
        if op in ("EXECUTE", "QUERY", "EXPLAIN"):
            return self._execute_sql(session, op, request, raw)
        if op == "EXECUTE_PREPARED":
            return self._execute_prepared(session, request, raw)
        if op == "BEGIN":
            if session.in_txn:
                raise TransactionError(
                    f"session {session.session_id} already has an open "
                    "transaction"
                )
            session.in_txn = True
            session.participants = set()
            session.txn_trace = request.get("trace") or None
            return _synth_statement("BEGIN", "distributed transaction")
        if op == "COMMIT":
            return self._commit(session, request.get("trace") or None)
        if op == "ROLLBACK":
            return self._rollback(session, request.get("trace") or None)
        if op == "PREPARE":
            name = request["name"]
            # Reject malformed SQL now and keep the first statement's
            # parse for per-execution routing.
            session.prepared_first[name] = parse_script(request["sql"])[0]
            session.prepared_sql[name] = request["sql"]
            session.prepared_on[name] = set()
            return _synth_statement("PREPARE", f"prepared {name}")
        if op == "DEALLOCATE":
            name = request["name"]
            if name not in session.prepared_sql:
                raise UnknownPreparedStatementError(
                    f"no prepared statement {name!r}"
                )
            for shard in session.prepared_on.pop(name, set()):
                try:
                    self._call_shard(
                        session, shard, {"op": "DEALLOCATE", "name": name}
                    )
                except ShardUnavailableError:
                    pass  # its session state died with it
            del session.prepared_sql[name]
            session.prepared_first.pop(name, None)
            return _synth_statement("DEALLOCATE", f"deallocated {name}")
        if op == "PING":
            return ok_response({"pong": True, "shards": self.shard_count})
        if op == "STATS":
            return ok_response({"stats": self._stats(session)})
        if op == "METRICS":
            # The merged cluster exposition: router samples unlabelled,
            # worker samples labelled shard="<i>", histogram families
            # additionally merged into shard="cluster" quantiles.
            return ok_response({"metrics": render_prometheus(
                self.metrics, self.telemetry.shard_metrics()
            )})
        if op == "TELEMETRY":
            return telemetry_response(self._viewdb.kernel, request)
        if op == "RECLUSTER":
            return self._recluster_op(request)
        return ok_response({"bye": True})  # CLOSE; the listener hangs up

    def _recluster_op(self, request: dict) -> dict:
        """Broadcast a dynamic-clustering command: every shard runs its
        own reclusterer over its own access log (objects never move
        *between* shards here -- placement is a per-store concern).  A
        ``shard`` hint narrows the command to one worker.  Per-shard
        answers come back keyed by shard; a dead shard reports an
        ``error`` entry rather than failing the whole command."""
        hint = self._hint_shard(request)
        shards = ([hint] if hint is not None
                  else list(range(self.shard_count)))
        forward = {"op": "RECLUSTER"}
        for key in ("action", "interval"):
            if key in request:
                forward[key] = request[key]
        results: dict[str, dict] = {}
        for shard in shards:
            try:
                response = self._admin_call(shard, forward)
            except ShardUnavailableError as exc:
                results[str(shard)] = {"ok": False, "error": str(exc)}
                continue
            results[str(shard)] = response
        return ok_response({"shards": results})

    # -- statement routing ----------------------------------------------------

    def _hint_shard(self, request: dict) -> int | None:
        """Resolve a request's routing hint to a shard index, if any."""
        shard = request.get("shard")
        if shard is not None:
            # The type is checked on the wire; only the router knows the
            # range (workers accept any relayed hint).
            if shard >= self.shard_count:
                raise ProtocolError(
                    f"'shard' must be an integer in 0..{self.shard_count - 1}"
                )
            return shard
        key = request.get("shard_key")
        return None if key is None else shard_of_key(key, self.shard_count)

    def _route(self, statement, hint: int | None):
        """Classify one parsed statement: ``("shard", i)``, ``("broadcast",)``,
        ``("scatter",)``, ``("write_all",)`` or ``("sys",)``."""
        if isinstance(statement, _BROADCAST_STATEMENTS):
            return ("broadcast",)
        if isinstance(statement, SelectQuery):
            sys_views = {r.class_name.upper() for r in statement.ranges
                         if r.class_name.upper().startswith("SYS$")}
            if sys_views:
                # A hinted SYS$ query drills into that one shard's local
                # view (no shard column); unhinted -- or naming a view
                # only the router can answer -- it runs against the
                # router's federated views, whose suppliers scatter the
                # TELEMETRY verb themselves.
                if hint is not None and not (sys_views & ROUTER_ONLY_VIEWS):
                    return ("shard", hint)
                return ("sys",)
            if hint is not None:
                return ("shard", hint)
            return ("scatter",)
        if isinstance(statement, ExplainStmt):
            if hint is not None:
                return ("shard", hint)
            return ("scatter",)
        if isinstance(statement, NewObject):
            if hint is not None:
                return ("shard", hint)
            with self._mutex:
                shard = self._round_robin % self.shard_count
                self._round_robin += 1
            return ("shard", shard)
        if isinstance(statement, (UpdateStmt, DeleteStmt)):
            if hint is not None:
                return ("shard", hint)
            return ("write_all",)
        # PREPARE/EXECUTE/DEALLOCATE inside SQL text, ANALYZE handled above;
        # anything else is session-scoped enough to pin to one shard.
        if hint is not None:
            return ("shard", hint)
        if isinstance(statement, ExecuteStmt):
            # Its bound statement could need a scatter or a 2PC write;
            # broadcast, it would answer from one shard.
            raise ProtocolError(
                "EXECUTE in SQL text needs a shard hint; run a prepared "
                "statement across shards with the EXECUTE_PREPARED verb"
            )
        return ("broadcast",)

    def _execute_sql(self, session: RouterSession, op: str, request: dict,
                     raw: bytes | None):
        sql = request["sql"]
        if op == "EXPLAIN" and not sql.lstrip().upper().startswith("EXPLAIN"):
            sql = "EXPLAIN " + sql
            request, raw = dict(request, sql=sql), None
        hint = self._hint_shard(request)
        if hint is not None and not _may_need_fanout(sql):
            # Hinted hot path: every statement kind left after the
            # textual screen routes to the hinted shard, so skip the
            # router-side parse entirely.
            return self._forward(session, hint, request, raw)
        statements = parse_script(sql)
        routes = [self._route(stmt, hint) for stmt in statements]
        single = {r[1] for r in routes if r[0] == "shard"}
        if len(single) == 1 and all(r[0] == "shard" for r in routes):
            # The whole script lives on one shard: relay the frame (hints,
            # trace and timeout ride along; workers ignore what they
            # don't route on).
            (shard,) = single
            return self._forward(session, shard, request, raw)
        results = []
        texts = _split_script(sql, len(statements))
        for text, statement, route in zip(texts, statements, routes):
            frame = _shard_frame(request, "EXECUTE", sql=text)
            results.extend(
                self._fan_out(session, route, statement, frame)["results"]
            )
        return ok_response({"results": results,
                            "trace": request.get("trace")})

    def _execute_prepared(self, session: RouterSession, request: dict,
                          raw: bytes | None):
        """A prepared statement routes exactly like its literal twin,
        from the parse kept at PREPARE; :meth:`_on_shard` propagates the
        statement to each shard on its first use there."""
        name = request["name"]
        if name not in session.prepared_sql:
            raise UnknownPreparedStatementError(
                f"no prepared statement {name!r}"
            )
        statement = session.prepared_first[name]
        route = self._route(statement, self._hint_shard(request))
        if route[0] == "sys":
            raise ProtocolError("EXECUTE_PREPARED cannot target SYS$SHARDS")
        if route[0] == "shard":
            return self._forward(session, route[1], request, raw)
        frame = _shard_frame(request, "EXECUTE_PREPARED", name=name,
                             params=request.get("params") or [])
        return self._fan_out(session, route, statement, frame)

    def _fan_out(self, session: RouterSession, route: tuple, statement,
                 frame: dict) -> dict:
        """Run one routed statement: relay it to its shard, answer it from
        the router's own views, scatter it and merge, or broadcast it."""
        kind = route[0]
        if kind == "shard":
            return self._forward(session, route[1], frame)
        if kind == "sys":
            result = _encode_result(self._viewdb.execute(frame["sql"]))
        elif kind == "scatter":
            result = self._scatter_query(session, frame, statement)
        elif kind == "broadcast":
            result = self._broadcast(session, frame)
        else:
            result = self._broadcast_write(session, frame)
        return ok_response({"results": [result],
                            "trace": frame.get("trace")})

    def _on_shard(self, session: RouterSession, shard: int, frame: dict,
                  raw: bytes | None = None):
        """The one per-shard step of every routed statement: enlist the
        shard in the session's transaction, propagate a prepared
        statement on its first use there, count the statement, and send
        ``frame`` -- or ``raw``, the client's own bytes for it."""
        self._ensure_participant(session, shard)
        if frame["op"] == "EXECUTE_PREPARED":
            name = frame["name"]
            if shard not in session.prepared_on[name]:
                self._call_checked(session, shard, {
                    "op": "PREPARE", "name": name,
                    "sql": session.prepared_sql[name],
                })
                session.prepared_on[name].add(shard)
        response = self._call_checked(
            session, shard, frame if raw is None else raw
        )
        with self._mutex:
            self._per_shard_statements[shard] += 1
        return response

    def _forward(self, session: RouterSession, shard: int, frame: dict,
                 raw: bytes | None = None):
        """Single-shard relay; with ``raw``, byte for byte."""
        response = self._on_shard(session, shard, frame, raw)
        self._m_forwarded.inc()
        if raw is not None:
            self._m_raw_relays.inc()
        return response

    def _ensure_participant(self, session: RouterSession, shard: int) -> None:
        if session.in_txn and shard not in session.participants:
            self._call_checked(session, shard, {"op": "BEGIN"})
            session.participants.add(shard)

    def _scatter_query(self, session: RouterSession, frame: dict,
                       statement) -> dict:
        """Run the query on every shard and merge: rows concatenate, and
        an ORDER BY whose keys appear in the output columns is re-applied
        to the merged set (other orderings stay per-shard)."""
        self._m_scatter.inc()
        merged: dict | None = None
        reports = []
        for shard in range(self.shard_count):
            response = self._on_shard(session, shard, frame)
            for result in response.get("results", []):
                if result.get("type") == "explain":
                    reports.append(
                        f"-- shard {shard} --\n{result.get('report', '')}"
                    )
                if merged is None:
                    merged = dict(result)
                    merged["rows"] = list(result.get("rows", []))
                else:
                    merged["rows"].extend(result.get("rows", []))
        if merged is None:
            raise ShardUnavailableError("no shard answered the query")
        if reports:
            merged["report"] = "\n".join(reports)
        order_by = getattr(statement, "order_by", ())
        if isinstance(statement, ExplainStmt):
            order_by = statement.query.order_by
        self._merge_order(merged, order_by)
        return merged

    @staticmethod
    def _merge_order(merged: dict, order_by) -> None:
        columns = merged.get("columns", [])
        if not order_by or not columns:
            return
        indexes = []
        for item in order_by:
            name = str(item.expr)
            if name not in columns:
                return  # key not in the output; keep per-shard order
            indexes.append((columns.index(name), item.ascending))
        rows = merged.get("rows", [])
        try:
            for index, ascending in reversed(indexes):
                rows.sort(key=lambda row: row[index], reverse=not ascending)
        except TypeError:
            pass  # mixed/unorderable encoded values; keep per-shard order

    def _broadcast(self, session: RouterSession, frame: dict) -> dict:
        """DDL/ANALYZE on every shard (every shard holds the schema).
        Workers bump their own schema versions, which stamps their plan
        caches cold -- the cross-shard plan-invalidation path."""
        self._m_broadcasts.inc()
        first: dict | None = None
        for shard in range(self.shard_count):
            response = self._on_shard(session, shard, frame)
            if first is None:
                results = response.get("results", [])
                first = results[0] if results else _synth_result("BROADCAST")
        return first

    def _broadcast_write(self, session: RouterSession, frame: dict) -> dict:
        """An unhinted write touches every shard.  Inside an explicit
        transaction the branches simply join it (2PC finishes the job at
        COMMIT); in autocommit the router wraps the broadcast in an
        internal distributed transaction so the write stays atomic."""
        if not session.in_txn:
            session.in_txn = True
            session.participants = set()
            try:
                merged = self._broadcast_write(session, frame)
            except Exception:
                self._rollback(session, frame.get("trace"))
                raise
            outcome = self._commit(session, frame.get("trace"))
            if not outcome.get("ok", False):
                raise _ShardErrorResponse(outcome)  # a shard voted no
            return merged
        self._m_broadcasts.inc()
        count = 0
        first = None
        for shard in range(self.shard_count):
            response = self._on_shard(session, shard, frame)
            results = response.get("results", [])
            if results:
                count += results[0].get("count") or 0
                first = first or results[0]
        merged = dict(first or _synth_result("WRITE"))
        merged["count"] = count
        return merged

    # -- distributed commit ---------------------------------------------------

    def _rollback(self, session: RouterSession,
                  trace: str | None = None) -> dict:
        if not session.in_txn:
            raise TransactionError("no open transaction to roll back")
        session.in_txn = False
        session.txn_trace = None
        participants, session.participants = session.participants, set()
        frame = _shard_frame({"trace": trace}, "ROLLBACK")
        for shard in sorted(participants):
            try:
                self._call_shard(session, shard, frame)
            except (ShardUnavailableError, _ShardErrorResponse):
                pass  # its branch dies with its session anyway
        return _synth_statement(
            "ROLLBACK",
            f"distributed rollback across {len(participants)} shard(s)",
        )

    def _commit(self, session: RouterSession,
                trace: str | None = None) -> dict:
        if not session.in_txn:
            raise TransactionError("no open transaction to commit")
        session.in_txn = False
        if trace is None:
            trace = session.txn_trace
        session.txn_trace = None
        participants = sorted(session.participants)
        session.participants = set()
        if not participants:
            return _synth_statement("COMMIT", "empty distributed transaction")
        if len(participants) == 1:
            # Single-shard transaction: an ordinary one-phase commit.
            frame = _shard_frame({"trace": trace}, "COMMIT")
            return self._call_checked(session, participants[0], frame)
        return self._commit_two_phase(session, participants, trace)

    def _commit_two_phase(self, session: RouterSession,
                          participants: list[int],
                          trace: str | None = None) -> dict:
        """Presumed-abort 2PC, now fully observable: the transaction's
        trace id rides every PREPARE_TXN / phase-2 frame (each worker
        records its branch under the same trace), every lifecycle point
        lands in the ``twopc.*`` journal events and latency histograms,
        and the whole protocol leaves a span tree on the COMMIT trace.
        Only a COMMIT decision is logged; the gid is live (left alone by
        :meth:`recover`) from before the first PREPARE until return."""
        gid = f"rtx-{uuid.uuid4().hex}"
        commit_started = time.monotonic()
        spans: list[Span] = []
        prepared: list[int] = []
        prepare_frame = _shard_frame({"trace": trace}, "PREPARE_TXN", gid=gid)
        with self._mutex:
            self._live_gids.add(gid)
        try:
            for shard in participants:
                vote_started = time.monotonic()
                try:
                    self._call_checked(session, shard, prepare_frame)
                except (_ShardErrorResponse, ShardUnavailableError) as exc:
                    # A no vote (its branch rolled back with the error) or
                    # a vanished shard (its vote may have hit its WAL; the
                    # sweep resolves it): abort the rest, log nothing.
                    vanished = isinstance(exc, ShardUnavailableError)
                    self._twopc_mark(
                        "prepare", gid, vote_started, spans, trace,
                        shard=shard, vote="unavailable" if vanished else "no",
                    )
                    self._m_2pc_aborts.inc()
                    self._phase_two(session, gid, "ROLLBACK_PREPARED",
                                    prepared, spans, trace)
                    self._phase_two(session, gid, "ROLLBACK",
                                    participants[len(prepared) + 1:],
                                    spans, trace)
                    self._twopc_finish(session, gid, commit_started, spans,
                                       trace, verdict="ABORT",
                                       shards=len(participants))
                    if not vanished:
                        return exc.response
                    self._m_2pc_in_doubt.inc()
                    raise TransactionInDoubtError(
                        f"shard {shard} vanished during prepare of {gid}; "
                        "presumed abort"
                    ) from None
                prepared.append(shard)
                self._twopc_mark("prepare", gid, vote_started, spans, trace,
                                 shard=shard, vote="yes")
            self._failpoint("before_decision")
            decision_started = time.monotonic()
            self.txlog.log_decision(gid, participants)
            self._twopc_mark("decision", gid, decision_started, spans, trace,
                             verdict="COMMIT")
            self._m_2pc_commits.inc()
            self._failpoint("after_decision")
            # An unacked shard is re-driven from the txlog by recovery.
            if self._phase_two(session, gid, "COMMIT_PREPARED", participants,
                               spans, trace):
                self.txlog.log_done(gid)
        finally:
            with self._mutex:
                self._live_gids.discard(gid)
        self._twopc_finish(session, gid, commit_started, spans, trace,
                           verdict="COMMIT", shards=len(participants))
        return _synth_statement(
            "COMMIT",
            f"two-phase commit {gid} across {len(participants)} shards",
        )

    def _phase_two(self, session: RouterSession | None, gid: str, verb: str,
                   shards, spans: list, trace: str | None = None) -> bool:
        """Send ``verb`` for ``gid`` to each of ``shards`` -- over the
        session's links, or the admin links when ``session`` is None
        (recovery) -- marking every delivery; returns whether every shard
        acked.  An unreachable shard is left to recovery."""
        frame = _shard_frame({"trace": trace}, verb, gid=gid)
        all_acked = True
        for shard in shards:
            started = time.monotonic()
            try:
                if session is None:
                    self._admin_call(shard, frame)
                else:
                    self._call_shard(session, shard, frame)
                acked = True
            except ShardUnavailableError:
                acked = all_acked = False
            self._twopc_mark("phase2", gid, started, spans, trace,
                             shard=shard, verb=verb, acked=acked)
        return all_acked

    def _twopc_mark(self, phase: str, gid: str, started: float,
                    spans: list, trace: str | None, **fields) -> None:
        """One 2PC lifecycle point: observe its latency histogram,
        journal a ``twopc.<phase>`` event and open a span in the commit's
        span tree."""
        ms = (time.monotonic() - started) * 1e3
        self._m_twopc_ms[phase].observe(ms)
        event_fields = dict(fields)
        if trace is not None:
            event_fields["trace_id"] = trace
        self.events.emit(f"twopc.{phase}", gid=gid, ms=round(ms, 3),
                         **event_fields)
        detail = " ".join(
            [gid] + [f"{k}={v}" for k, v in sorted(fields.items())]
        )
        spans.append(Span(operator=f"2PC:{phase.upper()}", detail=detail,
                          wall_ms=ms, trace_id=trace))

    def _twopc_finish(self, session: RouterSession, gid: str,
                      started: float, spans: list, trace: str | None,
                      **fields) -> None:
        """Close the protocol: total latency, terminal event, and the
        assembled span tree handed to the COMMIT statement's trace."""
        self._twopc_mark("total", gid, started, spans, trace, **fields)
        total_ms = (time.monotonic() - started) * 1e3
        root = Span(operator="2PC", detail=gid, wall_ms=total_ms,
                    children=list(spans), trace_id=trace)
        session.pending_spans.append(root)

    def _failpoint(self, name: str) -> None:
        hook = self.failpoints.get(name)
        if hook is not None:
            hook()

    # -- observability --------------------------------------------------------

    def _shard_rows(self) -> list[dict]:
        rows = []
        with self._mutex:
            counts = list(self._per_shard_statements)
        for i, backend in enumerate(self.backends):
            address = getattr(backend, "address", None) or ("", 0)
            rows.append({
                "shard": i,
                "host": address[0],
                "port": address[1],
                "alive": bool(backend.alive),
                "page_base": i * SHARD_PAGE_SPAN,
                "statements": counts[i],
            })
        return rows

    def _stats(self, session: RouterSession) -> dict:
        """Session + cluster snapshot.  The satellite fix: per-shard
        latency distributions now federate into this payload -- every
        histogram family any shard reports, bucket-merged cluster-wide
        under ``histograms``, plus per-shard summaries of the headline
        families under ``per_shard``."""
        per_shard = self.telemetry.shard_metrics()
        families: dict[str, list[dict]] = {}
        for _, dumps in per_shard.values():
            for name, dump in dumps.items():
                families.setdefault(name, []).append(dump)
        histograms = {}
        for name, dumps in sorted(families.items()):
            combined = merge_histogram_dumps(dumps)
            if combined is not None:
                histograms[name] = summarize_dump(combined)
        return {
            "session_id": session.session_id,
            "in_transaction": session.in_txn,
            "participants": sorted(session.participants),
            "shards": self._shard_rows(),
            "pending_decisions": len(self.txlog.pending()),
            "metrics": {
                name: value
                for name, value in self.metrics.snapshot().items()
                if name.startswith(("shard.", "server.", "twopc.",
                                    "cluster.", "shard_health."))
            },
            "histograms": histograms,
            "per_shard": {
                str(shard): {
                    name: summarize_dump(dump)
                    for name, dump in dumps.items()
                    if name in STATS_HISTOGRAMS
                }
                for shard, (_, dumps) in sorted(per_shard.items())
            },
        }


class _ShardErrorResponse(Exception):
    """A shard answered with an error frame; carry it through verbatim."""

    def __init__(self, response: dict):
        super().__init__(response.get("error", {}).get("message", "error"))
        self.response = response


#: Keywords whose presence means a hinted script may still need fan-out
#: (DDL/ANALYZE broadcast, SYS$ views served locally or federated).  A
#: false positive (say, the word inside a string literal) only costs the
#: parse.
_FANOUT_WORDS = ("CREATE", "ALTER", "DROP", "ANALYZE", "SYS$")


def _may_need_fanout(sql: str) -> bool:
    upper = sql.upper()
    return any(word in upper for word in _FANOUT_WORDS)


def _response_error_code(response) -> str | None:
    """The stable error code of a failed response (None on success).

    Raw relayed bytes are only JSON-decoded when the cheap prefix test
    says the shard reported a failure: frames serialize with compact
    separators and ``ok`` first, so every success frame starts
    ``b'{"ok":true'`` -- the fast path stays a pure byte relay."""
    if isinstance(response, bytes):
        if not response.startswith(b'{"ok":false'):
            return None
        try:
            response = decode_frame(response)
        except ProtocolError:
            return "PROTOCOL"
    if response.get("ok", False):
        return None
    return (response.get("error") or {}).get("code", "MOOD")


def _synth_result(kind: str, detail: str = "", count=None) -> dict:
    return {"type": "statement", "kind": kind, "detail": detail,
            "count": count, "code": None, "object": None}


def _synth_statement(kind: str, detail: str) -> dict:
    return ok_response({"results": [_synth_result(kind, detail)]})


def _shard_frame(request: dict, op: str, **fields) -> dict:
    """A frame to a shard: ``op`` and ``fields``, plus the trace id and
    statement timeout ``request`` carries."""
    frame = {"op": op, **fields}
    for key in ("trace", "timeout"):
        if request.get(key) is not None:
            frame[key] = request[key]
    return frame


def _split_script(sql: str, expected: int) -> list[str]:
    """Split a ';'-separated script into statement texts (quote-aware).
    The router needs per-statement texts to route a mixed script; when
    the split disagrees with the parser's statement count the script is
    rejected rather than misrouted."""
    parts: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in sql:
        if ch == "'":
            in_string = not in_string
            current.append(ch)
        elif ch == ";" and not in_string:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    texts = [part.strip() for part in parts if part.strip()]
    if len(texts) != expected:
        raise ProtocolError(
            "cannot split this script for cross-shard routing; "
            "run its statements separately or add a shard hint"
        )
    return texts
