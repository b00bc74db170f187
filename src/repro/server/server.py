"""The MOOD server: sessions over TCP, with admission control.

One process owns the :class:`~repro.core.database.MoodDatabase`; clients
connect over TCP and speak the frame protocol of
:mod:`repro.server.protocol`.  Each connection gets a dedicated thread of
the shared :class:`~repro.server.protocol.FrameListener` and one
:class:`~repro.server.session.Session`; statements pass through the
:class:`~repro.server.admission.AdmissionController` before touching the
kernel, so a client burst sheds load with retryable ``SERVER_BUSY``
errors instead of convoying on the engine latch.

Graceful shutdown (:meth:`MoodServer.stop`) runs in order: refuse new
statements (``SHUTTING_DOWN``), close the listener, wait for in-flight
statements to drain, roll back every session's open transaction, and cut
a checkpoint.  The store is then cold-restartable: recovery finds only
committed work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.database import MoodDatabase
from repro.core.errors import MoodError, describe_error
from repro.obs.promtext import render_prometheus
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    FrameListener,
    encode_value,
    error_response,
    ok_response,
    telemetry_response,
    validate_request,
)
from repro.server.session import (
    DEFAULT_STATEMENT_TIMEOUT,
    Session,
    SessionManager,
)

#: Slowest statements STATS reports from the slow-query log.
STATS_TOP_SLOW = 5


@dataclass
class ServerConfig:
    """Knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral, read back after start()
    max_workers: int = 8              # statements inside the kernel at once
    max_queue: int = 16               # statements parked awaiting admission
    admission_timeout: float = 5.0    # seconds a statement may queue
    statement_timeout: float = DEFAULT_STATEMENT_TIMEOUT
    shutdown_drain: float = 10.0      # seconds to wait for in-flight work
    #: Seconds between background reclustering passes; ``None`` leaves the
    #: daemon off (it can still be started per-request over RECLUSTER).
    recluster_interval: float | None = None


class MoodServer:
    """Serves one MoodDatabase to many TCP clients."""

    def __init__(self, db: MoodDatabase, config: ServerConfig | None = None):
        self.db = db
        self.config = config or ServerConfig()
        self.sessions = SessionManager(
            db, statement_timeout=self.config.statement_timeout,
        )
        component = db.kernel.storage.metrics.component("server")
        self.admission = AdmissionController(
            self.config.max_workers,
            self.config.max_queue,
            metrics=db.kernel.storage.metrics.component("server.admission"),
            events=db.kernel.storage.events,
        )
        self._m_connections = component.counter("connections")
        self._m_frames = component.counter("frames")
        self._m_errors = component.counter("errors")
        self._listener: FrameListener | None = None
        self._inflight = 0
        self._inflight_mutex = threading.Lock()
        self._drained = threading.Condition(self._inflight_mutex)
        self._stopped = False
        # The daemon runs from construction to stop(): a server answers
        # in-process calls before (or without) start() adds a listener.
        if self.config.recluster_interval is not None:
            db.start_reclusterer(self.config.recluster_interval)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start accepting, and return the bound ``(host, port)``."""
        if self._listener is not None:
            raise MoodError("server already started")
        self._listener = FrameListener(
            self, (self.config.host, self.config.port), "mood-server-accept"
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise MoodError("server not started")
        return self._listener.address

    def stop(self, graceful: bool = True) -> None:
        """Shut down (a server answering in-process only has no listener);
        with ``graceful`` drain in-flight statements first."""
        if self._stopped:
            return
        self._stopped = True
        # 0. Park the background reclusterer: a half-finished batch would
        #    roll back anyway, but stopping it first keeps the drain quiet.
        self.db.stop_reclusterer()
        # 1. No new statements (frames already mid-execution keep going).
        self.sessions.begin_shutdown()
        # 2. No new connections; the listener socket is released, while
        #    connection threads run on until their clients hang up or
        #    their next statement is refused with SHUTTING_DOWN.
        if self._listener is not None:
            self._listener.close()
        if graceful:
            # 3. Drain: wait for every admitted statement to finish.
            deadline = time.monotonic() + self.config.shutdown_drain
            with self._drained:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._drained.wait(remaining)
            # 4. Roll back whatever transactions sessions still hold open.
            self.sessions.close_all()
            # 5. Leave a clean, replayable store behind.
            self.db.kernel.storage.checkpoint()
        else:
            self.sessions.close_all()

    def __enter__(self) -> "MoodServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- in-flight accounting -------------------------------------------------

    def _statement_started(self) -> None:
        with self._inflight_mutex:
            self._inflight += 1

    def _statement_finished(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    # -- the listener's owner interface --------------------------------------

    def open_session(self) -> Session:
        self._m_connections.inc()
        return self.sessions.open_session()

    def close_session(self, session: Session) -> None:
        self.sessions.close_session(session)
        # A connection that died mid-transaction still holds a slot.
        self._reconcile_ticket(session)

    def handle_request(self, session: Session, request: dict,
                       raw: bytes | None = None) -> dict:
        """One request frame in, one response frame out.  ``raw`` (the
        wire payload) is unused: a single engine has nowhere to relay.
        Every failure is answered with an error frame, a foreign
        exception as ``MOOD``: none may cost the client its connection."""
        self._m_frames.inc()
        try:
            validate_request(request)
            return self._dispatch(session, request["op"], request)
        except Exception as exc:
            self._m_errors.inc()
            return error_response(describe_error(exc))
        finally:
            self._reconcile_ticket(session)

    def _ensure_ticket(self, session: Session) -> float:
        """Admission is per *transaction*, not per statement: a session
        already holding a slot (its explicit transaction is admitted) runs
        its next statement ungated.  Gating mid-transaction statements
        would let a lock-holding transaction park in the admission queue
        while every admitted slot waits on its locks -- a deadlock between
        the two layers that neither one's detector can see.

        Returns the milliseconds spent in the admission queue so the
        statement's trace can attribute its queue wait."""
        if session.admitted:
            return 0.0
        waited_ms = self.admission.admit(
            timeout=self.config.admission_timeout
        )
        session.admitted = True
        return waited_ms

    def _reconcile_ticket(self, session: Session) -> None:
        """Release the slot once the session is back in autocommit."""
        if session.admitted and not session.in_transaction:
            session.admitted = False
            self.admission.release()

    def _dispatch(self, session: Session, op: str, request: dict) -> dict:
        trace_id = request.get("trace")
        if op in ("EXECUTE", "QUERY", "EXPLAIN"):
            sql = request["sql"]
            if op == "EXPLAIN" and not sql.lstrip().upper().startswith(
                    "EXPLAIN"):
                sql = "EXPLAIN " + sql
            results = self._admitted(
                session, self.sessions.execute, sql,
                timeout=request.get("timeout"), trace_id=trace_id,
            )
            return ok_response({
                "results": [_encode_result(result) for result in results],
                "trace": session.last_trace_id,
            })
        if op == "EXECUTE_PREPARED":
            result = self._admitted(
                session, self.sessions.execute_prepared, request["name"],
                request.get("params") or [],
                timeout=request.get("timeout"), trace_id=trace_id,
            )
            return ok_response({
                "results": [_encode_result(result)],
                "trace": session.last_trace_id,
            })
        if op == "BEGIN":
            self._ensure_ticket(session)
            return _statement_payload(self.sessions.begin(session))
        if op == "COMMIT":
            return _statement_payload(self.sessions.commit(session))
        if op == "ROLLBACK":
            return _statement_payload(self.sessions.rollback(session))
        if op == "PREPARE":
            return _statement_payload(self.sessions.prepare(
                session, request["name"], request["sql"], trace_id=trace_id
            ))
        if op == "DEALLOCATE":
            return _statement_payload(self.sessions.deallocate(
                session, request["name"], trace_id=trace_id
            ))
        if op == "PREPARE_TXN":
            return _statement_payload(self.sessions.prepare_transaction(
                session, request["gid"], trace_id=trace_id
            ))
        if op == "COMMIT_PREPARED":
            return _statement_payload(self.sessions.commit_prepared(
                request["gid"], trace_id=trace_id
            ))
        if op == "ROLLBACK_PREPARED":
            return _statement_payload(self.sessions.rollback_prepared(
                request["gid"], trace_id=trace_id
            ))
        if op == "IN_DOUBT":
            return ok_response({"gids": self.sessions.in_doubt_gids()})
        if op == "PING":
            return ok_response({"pong": True})
        if op == "STATS":
            return ok_response({"stats": self._stats(session)})
        if op == "METRICS":
            return ok_response({"metrics": render_prometheus(
                self.db.kernel.storage.metrics
            )})
        if op == "TELEMETRY":
            return telemetry_response(self.db.kernel, request)
        if op == "RECLUSTER":
            return self._recluster(request)
        return ok_response({"bye": True})  # CLOSE; the listener hangs up

    def _admitted(self, session: Session, run, *args, **kwargs):
        """Run a kernel-entering statement under the session's admission
        ticket, counted in flight for the graceful-shutdown drain."""
        queue_wait_ms = self._ensure_ticket(session)
        self._statement_started()
        try:
            return run(session, *args, queue_wait_ms=queue_wait_ms, **kwargs)
        finally:
            self._statement_finished()

    def _recluster(self, request: dict) -> dict:
        """Dynamic-clustering control: ``run`` a synchronous pass,
        ``start``/``stop`` the background daemon, or report ``status``.
        Admission-free like TELEMETRY -- a maintenance pass takes ordinary
        locks and yields on timeout, so it must not hold an admission slot
        while it waits behind the very statements it yields to."""
        action = request.get("action") or "status"
        if action == "run":
            return ok_response({"recluster": self.db.recluster()})
        if action == "start":
            self.db.start_reclusterer(float(request.get("interval") or 30.0))
            return ok_response({"running": True})
        if action == "stop":
            self.db.stop_reclusterer()
            return ok_response({"running": False})
        return ok_response({
            "status": encode_value(self.db.reclusterer.status()),
            "running": self.db.reclusterer_running,
        })

    def _stats(self, session: Session) -> dict:
        kernel = self.db.kernel
        return {
            "session_id": session.session_id,
            "in_transaction": session.in_transaction,
            "sessions": len(self.sessions.sessions()),
            "admission_active": self.admission.active(),
            "admission_queued": self.admission.queue_depth(),
            "plancache": kernel.plan_cache.stats(),
            "metrics": {
                name: value
                for name, value in
                kernel.storage.metrics.snapshot().items()
                if name.startswith(("server.", "locks.", "plancache."))
            },
            "histograms": {
                name: summary
                for name, summary in
                kernel.storage.metrics.histograms().items()
                if name.startswith(("server.", "locks.", "plancache."))
            },
            "slow_queries": [
                trace.row()
                for trace in kernel.slow_log.top(STATS_TOP_SLOW)
            ],
        }


# --------------------------------------------------------------------------
# Result encoding
# --------------------------------------------------------------------------

def _encode_result(result) -> dict:
    from repro.core.kernel import ExplainResult, QueryResult, StatementResult

    if isinstance(result, QueryResult):
        return {
            "type": "query",
            "columns": list(result.columns),
            "rows": [encode_value(list(row)) for row in result.rows],
        }
    if isinstance(result, ExplainResult):
        payload = {"type": "explain", "report": result.render()}
        if result.result is not None:
            payload["columns"] = list(result.result.columns)
            payload["rows"] = [
                encode_value(list(row)) for row in result.result.rows
            ]
        return payload
    if isinstance(result, StatementResult):
        return {
            "type": "statement",
            "kind": result.kind,
            "detail": result.detail,
            "count": result.count,
            "code": result.code,
            "object": encode_value(result.obj)
            if result.obj is not None else None,
        }
    return {"type": "opaque", "repr": repr(result)}


def _statement_payload(result) -> dict:
    return ok_response({"results": [_encode_result(result)]})
