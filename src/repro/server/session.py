"""Sessions: per-client transaction context over one shared MOOD kernel.

The paper's architecture runs MoodView/MoodSQL interfaces as *processes*
against one kernel on ESM; this module is the kernel-side half of that
contract.  Each connected client owns a :class:`Session`; the
:class:`SessionManager` executes its statements against the shared
:class:`~repro.core.database.MoodDatabase` under a two-level scheme:

**Locks first.**  Before a statement runs, its *lock closure* is computed
from the AST: S on every extent the FROM ranges (plus everything
reachable through reference-typed attributes -- path expressions chase
those) can touch, X on extents it writes, X on the ``("catalog",)``
resource for DDL and S for everything else.  The closure is acquired in
sorted resource order -- conservative (static) 2PL, so two predeclaring
statements cannot deadlock against each other; deadlocks can still arise
across *multi-statement* transactions whose closures interleave, and the
lock manager's wait-for graph catches those.

**Latch second.**  The statement then executes holding the *engine latch*
(one RLock shared with the storage and transaction managers), because the
kernel's buffer pool, capture windows and trace state are single-caller.
While latched, ``txn.lock_timeout`` is pinned to 0: any lock the
predeclared closure missed (e.g. a path through a freshly-named object)
degrades to a no-wait probe, so the latch is *never* held across a lock
wait and the latch/lock hierarchy stays deadlock-free.  A failed probe
surfaces as a retryable ``LOCK_TIMEOUT``.

Timeouts bound the waiting phases (lock closure, engine latch); a
statement already executing inside the engine cannot be preempted in
Python and runs to completion.  Externally aborting a session's
transaction (shutdown, deadlock victimisation) wakes its lock waits via
:class:`~repro.core.errors.LockCancelledError`.
"""

from __future__ import annotations

import threading
import time

from repro.core.database import MoodDatabase
from repro.core.errors import (
    DeadlockError,
    LockCancelledError,
    LockTimeoutError,
    MoodError,
    MoodSqlError,
    ServerShuttingDownError,
    SessionClosedError,
    StatementTimeoutError,
    TransactionAbortedError,
    TransactionError,
)
from repro.core.kernel import QueryResult, StatementResult
from repro.core.prepare import PreparedRegistry
from repro.catalog.typeparse import parse_type
from repro.model.types import referenced_class
from repro.obs.spans import SpanRecorder
from repro.obs.trace import StatementTrace, server_trace_id
from repro.sql.ast import (
    AlterClass,
    AnalyzeStmt,
    CreateClass,
    CreateIndex,
    CreateMethod,
    DeallocateStmt,
    DeleteStmt,
    DropClass,
    DropIndex,
    DropMethod,
    ExecuteStmt,
    ExplainStmt,
    NewObject,
    PrepareStmt,
    SelectQuery,
    UpdateStmt,
)
from repro.sql.parser import parse_script
from repro.storage.locks import LockMode
from repro.storage.transactions import Transaction, TxnState

#: Resource representing the schema itself: S for any statement that
#: relies on it (all of them), X for DDL.
CATALOG_RESOURCE = ("catalog",)

#: Default per-statement budget for the waiting phases, seconds.
DEFAULT_STATEMENT_TIMEOUT = 30.0

#: SYS$SESSIONS schema (:meth:`SessionManager._session_rows`); the
#: router's federated view prepends a ``shard`` column to it.
SESSION_COLUMNS: tuple[tuple[str, str], ...] = (
    ("session_id", "Integer"), ("state", "String"), ("txn_id", "Integer"),
    ("statements", "Integer"), ("admitted", "Boolean"),
    ("last_trace_id", "String"),
)

_DDL_STATEMENTS = (
    CreateClass, DropClass, AlterClass,
    CreateIndex, DropIndex, CreateMethod, DropMethod,
)

_STATEMENT_KINDS = {
    "SelectQuery": "SELECT",
    "ExplainStmt": "EXPLAIN",
    "NewObject": "NEW",
    "UpdateStmt": "UPDATE",
    "DeleteStmt": "DELETE",
    "AnalyzeStmt": "ANALYZE",
    "CreateClass": "CREATE CLASS",
    "DropClass": "DROP CLASS",
    "AlterClass": "ALTER CLASS",
    "CreateIndex": "CREATE INDEX",
    "DropIndex": "DROP INDEX",
    "CreateMethod": "CREATE METHOD",
    "DropMethod": "DROP METHOD",
    "PrepareStmt": "PREPARE",
    "ExecuteStmt": "EXECUTE",
    "DeallocateStmt": "DEALLOCATE",
}


def _statement_kind(statement) -> str:
    name = type(statement).__name__
    return _STATEMENT_KINDS.get(name, name.upper())


class Session:
    """One client's state: an id, an optional open transaction, a flag."""

    def __init__(self, session_id: int, manager: "SessionManager"):
        self.session_id = session_id
        self.manager = manager
        self.txn: Transaction | None = None
        self.closed = False
        #: Serialises statements *within* the session: one client pipelining
        #: frames must not interleave its own statements.
        self.mutex = threading.Lock()
        self.statements = 0
        #: This session's PREPARE namespace (the wire protocol's handles
        #: are per-connection, like every real server's).
        self.prepared = PreparedRegistry()
        #: Trace id of the session's most recent statement ("" before any).
        self.last_trace_id = ""
        #: True while this session holds an admission slot.  A slot is
        #: taken per autocommit statement OR per explicit transaction
        #: (BEGIN..COMMIT) -- never per mid-transaction statement, because
        #: a lock-holding transaction parked in the admission queue while
        #: admitted statements wait on its locks would deadlock the two
        #: layers against each other.
        self.admitted = False

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None and self.txn.state is TxnState.ACTIVE

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id}, "
            f"{'txn' if self.in_transaction else 'autocommit'})"
        )


class SessionManager:
    """Executes sessions' statements against one shared database."""

    def __init__(
        self,
        db: MoodDatabase,
        statement_timeout: float = DEFAULT_STATEMENT_TIMEOUT,
    ):
        self.db = db
        self.kernel = db.kernel
        self.statement_timeout = statement_timeout
        #: The engine latch (== storage latch == txn-manager latch).
        self.latch = self.kernel.storage.latch
        self._mutex = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._next_id = 1
        self._shutting_down = False
        component = self.kernel.storage.metrics.component("server")
        self._m_sessions = component.counter("sessions_opened")
        self._m_deadlocks = component.counter("deadlock_aborts")
        self._m_lock_timeouts = component.counter("lock_timeouts")
        self._m_stmt_timeouts = component.counter("statement_timeouts")
        self._m_commits = component.counter("commits")
        self._m_rollbacks = component.counter("rollbacks")
        self._m_prepares = component.counter("txn_prepares")
        self.kernel.system_views.register(
            "SYS$SESSIONS",
            SESSION_COLUMNS,
            self._session_rows,
            "every open session: transaction state, statement count, "
            "admission slot, last trace id",
        )

    def _session_rows(self) -> list[dict]:
        rows = []
        for session in self.sessions():
            txn = session.txn
            rows.append({
                "session_id": session.session_id,
                "state": "txn" if session.in_transaction else "autocommit",
                "txn_id": txn.txn_id if txn is not None else -1,
                "statements": session.statements,
                "admitted": session.admitted,
                "last_trace_id": session.last_trace_id,
            })
        return sorted(rows, key=lambda r: r["session_id"])

    # -- session lifecycle ----------------------------------------------------

    def open_session(self) -> Session:
        with self._mutex:
            if self._shutting_down:
                raise ServerShuttingDownError("server is shutting down")
            session = Session(self._next_id, self)
            self._next_id += 1
            self._sessions[session.session_id] = session
            self._m_sessions.inc()
            return session

    def close_session(self, session: Session) -> None:
        """Roll back any open transaction and retire the session."""
        with self._mutex:
            self._sessions.pop(session.session_id, None)
        session.closed = True
        self._rollback_if_open(session)

    def sessions(self) -> list[Session]:
        with self._mutex:
            return list(self._sessions.values())

    def begin_shutdown(self) -> None:
        """Refuse new sessions and new statements from here on."""
        with self._mutex:
            self._shutting_down = True

    def close_all(self) -> None:
        """Shutdown tail: roll back every session still in a transaction."""
        for session in self.sessions():
            self.close_session(session)

    def _rollback_if_open(self, session: Session) -> None:
        txn, session.txn = session.txn, None
        if txn is not None and txn.state is TxnState.ACTIVE:
            try:
                txn.abort()
            except TransactionError:
                pass  # a racing external abort already finished it
            self._m_rollbacks.inc()

    # -- transaction verbs ----------------------------------------------------

    def begin(self, session: Session) -> StatementResult:
        self._check_open(session)
        with session.mutex:
            if session.in_transaction:
                raise TransactionError(
                    f"session {session.session_id} already has an open "
                    "transaction"
                )
            session.txn = self.kernel.storage.begin()
            return StatementResult(
                kind="BEGIN", detail=f"transaction {session.txn.txn_id}"
            )

    def commit(self, session: Session) -> StatementResult:
        self._check_open(session)
        with session.mutex:
            txn, session.txn = session.txn, None
            if txn is None:
                raise TransactionError("no open transaction to commit")
            if txn.state is not TxnState.ACTIVE:
                # Externally aborted (victimised) underneath the client.
                raise TransactionAbortedError(
                    f"transaction {txn.txn_id} was already rolled back"
                )
            txn.commit()
            self._m_commits.inc()
            return StatementResult(
                kind="COMMIT", detail=f"transaction {txn.txn_id}"
            )

    def rollback(self, session: Session) -> StatementResult:
        self._check_open(session)
        with session.mutex:
            txn, session.txn = session.txn, None
            if txn is None:
                raise TransactionError("no open transaction to roll back")
            txn_id = txn.txn_id
            if txn.state is TxnState.ACTIVE:
                txn.abort()
            self._m_rollbacks.inc()
            return StatementResult(
                kind="ROLLBACK", detail=f"transaction {txn_id}"
            )

    # -- two-phase commit (participant verbs, driven by the router) -----------

    def prepare_transaction(
        self, session: Session, gid: str, trace_id: str | None = None,
    ) -> StatementResult:
        """Phase-1 vote for the session's open transaction.  On success the
        transaction detaches from the session (its fate now belongs to the
        coordinator) with all its locks still held.

        ``trace_id`` is the coordinator's transaction trace: the vote is
        recorded under it (a statement trace + ``twopc.prepare`` journal
        event), so one cross-shard commit reads as one trace across the
        cluster.
        """
        self._check_open(session)
        with self.kernel.statement(
            session.session_id, f"PREPARE_TXN {gid}", "PREPARE_TXN", trace_id,
        ) as trace, session.mutex:
            txn = session.txn
            if txn is None:
                raise TransactionError("no open transaction to prepare")
            if txn.state is not TxnState.ACTIVE:
                session.txn = None
                raise TransactionAbortedError(
                    f"transaction {txn.txn_id} was already rolled back"
                )
            trace.txn_id = txn.txn_id
            self.kernel.storage.txns.prepare(txn, gid)
            session.txn = None
            self._m_prepares.inc()
        self._journal_twopc(
            "twopc.prepare", gid, trace,
            session_id=session.session_id, txn_id=txn.txn_id, vote="yes",
        )
        return StatementResult(
            kind="PREPARE_TXN", detail=f"transaction {txn.txn_id} gid {gid}"
        )

    def commit_prepared(
        self, gid: str, trace_id: str | None = None,
    ) -> StatementResult:
        """Idempotent phase-2 commit for a prepared transaction (session
        id -1: phase-2 verbs run outside any client session)."""
        with self.kernel.statement(
            -1, f"COMMIT_PREPARED {gid}", "COMMIT_PREPARED", trace_id,
        ) as trace:
            applied = self.kernel.storage.txns.commit_prepared(gid)
        if applied:
            self._m_commits.inc()
            self._journal_twopc("twopc.commit", gid, trace)
        return StatementResult(
            kind="COMMIT_PREPARED",
            detail=f"gid {gid} {'committed' if applied else 'already resolved'}",
        )

    def rollback_prepared(
        self, gid: str, trace_id: str | None = None,
    ) -> StatementResult:
        """Idempotent phase-2 abort (or presumed abort) for a prepared
        transaction."""
        with self.kernel.statement(
            -1, f"ROLLBACK_PREPARED {gid}", "ROLLBACK_PREPARED", trace_id,
        ) as trace:
            applied = self.kernel.storage.txns.rollback_prepared(gid)
        if applied:
            self._m_rollbacks.inc()
            self._journal_twopc("twopc.rollback", gid, trace)
        return StatementResult(
            kind="ROLLBACK_PREPARED",
            detail=f"gid {gid} {'rolled back' if applied else 'already resolved'}",
        )

    def _journal_twopc(self, event: str, gid: str, trace: StatementTrace,
                       **fields) -> None:
        """An applied 2PC verb's ``twopc.*`` journal event, under the
        verb's trace id and with its wall time."""
        self.kernel.storage.events.emit(
            event, gid=gid, trace_id=trace.trace_id,
            ms=round(trace.total_ms, 3), **fields,
        )

    def in_doubt_gids(self) -> list[str]:
        """Global transaction ids prepared here and awaiting a decision."""
        return sorted(self.kernel.storage.txns.in_doubt)

    # -- statement execution --------------------------------------------------

    def execute(
        self,
        session: Session,
        sql: str,
        timeout: float | None = None,
        trace_id: str | None = None,
        queue_wait_ms: float = 0.0,
    ) -> list:
        """Run a ';'-separated script; one result per statement.

        Statements run under the session's open transaction, or each under
        its own autocommit transaction.  The first failing statement stops
        the script; under an explicit transaction, a failure also rolls the
        whole transaction back (strictness keeps the abort path simple: no
        statement-level undo exists at page-image granularity).

        ``trace_id`` (client-minted, or server-assigned when absent) labels
        the statement's trace; a multi-statement script derives per-
        statement ids (``<id>/2``, ``<id>/3`` ...).  ``queue_wait_ms`` is
        the admission wait the server already paid for this call; it is
        attributed to the first statement's trace.
        """
        self._check_open(session)
        budget = self.statement_timeout if timeout is None else timeout
        statements = parse_script(sql)
        if trace_id is None:
            trace_id = server_trace_id()
        results = []
        with session.mutex:
            for index, statement in enumerate(statements):
                results.append(self._execute_one(
                    session, statement, budget,
                    sql_text=sql,
                    trace_id=trace_id if index == 0
                    else f"{trace_id}/{index + 1}",
                    queue_wait_ms=queue_wait_ms if index == 0 else 0.0,
                ))
        return results

    def _check_open(self, session: Session) -> None:
        if session.closed:
            raise SessionClosedError(
                f"session {session.session_id} is closed"
            )
        if self._shutting_down:
            raise ServerShuttingDownError("server is shutting down")

    # -- prepared-statement verbs (the wire protocol's direct ops) -----------

    def prepare(self, session: Session, name: str, sql: str,
                trace_id: str | None = None) -> StatementResult:
        """Compile ``sql`` once under ``name`` in the session's registry."""
        self._check_open(session)
        statements = parse_script(sql)
        if len(statements) != 1:
            raise MoodSqlError("PREPARE takes exactly one statement")
        statement = statements[0]
        if isinstance(statement, (PrepareStmt, ExecuteStmt, DeallocateStmt)):
            raise MoodSqlError(
                "PREPARE/EXECUTE/DEALLOCATE cannot themselves be prepared"
            )
        with session.mutex:
            return self._execute_one(
                session, PrepareStmt(name, statement), self.statement_timeout,
                f"PREPARE {name} AS {sql}", trace_id,
            )

    def deallocate(self, session: Session, name: str,
                   trace_id: str | None = None) -> StatementResult:
        self._check_open(session)
        with session.mutex:
            return self._execute_one(
                session, DeallocateStmt(name), self.statement_timeout,
                f"DEALLOCATE {name}", trace_id,
            )

    def _run_registry_statement(self, session: Session,
                                statement) -> StatementResult:
        """PREPARE / DEALLOCATE, by wire verb or SQL text, touch only the
        session's own registry: compile-time work, no data, no locks, no
        transaction."""
        if isinstance(statement, PrepareStmt):
            prepared = session.prepared.prepare(
                statement.name, statement.statement
            )
            result = StatementResult(
                "PREPARE",
                f"{prepared.name} ({len(prepared.params)} parameters)",
            )
        else:
            session.prepared.deallocate(statement.name)
            result = StatementResult("DEALLOCATE", statement.name)
        session.statements += 1
        return result

    def execute_prepared(
        self,
        session: Session,
        name: str,
        values=(),
        timeout: float | None = None,
        trace_id: str | None = None,
        queue_wait_ms: float = 0.0,
    ):
        """Bind ``values`` into the session's prepared statement ``name``
        and run it -- the compile-once/execute-many fast path: no parse,
        no rewrite, and (on a plan cache hit) no optimize either."""
        self._check_open(session)
        budget = self.statement_timeout if timeout is None else timeout
        prepared = session.prepared.get(name)   # UNKNOWN_PREPARED on miss
        bound = prepared.bind(values)
        with session.mutex:
            return self._execute_one(
                session, bound, budget, f"EXECUTE {name}", trace_id,
                queue_wait_ms=queue_wait_ms, kind="EXECUTE",
            )

    def _execute_one(
        self,
        session: Session,
        statement,
        budget: float,
        sql_text: str,
        trace_id: str | None,
        queue_wait_ms: float = 0.0,
        kind: str | None = None,
    ):
        """Run one statement under the kernel's statement recorder: every
        failure -- including ones raised before the engine ran -- lands
        in the trace and the failure counters."""
        with self.kernel.statement(
            session.session_id, sql_text, kind or _statement_kind(statement),
            trace_id, queue_wait_ms=queue_wait_ms,
        ) as trace:
            session.last_trace_id = trace.trace_id
            return self._execute_traced(session, statement, budget, trace)

    def _execute_traced(
        self,
        session: Session,
        statement,
        budget: float,
        trace: StatementTrace,
    ):
        deadline = time.monotonic() + budget
        if isinstance(statement, (PrepareStmt, DeallocateStmt)):
            return self._run_registry_statement(session, statement)
        # EXECUTE resolves to its bound inner statement *before* locking,
        # so the lock closure, the DDL-autocommit rule, and the read-only
        # classification all see what will actually run.
        statement = self.kernel.resolve_statement(statement, session.prepared)
        autocommit = not session.in_transaction
        if isinstance(statement, _DDL_STATEMENTS) and not autocommit:
            # DDL writes the catalog's system files outside the WAL: it
            # cannot be rolled back, so it may not join a transaction.
            raise TransactionError(
                "DDL statements are autocommit-only; COMMIT or ROLLBACK "
                "first"
            )
        txn = self.kernel.storage.begin() if autocommit else session.txn
        trace.txn_id = txn.txn_id
        try:
            self._acquire_closure(txn, statement, deadline, trace)
            result = self._run_latched(txn, statement, deadline, trace)
            if autocommit:
                txn.commit()
            session.statements += 1
            return result
        except Exception as exc:
            # Any failure, foreign ones included, gives the transaction
            # up: a crashed statement must not keep its locks.
            self._count_concurrency_error(exc)
            self._surrender(session, txn, autocommit)
            raise

    def _count_concurrency_error(self, exc: Exception) -> None:
        if isinstance(exc, DeadlockError):
            self._m_deadlocks.inc()
        elif isinstance(exc, StatementTimeoutError):
            self._m_stmt_timeouts.inc()
        elif isinstance(exc, (LockTimeoutError, LockCancelledError)):
            self._m_lock_timeouts.inc()

    def _surrender(
        self, session: Session, txn: Transaction, autocommit: bool
    ) -> None:
        """Abort ``txn`` after a failed statement (strict: a failure inside
        an explicit transaction rolls the whole transaction back)."""
        if not autocommit:
            session.txn = None
            self._m_rollbacks.inc()
        if txn.state is TxnState.ACTIVE:
            try:
                txn.abort()
            except TransactionError:
                pass  # lost the completion race to an external abort

    # -- phase 1: the lock closure -------------------------------------------

    def _acquire_closure(
        self,
        txn: Transaction,
        statement,
        deadline: float,
        trace: StatementTrace,
    ) -> None:
        plan = self._lock_plan(statement)
        lock_started = time.monotonic()
        try:
            for resource, mode in sorted(plan.items()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StatementTimeoutError(
                        "statement timed out acquiring its lock closure"
                    )
                if txn.state is not TxnState.ACTIVE:
                    raise TransactionAbortedError(
                        f"transaction {txn.txn_id} was rolled back"
                    )
                self.kernel.storage.locks.acquire(
                    txn.txn_id, resource, mode, timeout=remaining
                )
        finally:
            trace.lock_wait_ms = (time.monotonic() - lock_started) * 1e3

    def _lock_plan(self, statement) -> dict[tuple, LockMode]:
        """``resource -> strongest needed mode`` for one statement."""
        plan: dict[tuple, LockMode] = {}

        def need(resource: tuple, mode: LockMode) -> None:
            if mode is LockMode.X or resource not in plan:
                plan[resource] = mode

        def extent_files(classes, mode: LockMode) -> None:
            for name in classes:
                extent = self.kernel.catalog.extent_file(name)
                need(("file", extent.file_id), mode)

        if isinstance(statement, _DDL_STATEMENTS):
            need(CATALOG_RESOURCE, LockMode.X)
            target = getattr(statement, "name", None) or getattr(
                statement, "class_name", None
            )
            if isinstance(statement, CreateMethod):
                target = statement.class_name
            if target and self.kernel.catalog.has_class(target):
                # ALTER migrates instances, DROP destroys the extent,
                # CREATE INDEX scans and back-fills: X the data too.
                extent_files(
                    self.kernel.catalog.hierarchy.extent_classes(target),
                    LockMode.X,
                )
            return plan

        need(CATALOG_RESOURCE, LockMode.S)
        if isinstance(statement, AnalyzeStmt):
            extent_files(
                [
                    name
                    for name in self.kernel.catalog.class_names()
                    if self.kernel.catalog.class_def(name).is_class
                ],
                LockMode.S,
            )
        elif isinstance(statement, (SelectQuery, ExplainStmt)):
            query = statement.query if isinstance(statement, ExplainStmt) \
                else statement
            seeds = self._range_classes(query.ranges)
            extent_files(self._reference_closure(seeds), LockMode.S)
        elif isinstance(statement, NewObject):
            if self.kernel.catalog.has_class(statement.class_name):
                extent_files([statement.class_name], LockMode.X)
                # Positional values may embed paths through references.
                extent_files(
                    self._reference_closure({statement.class_name}),
                    LockMode.S,
                )
        elif isinstance(statement, (UpdateStmt, DeleteStmt)):
            seeds = self._range_classes([statement.range_var])
            extent_files(seeds, LockMode.X)
            extent_files(self._reference_closure(seeds), LockMode.S)
        return plan

    def _range_classes(self, ranges) -> set[str]:
        hierarchy = self.kernel.catalog.hierarchy
        seeds: set[str] = set()
        for range_var in ranges:
            if not self.kernel.catalog.has_class(range_var.class_name):
                continue  # the kernel will raise the proper schema error
            try:
                seeds.update(
                    hierarchy.extent_classes(
                        range_var.class_name, list(range_var.minus)
                    )
                )
            except MoodError:
                continue
        return seeds

    def _reference_closure(self, seeds: set[str]) -> set[str]:
        """Seeds plus every class reachable through reference-typed
        attributes (path expressions dereference along exactly those)."""
        hierarchy = self.kernel.catalog.hierarchy
        closure: set[str] = set()
        frontier = list(seeds)
        while frontier:
            name = frontier.pop()
            if name in closure or not self.kernel.catalog.has_class(name):
                continue
            for member in hierarchy.extent_classes(name):
                if member in closure:
                    continue
                closure.add(member)
                for attribute in hierarchy.all_attributes(member):
                    try:
                        target = referenced_class(
                            parse_type(attribute.type_name)
                        )
                    except MoodError:
                        continue
                    if target is not None and target not in closure:
                        frontier.append(target)
        return closure

    # -- phase 2: the latched execution --------------------------------------

    def _run_latched(
        self,
        txn: Transaction,
        statement,
        deadline: float,
        trace: StatementTrace,
    ):
        remaining = deadline - time.monotonic()
        latch_started = time.monotonic()
        if remaining <= 0 or not self.latch.acquire(timeout=max(remaining, 0)):
            raise StatementTimeoutError(
                "statement timed out waiting for the engine latch"
            )
        trace.latch_wait_ms = (time.monotonic() - latch_started) * 1e3
        objects = self.kernel.objects
        storage = self.kernel.storage
        # I/O attribution is sound under the latch: execution in there is
        # single-caller, so the disk-stats delta is this statement's.
        io_before = storage.io_snapshot()
        exec_started = time.monotonic()
        spans = None
        if isinstance(statement, SelectQuery):
            spans = SpanRecorder(
                io_probe=storage.io_snapshot, trace_id=trace.trace_id
            )
        try:
            if txn.state is not TxnState.ACTIVE:
                raise TransactionAbortedError(
                    f"transaction {txn.txn_id} was rolled back"
                )
            objects.current_txn = txn
            txn.lock_timeout = 0  # no-wait probes only while latched
            # Events raised from inside planning (implicit ANALYZE)
            # attribute to this statement's trace.
            self.kernel.active_trace_id = trace.trace_id
            result = self.kernel.execute_statement(statement, spans=spans)
            if isinstance(result, QueryResult):
                trace.rows = len(result.rows)
            elif isinstance(result, StatementResult):
                trace.rows = result.count
            return result
        finally:
            objects.current_txn = None
            txn.lock_timeout = None
            self.kernel.active_trace_id = ""
            trace.exec_ms = (time.monotonic() - exec_started) * 1e3
            io_delta = storage.io_snapshot().since(io_before)
            trace.io_pages = io_delta.page_ios
            trace.io_ms = io_delta.elapsed_ms
            if spans is not None:
                trace.spans = spans.roots
            self.latch.release()
