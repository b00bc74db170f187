"""The MOOD kernel (Figure 2.1).

One object wiring every subsystem the paper describes: ESM (storage), the
CATALOG, the Function Manager, the MOODSQL interpreter with its optimizer,
and the execution engine.  ``execute`` is the single entry point the paper
prescribes -- *"interfaces access the database through SQL statements
interpreted by the kernel"* -- including the DDL, ``new`` object creation,
DML, and ad-hoc queries.

The kernel traces each statement's processing steps (parse, simplify, DNF,
optimize, execute, and the operator events of Figure 7.2); the trace of the
last statement is kept on :attr:`MoodKernel.trace`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.cppfront import generate_header
from repro.catalog.entities import MoodsFunction
from repro.cluster.coaccess import CoAccessLog
from repro.cluster.recluster import Reclusterer
from repro.core.errors import ExecutionError, MoodSqlError, describe_error
from repro.core.prepare import (
    PlanCache,
    PreparedRegistry,
    render_statement,
)
from repro.cost.params import DatabaseStats
from repro.cost.statistics import collect_statistics
from repro.engine.cursor import ObjectCursor
from repro.engine.evaluator import ExpressionEvaluator, Row
from repro.engine.executor import Executor, TraceEvent
from repro.engine.indexes import IndexManager
from repro.engine.objects import ObjectManager
from repro.functions.manager import FunctionManager
from repro.model.objects import MoodObject
from repro.obs.explain import (
    ExplainReport,
    analyze_query_plan,
    explain_query_plan,
)
from repro.obs.spans import Span, SpanRecorder
from repro.obs.trace import (
    SlowQueryLog,
    StatementLog,
    StatementTrace,
    server_trace_id,
    truncate_statement,
)
from repro.obs.views import SystemViewRegistry, register_kernel_views
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.planner import Planner, QueryPlan
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
    Literal,
    NewObject,
    PrepareStmt,
    SelectQuery,
    Statement,
    UpdateStmt,
)
from repro.sql.parser import parse as parse_sql
from repro.sql.rewrite import describe_rewrite, simplify
from repro.storage.disk import DiskParams
from repro.storage.manager import StorageManager
from repro.storage.oid import NULL_OID

#: A class is re-measured alone before the next plan once its NEW/UPDATE/
#: DELETE count since it was last measured passes
#: ``CHURN_BASE + CHURN_FRACTION * |C|``.
CHURN_BASE = 50
CHURN_FRACTION = 0.2


@dataclass
class QueryResult:
    """Result of a SELECT: projected rows plus planning artifacts."""

    columns: list[str]
    rows: list[tuple]
    binding_rows: list[Row]
    plan: QueryPlan | None       # None for SYS$ system-view selects
    trace: list[TraceEvent]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalars(self) -> list:
        """First-column values (convenient for single-projection queries)."""
        return [row[0] for row in self.rows]


@dataclass
class ExplainResult:
    """Result of ``EXPLAIN [ANALYZE]``: the report, the plan, the spans,
    and (for ANALYZE) the executed query's full :class:`QueryResult`."""

    report: ExplainReport
    plan: QueryPlan
    spans: list[Span]
    result: QueryResult | None = None

    def render(self) -> str:
        return self.report.render()

    def __str__(self) -> str:
        return self.render()


@dataclass
class StatementResult:
    """Result of a non-SELECT statement."""

    kind: str
    detail: str = ""
    obj: MoodObject | None = None
    count: int = 0
    header: str | None = None    # generated C++ header for CREATE CLASS
    #: Stable error code (``repro.core.errors``) when the statement's
    #: outcome was a *handled* failure -- e.g. the server reports a
    #: deadlock-victim rollback as kind="ROLLBACK", code="DEADLOCK".
    code: str | None = None


class MoodKernel:
    """The kernel: catalog + functions + optimizer + executor over ESM."""

    def __init__(
        self,
        disk_params: DiskParams | None = None,
        buffer_capacity: int = 512,
        cache_enabled: bool = True,
        page_base: int = 0,
    ):
        self.storage = StorageManager(disk_params, buffer_capacity,
                                      page_base=page_base)
        self.catalog = Catalog(self.storage)
        self.functions = FunctionManager(
            self.catalog, self.storage.metrics.component("functions")
        )
        self.objects = ObjectManager(
            self.storage, self.catalog, cache_enabled=cache_enabled,
        )
        self.indexes = IndexManager(self.storage, self.catalog, self.objects)
        #: Dynamic clustering: deref traffic feeds the access log, the
        #: reclusterer packs each class in first-touch order online.
        self.coaccess = CoAccessLog()
        self.objects.coaccess = self.coaccess
        self.reclusterer = Reclusterer(
            self.storage, self.catalog, self.objects, self.indexes,
            self.coaccess,
        )
        self.evaluator = ExpressionEvaluator(self.objects, self.functions)
        self.stats = DatabaseStats()
        self.trace: list[TraceEvent] = []
        self.last_plan: QueryPlan | None = None
        #: Compiled-plan reuse.  ``cache_enabled=False`` is the
        #: paper-faithful mode: every statement recompiles from scratch.
        self.plan_cache = PlanCache(
            metrics=self.storage.metrics.component("plancache"),
            events=self.storage.events,
            enabled=cache_enabled,
        )
        #: Kernel-level PREPARE registry (sessions hold their own).
        self.prepared = PreparedRegistry()
        #: Trace id of the statement currently executing, so events raised
        #: from inside planning (implicit ANALYZE) attribute correctly.
        self.active_trace_id = ""
        self._compile_ms = self.storage.metrics.component(
            "plancache").histogram("compile_ms")
        metrics = self.storage.metrics.component("kernel")
        self._m_collections = metrics.counter("implicit_analyze")
        self._m_refreshes = metrics.counter("statistics_refreshes")
        self._stats_schema = -1  # catalog version of the last collection
        #: Statement dispatch: type -> (handler, plan-cache invalidation
        #: reason).  DDL handlers declare their invalidation effect here,
        #: in one place, instead of scattering cache resets around.
        self._handlers = {
            SelectQuery: (self._handle_select, None),
            ExplainStmt: (self._execute_explain, None),
            CreateClass: (self._execute_create_class, "CREATE CLASS"),
            DropClass: (self._handle_drop_class, "DROP CLASS"),
            AlterClass: (self._execute_alter, "ALTER CLASS"),
            CreateIndex: (self._handle_create_index, "CREATE INDEX"),
            DropIndex: (self._handle_drop_index, "DROP INDEX"),
            CreateMethod: (self._execute_create_method, "CREATE METHOD"),
            DropMethod: (self._handle_drop_method, "DROP METHOD"),
            NewObject: (self._execute_new, None),
            DeleteStmt: (self._execute_delete, None),
            UpdateStmt: (self._execute_update, None),
            AnalyzeStmt: (self._handle_analyze, "ANALYZE"),
            PrepareStmt: (self._handle_prepare, None),
            ExecuteStmt: (self._handle_execute_prepared, None),
            DeallocateStmt: (self._handle_deallocate, None),
        }
        #: Telemetry rings :meth:`statement` files into and the SYS$
        #: views read, and the statement ledgers it counts into.
        self.statement_log = StatementLog()
        self.slow_log = SlowQueryLog()
        self.system_views = SystemViewRegistry()
        register_kernel_views(self)
        server = self.storage.metrics.component("server")
        self._m_statements = server.counter("statements")
        self._m_statements_failed = server.counter("statements_failed")
        self._m_statement_ms = server.histogram("statement_ms")

    @contextmanager
    def statement(self, session_id: int, text: str, kind: str,
                  trace_id: str | None = None, **fields):
        """Record one statement: the one place a statement is traced,
        counted and failed, for a worker's session and the sharded
        router alike.

        Yields the statement's :class:`StatementTrace` (a server trace id
        when ``trace_id`` is None; ``fields`` preset its other columns)
        and times the block.  An exception leaving the block sets the
        status to its stable code -- ``MOOD`` for a foreign one -- and
        propagates; a caller that answers a failure without raising sets
        ``status`` itself.  On exit the trace is ringed, offered to the
        slow log (``statement.slow`` journaled when kept) and counted:
        ``server.statements`` if it succeeded, ``server.statements_failed``
        and ``server.errors.<CODE>`` if it failed, ``server.statement_ms``
        either way."""
        trace = StatementTrace(
            trace_id=trace_id or server_trace_id(),
            session_id=session_id,
            statement=truncate_statement(text),
            kind=kind,
            started_at=time.time(),
            **fields,
        )
        started = time.monotonic()
        try:
            yield trace
        except BaseException as exc:
            trace.status = describe_error(exc)["code"]
            raise
        finally:
            trace.total_ms = (time.monotonic() - started) * 1e3
            self._m_statement_ms.observe(trace.total_ms)
            if trace.status == "OK":
                self._m_statements.inc()
            else:
                self._m_statements_failed.inc()
                self.storage.metrics.counter(
                    f"server.errors.{trace.status}").inc()
            self.statement_log.record(trace)
            if self.slow_log.consider(trace):
                self.storage.events.emit(
                    "statement.slow",
                    trace_id=trace.trace_id,
                    session=trace.session_id,
                    statement_kind=trace.kind,
                    total_ms=round(trace.total_ms, 3),
                )

    # -- statistics and planning -------------------------------------------------

    def analyze(self, classes: list[str] | None = None) -> DatabaseStats:
        """Collect the Table 8 statistics from the live database: every
        class, or re-measure just ``classes``.  The one collection path.
        It reads outside any session transaction: statistics are advisory,
        and a latched session's no-wait S-lock probe must not fail on
        another session's X lock."""
        txn, self.objects.current_txn = self.objects.current_txn, None
        try:
            self.stats = collect_statistics(
                self.catalog,
                objects_of=lambda name: list(
                    self.objects.iter_extent(name, deep=False)
                ),
                classes=classes,
                into=None if classes is None else self.stats,
            )
        finally:
            self.objects.current_txn = txn
        if classes is None:
            self._stats_schema = self.catalog.schema_version
            self.objects.churn.clear()
        else:
            for name in classes:
                self.objects.churn.pop(name, None)
        return self.stats

    def has_statistics(self) -> bool:
        return bool(self.stats.classes)

    def refresh_statistics(self) -> None:
        """Run before every plan lookup: the only place the kernel decides
        to collect.  |C| and nbpages(C) are live, so plain DML costs
        nothing here.  The whole base is collected when statistics are
        missing or the catalog changed; a class whose churn passed the
        threshold is re-measured alone.  Each collection is journaled
        (``implicit_analyze`` event with trigger, classes, I/O and the
        trace id that footed the bill) and counted."""
        classes = None
        if not self.stats.classes:
            trigger = "missing"
        elif self._stats_schema != self.catalog.schema_version:
            trigger = "schema"
        else:
            trigger, classes = "churn", [
                name for name, writes in self.objects.churn.items()
                if writes > CHURN_BASE
                + CHURN_FRACTION * self.objects.count(name)
            ]
            if not classes:
                return
        before = self.storage.io_snapshot()
        started = time.perf_counter()
        self.analyze(classes)
        delta = self.storage.io_snapshot().since(before)
        (self._m_collections if classes is None else self._m_refreshes).inc()
        self.storage.events.emit(
            "implicit_analyze",
            trace_id=self.active_trace_id,
            trigger=trigger,
            classes=sorted(classes or self.stats.classes),
            io_pages=delta.page_ios,
            ms=round((time.perf_counter() - started) * 1e3, 3),
        )
        self.trace.append(TraceEvent("IMPLICIT_ANALYZE", trigger))
        self.plan_cache.invalidate_all("implicit ANALYZE")

    def planner(self) -> Planner:
        return Planner(
            self.catalog,
            self.stats,
            self.storage.params,
            btree_params_of=self.indexes.btree_params_of,
            join_indexes=self.indexes.join_index_params(),
            path_indexes=self.indexes.path_index_params(),
        )

    def set_cache_enabled(self, enabled: bool) -> None:
        """Flip both caches at runtime, exactly as the constructor flag
        sets them: the deref fast path and plan reuse.  Cached plans are
        dropped either way -- a paper-faithful run must recompile every
        statement, and a re-enabled cache starts cold."""
        self.objects.set_cache_enabled(enabled)
        self.plan_cache.enabled = enabled
        self.plan_cache.invalidate_all("SET CACHE")

    # -- the entry point ----------------------------------------------------------

    def execute(self, sql: str) -> QueryResult | StatementResult:
        """Parse and execute one MOODSQL statement."""
        statement = parse_sql(sql)
        return self.execute_statement(statement)

    def execute_statement(
        self, statement: Statement, spans: SpanRecorder | None = None
    ) -> QueryResult | StatementResult:
        self.trace = [TraceEvent("PARSE")]
        return self.dispatch_statement(statement, spans)

    def dispatch_statement(
        self, statement: Statement, spans: SpanRecorder | None = None
    ) -> QueryResult | StatementResult:
        """Route one parsed statement through the handler table.

        Does not reset the trace: EXECUTE recurses here for its bound
        inner statement, keeping the PARSE event of the outer one.
        Handlers whose table entry declares an invalidation reason drop
        every cached plan after they succeed (the version stamps on the
        cache entries are the backstop for paths that bypass this).
        """
        try:
            handler, invalidates = self._handlers[type(statement)]
        except KeyError:
            raise MoodSqlError(
                f"unsupported statement {type(statement).__name__}"
            ) from None
        result = handler(statement, spans)
        if invalidates is not None:
            self.plan_cache.invalidate_all(invalidates)
        return result

    # -- statement handlers (dispatch table targets) -------------------------

    def _handle_select(self, statement: SelectQuery, spans):
        if any(self.system_views.has(r.class_name)
               for r in statement.ranges):
            return self._execute_system_select(statement, spans=spans)
        return self._execute_select(statement, spans=spans)

    def _handle_drop_class(self, statement: DropClass, spans):
        self.catalog.drop_class(statement.name)
        self.objects.rebuild_page_map()
        return StatementResult("DROP CLASS", statement.name)

    def _handle_create_index(self, statement: CreateIndex, spans):
        self.indexes.create_index(
            statement.name, statement.class_name, statement.attribute,
            statement.kind, statement.unique,
        )
        return StatementResult("CREATE INDEX", statement.name)

    def _handle_drop_index(self, statement: DropIndex, spans):
        self.indexes.drop_index(statement.name)
        return StatementResult("DROP INDEX", statement.name)

    def _handle_drop_method(self, statement: DropMethod, spans):
        types = ",".join(statement.parameter_types)
        signature = f"{statement.class_name}::{statement.name}({types})"
        self.functions.delete_function(signature)
        return StatementResult("DROP METHOD", signature)

    def _handle_analyze(self, statement: AnalyzeStmt, spans):
        self.analyze()
        return StatementResult(
            "ANALYZE", f"{len(self.stats.classes)} classes"
        )

    # -- PREPARE / EXECUTE / DEALLOCATE --------------------------------------

    def _handle_prepare(self, statement: PrepareStmt, spans):
        prepared = self.prepared.prepare(statement.name, statement.statement)
        return StatementResult(
            "PREPARE",
            f"{prepared.name} ({len(prepared.params)} parameters)",
        )

    def _handle_execute_prepared(self, statement: ExecuteStmt, spans):
        return self.dispatch_statement(self.resolve_statement(statement), spans)

    def _handle_deallocate(self, statement: DeallocateStmt, spans):
        self.prepared.deallocate(statement.name)
        return StatementResult("DEALLOCATE", statement.name)

    def resolve_statement(
        self, statement: Statement, registry: PreparedRegistry | None = None
    ) -> Statement:
        """Map EXECUTE onto the bound statement it names (looked up in
        *registry*, defaulting to the kernel's own); anything else passes
        through unchanged.  Sessions call this *before* taking locks so
        the lock closure covers the inner statement."""
        if not isinstance(statement, ExecuteStmt):
            return statement
        registry = registry if registry is not None else self.prepared
        prepared = registry.get(statement.name)
        return prepared.bind(
            [self._argument_value(arg) for arg in statement.args]
        )

    def _argument_value(self, expr):
        """EXECUTE arguments must fold to constants without touching the
        engine (binding happens before planning, locks, or I/O)."""
        folded = simplify(expr)
        if isinstance(folded, Literal):
            return folded.value
        raise ExecutionError(
            f"EXECUTE arguments must be constant expressions, got {expr}"
        )

    def prepare(
        self, sql: str, name: str | None = None
    ):
        """Embedded-API PREPARE: compile *sql* once, returning the
        immutable :class:`~repro.core.prepare.PreparedStatement`."""
        statement = parse_sql(sql)
        if isinstance(statement, PrepareStmt):
            return self.prepared.prepare(statement.name, statement.statement)
        if name is None:
            name = f"stmt{len(self.prepared) + 1}"
        return self.prepared.prepare(name, statement)

    def execute_prepared(
        self, name: str, values=()
    ) -> QueryResult | StatementResult:
        """Embedded-API EXECUTE: bind *values* into the named prepared
        statement and run it, skipping parse entirely (and, on a plan
        cache hit, rewrite/optimize too)."""
        self.trace = [TraceEvent("BIND")]
        bound = self.prepared.get(name).bind(values)
        return self.dispatch_statement(bound)

    # -- SELECT -----------------------------------------------------------------

    def _execute_select(
        self, query: SelectQuery, spans: SpanRecorder | None = None
    ) -> QueryResult:
        plan = self._plan_select(query)
        self.last_plan = plan
        executor = Executor(
            objects=self.objects,
            evaluator=self.evaluator,
            catalog=self.catalog,
            index_manager=self.indexes,
            trace=self.trace,
            spans=spans,
        )
        binding_rows = executor.execute_plan(plan)
        columns, rows = self._project(query, binding_rows)
        if query.distinct:
            rows = _dedup_tuples(rows)
        self.functions.end_scope()  # statement boundary unloads functions
        return QueryResult(
            columns=columns,
            rows=rows,
            binding_rows=binding_rows,
            plan=plan,
            trace=list(self.trace),
        )

    def _plan_select(self, query: SelectQuery) -> QueryPlan:
        """Optimize a bound SELECT, memoised through the plan cache.

        Statistics are refreshed before the lookup.  A hit skips the whole
        compile back half (simplify, DNF, optimize); a miss pays it once
        and stores the plan under the catalog/statistics stamps it was
        costed with.
        """
        self.refresh_statistics()
        key = None
        if self.plan_cache.enabled:
            key = render_statement(query)
            entry = self.plan_cache.lookup(
                key, self.catalog.schema_version, self.stats.version
            )
            if entry is not None:
                self.trace.append(TraceEvent("PLAN_CACHE", "hit"))
                return entry.plan
        started = time.perf_counter()
        plan = self._compile(query)
        self._compile_ms.observe((time.perf_counter() - started) * 1e3)
        if key is not None:
            # The relink runs before the store, so relinked plans are
            # cached and invalidated under the same schema/stats stamps as
            # any plan.
            self.plan_cache.store(
                key, plan, self.catalog.schema_version, self.stats.version
            )
        return plan

    def _compile(self, query: SelectQuery) -> QueryPlan:
        """The compile back half over refreshed statistics: simplify, DNF
        and cost-based planning, then the join-fusion relink.  The relink
        is unconditional: the plan shape depends on no switch."""
        self.trace.append(TraceEvent("SIMPLIFY"))
        self.trace.append(TraceEvent("DNF"))
        self.trace.append(TraceEvent("OPTIMIZE"))
        plan = self.planner().plan_query(query)
        relinked = fuse_query_plan(plan)
        if relinked:
            self.trace.append(
                TraceEvent("FUSE", f"{relinked} traversal chain(s)")
            )
        return plan

    # -- SYS$ monitor views --------------------------------------------------

    def _execute_system_select(
        self, query: SelectQuery, spans: SpanRecorder | None = None
    ) -> QueryResult:
        """Evaluate a SELECT over SYS$ monitor views.

        The rows are live supplier snapshots wrapped as transient objects,
        so WHERE / projection / ORDER BY / DISTINCT go through the standard
        evaluator; there is no plan, no statistics, and no locking.
        """
        for range_var in query.ranges:
            if not self.system_views.has(range_var.class_name):
                raise MoodSqlError(
                    "system views cannot be joined with stored classes "
                    f"(range {range_var.class_name!r})"
                )
            if range_var.every or range_var.minus:
                raise MoodSqlError(
                    "EVERY / class subtraction does not apply to system "
                    f"view {range_var.class_name}"
                )
        if len(query.ranges) != 1:
            raise MoodSqlError("system view queries take exactly one range")
        if query.group_by or query.having is not None:
            raise MoodSqlError("GROUP BY is not supported over system views")
        range_var = query.ranges[0]
        view = self.system_views.get(range_var.class_name)
        self.trace.append(TraceEvent("SYSVIEW", view.name))

        def scan() -> list[Row]:
            binding_rows = [
                {range_var.var: MoodObject(NULL_OID, view.name, dict(values))}
                for values in view.supplier()
            ]
            if query.where is not None:
                binding_rows = [
                    row for row in binding_rows
                    if self.evaluator.predicate(query.where, row)
                ]
            return binding_rows

        if spans is not None:
            with spans.span("SYSVIEW", view.name) as span:
                binding_rows = scan()
                span.rows_out = len(binding_rows)
        else:
            binding_rows = scan()
        for item in reversed(query.order_by):
            binding_rows.sort(
                key=lambda row: self.evaluator.value(item.expr, row),
                reverse=not item.ascending,
            )
        columns, rows = self._project(query, binding_rows)
        if query.distinct:
            rows = _dedup_tuples(rows)
        return QueryResult(
            columns=columns,
            rows=rows,
            binding_rows=binding_rows,
            plan=None,
            trace=list(self.trace),
        )

    # -- EXPLAIN [ANALYZE] --------------------------------------------------

    def _execute_explain(self, statement: ExplainStmt, spans) -> ExplainResult:
        if any(self.system_views.has(r.class_name)
               for r in statement.query.ranges):
            raise MoodSqlError(
                "EXPLAIN over system views is not supported: monitor rows "
                "have no statistics for the cost model"
            )
        pipeline = describe_rewrite(statement.query)
        if not statement.analyze:
            self.refresh_statistics()
            plan = self._compile(statement.query)
            self.last_plan = plan
            report = explain_query_plan(plan, pipeline)
            return ExplainResult(report=report, plan=plan, spans=[])
        spans = SpanRecorder(io_probe=self.storage.io_snapshot)
        before = self.storage.metrics.snapshot()
        result = self._execute_select(statement.query, spans=spans)
        report = analyze_query_plan(
            result.plan, spans.roots, pipeline,
            cache_stats=self._cache_stats_since(before),
        )
        return ExplainResult(
            report=report, plan=result.plan, spans=spans.roots, result=result
        )

    def analyze_plan(self, plan: QueryPlan) -> ExplainResult:
        """Execute an arbitrary plan under span recording and build its
        ANALYZE report.  The entry point tests and benchmarks use to
        validate hand-built plans (e.g. the paper's own Example 8.1 plan)
        against the simulated disk."""
        spans = SpanRecorder(io_probe=self.storage.io_snapshot)
        before = self.storage.metrics.snapshot()
        executor = Executor(
            objects=self.objects,
            evaluator=self.evaluator,
            catalog=self.catalog,
            index_manager=self.indexes,
            trace=self.trace,
            spans=spans,
        )
        binding_rows = executor.execute_plan(plan)
        report = analyze_query_plan(
            plan, spans.roots,
            cache_stats=self._cache_stats_since(before),
        )
        result = QueryResult(
            columns=list(plan.output_vars),
            rows=[
                tuple(row[var] for var in plan.output_vars if var in row)
                for row in binding_rows
            ],
            binding_rows=binding_rows,
            plan=plan,
            trace=list(self.trace),
        )
        return ExplainResult(
            report=report, plan=plan, spans=spans.roots, result=result
        )

    def _cache_stats_since(self, before: dict[str, float]) -> dict[str, float]:
        """Object-cache counter deltas over one statement, for the
        EXPLAIN ANALYZE report's cache line."""
        after = self.storage.metrics.snapshot()
        stats = {
            name.split(".", 1)[1]: after.get(name, 0.0) - value
            for name, value in before.items()
            if name.startswith("objcache.")
        }
        for name, value in after.items():
            if name.startswith("objcache."):
                stats.setdefault(name.split(".", 1)[1], value)
        for key in ("hits", "misses", "invalidations", "batches"):
            stats.setdefault(key, 0.0)
        stats["enabled"] = 1.0 if self.objects.cache_enabled else 0.0
        return stats

    def _project(self, query: SelectQuery, binding_rows: list[Row]):
        if query.projections:
            columns = [str(p) for p in query.projections]
            rows = [
                tuple(
                    self.evaluator.value(projection, row)
                    for projection in query.projections
                )
                for row in binding_rows
            ]
        else:
            columns = [r.var for r in query.ranges]
            rows = [
                tuple(row[column] for column in columns)
                for row in binding_rows
            ]
        return columns, rows

    # -- DDL ---------------------------------------------------------------------

    def _execute_create_class(
        self, statement: CreateClass, spans
    ) -> StatementResult:
        methods = [
            MoodsFunction(
                owner=statement.name,
                name=decl.name,
                return_type=decl.return_type,
                parameters=list(decl.parameters),
                source=decl.body or "",
            )
            for decl in statement.methods
        ]
        self.catalog.define_class(
            statement.name,
            attributes=list(statement.attributes),
            superclasses=list(statement.superclasses),
            methods=methods,
            is_class=statement.is_class,
        )
        # 'a C++ header file is created for future compilation'
        header = generate_header(statement.name, self.catalog.hierarchy)
        return StatementResult(
            "CREATE CLASS" if statement.is_class else "CREATE TYPE",
            statement.name,
            header=header,
        )

    def _execute_alter(self, statement: AlterClass, spans) -> StatementResult:
        if statement.action == "add":
            self.catalog.add_attribute(statement.name, statement.attribute,
                                       statement.type_text)
        elif statement.action == "drop":
            self.catalog.drop_attribute(statement.name, statement.attribute)
            self._migrate_attribute(statement.name, "drop",
                                    statement.attribute)
        else:
            self.catalog.rename_attribute(statement.name, statement.attribute,
                                          statement.new_name)
            self._migrate_attribute(statement.name, "rename",
                                    statement.attribute, statement.new_name)
        return StatementResult("ALTER CLASS", statement.name)

    def _migrate_attribute(self, class_name: str, action: str,
                           old: str, new: str | None = None) -> None:
        """Rewrite stored instances after a rename/drop (MOOD's dynamic
        schema changes apply to existing objects)."""
        from repro.model.serde import decode, encode

        closure = self.catalog.hierarchy.extent_classes(class_name)
        scan = self.storage.scan(map(self.catalog.extent_file, closure))
        for extent, oid, payload in list(scan):
            state = decode(payload)
            if old not in state:
                continue
            if action == "rename":
                state[new] = state.pop(old)
            else:
                state.pop(old)
            self.storage.update(extent, oid, encode(state))
            # The rewrite bypasses the object manager; keep its deref
            # cache honest.
            self.objects.invalidate_cache(oid)

    def _execute_create_method(
        self, statement: CreateMethod, spans
    ) -> StatementResult:
        function = MoodsFunction(
            owner=statement.class_name,
            name=statement.decl.name,
            return_type=statement.decl.return_type,
            parameters=list(statement.decl.parameters),
            source=statement.decl.body or "",
        )
        existing = self.catalog.class_def(statement.class_name).own_method(
            statement.decl.name
        )
        if existing is not None and existing.signature == function.signature:
            self.functions.update_function(function)
            return StatementResult("UPDATE METHOD", function.signature)
        self.functions.add_function(function)
        return StatementResult("CREATE METHOD", function.signature)

    # -- DML ---------------------------------------------------------------------

    def _execute_new(self, statement: NewObject, spans) -> StatementResult:
        attributes = self.catalog.hierarchy.all_attributes(statement.class_name)
        if len(statement.values) > len(attributes):
            raise ExecutionError(
                f"new {statement.class_name}: {len(statement.values)} values "
                f"for {len(attributes)} attributes"
            )
        state = {}
        for attribute, expr in zip(attributes, statement.values):
            state[attribute.name] = self.evaluator.value(expr, {})
        obj = self.objects.new_object(statement.class_name, state)
        if statement.bind_name:
            self.catalog.bind_name(statement.bind_name, obj.oid)
        return StatementResult("NEW", str(obj.oid), obj=obj)

    def _matching_rows(self, range_var, where) -> list[Row]:
        include = tuple(
            self.catalog.hierarchy.extent_classes(range_var.class_name,
                                                  list(range_var.minus))
        )
        rows = [
            {range_var.var: obj}
            for obj in self.objects.iter_extent(range_var.class_name,
                                                include=include)
        ]
        if where is not None:
            rows = [r for r in rows if self.evaluator.predicate(where, r)]
        return rows

    def _execute_delete(self, statement: DeleteStmt, spans) -> StatementResult:
        rows = self._matching_rows(statement.range_var, statement.where)
        for row in rows:
            self.objects.delete_object(row[statement.range_var.var].oid)
        return StatementResult("DELETE", count=len(rows))

    def _execute_update(self, statement: UpdateStmt, spans) -> StatementResult:
        rows = self._matching_rows(statement.range_var, statement.where)
        for row in rows:
            obj = row[statement.range_var.var]
            for attribute, expr in statement.assignments:
                obj.state[attribute] = self.evaluator.value(expr, row)
            self.objects.update_object(obj)
        return StatementResult("UPDATE", count=len(rows))

    # -- MoodView services ----------------------------------------------------------

    def cursor_for(self, result: QueryResult, var: str | None = None) -> ObjectCursor:
        """An object cursor over one output variable of a query result."""
        if var is None:
            var = result.plan.output_vars[0]
        objects = []
        seen = set()
        for row in result.binding_rows:
            obj = row.get(var)
            if obj is not None and obj.oid not in seen:
                seen.add(obj.oid)
                objects.append(obj)
        return ObjectCursor(self.catalog, objects)


def _dedup_tuples(rows: list[tuple]) -> list[tuple]:
    seen = set()
    result = []
    for row in rows:
        try:
            key = tuple(
                value.oid if isinstance(value, MoodObject) else repr(value)
                for value in row
            )
        except TypeError:
            key = repr(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result
