"""SYS$ monitor views: the server's runtime state as virtual classes.

The paper's MoodView exists to make the DBMS legible; these views make the
*server* legible through the language itself.  Each view is a read-only
virtual class (``SYS$SESSIONS``, ``SYS$STATEMENTS``, ``SYS$LOCKS``,
``SYS$COUNTERS``, ``SYS$SLOW_QUERIES``, ``SYS$EVENTS``) has a declared
schema and is fed *live* by a supplier callable -- no catalog entry, no
storage, no extent, no locks on user data.  Ordinary MOODSQL works::

    SELECT s.trace_id, s.lock_wait_ms FROM SYS$STATEMENTS s
    WHERE s.total_ms > 100

The kernel intercepts a SELECT whose FROM ranges a registered view and
evaluates it with the standard expression evaluator over transient
objects, so WHERE / projection / ORDER BY / DISTINCT behave exactly as on
stored classes.  Joins against stored classes and EXPLAIN are refused:
monitor rows have no statistics, and pretending otherwise would poison
the cost model's est-vs-actual contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.catalog.typeparse import parse_type
from repro.core.errors import MoodSqlError


@dataclass(frozen=True)
class SystemView:
    """One virtual class: a name, a declared schema, a live supplier."""

    name: str
    columns: tuple[tuple[str, str], ...]   # (attribute, MOOD type text)
    supplier: Callable[[], list[dict]]
    description: str = ""


class SystemViewRegistry:
    """Name -> :class:`SystemView`."""

    def __init__(self):
        self._views: dict[str, SystemView] = {}

    def register(
        self,
        name: str,
        columns: list[tuple[str, str]],
        supplier: Callable[[], list[dict]],
        description: str = "",
    ) -> SystemView:
        """Declare a view; its column types are validated eagerly, like
        any class definition's."""
        for _, type_text in columns:
            parse_type(type_text)
        canonical = name.upper()
        view = SystemView(canonical, tuple(columns), supplier, description)
        self._views[canonical] = view
        return view

    def has(self, name: str) -> bool:
        return name.upper() in self._views

    def get(self, name: str) -> SystemView:
        try:
            return self._views[name.upper()]
        except KeyError:
            raise MoodSqlError(f"no system view {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._views)

    def rows(self, name: str) -> list[dict]:
        """The view's current rows (each a flat attribute dict)."""
        return self.get(name).supplier()


# --------------------------------------------------------------------------
# Kernel-level views (the server adds SYS$SESSIONS on top)
# --------------------------------------------------------------------------

def register_kernel_views(kernel) -> None:
    """Register the views fed by kernel-owned state: metrics, the event
    journal, the lock table, and the statement/slow-query logs."""
    views = kernel.system_views
    storage = kernel.storage

    def counter_rows() -> list[dict]:
        rows = [
            {"name": name, "kind": "counter", "value": value,
             "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            for name, value in storage.metrics.counters().items()
        ]
        for name, summary in storage.metrics.histograms().items():
            rows.append({
                "name": name, "kind": "histogram",
                "value": summary["mean"],
                "count": summary["count"], "mean": summary["mean"],
                "p50": summary["p50"], "p95": summary["p95"],
                "p99": summary["p99"],
            })
        return sorted(rows, key=lambda r: r["name"])

    views.register(
        "SYS$COUNTERS",
        [("name", "String"), ("kind", "String"), ("value", "Float"),
         ("count", "Integer"), ("mean", "Float"),
         ("p50", "Float"), ("p95", "Float"), ("p99", "Float")],
        counter_rows,
        "every registry counter and histogram (with percentiles)",
    )

    def event_rows() -> list[dict]:
        return [
            {"seq": event.seq, "ts": event.ts, "kind": event.kind,
             "detail": event.detail()}
            for event in storage.events.recent()
        ]

    views.register(
        "SYS$EVENTS",
        [("seq", "Integer"), ("ts", "Float"), ("kind", "String"),
         ("detail", "String")],
        event_rows,
        "the bounded event journal (lock waits, deadlocks, checkpoints, "
        "recovery, cache storms, admission rejections)",
    )

    def lock_rows() -> list[dict]:
        return storage.locks.dump()

    views.register(
        "SYS$LOCKS",
        [("resource", "String"), ("txn_id", "Integer"), ("mode", "String"),
         ("granted", "Boolean"), ("queue_position", "Integer")],
        lock_rows,
        "the live lock table: grants plus the FIFO wait queue",
    )

    views.register(
        "SYS$STATEMENTS",
        _TRACE_COLUMNS,
        lambda: [t.row() for t in kernel.statement_log.recent()],
        "the most recent statements, newest first, fully decomposed",
    )

    def slow_rows() -> list[dict]:
        rows = []
        for trace in kernel.slow_log.top(kernel.slow_log.capacity):
            row = trace.row()
            row["plan"] = trace.span_report()
            rows.append(row)
        return rows

    views.register(
        "SYS$SLOW_QUERIES",
        _TRACE_COLUMNS + (("plan", "String"),),
        slow_rows,
        "statements over the slow threshold, slowest first, with their "
        "recorded span trees",
    )

    def plan_rows() -> list[dict]:
        return kernel.plan_cache.rows(
            kernel.catalog.schema_version, kernel.stats.version
        )

    def clustering_rows() -> list[dict]:
        reclusterer = getattr(kernel, "reclusterer", None)
        if reclusterer is None:
            return []
        return [reclusterer.status()]

    views.register(
        "SYS$CLUSTERING",
        CLUSTERING_COLUMNS,
        clustering_rows,
        "the background reclusterer: moves done, pages compacted, "
        "estimated cold-traversal locality gain, access-log size",
    )

    views.register(
        "SYS$PLANS",
        [("statement", "String"), ("hits", "Integer"),
         ("schema_version", "Integer"), ("stats_version", "Integer"),
         ("valid", "Boolean"), ("created_at", "Float"),
         ("last_used_at", "Float")],
        plan_rows,
        "the plan cache, most recently used first, each entry's version "
        "stamps checked against the live catalog and statistics",
    )


#: Shared schema of SYS$STATEMENTS / SYS$SLOW_QUERIES rows
#: (:meth:`repro.obs.trace.StatementTrace.row`).
_TRACE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("trace_id", "String"),
    ("session_id", "Integer"),
    ("txn_id", "Integer"),
    ("statement", "String"),
    ("kind", "String"),
    ("status", "String"),
    ("started_at", "Float"),
    ("queue_wait_ms", "Float"),
    ("lock_wait_ms", "Float"),
    ("latch_wait_ms", "Float"),
    ("exec_ms", "Float"),
    ("total_ms", "Float"),
    ("io_pages", "Integer"),
    ("io_ms", "Float"),
    ("rows", "Integer"),
)

#: Schema of SYS$CLUSTERING rows (:meth:`repro.cluster.recluster.
#: Reclusterer.status`); the router's federated view prepends ``shard``.
CLUSTERING_COLUMNS: tuple[tuple[str, str], ...] = (
    ("state", "String"),
    ("runs", "Integer"),
    ("moves", "Integer"),
    ("batches", "Integer"),
    ("pages_allocated", "Integer"),
    ("pages_compacted", "Integer"),
    ("ref_rewrites", "Integer"),
    ("index_rewrites", "Integer"),
    ("lock_timeouts", "Integer"),
    ("estimated_gain", "Float"),
    ("objects_noted", "Integer"),
    ("last_run_at", "Float"),
    ("last_error", "String"),
)
