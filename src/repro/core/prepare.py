"""The staged statement pipeline: parse -> rewrite -> bind -> optimize.

The paper's kernel interprets every MOODSQL statement from scratch; this
module splits that monolith into explicit compile phases so the expensive
front half can be paid once and reused:

* **parse** produces the AST (``repro.sql.parser``);
* **rewrite** simplifies predicates (constant folding, De Morgan) while
  bind parameters (:class:`~repro.sql.ast.Param`) pass through opaquely;
* **bind** substitutes parameter values as :class:`~repro.sql.ast.Literal`
  nodes, so the optimizer's selectivity estimation always sees concrete
  bind-time constants;
* **optimize** runs the cost-based planner (Algorithms 8.1/8.2) -- and its
  output is memoised in the :class:`PlanCache`, keyed by the normalized
  text of the fully-bound statement and stamped with the catalog
  schema-version and statistics-version counters.

A cached plan re-validates its stamp on every lookup, so DDL or ANALYZE
can never leak a stale plan into execution; the kernel additionally
invalidates eagerly from its DDL dispatch table.

:class:`PreparedStatement` is the immutable compile artifact;
:class:`PreparedRegistry` is a (session- or kernel-scoped) namespace of
them, behind the ``PREPARE`` / ``EXECUTE`` / ``DEALLOCATE`` statements.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence

from repro.core.errors import (
    ExecutionError,
    MoodSqlError,
    UnknownPreparedStatementError,
)
from repro.obs.metrics import ComponentMetrics, MetricsRegistry
from repro.sql.ast import (
    DeleteStmt,
    ExplainStmt,
    Literal,
    OrderItem,
    Param,
    SelectQuery,
    Statement,
    UpdateStmt,
)
from repro.sql.rewrite import simplify

#: Monotonic stamp source for statistics versions (shared with
#: :func:`repro.cost.statistics.collect_statistics`).
_stats_version_counter = itertools.count(1)


def next_stats_version() -> int:
    """The next statistics-version stamp (process-wide monotonic)."""
    return next(_stats_version_counter)


# --------------------------------------------------------------------------
# Generic AST walking (every node is a frozen dataclass)
# --------------------------------------------------------------------------

def _map_params(node, fn):
    """Rebuild ``node`` with every :class:`Param` replaced by ``fn(param)``;
    shares unchanged subtrees."""
    if isinstance(node, Param):
        return fn(node)
    if isinstance(node, tuple):
        mapped = tuple(_map_params(item, fn) for item in node)
        return node if mapped == node else mapped
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changed = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            mapped = _map_params(value, fn)
            if mapped is not value and mapped != value:
                changed[field.name] = mapped
        return dataclasses.replace(node, **changed) if changed else node
    return node


def collect_params(statement: Statement) -> tuple[Param, ...]:
    """Every distinct bind parameter in the statement, in positional
    (first-appearance) order."""
    found: dict[int, Param] = {}

    def visit(param: Param) -> Param:
        found.setdefault(param.index, param)
        return param

    _map_params(statement, visit)
    return tuple(found[index] for index in sorted(found))


# --------------------------------------------------------------------------
# Canonical statement text (the plan-cache key)
# --------------------------------------------------------------------------

def render_statement(statement: Statement) -> str:
    """Normalized statement text: whitespace- and case-insensitive for the
    clauses, deterministic for the expressions (their ``__str__``).  Two
    statements that parse to the same AST render identically, so this is
    the plan cache's key for bound SELECTs and the display text of
    SYS$PLANS rows."""
    if isinstance(statement, SelectQuery):
        return _render_select(statement)
    if isinstance(statement, ExplainStmt):
        prefix = "EXPLAIN ANALYZE " if statement.analyze else "EXPLAIN "
        return prefix + _render_select(statement.query)
    if isinstance(statement, DeleteStmt):
        text = f"DELETE FROM {statement.range_var}"
        if statement.where is not None:
            text += f" WHERE {statement.where}"
        return text
    if isinstance(statement, UpdateStmt):
        sets = ", ".join(
            f"{attr} = {expr}" for attr, expr in statement.assignments
        )
        text = f"UPDATE {statement.range_var} SET {sets}"
        if statement.where is not None:
            text += f" WHERE {statement.where}"
        return text
    # DDL / NEW / ANALYZE never enter the plan cache; a deterministic
    # dataclass repr is identity enough for display and registries.
    return repr(statement)


def _render_select(query: SelectQuery) -> str:
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    parts.append(
        ", ".join(str(p) for p in query.projections)
        if query.projections else "*"
    )
    parts.append("FROM")
    parts.append(", ".join(str(r) for r in query.ranges))
    if query.where is not None:
        parts.append(f"WHERE {query.where}")
    if query.group_by:
        parts.append("GROUP BY " + ", ".join(str(p) for p in query.group_by))
    if query.having is not None:
        parts.append(f"HAVING {query.having}")
    if query.order_by:
        parts.append("ORDER BY " + ", ".join(
            _render_order_item(item) for item in query.order_by
        ))
    return " ".join(parts)


def _render_order_item(item: OrderItem) -> str:
    return f"{item.expr}" + ("" if item.ascending else " DESC")


# --------------------------------------------------------------------------
# Rewrite and bind phases
# --------------------------------------------------------------------------

def rewrite_statement(statement: Statement) -> Statement:
    """The rewrite phase: simplify predicate clauses once, at compile
    time.  :class:`Param` nodes are opaque to the simplifier, so the
    rewritten tree is reusable across every future binding."""
    if isinstance(statement, SelectQuery):
        changed = {}
        if statement.where is not None:
            changed["where"] = simplify(statement.where)
        if statement.having is not None:
            changed["having"] = simplify(statement.having)
        return dataclasses.replace(statement, **changed) \
            if changed else statement
    if isinstance(statement, (DeleteStmt, UpdateStmt)) \
            and statement.where is not None:
        return dataclasses.replace(statement, where=simplify(statement.where))
    return statement


_BINDABLE = (int, float, str, bool, type(None))


def bind_statement(
    statement: Statement,
    params: tuple[Param, ...],
    values: Sequence | Mapping,
) -> Statement:
    """The bind phase: substitute constants for parameters, producing a
    fully-ground statement the optimizer can estimate selectivity on.

    ``values`` binds positionally (sequence, first-appearance order) or by
    name (mapping, for ``:name`` parameters).
    """
    if isinstance(values, Mapping):
        assignments = _bind_by_name(params, values)
    else:
        assignments = _bind_positional(params, values)
    for value in assignments.values():
        if not isinstance(value, _BINDABLE):
            raise ExecutionError(
                f"parameter values must be constants, got "
                f"{type(value).__name__}"
            )

    def substitute(param: Param) -> Literal:
        return Literal(assignments[param.index])

    return _map_params(statement, substitute)


def _bind_positional(
    params: tuple[Param, ...], values: Sequence
) -> dict[int, object]:
    if len(values) != len(params):
        raise ExecutionError(
            f"statement takes {len(params)} parameter(s), "
            f"{len(values)} given"
        )
    return {param.index: value for param, value in zip(params, values)}


def _bind_by_name(
    params: tuple[Param, ...], values: Mapping
) -> dict[int, object]:
    assignments: dict[int, object] = {}
    names = set()
    for param in params:
        if param.name is None:
            raise ExecutionError(
                "positional '?' parameters cannot be bound by name"
            )
        if param.name not in values:
            raise ExecutionError(f"missing value for parameter :{param.name}")
        names.add(param.name)
        assignments[param.index] = values[param.name]
    extra = set(values) - names
    if extra:
        raise ExecutionError(
            f"unknown parameter name(s): {', '.join(sorted(extra))}"
        )
    return assignments


# --------------------------------------------------------------------------
# The compile artifact and its registry
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PreparedStatement:
    """An immutable, reusable compile artifact: the parsed + rewritten
    statement with its parameter signature.  ``bind`` yields the ground
    statement for one execution; the optimize phase (and its memoisation)
    happens downstream in the kernel."""

    name: str
    sql: str                        # normalized text, placeholders intact
    statement: Statement            # parse + rewrite output
    params: tuple[Param, ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(
            param.name or f"?{param.index + 1}" for param in self.params
        )

    def bind(self, values: Sequence | Mapping = ()) -> Statement:
        return bind_statement(self.statement, self.params, values)


def compile_statement(name: str, statement: Statement) -> PreparedStatement:
    """Run the compile-time phases (rewrite; parse already happened) and
    freeze the artifact."""
    if isinstance(statement, ExplainStmt):
        raise MoodSqlError("EXPLAIN cannot be prepared; EXPLAIN the query")
    rewritten = rewrite_statement(statement)
    return PreparedStatement(
        name=name,
        sql=render_statement(rewritten),
        statement=rewritten,
        params=collect_params(rewritten),
    )


class PreparedRegistry:
    """Name -> :class:`PreparedStatement`; one per session (the wire
    protocol's namespace) or per kernel (embedded use).  Re-PREPARE of an
    existing name replaces it."""

    def __init__(self):
        self._statements: dict[str, PreparedStatement] = {}

    def prepare(self, name: str, statement: Statement) -> PreparedStatement:
        prepared = compile_statement(name, statement)
        self._statements[name] = prepared
        return prepared

    def get(self, name: str) -> PreparedStatement:
        try:
            return self._statements[name]
        except KeyError:
            raise UnknownPreparedStatementError(
                f"no prepared statement {name!r}"
            ) from None

    def deallocate(self, name: str) -> None:
        if name not in self._statements:
            raise UnknownPreparedStatementError(
                f"no prepared statement {name!r}"
            )
        del self._statements[name]

    def names(self) -> list[str]:
        return sorted(self._statements)

    def clear(self) -> None:
        self._statements.clear()

    def __len__(self) -> int:
        return len(self._statements)


# --------------------------------------------------------------------------
# The plan cache
# --------------------------------------------------------------------------

@dataclasses.dataclass
class CachedPlan:
    """One memoised optimizer output, stamped with the catalog and
    statistics versions it was planned under."""

    key: str
    plan: object                    # optimizer.planner.QueryPlan
    schema_version: int
    stats_version: int
    hits: int = 0
    created_at: float = 0.0
    last_used_at: float = 0.0


class PlanCache:
    """Capacity-bounded LRU of compiled query plans.

    Keys are the normalized text of the *fully-bound* statement, so the
    same prepared statement executed with equal parameters hits, while a
    new parameter vector misses (and is re-optimized under its own
    bind-time selectivities).  Every entry re-validates its
    ``(schema_version, stats_version)`` stamp at lookup: a stale entry is
    dropped, never executed.  Disabled (``enabled=False``) the cache is
    bypassed entirely -- the paper-faithful compile-per-statement mode.
    """

    def __init__(self, capacity: int = 256,
                 metrics: ComponentMetrics | None = None, events=None,
                 enabled: bool = True):
        self.capacity = max(1, capacity)
        self.enabled = enabled
        self.events = events
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        # ``plancache.*`` counters (a private registry when built alone).
        metrics = metrics or MetricsRegistry().component("plancache")
        self._m_hits = metrics.counter("hits")
        self._m_misses = metrics.counter("misses")
        self._m_stores = metrics.counter("stores")
        self._m_invalidations = metrics.counter("invalidations")
        self._m_evictions = metrics.counter("evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, schema_version: int,
               stats_version: int) -> CachedPlan | None:
        """The stamped lookup: a hit must match both version counters."""
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self._m_misses.inc()
            return None
        if (entry.schema_version != schema_version
                or entry.stats_version != stats_version):
            # The eager DDL/ANALYZE invalidation normally got here first;
            # the stamp check is the backstop that makes staleness
            # impossible rather than merely unlikely.
            del self._entries[key]
            self._m_invalidations.inc()
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        entry.last_used_at = time.time()
        self._m_hits.inc()
        return entry

    def store(self, key: str, plan, schema_version: int,
              stats_version: int) -> None:
        if not self.enabled:
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        now = time.time()
        self._entries[key] = CachedPlan(
            key=key, plan=plan,
            schema_version=schema_version, stats_version=stats_version,
            created_at=now, last_used_at=now,
        )
        self._m_stores.inc()

    def invalidate_all(self, reason: str = "") -> int:
        """Eager invalidation (DDL, ANALYZE): drop every entry."""
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
            self._m_invalidations.inc(dropped)
            if self.events is not None:
                self.events.emit(
                    "plancache.invalidate", reason=reason, dropped=dropped
                )
        return dropped

    # -- reporting ---------------------------------------------------------

    def hit_rate(self) -> float:
        looked = self._m_hits.value + self._m_misses.value
        return self._m_hits.value / looked if looked else 0.0

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self._m_hits.value,
            "misses": self._m_misses.value,
            "stores": self._m_stores.value,
            "invalidations": self._m_invalidations.value,
            "evictions": self._m_evictions.value,
            "hit_rate": round(self.hit_rate(), 4),
        }

    def rows(self, schema_version: int, stats_version: int) -> list[dict]:
        """SYS$PLANS rows, most recently used first."""
        rows = []
        for entry in reversed(self._entries.values()):
            rows.append({
                "statement": entry.key,
                "hits": entry.hits,
                "schema_version": entry.schema_version,
                "stats_version": entry.stats_version,
                "valid": (entry.schema_version == schema_version
                          and entry.stats_version == stats_version),
                "created_at": entry.created_at,
                "last_used_at": entry.last_used_at,
            })
        return rows
