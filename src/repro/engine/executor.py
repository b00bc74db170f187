"""Plan execution.

Interprets the optimizer's access plans over the object manager, charging
all I/O to the simulated disk so estimated and measured costs can be
compared.  Emits a trace of operator events in execution order -- SELECT
before JOIN before PROJECT before UNION, the Figure 7.2 discipline -- which
the F71/F72 benchmarks print.

Plan nodes exchange plain ``list[Row]`` batches.  Every dereference goes
through the object manager (``deref_many`` for a frontier, ``warm`` via
the evaluator's prefetch), which alone decides how it is charged; the
executor holds no cache switch of its own.

When a :class:`~repro.obs.spans.SpanRecorder` is attached, every plan node
additionally opens a structured span (rows out, charged I/O, wall time)
nested to mirror the plan tree; the flat trace is kept as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.catalog.catalog import Catalog
from repro.core.errors import ExecutionError
from repro.engine.evaluator import ExpressionEvaluator, Row
from repro.engine.indexes import IndexManager
from repro.engine.joins import (
    PipelinedLeaf,
    backward_traversal,
    forward_traversal,
    hash_partition_join,
    indexed_join,
    nested_loop_join,
)
from repro.engine.objects import ObjectManager
from repro.optimizer.plan import (
    BindNode,
    DupElimNode,
    IndSelNode,
    JoinNode,
    NamedRef,
    PartitionNode,
    PlanNode,
    ProjectNode,
    SelectNode,
    SortNode,
    UnionNode,
)
from repro.optimizer.planner import QueryPlan
from repro.sql.ast import Between, BinOp, Expr, Literal
from repro.sql.rewrite import referenced_variables


@dataclass
class TraceEvent:
    operator: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.operator}({self.detail})" if self.detail \
            else self.operator


@dataclass
class Executor:
    """Interprets access plans into rows of variable bindings.

    Operators exchange plain ``list[Row]`` batches: each plan node
    consumes and produces whole lists, so predicates prefetch their paths
    across the batch and traversals dereference per-hop frontiers through
    one ``deref_many`` call.  How those calls are charged (page-clustered
    through the object cache, or the paper's one-chase-one-read) is the
    object manager's decision, never the executor's.
    """

    objects: ObjectManager
    evaluator: ExpressionEvaluator
    catalog: Catalog
    index_manager: IndexManager | None = None
    trace: list[TraceEvent] = field(default_factory=list)
    spans: Any = None    # optional repro.obs.spans.SpanRecorder
    _temp_cache: dict[str, list[Row]] = field(default_factory=dict)
    _output_vars: frozenset[str] = frozenset()

    def execute_plan(self, plan: QueryPlan) -> list[Row]:
        self._temp_cache = {}
        self._output_vars = frozenset(plan.output_vars)
        return self._exec(plan.root)

    def _emit(self, operator: str, detail: str = "") -> None:
        self.trace.append(TraceEvent(operator, detail))

    # -- dispatch ------------------------------------------------------------

    def _exec(self, node: PlanNode) -> list[Row]:
        if self.spans is None:
            return self._dispatch(node)
        from repro.obs.spans import describe_node

        operator, detail = describe_node(node)
        with self.spans.span(operator, detail, node) as span:
            rows = self._dispatch(node)
            span.rows_out = len(rows)
            return rows

    def _dispatch(self, node: PlanNode) -> list[Row]:
        if isinstance(node, BindNode):
            return self._exec_bind(node)
        if isinstance(node, IndSelNode):
            return self._exec_indsel(node)
        if isinstance(node, SelectNode):
            return self._exec_select(node)
        if isinstance(node, NamedRef):
            return self._exec_named(node)
        if isinstance(node, JoinNode):
            return self._exec_join(node)
        if isinstance(node, ProjectNode):
            return self._exec_project(node)
        if isinstance(node, UnionNode):
            return self._exec_union(node)
        if isinstance(node, PartitionNode):
            return self._exec_partition(node)
        if isinstance(node, DupElimNode):
            rows = self._exec(node.input)
            self._emit("DUPELIM")
            return _dedup(rows)
        if isinstance(node, SortNode):
            return self._exec_sort(node)
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # -- leaves ---------------------------------------------------------------

    def _exec_bind(self, node: BindNode) -> list[Row]:
        self._emit("BIND", f"{node.class_name}, {node.var}")
        include = node.include_classes or None
        return [
            {node.var: obj}
            for obj in self.objects.iter_extent(node.class_name,
                                                include=include)
        ]

    def _exec_indsel(self, node: IndSelNode) -> list[Row]:
        if self.index_manager is None:
            raise ExecutionError("INDSEL requires an index manager")
        self._emit("INDSEL", f"{node.class_name}, {node.var}")
        oid_sets = []
        for probe in node.probes:
            index = self.index_manager.physical_index(probe.index_name)
            oid_sets.append(self._probe_index(index, probe.predicate))
        oids = set.intersection(*oid_sets) if oid_sets else set()
        # Probe hits are re-verified against the live object unless the
        # index manager vouches for the index (fresh path indexes).
        verify = [
            probe for probe in node.probes
            if self.index_manager.needs_verification(probe.index_name)
        ]
        candidates = [
            {node.var: obj}
            for obj in self.objects.deref_many(sorted(oids))
            if not node.include_classes
            or obj.class_name in node.include_classes
        ]
        return self.evaluator.filter_batch(
            tuple(p.predicate for p in verify), candidates
        )

    def _probe_index(self, index, predicate: Expr) -> set:
        if isinstance(predicate, Between):
            low = _literal(predicate.low)
            high = _literal(predicate.high)
            return {oid for _, oid in index.range_scan(low, high)}
        if not isinstance(predicate, BinOp) or not isinstance(
                predicate.right, Literal):
            raise ExecutionError(
                f"cannot probe an index with predicate {predicate}"
            )
        key = predicate.right.value
        op = predicate.op
        if op == "=":
            return set(index.search(key))
        if not hasattr(index, "range_scan"):
            raise ExecutionError("hash indexes serve equality probes only")
        if op == ">":
            return {o for _, o in index.range_scan(key, None,
                                                   lo_inclusive=False)}
        if op == ">=":
            return {o for _, o in index.range_scan(key, None)}
        if op == "<":
            return {o for _, o in index.range_scan(None, key,
                                                   hi_inclusive=False)}
        if op == "<=":
            return {o for _, o in index.range_scan(None, key)}
        raise ExecutionError(f"cannot probe an index with operator {op!r}")

    def _exec_select(self, node: SelectNode) -> list[Row]:
        rows = self._exec(node.input)
        self._emit("SELECT", " AND ".join(str(p) for p in node.predicates))
        return self.evaluator.filter_batch(node.predicates, rows)

    def _exec_named(self, node: NamedRef) -> list[Row]:
        if node.name in self._temp_cache:
            return list(self._temp_cache[node.name])
        if node.plan is None:
            raise ExecutionError(f"temporary {node.name} has no plan")
        rows = self._exec(node.plan)
        self._temp_cache[node.name] = rows
        return list(rows)

    def _exec_project(self, node: ProjectNode) -> list[Row]:
        rows = self._exec(node.input)
        self._emit("PROJECT", ", ".join(str(p) for p in node.projections)
                   or "*")
        # The projection *values* are computed once at result-building
        # time (the kernel evaluates the expressions over these binding
        # rows), so PROJECT does two physical things.  It warms every
        # projection path across the whole batch, one page-ordered
        # ``deref_many`` per step, so result building chases rows out of
        # the warm object cache and the chases are charged inside this
        # span.  And it prunes bindings: it keeps every variable the
        # expressions still need -- the query's declared range variables
        # plus any referenced by a projection -- and drops the planner's
        # synthetic chain variables (d, e, ...).  Multiplicity is
        # untouched; DUPELIM/UNION decide duplicates.  Empty projections
        # mean SELECT * (keep everything); hand-built plans without
        # declared output vars are left alone.
        self.evaluator.prefetch(node.projections, rows)
        if not node.projections or not self._output_vars:
            return rows
        keep = set(self._output_vars)
        for expr in node.projections:
            keep |= referenced_variables(expr)
        return [
            {var: obj for var, obj in row.items() if var in keep}
            for row in rows
        ]

    # -- joins --------------------------------------------------------------

    def _exec_join(self, node: JoinNode) -> list[Row]:
        if node.method == "NESTED_LOOP":
            left_rows = self._exec(node.left)
            right_rows = self._exec(node.right)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return nested_loop_join(
                left_rows, right_rows, node.predicate_expr, self.evaluator,
            )
        if node.left_var is None or node.attr is None \
                or node.right_var is None:
            raise ExecutionError(
                f"join node lacks structured predicate: {node.predicate_text}"
            )
        if node.method == "FORWARD_TRAVERSAL":
            left_rows = self._exec(node.left)
            right = self._right_side(node)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return forward_traversal(
                left_rows, node.left_var, node.attr, right,
                node.right_var, self.objects, self.evaluator,
            )
        if node.method == "BACKWARD_TRAVERSAL":
            left = self._pipelineable(node.left)
            if left is not None and left.predicates:
                self._emit("SELECT",
                           " AND ".join(str(p) for p in left.predicates))
            if left is None:
                left = self._exec(node.left)
            right_rows = self._exec(node.right)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return backward_traversal(
                left, node.left_var, node.attr, right_rows,
                node.right_var, self.objects, self.evaluator,
            )
        if node.method == "HASH_PARTITION":
            left_rows = self._exec(node.left)
            right = self._right_side(node)
            self._emit("JOIN", f"{node.method}, {node.predicate_text}")
            return hash_partition_join(
                left_rows, node.left_var, node.attr, right,
                node.right_var, self.objects, self.evaluator,
            )
        if node.method == "BINARY_JOIN_INDEX":
            return self._exec_indexed_join(node)
        raise ExecutionError(f"unknown join method {node.method!r}")

    def _right_side(self, node: JoinNode) -> PipelinedLeaf | list[Row]:
        """Prefer a pipelined right leaf; its residual predicates run first
        (conceptually: SELECT below JOIN, Figure 7.2)."""
        leaf = self._pipelineable(node.right)
        if leaf is not None:
            if leaf.predicates:
                self._emit("SELECT",
                           " AND ".join(str(p) for p in leaf.predicates))
            return leaf
        return self._exec(node.right)

    def _exec_indexed_join(self, node: JoinNode) -> list[Row]:
        left_rows = self._exec(node.left)
        right = self._right_side(node)
        self._emit("JOIN", f"{node.method}, {node.predicate_text}")
        join_index = None
        class_name = _bound_class(node.left, node.left_var)
        if self.index_manager is not None and class_name is not None:
            join_index = self.index_manager.join_index_for(
                class_name, node.attr
            )
        if join_index is None:
            # Degrade gracefully: the pairs are still reachable by forward
            # traversal.
            return forward_traversal(
                left_rows, node.left_var, node.attr, right,
                node.right_var, self.objects, self.evaluator,
            )
        return indexed_join(
            left_rows, node.left_var, join_index, right,
            node.right_var, self.objects, self.evaluator,
        )

    def _pipelineable(self, node: PlanNode) -> PipelinedLeaf | None:
        """Recognise leaves the join methods can evaluate per object."""
        if isinstance(node, BindNode):
            return PipelinedLeaf(node.var, node.class_name,
                                 node.include_classes, ())
        if isinstance(node, SelectNode):
            inner = node.input
            if isinstance(inner, BindNode):
                return PipelinedLeaf(inner.var, inner.class_name,
                                     inner.include_classes, node.predicates)
        return None

    # -- set-level operators ------------------------------------------------------

    def _exec_union(self, node: UnionNode) -> list[Row]:
        merged = [row for child in node.inputs for row in self._exec(child)]
        self._emit("UNION", f"{len(node.inputs)} AND-terms")
        return _dedup(merged, node.key_vars or None)

    def _exec_partition(self, node: PartitionNode) -> list[Row]:
        rows = self._exec(node.input)
        self._emit("PARTITION", ", ".join(str(k) for k in node.keys))
        # Group keys chase their paths over the whole batch first.
        self.evaluator.prefetch(node.keys, rows)
        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(
                repr(self.evaluator.value(k, row)) for k in node.keys
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        representatives: list[Row] = []
        for key in order:
            group = groups[key]
            representative = dict(group[0])
            if node.having is None or self.evaluator.predicate(
                    node.having, representative):
                representatives.append(representative)
        if node.having is not None:
            self._emit("HAVING", str(node.having))
        return representatives

    def _exec_sort(self, node: SortNode) -> list[Row]:
        rows = self._exec(node.input)
        self._emit("SORT", ", ".join(str(k.expr) for k in node.keys))
        from repro.algebra.collection_ops import _NullsFirst

        # Sort keys may traverse references; warm them batch-at-a-time.
        self.evaluator.prefetch(
            tuple(item.expr for item in node.keys), rows
        )

        def sort_key(row: Row):
            parts = []
            for item in node.keys:
                value = self.evaluator.value(item.expr, row)
                wrapped = _NullsFirst(value)
                parts.append(_Reversible(wrapped, item.ascending))
            return parts

        return sorted(rows, key=sort_key)


class _Reversible:
    """Comparison wrapper flipping order for DESC keys."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_Reversible") -> bool:
        if self.ascending:
            return self.value < other.value
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


def _dedup(rows: list[Row], key_vars: tuple[str, ...] | None = None) -> list[Row]:
    seen: set = set()
    result: list[Row] = []
    for row in rows:
        members = (
            ((var, row[var].oid) for var in key_vars if var in row)
            if key_vars is not None
            else ((var, obj.oid) for var, obj in row.items())
        )
        key = tuple(sorted(members))
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _bound_class(node: PlanNode, var: str) -> str | None:
    """The class a plan subtree binds ``var`` to: its BIND/INDSEL leaf
    (temporaries included).  A join index is chosen by this class, not
    by attribute name alone, which several classes may share."""
    for sub in node.walk():
        if isinstance(sub, (BindNode, IndSelNode)) and sub.var == var:
            return sub.class_name
        if isinstance(sub, NamedRef) and sub.plan is not None:
            found = _bound_class(sub.plan, var)
            if found is not None:
                return found
    return None


def _literal(expr: Expr):
    if not isinstance(expr, Literal):
        raise ExecutionError(f"expected a literal, found {expr}")
    return expr.value
