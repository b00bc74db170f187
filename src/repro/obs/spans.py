"""Structured trace spans mirroring the plan tree.

The executor's flat :class:`~repro.engine.executor.TraceEvent` list records
*that* operators ran in Figure 7.2 order; spans additionally record what
each operator *cost*.  A :class:`SpanRecorder` attached to the executor
opens one :class:`Span` per plan node: rows produced, the charged simulated
I/O of the node's subtree (a :class:`~repro.storage.disk.IOStats` delta),
and wall-clock time, nested exactly like the plan tree.  ``self_io`` /
``self_wall_ms`` subtract the children, giving per-operator figures that the
``EXPLAIN ANALYZE`` report compares against per-node estimated costs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

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
from repro.storage.disk import IOStats


def describe_node(node: PlanNode) -> tuple[str, str]:
    """Map a plan node to its span's ``(operator, detail)`` labels."""
    if isinstance(node, BindNode):
        return "BIND", f"{node.class_name}, {node.var}"
    if isinstance(node, IndSelNode):
        return "INDSEL", f"{node.class_name}, {node.var}"
    if isinstance(node, SelectNode):
        return "SELECT", " AND ".join(str(p) for p in node.predicates)
    if isinstance(node, NamedRef):
        return "TEMP", node.name
    if isinstance(node, JoinNode):
        return "JOIN", f"{node.method}, {node.predicate_text}"
    if isinstance(node, ProjectNode):
        return "PROJECT", ", ".join(str(p) for p in node.projections) or "*"
    if isinstance(node, UnionNode):
        return "UNION", f"{len(node.inputs)} AND-terms"
    if isinstance(node, PartitionNode):
        return "PARTITION", ", ".join(str(k) for k in node.keys)
    if isinstance(node, DupElimNode):
        return "DUPELIM", ""
    if isinstance(node, SortNode):
        return "SORT", ", ".join(str(k.expr) for k in node.keys)
    return type(node).__name__, ""


@dataclass
class Span:
    """One executed plan operator: labels, cardinality, I/O, timing."""

    operator: str
    detail: str = ""
    node: Any = None                  # the PlanNode that produced the span
    rows_out: int = -1                # -1 until the operator finishes
    io: IOStats | None = None         # charged I/O of the whole subtree
    wall_ms: float = 0.0              # host wall-clock of the whole subtree
    children: list["Span"] = field(default_factory=list)
    trace_id: str | None = None       # the statement trace this belongs to

    # -- subtree vs self ---------------------------------------------------

    def self_io(self) -> IOStats:
        """Charged I/O of this operator minus its children's subtrees."""
        total = self.io.snapshot() if self.io is not None else IOStats()
        for child in self.children:
            if child.io is not None:
                total = total.since(child.io)
        return total

    def self_wall_ms(self) -> float:
        return self.wall_ms - sum(c.wall_ms for c in self.children)

    # -- traversal ---------------------------------------------------------

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, operator: str, detail_contains: str = "") -> "Span | None":
        """First span (pre-order) matching operator and detail substring."""
        for span in self.walk():
            if span.operator == operator and detail_contains in span.detail:
                return span
        return None

    # -- rendering ---------------------------------------------------------

    def render(self, indent: int = 0) -> str:
        io = self.io or IOStats()
        label = f"{self.operator}({self.detail})" if self.detail \
            else self.operator
        line = (
            f"{'    ' * indent}{label} rows={self.rows_out} "
            f"pages={io.page_ios} sim_ms={io.elapsed_ms:.3f} "
            f"wall_ms={self.wall_ms:.3f}"
        )
        return "\n".join(
            [line] + [child.render(indent + 1) for child in self.children]
        )

    def __str__(self) -> str:
        return self.render()


class SpanRecorder:
    """Collects a span tree during plan execution.

    ``io_probe`` returns a cumulative :class:`IOStats` snapshot (typically
    :meth:`repro.storage.manager.StorageManager.io_snapshot`); each span's
    ``io`` is the delta across its lifetime.
    """

    def __init__(
        self,
        io_probe: Callable[[], IOStats] | None = None,
        trace_id: str | None = None,
    ):
        self.io_probe = io_probe
        self.trace_id = trace_id
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, operator: str, detail: str = "", node: Any = None):
        span = Span(operator, detail, node, trace_id=self.trace_id)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        before = self.io_probe() if self.io_probe is not None else None
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_ms = (time.perf_counter() - started) * 1000.0
            if before is not None:
                span.io = self.io_probe().since(before)
            self._stack.pop()

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def render(self) -> str:
        return "\n".join(root.render() for root in self.roots)
