"""Access-plan nodes, printed in the paper's plan notation.

Example 8.1's plan renders exactly in the paper's style::

    JOIN(
        JOIN(
            T1,
            BIND(VehicleDriveTrain, d),
            FORWARD_TRAVERSAL,
            v.drivetrain = d.self),
        SELECT(BIND(VehicleEngine, e), e.cylinders = 2),
        FORWARD_TRAVERSAL,
        d.engine = e.self)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast import Expr, OrderItem, Path


@dataclass
class PlanNode:
    """Base plan node; estimated cost/cardinality annotate every node."""

    estimated_cost: float = field(default=0.0, init=False)
    estimated_cardinality: float = field(default=0.0, init=False)

    def children(self) -> list["PlanNode"]:
        return []

    def render(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    def total_estimated_cost(self) -> float:
        return self.estimated_cost + sum(
            child.total_estimated_cost() for child in self.children()
        )

    def walk(self):
        """Pre-order traversal of the subtree (temporaries excluded, like
        :meth:`children`)."""
        yield self
        for child in self.children():
            yield from child.walk()


def _pad(indent: int) -> str:
    return "    " * indent


@dataclass
class BindNode(PlanNode):
    """BIND(Class, var): the extent of a class bound to a range variable.

    ``include_classes`` is the resolved IS-A closure (minus exclusions).
    """

    class_name: str
    var: str
    include_classes: tuple[str, ...] = ()

    def render(self, indent: int = 0) -> str:
        return f"{_pad(indent)}BIND({self.class_name}, {self.var})"


@dataclass
class NamedRef(PlanNode):
    """A reference to an already-planned temporary (the paper's T1)."""

    name: str
    plan: PlanNode | None = None

    def children(self) -> list[PlanNode]:
        return []  # the temporary is rendered separately

    def render(self, indent: int = 0) -> str:
        return f"{_pad(indent)}{self.name}"


@dataclass
class SelectNode(PlanNode):
    """SELECT(input, predicate): filter by interpreted predicates."""

    input: PlanNode
    predicates: tuple[Expr, ...]

    def children(self) -> list[PlanNode]:
        return [self.input]

    def render(self, indent: int = 0) -> str:
        preds = " AND ".join(_expr_text(p) for p in self.predicates)
        inner = self.input.render(0)
        if "\n" in inner:
            return (
                f"{_pad(indent)}SELECT(\n"
                f"{self.input.render(indent + 1)},\n"
                f"{_pad(indent + 1)}{preds})"
            )
        return f"{_pad(indent)}SELECT({inner}, {preds})"


@dataclass(frozen=True)
class IndexProbe:
    """One index lookup inside an INDSEL (Section 8.1 may choose several
    indexes and intersect their OID sets)."""

    index_name: str
    index_kind: str
    predicate: Expr


@dataclass
class IndSelNode(PlanNode):
    """INDSEL(Class, var, probes): index-assisted selection; multiple
    probes intersect."""

    class_name: str
    var: str
    probes: tuple[IndexProbe, ...]
    include_classes: tuple[str, ...] = ()

    def render(self, indent: int = 0) -> str:
        probes = "; ".join(
            f"{p.index_name}[{p.index_kind}]: {_expr_text(p.predicate)}"
            for p in self.probes
        )
        return (
            f"{_pad(indent)}INDSEL({self.class_name}, {self.var}, {probes})"
        )


@dataclass
class JoinNode(PlanNode):
    """JOIN(left, right, method, predicate).

    Implicit joins carry the structured ``left_var.attr = right_var.self``
    triple the executor dispatches on; NESTED_LOOP joins carry the raw
    predicate expression instead (``None`` predicate = cross product).
    """

    left: PlanNode
    right: PlanNode
    method: str
    predicate_text: str
    left_var: str | None = None
    attr: str | None = None
    right_var: str | None = None
    predicate_expr: Expr | None = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def render(self, indent: int = 0) -> str:
        return (
            f"{_pad(indent)}JOIN(\n"
            f"{self.left.render(indent + 1)},\n"
            f"{self.right.render(indent + 1)},\n"
            f"{_pad(indent + 1)}{self.method},\n"
            f"{_pad(indent + 1)}{self.predicate_text})"
        )


@dataclass
class ProjectNode(PlanNode):
    input: PlanNode
    projections: tuple[Expr, ...]   # empty = all bound variables

    def children(self) -> list[PlanNode]:
        return [self.input]

    def render(self, indent: int = 0) -> str:
        if self.projections:
            columns = ", ".join(_expr_text(p) for p in self.projections)
        else:
            columns = "*"
        return (
            f"{_pad(indent)}PROJECT(\n"
            f"{self.input.render(indent + 1)},\n"
            f"{_pad(indent + 1)}[{columns}])"
        )


@dataclass
class UnionNode(PlanNode):
    """UNION of per-AND-term subaccess plans (Section 7).

    ``key_vars`` are the query's declared range variables: different
    AND-terms may bind different synthetic chain variables, so duplicate
    elimination keys on the declared ones only.
    """

    inputs: tuple[PlanNode, ...]
    key_vars: tuple[str, ...] = ()

    def children(self) -> list[PlanNode]:
        return list(self.inputs)

    def render(self, indent: int = 0) -> str:
        parts = ",\n".join(node.render(indent + 1) for node in self.inputs)
        return f"{_pad(indent)}UNION(\n{parts})"


@dataclass
class SortNode(PlanNode):
    input: PlanNode
    keys: tuple[OrderItem, ...]

    def children(self) -> list[PlanNode]:
        return [self.input]

    def render(self, indent: int = 0) -> str:
        keys = ", ".join(
            f"{item.expr}{'' if item.ascending else ' DESC'}"
            for item in self.keys
        )
        return (
            f"{_pad(indent)}SORT(\n"
            f"{self.input.render(indent + 1)},\n"
            f"{_pad(indent + 1)}HEAP_SORT_WITH_MERGING, [{keys}])"
        )


@dataclass
class PartitionNode(PlanNode):
    """PARTITION for GROUP BY, optionally filtered by HAVING."""

    input: PlanNode
    keys: tuple[Path, ...]
    having: Expr | None = None

    def children(self) -> list[PlanNode]:
        return [self.input]

    def render(self, indent: int = 0) -> str:
        keys = ", ".join(str(k) for k in self.keys)
        text = (
            f"{_pad(indent)}PARTITION(\n"
            f"{self.input.render(indent + 1)},\n"
            f"{_pad(indent + 1)}[{keys}]"
        )
        if self.having is not None:
            text += f",\n{_pad(indent + 1)}HAVING {_expr_text(self.having)}"
        return text + ")"


@dataclass
class DupElimNode(PlanNode):
    input: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.input]

    def render(self, indent: int = 0) -> str:
        return f"{_pad(indent)}DUPELIM(\n{self.input.render(indent + 1)})"


def _expr_text(expr: Expr) -> str:
    text = str(expr)
    # Strip one redundant outer parenthesis pair for readability.
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for index, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and index < len(text) - 1:
                    return text
        return text[1:-1]
    return text


def render_plan(root: PlanNode, temporaries: list[tuple[str, PlanNode]]
                | None = None) -> str:
    """Render a plan with its temporaries, the way the paper prints
    'T1 : JOIN(...)' followed by the final plan."""
    sections = []
    for name, plan in temporaries or []:
        sections.append(f"{name} : {plan.render(0).lstrip()}"
                        if "\n" not in plan.render(0)
                        else f"{name} :\n{plan.render(1)}")
    sections.append(root.render(0))
    return "\n\n".join(sections)
