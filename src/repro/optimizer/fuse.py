"""Join fusion as a reorder: relink right-deep forward chains left-deep.

A path query like Example 8.2's ``v.drivetrain.engine.cylinders = 2``
plans as a chain of FORWARD_TRAVERSAL joins over pipelined leaves (a
BIND, optionally under a residual SELECT).  Algorithm 8.2's greedy
ordering may emit the chain **right-deep** -- the most selective tail
join first, ``JOIN(v, JOIN(d, leaf(e)))`` with ``v.drivetrain =
d.self`` -- and the executor then scans the whole ``d`` extent to build
rows the head join mostly discards.

Following the select + navigate fusion of Odra (PAPERS.md), what fusing
the chain changes is the *order* of the chases: from the head's rows,
chase one hop's frontier at a time, applying each leaf's include filter
and residual predicates as the hop lands.  That is exactly the
**left-deep** chain ``JOIN(JOIN(v, leaf(d)), leaf(e))`` run by the
ordinary FORWARD_TRAVERSAL kernel, one ``deref_many`` per hop.  So this
pass relinks the planner's own ``JoinNode``s and leaves into that shape
and adds no operator: every node keeps its planner cost, so EXPLAIN's
``total_estimated_cost()`` is unchanged, and the chain's top join keeps
the chain's estimated cardinality.

The kernel applies the pass to every plan, *after* cost-based planning
and *before* the plan-cache store, so relinked plans are cached and
invalidated by the same schema/stats stamps as any other plan.  Chains
that are already left-deep, or have one hop, come back untouched.
"""

from __future__ import annotations

from repro.optimizer.plan import (
    BindNode,
    DupElimNode,
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

#: (join, leaf) in chase order: ``join`` chases into ``leaf``.
Links = list[tuple[JoinNode, PlanNode]]


def fuse_query_plan(plan: QueryPlan) -> int:
    """Relink right-deep forward-traversal chains in ``plan`` left-deep
    (in place, including temporaries); returns the number of chains
    relinked."""
    state = _RelinkState()
    rewritten: list[tuple[str, PlanNode]] = []
    for name, temp in plan.temporaries:
        new_temp = state.rewrite(temp)
        if new_temp is not temp:
            state.replaced[id(temp)] = new_temp
        rewritten.append((name, new_temp))
    plan.temporaries = rewritten
    plan.root = state.rewrite(plan.root)
    return state.relinked


def _leaf_var(node: PlanNode) -> str | None:
    """The variable a pipelined leaf binds -- a BIND, or a SELECT
    directly over one -- else ``None``."""
    if isinstance(node, SelectNode):
        node = node.input
    return node.var if isinstance(node, BindNode) else None


def _chain(node: PlanNode) -> tuple[PlanNode, Links] | None:
    """``(base, links)`` when ``node`` tops a forward-traversal chain:
    ``base`` is the subtree the first hop chases from, and every hop
    lands on a pipelined leaf binding the join's right variable.  A
    right side that is itself such a chain (the right-deep shape) is
    spliced in after the join that chases into its head."""
    if not (isinstance(node, JoinNode)
            and node.method == "FORWARD_TRAVERSAL"
            and None not in (node.left_var, node.attr, node.right_var)):
        return None
    base, links = _chain(node.left) or (node.left, [])
    head, tail = _chain(node.right) or (node.right, [])
    if _leaf_var(head) != node.right_var:
        return None
    return base, links + [(node, head)] + tail


class _RelinkState:
    def __init__(self):
        self.relinked = 0
        #: id(old temporary plan) -> its relinked root, so NamedRef
        #: nodes keep pointing at the plan that is actually in the list.
        self.replaced: dict[int, PlanNode] = {}

    def rewrite(self, node: PlanNode) -> PlanNode:
        chain = _chain(node)
        if chain is not None:
            base, links = chain
            right_deep = any(join.right is not leaf for join, leaf in links)
            top: PlanNode = self.rewrite(base)
            for join, leaf in links:
                join.left, join.right = top, leaf
                top = join
            if right_deep:
                top.estimated_cardinality = node.estimated_cardinality
                self.relinked += 1
            return top
        if isinstance(node, NamedRef):
            if node.plan is not None and id(node.plan) in self.replaced:
                node.plan = self.replaced[id(node.plan)]
            return node
        if isinstance(node, JoinNode):
            node.left = self.rewrite(node.left)
            node.right = self.rewrite(node.right)
        elif isinstance(node, (SelectNode, ProjectNode, SortNode,
                               PartitionNode, DupElimNode)):
            node.input = self.rewrite(node.input)
        elif isinstance(node, UnionNode):
            node.inputs = tuple(
                self.rewrite(child) for child in node.inputs
            )
        return node
