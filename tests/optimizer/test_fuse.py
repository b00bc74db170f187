"""Join fusion as a reorder: which chains are relinked left-deep, what
stays untouched, and how the relink composes with planner temporaries,
the kernel's cache switch and the plan cache."""

from __future__ import annotations

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import (
    BindNode,
    JoinNode,
    NamedRef,
    SelectNode,
)
from repro.optimizer.planner import QueryPlan
from repro.sql.parser import parse

PATH_SQL = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"


@pytest.fixture
def db():
    database = MoodDatabase(buffer_capacity=64)
    build_paper_database(database, scale=60, seed=7)
    database.analyze()
    return database


def _forced_forward(db, sql):
    plan = db.kernel.planner().plan_query(parse(sql))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    for _, temp in plan.temporaries:
        force(temp)
    return plan


def _total_cost(plan):
    return plan.root.total_estimated_cost() + sum(
        temp.total_estimated_cost() for _, temp in plan.temporaries
    )


def _ids(db, plan):
    return sorted(
        row["v"].state["id"]
        for row in db.kernel.analyze_plan(plan).result.binding_rows
    )


def _shape(node):
    """The plan tree as nested tuples of node identities."""
    return (id(node), tuple(_shape(child) for child in node.children()))


def _find(root, node_type):
    found = []

    def walk(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(root)
    return found


def _ft_join(left, right, left_var, attr, right_var, cost=0.0):
    join = JoinNode(
        left, right, "FORWARD_TRAVERSAL",
        f"{left_var}.{attr} = {right_var}.self",
        left_var=left_var, attr=attr, right_var=right_var,
    )
    join.estimated_cost = cost
    return join


def test_planner_chain_fuses_and_answers_unchanged(db):
    """The planner's own right-deep Example 8.2 chain is relinked into a
    left-deep chain of the same two JoinNodes and leaves: the rows match
    the unreshaped plan and EXPLAIN's total cost is unchanged."""
    unreshaped = _forced_forward(db, PATH_SQL)
    baseline = _ids(db, unreshaped)

    plan = _forced_forward(db, PATH_SQL)
    head_join = plan.root.input
    tail_join = head_join.right
    assert isinstance(tail_join, JoinNode)  # right-deep as planned
    d_leaf, e_leaf = tail_join.left, tail_join.right
    cost = _total_cost(plan)
    cardinality = head_join.estimated_cardinality

    assert fuse_query_plan(plan) == 1
    # JOIN(v, JOIN(d, e)) became JOIN(JOIN(v, d), e), node for node.
    assert plan.root.input is tail_join
    assert tail_join.left is head_join and tail_join.right is e_leaf
    assert head_join.right is d_leaf
    assert isinstance(head_join.left, BindNode) and head_join.left.var == "v"
    assert [(j.left_var, j.attr) for j in (head_join, tail_join)] == [
        ("v", "drivetrain"), (d_leaf.var, "engine"),
    ]
    assert {j.method for j in (head_join, tail_join)} == {"FORWARD_TRAVERSAL"}
    assert _total_cost(plan) == pytest.approx(cost)
    assert tail_join.estimated_cardinality == cardinality

    assert _ids(db, plan) == baseline and baseline


def test_left_deep_chain_stays_untouched():
    """The paper's Example 8.1 print shape -- each join's right side is
    the next pipelined leaf -- is already the relinked shape."""
    v = BindNode("Vehicle", "v", ("Vehicle",))
    d = BindNode("VehicleDriveTrain", "d", ("VehicleDriveTrain",))
    e = SelectNode(BindNode("VehicleEngine", "e", ("VehicleEngine",)), ())
    inner = _ft_join(v, d, "v", "drivetrain", "d", cost=10.0)
    outer = _ft_join(inner, e, "d", "engine", "e", cost=20.0)
    plan = QueryPlan(root=outer, output_vars=("v",))
    shape = _shape(outer)

    assert fuse_query_plan(plan) == 0
    assert plan.root is outer and _shape(plan.root) == shape
    assert plan.root.total_estimated_cost() == pytest.approx(30.0)


def test_single_hop_stays_unfused(db):
    """One forward traversal already batches its frontier: a single-hop
    chain keeps its JoinNode shape."""
    plan = _forced_forward(
        db, "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Munich'"
    )
    shape = _shape(plan.root)
    assert fuse_query_plan(plan) == 0
    assert _shape(plan.root) == shape
    assert _find(plan.root, JoinNode)


def test_non_traversal_joins_stay_unfused():
    """A NESTED_LOOP join (no structured triple) is no chain link, on
    either side of a forward traversal."""
    v = BindNode("Vehicle", "v", ())
    d = BindNode("VehicleDriveTrain", "d", ())
    e = BindNode("VehicleEngine", "e", ())
    left_nested = _ft_join(
        JoinNode(v, d, "NESTED_LOOP", "(v.drivetrain = d.self)"),
        e, "d", "engine", "e",
    )
    right_nested = _ft_join(
        v, JoinNode(d, e, "NESTED_LOOP", "(d.engine = e.self)"),
        "v", "drivetrain", "d",
    )
    for root in (left_nested, right_nested):
        plan = QueryPlan(root=root)
        shape = _shape(root)
        assert fuse_query_plan(plan) == 0
        assert plan.root is root and _shape(plan.root) == shape


def test_kernel_fuses_with_cache_disabled(db, monkeypatch):
    """The relink depends on no switch: paper mode (cache off) compiles
    the planner's right-deep chain into the same left-deep chain the
    default mode runs, and answers the same rows."""
    plain_planner = db.kernel.planner

    def forward_planner():
        planner = plain_planner()
        plan_query = planner.plan_query

        def forced(query):
            plan = plan_query(query)
            for node in plan.root.walk():
                if isinstance(node, JoinNode):
                    node.method = "FORWARD_TRAVERSAL"
            return plan

        planner.plan_query = forced
        return planner

    monkeypatch.setattr(db.kernel, "planner", forward_planner)
    rows = {}
    for cache_enabled in (True, False):
        db.set_cache_enabled(cache_enabled)
        result = db.query(PATH_SQL)
        rows[cache_enabled] = sorted(
            row["v"].state["id"] for row in result.binding_rows
        )
        assert "FUSE" in {event.operator for event in result.trace}
        chain = db.kernel.last_plan.root.input
        assert isinstance(chain.left, JoinNode)
        assert not any(isinstance(node.right, JoinNode)
                       for node in chain.walk()
                       if isinstance(node, JoinNode))
    assert rows[True] == rows[False] and rows[True]


def test_reshape_inside_planner_temporary(db):
    """A right-deep chain inside temporary T1 is relinked behind the
    root's NamedRef: every NamedRef keeps pointing at the plan stored in
    ``plan.temporaries``, and the rows match the unreshaped plan with the
    cache on and off."""
    sql = (
        "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2 "
        "AND v.drivetrain.transmission = 'AUTOMATIC'"
    )
    for cache_enabled in (True, False):
        db.set_cache_enabled(cache_enabled)
        baseline = _ids(db, _forced_forward(db, sql))

        plan = _forced_forward(db, sql)
        assert [name for name, _ in plan.temporaries] == ["T1"]
        (_, old_temp), = plan.temporaries
        assert isinstance(old_temp.right, JoinNode)  # right-deep in T1
        cost = _total_cost(plan)

        assert fuse_query_plan(plan) == 1
        temps = dict(plan.temporaries)
        assert temps["T1"] is not old_temp
        assert isinstance(temps["T1"].left, JoinNode)  # left-deep now
        refs = [node for node in plan.root.walk()
                if isinstance(node, NamedRef)]
        assert refs and all(ref.plan is temps[ref.name] for ref in refs)
        assert _total_cost(plan) == pytest.approx(cost)
        assert _ids(db, plan) == baseline and baseline


def test_cache_toggle_invalidates_plan_cache(db):
    """The runtime toggle governs the plan cache the way the constructor
    flag does: turning the cache off drops every cached plan and stops
    reuse, so a repeated SELECT recompiles instead of hitting."""
    db.query(PATH_SQL)
    db.query(PATH_SQL)
    cache = db.kernel.plan_cache
    assert len(cache) >= 1 and cache.stats()["hits"] >= 1

    db.set_cache_enabled(False)
    assert len(cache) == 0
    fresh = MoodDatabase(cache_enabled=False).kernel.plan_cache
    assert cache.stats()["enabled"] == fresh.stats()["enabled"] == 0
    hits = cache.stats()["hits"]
    assert db.query(PATH_SQL).rows == db.query(PATH_SQL).rows
    assert cache.stats()["hits"] == hits and len(cache) == 0

    db.set_cache_enabled(True)
    db.query(PATH_SQL)
    db.query(PATH_SQL)
    assert cache.stats()["hits"] == hits + 1
