"""Property tests for Algorithm 8.1 (the F/(1-s) path-ordering theorem).

Randomised (seeded) small schemas exercise the Appendix lemma from two
directions:

* analytically -- ``rank_order`` must match the brute-force optimal
  permutation of the objective f = F1 + s1*F2 + s1*s2*F3 + ...;
* empirically -- for two-predicate instances, both traversal orders are
  *executed* as hand-built FORWARD_TRAVERSAL plans against the simulated
  disk, and the order Algorithm 8.1 picks must charge the least measured
  I/O (up to ties within 2%).

Only the standard library's ``random`` is used (seeded; no new deps).
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import MoodDatabase
from repro.optimizer.plan import BindNode, JoinNode, SelectNode
from repro.optimizer.planner import QueryPlan
from repro.optimizer.paths import brute_force_order, objective, rank_order
from repro.sql.parser import parse

SEED = 0x81
ANALYTIC_TRIALS = 200
MEASURED_TRIALS = 5


# -- analytic property ------------------------------------------------------


def test_rank_order_matches_brute_force_objective():
    """On random (F, s) instances of size 2..6, ascending F/(1-s) achieves
    the brute-force optimal objective (ties allowed)."""
    rng = random.Random(SEED)
    for _ in range(ANALYTIC_TRIALS):
        m = rng.randint(2, 6)
        costs = [rng.uniform(0.1, 1000.0) for _ in range(m)]
        sels = [rng.uniform(0.0, 0.999) for _ in range(m)]
        ranked = rank_order(costs, sels)
        _, best = brute_force_order(costs, sels)
        assert objective(costs, sels, ranked) == pytest.approx(best)


def test_rank_order_handles_selectivity_one():
    """s >= 1 never shrinks the stream; such predicates rank last."""
    costs = [10.0, 500.0, 20.0]
    sels = [1.0, 0.5, 0.25]
    assert rank_order(costs, sels)[-1] == 0


# -- measured property ------------------------------------------------------


SCHEMA = [
    """CREATE CLASS TargetA TUPLE (
        x Integer,
        pad String(1600)
    )""",
    """CREATE CLASS TargetB TUPLE (
        y Integer,
        pad String(1600)
    )""",
    """CREATE CLASS Source TUPLE (
        a REFERENCE (TargetA),
        b REFERENCE (TargetB)
    )""",
]

PAD = "x" * 1500  # ~2 target records per 4 KiB page: chases really hit disk


def _build_instance(rng):
    """A Source extent whose two reference attributes have random presence
    (null references cost nothing to chase) and random match selectivity.
    Targets are padded to spread over many pages and assigned in shuffled
    order, so a pointer chase is an honest random page access."""
    db = MoodDatabase(buffer_capacity=2)
    for ddl in SCHEMA:
        db.execute(ddl)
    n = rng.randint(30, 60)
    sel_a = rng.uniform(0.1, 0.9)
    sel_b = rng.uniform(0.1, 0.9)
    presence_a = rng.uniform(0.3, 1.0)
    presence_b = rng.uniform(0.3, 1.0)
    targets_a = [
        db.new_object("TargetA",
                      {"x": 1 if rng.random() < sel_a else 0, "pad": PAD})
        for _ in range(n)
    ]
    targets_b = [
        db.new_object("TargetB",
                      {"y": 1 if rng.random() < sel_b else 0, "pad": PAD})
        for _ in range(n)
    ]
    rng.shuffle(targets_a)
    rng.shuffle(targets_b)
    for i in range(n):
        db.new_object("Source", {
            "a": targets_a[i] if rng.random() < presence_a else None,
            "b": targets_b[i] if rng.random() < presence_b else None,
        })
    return db, n


def _chase_plan(order):
    """Hand-built plan executing the path predicates in ``order``: nested
    FORWARD_TRAVERSAL joins chasing r.a into SELECT(TargetA, x = 1) and
    r.b into SELECT(TargetB, y = 1)."""
    legs = {
        "a": ("TargetA", "pa", parse(
            "SELECT pa FROM TargetA pa WHERE pa.x = 1").where),
        "b": ("TargetB", "pb", parse(
            "SELECT pb FROM TargetB pb WHERE pb.y = 1").where),
    }
    node = BindNode(class_name="Source", var="r")
    for attr in order:
        target, var, pred = legs[attr]
        node = JoinNode(
            left=node,
            right=SelectNode(input=BindNode(class_name=target, var=var),
                             predicates=(pred,)),
            method="FORWARD_TRAVERSAL",
            predicate_text=f"r.{attr} = {var}.self",
            left_var="r", attr=attr, right_var=var,
        )
    return QueryPlan(root=node, output_vars=("r",))


def _measure(db, order) -> float:
    """Simulated ms charged by executing the predicates in ``order`` on a
    cold buffer, counting only the pointer chases (the shared Source scan
    is identical for both orders)."""
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    result = db.kernel.analyze_plan(_chase_plan(order))
    return sum(
        line.act_self_ms for line in result.report.lines
        if line.operator == "JOIN"
    )


def test_rank_order_picks_cheapest_measured_traversal():
    """Algorithm 8.1, fed the *measured* per-leg costs and selectivities,
    picks the traversal order with the lowest measured I/O."""
    rng = random.Random(SEED)
    trials = 0
    while trials < MEASURED_TRIALS:
        db, n = _build_instance(rng)

        # Per-leg facts, measured from the data itself: F_i is the charged
        # cost of running leg i alone; s_i the fraction of sources that
        # survive its predicate (a null reference never survives).
        sources = db.extent("Source")
        facts = {}
        for attr, field in (("a", "x"), ("b", "y")):
            survivors = sum(
                1 for s in sources
                if s.state.get(attr) is not None
                and db.get(s.state[attr]).state[field] == 1
            )
            facts[attr] = (_measure(db, [attr]), survivors / len(sources))
        costs = [facts["a"][0], facts["b"][0]]
        sels = [facts["a"][1], facts["b"][1]]
        if min(sels) == 0.0:
            continue  # degenerate draw: nothing survives; redraw
        trials += 1

        ranked = [("a", "b")[i] for i in rank_order(costs, sels)]
        measured = {
            order: _measure(db, list(order))
            for order in (("a", "b"), ("b", "a"))
        }
        best = min(measured.values())
        # The ranked order must be measurably optimal, with a 5% tie
        # margin: the theorem assumes independent selectivities and
        # uniform chase costs; the data only approximates both.
        assert measured[tuple(ranked)] <= best * 1.05, (
            f"n={n} costs={costs} sels={sels} measured={measured}"
        )
