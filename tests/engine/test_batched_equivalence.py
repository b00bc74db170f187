"""Differential equivalence harness for set-oriented execution.

The contract: batching, fusion and the choice of join method are purely
*physical*.  For randomized chain schemas (with a binary join index on
every reference), data, interleaved writes and path queries, every cell
of the {four join methods, forced and unfused} x {object cache on, off}
matrix -- plus the fused (relinked left-deep) forward traversal -- must
return the identical row multiset, and the planner's own plans (which
also exercise the plan cache) must agree too.  With the cache on, the
fused plan must never charge *more* simulated page I/O than the unfused
forward traversal.  With the cache off no such bound holds: a fused hop
charges one read per chase of its whole frontier, which can cost more
than the unfused plan's scan of the tail extent.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import MoodDatabase
from repro.engine.executor import Executor
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import JoinNode
from repro.sql.parser import parse

#: (label, cache_enabled) -- one database per cache setting.
CELLS = (("cache", True), ("paper", False))
METHODS = ("FORWARD_TRAVERSAL", "BACKWARD_TRAVERSAL", "HASH_PARTITION",
           "BINARY_JOIN_INDEX")


def _build(depth, sizes, seed, cache):
    """One database of ``depth + 1`` chained classes with identical data
    for every cache cell: Chain0 is the leaf, each Chain{k} references a
    Chain{k-1} drawn by the shared rng, through a binary join index."""
    db = MoodDatabase(buffer_capacity=16, cache_enabled=cache)
    db.execute("CREATE CLASS Chain0 TUPLE (val Integer, pad String(120))")
    for level in range(1, depth + 1):
        db.execute(
            f"CREATE CLASS Chain{level} TUPLE (val Integer, "
            f"ref REFERENCE (Chain{level - 1}), pad String(120))"
        )
        db.execute(f"CREATE INDEX ref{level} ON Chain{level} (ref) USING join")
    rng = random.Random(seed)
    pad = "x" * 90  # several objects per page, but more pages than frames
    levels = [[
        db.new_object("Chain0", {"val": rng.randrange(8), "pad": pad})
        for _ in range(sizes[0])
    ]]
    for level in range(1, depth + 1):
        levels.append([
            db.new_object(f"Chain{level}", {
                "val": rng.randrange(8),
                "ref": rng.choice(levels[level - 1]),
                "pad": pad,
            })
            for _ in range(sizes[level])
        ])
    db.analyze()
    return db, levels


def _row_key(row):
    return tuple(
        cell.oid if hasattr(cell, "oid") else cell for cell in row
    )


def _multiset(binding_rows):
    return sorted(
        tuple(sorted(
            (var, value.oid if hasattr(value, "oid") else value)
            for var, value in row.items()
        ))
        for row in binding_rows
    )


def _forced_plan(db, sql, method="FORWARD_TRAVERSAL"):
    plan = db.kernel.planner().plan_query(parse(sql))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = method
        for child in node.children():
            force(child)

    force(plan.root)
    return plan


def _forced_cold_run(db, sql, method, fuse=False):
    """Execute ``sql`` with every join forced to ``method`` -- fused when
    ``fuse`` -- from a cold buffer and cold object cache; returns (row
    multiset, charged page I/O)."""
    plan = _forced_plan(db, sql, method)
    if fuse:
        fuse_query_plan(plan)
    db.kernel.objects.invalidate_cache()
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    probe = db.io_probe()
    executor = Executor(
        objects=db.kernel.objects,
        evaluator=db.kernel.evaluator,
        catalog=db.kernel.catalog,
        index_manager=db.kernel.indexes,
    )
    rows = executor.execute_plan(plan)
    return _multiset(rows), db.io_since(probe).page_ios


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    depth=st.integers(min_value=2, max_value=3),
    leaf_size=st.integers(min_value=4, max_value=10),
    mid_size=st.integers(min_value=6, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    op=st.sampled_from(["=", ">", "<"]),
    threshold=st.integers(min_value=0, max_value=7),
    interleave_write=st.booleans(),
)
def test_four_way_matrix_row_equivalence_and_io(
    depth, leaf_size, mid_size, seed, op, threshold, interleave_write,
):
    sizes = [leaf_size] + [mid_size] * depth
    cells = {
        label: _build(depth, sizes, seed, cache) for label, cache in CELLS
    }
    path = ".ref" * depth
    whole = (
        f"SELECT a FROM Chain{depth} a WHERE a{path}.val {op} {threshold}"
    )
    projected = (
        f"SELECT a.val FROM Chain{depth} a "
        f"WHERE a{'.ref' * (depth - 1)}.val {op} {threshold} "
        "ORDER BY a.val"
    )

    if interleave_write:
        # The same committed write lands in every cell before querying:
        # flip one leaf's value so a cached cell replaying stale state
        # would disagree with the uncached ones.
        for db, levels in cells.values():
            victim = levels[0][seed % len(levels[0])]
            victim.state["val"] = (threshold + 1) % 8
            db.save(victim)

    for sql in (whole, projected):
        results = {
            label: sorted(map(_row_key, db.query(sql).rows))
            for label, (db, _) in cells.items()
        }
        baseline = results["paper"]
        for label, rows in results.items():
            assert rows == baseline, (sql, label)

    forced = {
        (label, method, False): _forced_cold_run(db, whole, method)
        for label, (db, _) in cells.items()
        for method in METHODS
    }
    forced.update({
        (label, "FORWARD_TRAVERSAL", True):
            _forced_cold_run(db, whole, "FORWARD_TRAVERSAL", fuse=True)
        for label, (db, _) in cells.items()
    })
    baseline_rows = forced["paper", "FORWARD_TRAVERSAL", False][0]
    for key, (rows, _) in forced.items():
        assert rows == baseline_rows, key

    # Charged I/O: with the cache on, fusion never costs more.
    assert forced["cache", "FORWARD_TRAVERSAL", True][1] <= \
        forced["cache", "FORWARD_TRAVERSAL", False][1]


def test_matrix_agrees_after_ddl_and_restart():
    """A deterministic end-to-end shake: DDL invalidation plus a crash and
    restart leave both cells still agreeing (and both cells run their
    forced plans as the fused, left-deep chain before the fault: the
    planner already emits this chain left-deep, so the relink leaves it
    untouched)."""
    sizes = [6, 9, 9]
    cells = {
        label: _build(2, sizes, seed=99, cache=cache) for label, cache in CELLS
    }
    sql = "SELECT a FROM Chain2 a WHERE a.ref.ref.val > 2"

    for label, (db, _) in cells.items():
        plan = _forced_plan(db, sql)
        assert fuse_query_plan(plan) == 0, label
        joins = [node for node in plan.root.walk()
                 if isinstance(node, JoinNode)]
        assert len(joins) == 2, label
        assert not any(isinstance(join.right, JoinNode) for join in joins)

    baseline = None
    for label, (db, _) in cells.items():
        db.execute(
            "ALTER CLASS Chain0 RENAME ATTRIBUTE val TO score"
        )
        db.kernel.storage.checkpoint()
        db.kernel.storage.crash()
        db.kernel.storage.restart()
        rows = sorted(map(
            _row_key,
            db.query(
                "SELECT a FROM Chain2 a WHERE a.ref.ref.score > 2"
            ).rows,
        ))
        if baseline is None:
            baseline = rows
        assert rows == baseline, label
    assert baseline  # the schema/data make the predicate non-empty
