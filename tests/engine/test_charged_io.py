"""Charged I/O of the deref fast path, join fusion and reclustering.

The simulated disk charges every page access deterministically, so the
savings of PR 2 (object cache + ``deref_many``), PR 6 (fused traversal)
and PR 10 (online reclustering) are exact numbers, asserted here as such.

* Example 8.2's path ``v.drivetrain.engine.cylinders = 2``, forced to
  forward traversals and replayed three times from a cold 4-frame buffer
  over a padded 800/400/400 Vehicle/DriveTrain/Engine base, in the
  {cache off, on} x {unfused, fused} matrix.  Paper mode (cache off,
  unfused) charges one read per chase.  With the cache off, fusion costs
  *more* (each hop's whole frontier is chased before any row is
  filtered); with the cache on it is the cheapest cell.
* PR 10's scattered Widget -> Part traversal (1 200 objects, 32 frames):
  the cold cache-off traversal's charged reads before and after one
  reclustering pass.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import MoodDatabase
from repro.engine.executor import Executor
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import JoinNode
from repro.sql.parser import parse

PATH_SQL = (
    "SELECT v FROM BenchVehicle v WHERE v.drivetrain.engine.cylinders = 2"
)
PASSES = 3


def _path_db(cache_enabled: bool) -> MoodDatabase:
    """Example 8.2's shape with fan-in 2, padded to ~20 records a page
    and scattered so consecutive vehicles chase far-apart pages."""
    db = MoodDatabase(buffer_capacity=4, cache_enabled=cache_enabled)
    db.execute(
        "CREATE CLASS BenchEngine TUPLE (cylinders Integer, "
        "padding String(200))"
    )
    db.execute(
        "CREATE CLASS BenchDrivetrain TUPLE (engine REFERENCE "
        "(BenchEngine), padding String(200))"
    )
    db.execute(
        "CREATE CLASS BenchVehicle TUPLE (id Integer, drivetrain "
        "REFERENCE (BenchDrivetrain))"
    )
    pad = "x" * 150
    engines = [
        db.new_object("BenchEngine", {
            "cylinders": 2 * (1 + i % 8), "padding": pad,
        })
        for i in range(400)
    ]
    drivetrains = [
        db.new_object("BenchDrivetrain", {
            "engine": engines[j * 17 % 400], "padding": pad,
        })
        for j in range(400)
    ]
    for i in range(800):
        db.new_object("BenchVehicle", {
            "id": i, "drivetrain": drivetrains[i * 13 % 400],
        })
    db.analyze()
    return db


#: Vehicle i chases drivetrain 13i mod 400, then engine 17d mod 400, whose
#: cylinder count is 2 exactly when its index is a multiple of 8.
EXPECTED_IDS = [i for i in range(800) if i * 13 % 400 * 17 % 400 % 8 == 0]


def _forced_plan(db, fuse: bool):
    plan = db.kernel.planner().plan_query(parse(PATH_SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    if fuse:
        assert fuse_query_plan(plan) == 1
    return plan


@pytest.mark.parametrize("cache_enabled, fuse, expected_io", [
    (False, False, 1110),
    (False, True, 3990),
    (True, False, 110),
    (True, True, 70),
])
def test_example82_forward_path_charged_io(cache_enabled, fuse, expected_io):
    db = _path_db(cache_enabled)
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    probe = db.io_probe()
    for _ in range(PASSES):
        executor = Executor(
            objects=db.kernel.objects,
            evaluator=db.kernel.evaluator,
            catalog=db.kernel.catalog,
            index_manager=db.kernel.indexes,
        )
        rows = executor.execute_plan(_forced_plan(db, fuse))
    assert db.io_since(probe).page_ios == expected_io
    ids = sorted(row["v"].state["id"] for row in rows)
    assert ids == EXPECTED_IDS and len(ids) == 100


def test_reclustering_cuts_cold_traversal_reads():
    db = MoodDatabase(buffer_capacity=32)
    db.execute("CREATE CLASS Part TUPLE (pid Integer, pad String(240))")
    db.execute(
        "CREATE CLASS Widget TUPLE (wid Integer, part REFERENCE (Part))"
    )
    rng = random.Random(1994)
    parts = [
        db.new_object("Part", {"pid": i, "pad": "x" * 220})
        for i in range(1200)
    ]
    rng.shuffle(parts)
    for i, part in enumerate(parts):
        db.new_object("Widget", {"wid": i, "part": part})
    query = "SELECT w.wid, w.part.pid FROM Widget w"

    def cold_reads():
        """Charged reads of the traversal from a cold buffer with the
        cache off, so every chase pays its own page fetch."""
        db.kernel.storage.checkpoint()
        db.kernel.storage.buffer.drop_all()
        db.set_cache_enabled(False)
        probe = db.io_probe()
        rows = sorted(db.query(query).rows)
        delta = db.io_since(probe)
        db.set_cache_enabled(True)
        return rows, delta.random_reads + delta.sequential_reads

    db.analyze()             # not inside the "before" probe
    rows_before, reads_before = cold_reads()
    db.query(query)          # batched traversal: one frontier per hop
    db.reclusterer.batch_size = 100_000
    stats = db.recluster()
    assert stats["state"] == "ok" and stats["moves"] == 1200
    rows_after, reads_after = cold_reads()

    assert rows_after == rows_before and len(rows_before) == 1200
    assert (reads_before, reads_after) == (784, 94)
