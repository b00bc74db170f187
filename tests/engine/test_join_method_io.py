"""Charged I/O of the four implicit-join methods (Section 6), pinned.

The four methods return the same rows and differ only in how their I/O is
charged.  Example 8.2's path over the padded base of
``test_charged_io`` -- with binary join indexes on both reference
attributes -- is forced to each method, left unfused, and replayed three
times from a cold 4-frame buffer, with the object cache off and on.
"""

from __future__ import annotations

import pytest

from repro.engine.executor import Executor
from repro.optimizer.plan import JoinNode
from repro.sql.parser import parse
from tests.engine.test_charged_io import (
    EXPECTED_IDS,
    PASSES,
    PATH_SQL,
    _path_db,
)


def _forced_plan(db, method: str):
    plan = db.kernel.planner().plan_query(parse(PATH_SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = method
        for child in node.children():
            force(child)

    force(plan.root)
    return plan


# Cells whose page-ordered frontier reads through short gaps instead of
# seeking: (pages read through, charged ms).  Their expected_io counts
# demand I/O, ``page_ios - read_through``; every other cell reads through
# nothing.  Cache-on HASH_PARTITION charged 3 941.80 ms seeking every gap.
READ_THROUGH = {(True, "HASH_PARTITION"): (150, 1489.49)}


@pytest.mark.parametrize("cache_enabled, method, expected_io", [
    (False, "FORWARD_TRAVERSAL", 1110),
    (False, "BACKWARD_TRAVERSAL", 150),
    (False, "HASH_PARTITION", 981),
    (False, "BINARY_JOIN_INDEX", 8514),
    (True, "FORWARD_TRAVERSAL", 110),
    (True, "BACKWARD_TRAVERSAL", 150),
    (True, "HASH_PARTITION", 539),
    (True, "BINARY_JOIN_INDEX", 7514),
])
def test_join_method_charged_io(cache_enabled, method, expected_io):
    db = _path_db(cache_enabled)
    db.execute("CREATE INDEX vd ON BenchVehicle (drivetrain) USING join")
    db.execute("CREATE INDEX de ON BenchDrivetrain (engine) USING join")
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
        rows = executor.execute_plan(_forced_plan(db, method))
    delta = db.io_since(probe)
    read_through, elapsed_ms = READ_THROUGH.get(
        (cache_enabled, method), (0, None))
    assert delta.read_through == read_through
    assert delta.page_ios - delta.read_through == expected_io
    if elapsed_ms is not None:
        assert delta.elapsed_ms == pytest.approx(elapsed_ms)
    assert sorted(row["v"].state["id"] for row in rows) == EXPECTED_IDS
