"""S-recluster -- does online reclustering pay on its own showcase?

The decision rule (ROADMAP item 9): keep the reclusterer only if a 5 %
selective traversal with the object cache on runs at least 2x faster
after one reclustering pass, and the pass's relocation I/O pays for
itself within 1 000 such traversals.

The base is the scattered Widget -> Part showcase: 1 200 Parts padded to
~15 a page and shuffled, so Widget ``i`` points at a random Part, and a
32-frame buffer.  Each cell builds a fresh base, collects statistics,
then runs its traversal cold -- checkpoint, empty buffer, fresh object
cache -- once before and once after a reclustering pass that the "before"
traversal trained.  The two numbers are Darmont & Gruenwald's: page
reads per traversal (gain) and relocation I/O (overhead, the pass plus
the checkpoint that writes its pages).  Every figure is the simulated
disk's charge, so two runs print the same bytes.
"""

from __future__ import annotations

import math
import random

from repro.bench.reporting import emit, table
from repro.core.database import MoodDatabase

PARTS = 1200
FRAMES = 32
FULL = "SELECT w.wid, w.part.pid FROM Widget w"
SELECTIVE = FULL + " WHERE w.wid < 60"
TRAVERSALS = (("full", FULL), ("wid < 60", SELECTIVE))


def build(cache: bool) -> MoodDatabase:
    """The showcase base, with statistics already collected."""
    db = MoodDatabase(buffer_capacity=FRAMES, cache_enabled=cache)
    db.execute("CREATE CLASS Part TUPLE (pid Integer, pad String(240))")
    db.execute(
        "CREATE CLASS Widget TUPLE (wid Integer, part REFERENCE (Part))"
    )
    parts = [
        db.new_object("Part", {"pid": i, "pad": "x" * 220})
        for i in range(PARTS)
    ]
    random.Random(1994).shuffle(parts)
    for i, part in enumerate(parts):
        db.new_object("Widget", {"wid": i, "part": part})
    db.analyze()
    return db


def cold_traversal(db: MoodDatabase, sql: str):
    """Rows and charged I/O of ``sql`` from a checkpointed, empty buffer
    and a fresh object cache (a warm one would keep the Parts a
    relocation re-homed, and hide their pages)."""
    storage = db.kernel.storage
    storage.checkpoint()
    storage.buffer.drop_all()
    if db.object_cache is not None:
        db.set_cache_enabled(False)
        db.set_cache_enabled(True)
    probe = db.io_probe()
    rows = sorted(db.query(sql).rows)
    return rows, db.io_since(probe)


def measure_cell(sql: str, cache: bool) -> dict:
    """One cell: the cold traversal before and after one pass, and the
    pass's relocation I/O."""
    db = build(cache)
    rows_before, before = cold_traversal(db, sql)
    probe = db.io_probe()
    moves = db.recluster()["moves"]
    db.kernel.storage.checkpoint()
    relocation = db.io_since(probe)
    rows_after, after = cold_traversal(db, sql)
    assert rows_after == rows_before
    saved = before.elapsed_ms - after.elapsed_ms
    return {
        "pages_before": before.page_reads,
        "ms_before": before.elapsed_ms,
        "pages_after": after.page_reads,
        "ms_after": after.elapsed_ms,
        "moves": moves,
        "reloc_reads": relocation.page_reads,
        "reloc_writes": relocation.page_writes,
        "reloc_ms": relocation.elapsed_ms,
        # Traversals until the saved I/O covers the relocation; None when
        # the pass saved nothing.
        "payoff": math.ceil(relocation.elapsed_ms / saved) if saved > 0
        else None,
    }


def test_shape_recluster(benchmark):
    def measure_all():
        return [
            (label, cache, measure_cell(sql, cache))
            for label, sql in TRAVERSALS
            for cache in (False, True)
        ]

    cells = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    rows = [
        [label, "on" if cache else "off",
         cell["pages_before"], f"{cell['ms_before']:.1f}",
         cell["pages_after"], f"{cell['ms_after']:.1f}",
         f"{cell['ms_before'] / cell['ms_after']:.2f}x", cell["moves"],
         cell["reloc_reads"], cell["reloc_writes"],
         f"{cell['reloc_ms']:.1f}",
         "never" if cell["payoff"] is None else cell["payoff"]]
        for label, cache, cell in cells
    ]
    emit(
        "shape_recluster",
        f"Widget -> Part showcase ({PARTS} shuffled Parts, {FRAMES} "
        "frames): cold traversal before and after one reclustering pass\n"
        + table(["traversal", "cache", "pages before", "ms before",
                 "pages after", "ms after", "gain", "moves",
                 "reloc reads", "reloc writes", "reloc ms",
                 "payoff (traversals)"], rows)
        + "\n\nrule: keep the reclusterer while the cached wid < 60 cell "
        "gains >= 2x in ms\nand pays off within 1 000 traversals.",
    )
