"""Observability of set-oriented execution: a fused chain's two
FORWARD_TRAVERSAL join spans carry true actuals in EXPLAIN ANALYZE, the
report's cache line counts one batch per hop, and the statement-level
surfaces (SYS$STATEMENTS, span reports) stay consistent when the
executor runs batched."""

from __future__ import annotations

import pytest

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.obs.trace import StatementTrace, new_trace_id
from repro.optimizer.fuse import fuse_query_plan
from repro.optimizer.plan import JoinNode
from repro.sql.parser import parse

SQL = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"

@pytest.fixture
def db():
    database = MoodDatabase(buffer_capacity=32)
    build_paper_database(database, scale=60, seed=7)
    database.analyze()
    return database


def _fused_plan(db):
    plan = db.kernel.planner().plan_query(parse(SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    assert fuse_query_plan(plan) == 1
    return plan


def _cold(db):
    db.kernel.objects.invalidate_cache()
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()


def _join_spans(result):
    """The FORWARD_TRAVERSAL join spans, top of the chain first."""
    return [
        span
        for root in result.spans
        for span in root.walk()
        if span.operator == "JOIN" and "FORWARD_TRAVERSAL" in span.detail
    ]


def test_fused_span_reports_hop_batches_and_actuals(db):
    _cold(db)
    result = db.kernel.analyze_plan(_fused_plan(db))
    spans = _join_spans(result)
    assert len(spans) == 2
    top, inner = spans
    assert "d.engine = e.self" in top.detail
    assert "v.drivetrain = d.self" in inner.detail

    # The rows chain from one hop to the next: the head hop reads the
    # whole Vehicle BIND, and its output is the tail hop's only input.
    assert top.children == [inner]
    bind, = inner.children
    assert bind.operator == "BIND" and "Vehicle, v" in bind.detail
    assert bind.rows_out >= inner.rows_out >= top.rows_out

    # The spans' actuals are the real execution figures: the top rows_out
    # equals the query's answer, and the cold chase charged page I/O.
    answer = len(result.result.binding_rows)
    assert top.rows_out == answer > 0
    assert top.io is not None and top.io.page_ios > 0
    assert inner.io is not None and inner.io.page_ios > 0

    # One deref_many per hop: the cache line counts the hop batches.
    text = result.report.render()
    assert "batches=2" in text
    assert f" {answer} " in text or f" {answer}\n" in text


def test_fused_span_actuals_match_unfused_answer(db):
    """The fused chain's rows_out is the same answer the paper-faithful
    execution (cache off, unfused plan) produces -- actuals are never
    shape-dependent."""
    _cold(db)
    fused_result = db.kernel.analyze_plan(_fused_plan(db))

    db.set_cache_enabled(False)
    plan = db.kernel.planner().plan_query(parse(SQL))

    def force(node):
        if isinstance(node, JoinNode):
            node.method = "FORWARD_TRAVERSAL"
        for child in node.children():
            force(child)

    force(plan.root)
    _cold(db)
    unbatched = db.kernel.analyze_plan(plan)

    fused_ids = sorted(
        row["v"].state["id"] for row in fused_result.result.binding_rows
    )
    unbatched_ids = sorted(
        row["v"].state["id"] for row in unbatched.result.binding_rows
    )
    assert fused_ids == unbatched_ids and fused_ids


def test_sys_statements_row_consistent_with_fused_spans(db):
    """A statement trace recorded from a fused execution surfaces through
    SYS$STATEMENTS with rows/io_pages equal to its span-tree actuals, and
    its span report renders both FORWARD_TRAVERSAL joins."""
    _cold(db)
    result = db.kernel.analyze_plan(_fused_plan(db))
    root = result.spans[0]
    assert root.io is not None
    trace_id = new_trace_id()
    db.kernel.statement_log.record(StatementTrace(
        trace_id=trace_id,
        session_id=1,
        statement=SQL,
        kind="SELECT",
        rows=len(result.result.binding_rows),
        io_pages=root.io.page_ios,
        spans=result.spans,
    ))

    view = db.kernel.execute(
        "SELECT s.rows, s.io_pages FROM SYS$STATEMENTS s "
        f"WHERE s.trace_id = '{trace_id}'"
    )
    assert len(view.rows) == 1
    rows, io_pages = view.rows[0]
    assert rows == root.rows_out == len(result.result.binding_rows)
    assert io_pages == root.io.page_ios > 0

    report = db.kernel.statement_log.find(trace_id).span_report()
    assert report.count("JOIN(FORWARD_TRAVERSAL") == 2
    assert f"rows={rows}" in report
