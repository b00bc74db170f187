"""The PR 4 telemetry primitives: bucketed histogram percentiles, the
bounded event journal, statement/slow-query rings, and the Prometheus
text round-trip."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventJournal
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_histogram_dumps,
    summarize_dump,
)
from repro.obs.promtext import (
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    SlowQueryLog,
    StatementLog,
    StatementTrace,
    new_trace_id,
    server_trace_id,
    truncate_statement,
)


# --------------------------------------------------------------------------
# Bucketed histograms
# --------------------------------------------------------------------------

class TestHistogramPercentiles:
    def test_empty_histogram_reports_zeroes(self):
        h = Histogram("t")
        assert h.percentiles() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_single_value_every_percentile_is_that_value(self):
        h = Histogram("t")
        h.observe(7.5)
        p = h.percentiles()
        assert p["count"] == 1
        assert p["p50"] == pytest.approx(7.5)
        assert p["p99"] == pytest.approx(7.5)

    def test_uniform_distribution_percentiles_are_ordered_and_close(self):
        h = Histogram("t")
        for i in range(1, 1001):
            h.observe(i / 10.0)          # 0.1 .. 100.0 ms, uniform
        p = h.percentiles()
        assert p["count"] == 1000
        assert p["p50"] <= p["p95"] <= p["p99"]
        # Bucketed estimation: within a bucket's width of the true value.
        assert p["p50"] == pytest.approx(50.0, rel=0.30)
        assert p["p99"] == pytest.approx(99.0, rel=0.30)

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram("t")
        for _ in range(100):
            h.observe(3.0)
        p = h.percentiles()
        # All mass in one bucket: interpolation must not leave [min, max].
        assert p["p50"] == pytest.approx(3.0)
        assert p["p95"] == pytest.approx(3.0)
        assert p["p99"] == pytest.approx(3.0)

    def test_outliers_beyond_last_bound_still_counted(self):
        h = Histogram("t")
        h.observe(10.0)
        h.observe(1e9)                   # beyond the last bucket bound
        p = h.percentiles()
        assert p["count"] == 2
        assert p["p99"] <= 1e9
        assert h.max == 1e9

    def test_mean_preserved_exactly(self):
        h = Histogram("t")
        for value in (1.0, 2.0, 3.0, 10.0):
            h.observe(value)
        assert h.mean == pytest.approx(4.0)

    def test_cumulative_buckets_end_at_total_count(self):
        h = Histogram("t")
        for value in (0.1, 1.0, 100.0, 1e7):
            h.observe(value)
        buckets = h.cumulative_buckets()
        assert buckets[-1][0] == float("inf")
        assert buckets[-1][1] == 4
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative = monotone


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=200,
    ),
)
def test_federated_histogram_summary_is_exact(shards, stream):
    """Summing per-shard dumps loses nothing: the merged summary is the
    summary of one histogram fed the whole stream."""
    whole = Histogram("whole")
    parts = [Histogram(f"shard{i}") for i in range(shards)]
    for value, shard in stream:
        whole.observe(value)
        parts[shard % shards].observe(value)
    merged = merge_histogram_dumps([part.dump() for part in parts])
    federated = summarize_dump(merged)
    expected = whole.percentiles()
    for key in ("count", "p50", "p95", "p99"):
        assert federated[key] == expected[key]
    assert federated["mean"] == pytest.approx(expected["mean"])


# --------------------------------------------------------------------------
# Event journal
# --------------------------------------------------------------------------

class TestEventJournal:
    def test_ring_evicts_oldest_and_counts_dropped(self):
        journal = EventJournal(capacity=8)
        for i in range(20):
            journal.emit("test.kind", index=i)
        assert len(journal) == 8
        assert journal.dropped == 12
        kept = journal.recent()
        assert [e.fields["index"] for e in kept] == list(range(12, 20))
        # seq survives eviction: monotone and gap-free across the ring.
        assert [e.seq for e in kept] == list(range(13, 21))

    def test_of_kind_filters(self):
        journal = EventJournal(capacity=16)
        journal.emit("lock.wait", resource="r")
        journal.emit("wal.checkpoint", lsn=1)
        journal.emit("lock.wait", resource="s")
        assert len(journal.of_kind("lock.wait")) == 2
        assert len(journal.of_kind("wal.checkpoint")) == 1

    def test_detail_renders_fields(self):
        journal = EventJournal()
        journal.emit("lock.deadlock", victim=7, resource="('file', 3)")
        event = journal.recent()[-1]
        assert "victim=7" in event.detail()
        assert event.kind == "lock.deadlock"

    def test_concurrent_emit_is_safe(self):
        journal = EventJournal(capacity=64)

        def hammer(tag):
            for i in range(200):
                journal.emit("race", tag=tag, i=i)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal) == 64
        assert journal.dropped == 4 * 200 - 64
        seqs = [e.seq for e in journal.recent()]
        assert seqs == sorted(seqs)


# --------------------------------------------------------------------------
# Statement / slow-query rings
# --------------------------------------------------------------------------

def _trace(trace_id: str, total_ms: float) -> StatementTrace:
    return StatementTrace(
        trace_id=trace_id, session_id=1, statement="SELECT 1",
        kind="SELECT", total_ms=total_ms,
    )


class TestStatementLogs:
    def test_trace_ids_are_unique_and_compact(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(i) == 16 for i in ids)
        assert server_trace_id() != server_trace_id()

    def test_statement_log_is_a_newest_first_ring(self):
        log = StatementLog(capacity=4)
        for i in range(6):
            log.record(_trace(f"t{i}", float(i)))
        recent = log.recent()
        assert [t.trace_id for t in recent] == ["t5", "t4", "t3", "t2"]
        assert log.find("t4") is not None
        assert log.find("t0") is None   # evicted

    def test_slow_log_records_only_over_threshold(self):
        slow = SlowQueryLog(threshold_ms=100.0, capacity=8)
        assert not slow.consider(_trace("fast", 5.0))
        assert slow.consider(_trace("slow-a", 150.0))
        assert slow.consider(_trace("slow-b", 500.0))
        assert len(slow) == 2
        top = slow.top(10)
        assert [t.trace_id for t in top] == ["slow-b", "slow-a"]

    def test_truncate_statement_collapses_and_bounds(self):
        text = "SELECT   x\n  FROM " + "y" * 500
        out = truncate_statement(text)
        assert len(out) <= 200
        assert out.endswith("...")
        assert "\n" not in out

    def test_trace_row_is_flat_and_json_safe(self):
        import json
        row = _trace("abc", 12.3456).row()
        json.dumps(row)                  # no objects, no spans
        assert row["total_ms"] == 12.346
        assert row["trace_id"] == "abc"


# --------------------------------------------------------------------------
# Prometheus exposition
# --------------------------------------------------------------------------

class TestPrometheusText:
    def test_metric_name_sanitizes(self):
        assert metric_name("server.statement_ms") == \
            "mood_server_statement_ms"
        assert metric_name("server.admission.queue_wait_ms") == \
            "mood_server_admission_queue_wait_ms"

    def test_render_and_parse_round_trip(self):
        registry = MetricsRegistry()
        server = registry.component("server")
        server.counter("statements").inc(42)
        histogram = server.histogram("statement_ms")
        for value in (1.0, 2.0, 3.0, 50.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE mood_server_statements counter" in text
        assert "# TYPE mood_server_statement_ms summary" in text
        assert 'quantile="0.99"' in text
        parsed = parse_prometheus(text)
        assert parsed["mood_server_statements"] == 42.0
        assert parsed["mood_server_statement_ms_count"] == 4.0
        assert parsed["mood_server_statement_ms_sum"] == \
            pytest.approx(56.0)
        p99 = parsed['mood_server_statement_ms{quantile="0.99"}']
        assert 0.0 < p99 <= 50.0

    def test_every_line_is_wellformed(self):
        registry = MetricsRegistry()
        registry.component("disk").counter("page_reads").inc()
        registry.component("server").histogram("statement_ms").observe(1.0)
        for line in render_prometheus(registry).splitlines():
            assert line.startswith("#") or " " in line
