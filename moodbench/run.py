"""One timed run of one workload: model-cost replay, set-up, warm-up, one
continuous measured window, conservation checks.

Closed loop, zero think time: every client thread sends its next
transaction when the previous one has committed (MOOD's callers --
MoodView, ``run_transaction`` applications -- wait for each reply).
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time

from moodbench import gen, ladder, spec
from moodbench.oracle import expected_digest
from moodbench.target import (
    cpu_seconds, make_target, peak_rss_mb, run_txn,
)
from repro.obs.metrics import dump_percentile


def percentile(ordered: list, fraction: float) -> float:
    """Linear-interpolated percentile of an ascending list (0.0 if empty)."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class _Client(threading.Thread):
    """One closed-loop client: a connection plus its seeded stream."""

    def __init__(self, index: int, conn, txns, oracle, seed: int):
        super().__init__(name=f"moodbench-client-{index}", daemon=True)
        self.conn = conn
        self.txns = txns
        self.oracle = oracle
        # Backoff jitter only; never feeds the generated statements.
        self.rng = random.Random(f"moodbench/{seed}/backoff/{index}")
        self.stop_at = float("inf")
        #: (finished_at, latency_ms, latency class, ok, attempts)
        self.records: list = []
        self.committed_delta = 0
        self.crashed: Exception | None = None

    def run(self) -> None:
        try:
            while time.perf_counter() < self.stop_at:
                txn = next(self.txns)
                ok, attempts, committed, latency_ms = run_txn(
                    self.conn, txn, self.oracle, self.rng
                )
                if committed:
                    self.committed_delta += txn.weight_delta
                self.records.append(
                    (time.perf_counter(), latency_ms, txn.cls, ok, attempts))
        except Exception as exc:    # raised again by the main thread
            self.crashed = exc


def _diff_dump(after: dict | None, before: dict | None) -> dict | None:
    """The histogram of what was observed between two dumps."""
    if after is None:
        return None
    if before is None:
        return after
    return dict(
        after,
        count=after["count"] - before["count"],
        total=after["total"] - before["total"],
        buckets=[a - b for a, b in zip(after["buckets"], before["buckets"])],
    )


def run_once(workload: spec.Workload, seed: int, seconds: float,
             trace: bool) -> dict:
    """Returns ``{"correct", "attempted", "failed", "metrics", "detail"}``
    where ``metrics`` holds every end-to-end metric (``trace`` off) or the
    window's share of the per-layer metrics (``trace`` on)."""
    # -- the model cost: a cold, single-client, fixed-count replay -----------
    model_cost, model_failed = (0.0, 0) if trace else (
        ladder.charged_io_ms_per_txn(workload, seed))
    # -- set-up, several times; the last one is measured --------------------
    setup_samples = []
    target = None
    for _ in range(1 if trace else spec.SETUPS_PER_RUN):
        if target is not None:
            target.stop()
        target = make_target(workload)
        started = time.perf_counter()
        target.start()
        setup_samples.append(time.perf_counter() - started)
    try:
        result = _measure(target, workload, seed, seconds, trace,
                          setup_samples, model_cost)
    finally:
        target.stop()
    result["attempted"] += workload.replay_txns * (not trace)
    result["failed"] += model_failed
    if trace:
        rungs = ladder.run_ladder(workload, seed)
        result["metrics"].update(rungs["metrics"])
        result["attempted"] += rungs["attempted"]
        result["failed"] += rungs["failed"]
    return result


def _measure(target, workload, seed, seconds, trace, setup_samples,
             model_cost) -> dict:
    oracle = target.load_oracle()
    digest_ok = oracle.digest == expected_digest(workload.name)

    server_pids = target.server_pids()
    all_pids = server_pids or [os.getpid()]
    clients = [
        _Client(index, target.connect(), gen.stream(workload, seed, index),
                oracle, seed)
        for index in range(workload.clients)
    ]

    # -- warm-up, then one continuous window --------------------------------
    begin = time.perf_counter()
    window_start = begin + spec.WARMUP_SECONDS
    window_end = window_start + seconds
    telemetry_before = None
    for client in clients:
        client.stop_at = window_end
        client.start()
    window_cpu = []
    for edge in (window_start, window_end):
        time.sleep(max(0.0, edge - time.perf_counter()))
        if trace and edge == window_start:
            telemetry_before = target.telemetry()
        window_cpu.append((time.process_time(), cpu_seconds(server_pids)))
    generator_cpu = window_cpu[1][0] - window_cpu[0][0]
    server_cpu = window_cpu[1][1] - window_cpu[0][1]
    rss_mb = peak_rss_mb(all_pids)
    for client in clients:
        client.join(timeout=120)
    crashed = [c.crashed for c in clients if c.crashed is not None]
    if crashed or any(c.is_alive() for c in clients):
        raise RuntimeError(f"client thread did not finish: {crashed}")
    telemetry_after = target.telemetry() if trace else None

    # -- conservation: no lost update, no marker object left -----------------
    committed_delta = sum(c.committed_delta for c in clients)
    final = target.load_oracle()
    conserved = final.weight_sum - oracle.weight_sum == committed_delta
    markers_left = target.markers_left()
    errors = [e for c in clients for e in c.conn.errors]
    for client in clients:
        client.conn.close()

    records = [r for c in clients for r in c.records]
    window = [r for r in records if window_start <= r[0] <= window_end]
    good = [r for r in window if r[3]]
    attempted = len(records)
    failed = sum(1 for r in records if not r[3])
    latencies = sorted(r[1] for r in good)
    committed = len(good)

    def per_txn(total: float) -> float:
        return total / committed if committed else 0.0

    correct = bool(digest_ok and conserved and markers_left == 0
                   and committed > 0
                   and not any(c.conn.mismatches for c in clients))

    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "clients": workload.clients, "scale": workload.scale,
        "workload_digest": gen.workload_digest(workload, seed),
        "data_digest": oracle.digest, "data_digest_ok": digest_ok,
        "conserved": conserved, "markers_left": markers_left,
        "ops_attempted": attempted, "ops_failed": failed,
        "window_samples": committed, "setup_samples_s": setup_samples,
        "errors": errors[:10],
        # Latency quantiles sit on the edge between two modes on the
        # two-client workloads and do not repeat (README "Demoted"); they
        # are shown with every run and never bounded.
        "txn_ms": {f"p{round(f * 100)}": percentile(latencies, f)
                   for f in (0.50, 0.95, 0.99)},
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "txn_per_s": committed / seconds,
            "cpu_ms_per_txn": per_txn((generator_cpu + server_cpu) * 1e3),
            "rss_mb": rss_mb,
            "charged_io_ms_per_txn": model_cost,
        }
    else:
        metrics = _window_layer_metrics(
            workload, good, window, telemetry_before, telemetry_after,
            generator_cpu, server_cpu, seconds, per_txn,
        )
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def _window_layer_metrics(workload, good, window, before, after,
                          generator_cpu, server_cpu, seconds,
                          per_txn) -> dict:
    """The [T] metrics: registry deltas and client-side tails over the
    timed window."""
    counters_before, histograms_before = before
    counters_after, histograms_after = after

    def delta(name: str) -> float:
        return counters_after.get(name, 0.0) - counters_before.get(name, 0.0)

    def tail(name: str, fraction: float) -> float:
        dump = _diff_dump(histograms_after.get(name),
                          histograms_before.get(name))
        return dump_percentile(dump, fraction) if dump else 0.0

    def class_p50(cls: str) -> float:
        return percentile(sorted(r[1] for r in good if r[2] == cls), 0.50)

    if workload.target == "embedded":
        # The engine runs on the generator's thread: busy share is the
        # part of the window spent outside transactions (generating,
        # verifying, book-keeping).
        busy = max(0.0, 1.0 - sum(r[1] for r in window) / 1e3 / seconds)
        client_cpu, engine_cpu = 0.0, generator_cpu
    else:
        busy = generator_cpu / seconds
        client_cpu, engine_cpu = generator_cpu, server_cpu
    return {
        "storage.locks.wait_ms_p50": tail("locks.wait_ms", 0.50),
        "storage.locks.wait_ms_p99": tail("locks.wait_ms", 0.99),
        "server.admission.queue_wait_ms_p99":
            tail("server.admission.queue_wait_ms", 0.99),
        "server.admission.rejected": delta("server.admission.rejected"),
        "server.deadlock_aborts": delta("server.deadlock_aborts"),
        "server.lock_timeouts": delta("server.lock_timeouts"),
        "server.statement_ms_p50": tail("server.statement_ms", 0.50),
        "server.statement_ms_p99": tail("server.statement_ms", 0.99),
        "server.client.retries_per_txn":
            per_txn(sum(r[4] - 1 for r in good)),
        **{f"server.client.txn_p{round(f * 100)}_ms":
           percentile(sorted(r[1] for r in good), f)
           for f in (0.50, 0.95, 0.99)},
        "server.client.read_p50_ms": class_p50("read"),
        "server.client.path_p50_ms": class_p50("path"),
        "server.client.scan_p50_ms": class_p50("scan"),
        "server.client.write_p50_ms": class_p50("write"),
        "server.client.xfer_p50_ms": class_p50("xfer"),
        "server.router.raw_relays_per_txn": per_txn(delta("shard.raw_relays")),
        "server.router.scatter_per_txn":
            per_txn(delta("shard.scatter_queries")),
        "server.router.twopc_total_ms_p50": tail("twopc.total_ms", 0.50),
        "server.router.twopc_commits": delta("shard.twopc_commits"),
        "proc.server_cpu_ms_per_txn": per_txn(engine_cpu * 1e3),
        "proc.client_cpu_ms_per_txn": per_txn(client_cpu * 1e3),
        "bench.generator_busy_share": busy,
    }
