"""Cluster-wide observability: federated SYS$ views and shard health.

PR 7 sharded the engine; this module re-unifies its *telemetry*.  The
router owns a miniature view database whose SYS$ views, re-registered
here, answer cluster questions: every worker view gains a leading
``shard`` column (rows gathered over the admission-free ``TELEMETRY``
wire verb; the router's own rows carry ``shard = -1``), ``SYS$TXNS``
exposes the in-flight and in-doubt branches of distributed transactions,
and ``SYS$SHARD_HEALTH`` rolls per-shard statement rates, latency
percentiles and object/page access counts into the skew signal the
ROADMAP's dynamic-clustering item needs (VOODB frames exactly this
per-operation accounting as the basis for OODB performance evaluation).

Histogram federation is exact, not approximate: workers ship raw bucket
counts (:meth:`repro.obs.metrics.Histogram.dump`), the router sums them
(:func:`repro.obs.metrics.merge_histogram_dumps`) and reads percentiles
off the merged distribution -- never averaging per-shard percentiles.

A dead shard never takes observability down with it: its scatter calls
are skipped (``cluster.telemetry_failures`` counts the misses) and the
federated views answer from the shards that remain.
"""

from __future__ import annotations

import time

from repro.core.errors import ShardUnavailableError
from repro.obs.metrics import summarize_dump
from repro.server.session import SESSION_COLUMNS

#: Shard index the router's own telemetry rows carry in federated views.
ROUTER_SHARD = -1

#: SYS$SHARD_HEALTH flags a shard hot at this skew over the cluster mean
#: statement rate and at least this many statements/second.
HOT_SHARD_SKEW = 1.5
HOT_SHARD_MIN_RATE = 0.5

#: Worker views the router federates (each gains a ``shard`` column).
FEDERATED_VIEWS = (
    "SYS$SESSIONS", "SYS$STATEMENTS", "SYS$LOCKS", "SYS$COUNTERS",
    "SYS$SLOW_QUERIES", "SYS$EVENTS", "SYS$PLANS", "SYS$CLUSTERING",
)

#: Views that only the router can answer (topology, coordinator state,
#: cluster health) -- never forwarded to a shard, even under a hint.
ROUTER_ONLY_VIEWS = frozenset(
    {"SYS$SHARDS", "SYS$TXNS", "SYS$SHARD_HEALTH"}
)

#: Histogram families whose cluster-wide merge is worth surfacing in the
#: router's STATS payload by default (anything else merges on demand via
#: METRICS or SYS$COUNTERS).
STATS_HISTOGRAMS = (
    "server.statement_ms",
    "server.admission.queue_wait_ms",
    "locks.wait_ms",
)


class ClusterTelemetry:
    """The router's scatter-gather observability plane."""

    def __init__(self, router):
        self.router = router
        component = router.metrics.component("cluster")
        self._m_calls = component.counter("telemetry_calls")
        self._m_failures = component.counter("telemetry_failures")
        self._m_federated = component.counter("federated_queries")
        self.detector = HotShardDetector(router, self)
        self._install_views()

    # -- scatter-gather over the TELEMETRY verb ------------------------------

    def shard_view_rows(self, name: str) -> list[tuple[int, list[dict]]]:
        """``(shard, rows)`` of one SYS$ view from every reachable shard."""
        gathered = []
        for shard in range(self.router.shard_count):
            response = self._telemetry_call(shard, {"op": "TELEMETRY",
                                                    "view": name})
            if response is not None:
                gathered.append((shard, response.get("rows", [])))
        return gathered

    def shard_metrics(self) -> dict[int, tuple[dict, dict]]:
        """``shard -> (counters, histogram_dumps)`` from reachable shards."""
        gathered: dict[int, tuple[dict, dict]] = {}
        for shard in range(self.router.shard_count):
            response = self._telemetry_call(shard, {"op": "TELEMETRY"})
            if response is not None:
                gathered[shard] = (
                    response.get("counters", {}),
                    response.get("histograms", {}),
                )
        return gathered

    def _telemetry_call(self, shard: int, request: dict) -> dict | None:
        self._m_calls.inc()
        try:
            return self.router._admin_call(shard, request)
        except ShardUnavailableError:
            self._m_failures.inc()
            return None

    # -- federated view registration -----------------------------------------

    def _install_views(self) -> None:
        """Re-register the router view database's SYS$ views as cluster
        views: a leading ``shard`` column, worker rows via TELEMETRY,
        router-local rows (its own traces, counters, events, slow log,
        sessions) as ``shard = -1``.  Registration simply overwrites, so
        the single-process schemas stay untouched everywhere else."""
        views = self.router._viewdb.kernel.system_views
        local_suppliers = {
            # The view database's kernel-registered suppliers already read
            # the router's registry / journal / statement log (they share
            # storage); wrap them as the shard = -1 contribution.  The
            # router has no lock table or plan cache worth reporting.
            "SYS$SESSIONS": self.router._session_rows,
            "SYS$STATEMENTS": views.get("SYS$STATEMENTS").supplier,
            "SYS$SLOW_QUERIES": views.get("SYS$SLOW_QUERIES").supplier,
            "SYS$COUNTERS": views.get("SYS$COUNTERS").supplier,
            "SYS$EVENTS": views.get("SYS$EVENTS").supplier,
            "SYS$LOCKS": None,
            "SYS$PLANS": None,
            # The router's view database never derefs user objects, so its
            # own reclusterer has nothing to say; rows come from the shards.
            "SYS$CLUSTERING": None,
        }
        for name in FEDERATED_VIEWS:
            if name == "SYS$SESSIONS":
                columns = SESSION_COLUMNS
                description = ("every session on the router and each "
                               "shard worker")
            else:
                view = views.get(name)
                columns = view.columns
                description = f"{view.description} (cluster-wide)"
            views.register(
                name,
                [("shard", "Integer"), *columns],
                self._federated_supplier(name, local_suppliers[name]),
                description,
            )
        views.register(
            "SYS$TXNS",
            [("gid", "String"), ("shard", "Integer"), ("state", "String"),
             ("verdict", "String"), ("session_id", "Integer")],
            self._txn_rows,
            "distributed transaction branches: active participants, "
            "logged-but-unacked decisions, and shard-side in-doubt gids",
        )
        views.register(
            "SYS$SHARD_HEALTH",
            [("shard", "Integer"), ("alive", "Boolean"),
             ("statements", "Integer"), ("failed", "Integer"),
             ("stmt_per_s", "Float"), ("share", "Float"), ("skew", "Float"),
             ("p99_statement_ms", "Float"), ("p99_queue_wait_ms", "Float"),
             ("p99_lock_wait_ms", "Float"), ("oid_accesses", "Integer"),
             ("io_pages", "Integer"), ("hot", "Boolean")],
            self.detector.health_rows,
            "per-shard load roll-up: statement rate and cluster share, "
            "tail latencies, OID/page access counts, hot flag",
        )

    def _federated_supplier(self, name: str, local_supplier):
        def supplier() -> list[dict]:
            self._m_federated.inc()
            rows: list[dict] = []
            if local_supplier is not None:
                for row in local_supplier():
                    rows.append({"shard": ROUTER_SHARD, **row})
            for shard, shard_rows in self.shard_view_rows(name):
                for row in shard_rows:
                    if isinstance(row, dict):
                        rows.append({"shard": shard, **row})
            if name == "SYS$EVENTS":
                rows.sort(key=lambda r: r.get("ts", 0.0))
            return rows

        return supplier

    def _txn_rows(self) -> list[dict]:
        rows = []
        decided = {}
        for decision in self.router.txlog.pending():
            decided[decision.gid] = decision.verdict
            for shard in decision.shards:
                rows.append({
                    "gid": decision.gid, "shard": shard, "state": "decided",
                    "verdict": decision.verdict, "session_id": -1,
                })
        for session in self.router.sessions():
            if not session.in_txn:
                continue
            for shard in sorted(session.participants):
                rows.append({
                    "gid": session.txn_trace or "", "shard": shard,
                    "state": "active", "verdict": "",
                    "session_id": session.session_id,
                })
        for shard in range(self.router.shard_count):
            response = self._telemetry_call(shard, {"op": "IN_DOUBT"})
            if response is None:
                continue
            for gid in response.get("gids", []):
                rows.append({
                    "gid": gid, "shard": shard, "state": "in_doubt",
                    "verdict": decided.get(gid, ""), "session_id": -1,
                })
        return rows


class HotShardDetector:
    """Rolls per-shard telemetry into the skew signal of SYS$SHARD_HEALTH.

    Each evaluation polls every shard's counters and histogram dumps,
    turns statement counts into rates over the window since that shard
    was last polled, and compares each shard's rate against the cluster
    mean: ``skew = rate / mean_rate``.  A shard whose skew crosses
    :data:`HOT_SHARD_SKEW` while running at least
    :data:`HOT_SHARD_MIN_RATE` statements/second is flagged ``hot`` --
    counted in ``shard_health.hot_shards`` and journalled as a
    ``shard_health.hot`` event on the transition into hotness (an
    imbalance that persists across polls logs once, not per poll).
    """

    def __init__(self, router, telemetry: ClusterTelemetry):
        self.router = router
        self.telemetry = telemetry
        component = router.metrics.component("shard_health")
        self._m_checks = component.counter("checks")
        self._m_hot = component.counter("hot_shards")
        self._started = time.monotonic()
        #: shard -> (monotonic ts, statements counter) of the last poll.
        self._prev: dict[int, tuple[float, float]] = {}
        self._hot_prev: set[int] = set()

    def health_rows(self) -> list[dict]:
        self._m_checks.inc()
        now = time.monotonic()
        per_shard = self.telemetry.shard_metrics()
        rates: dict[int, float] = {}
        rows: list[dict] = []
        for shard in range(self.router.shard_count):
            payload = per_shard.get(shard)
            if payload is None:
                rows.append(self._dead_row(shard))
                continue
            counters, dumps = payload
            statements = counters.get("server.statements", 0.0)
            prev_ts, prev_statements = self._prev.get(
                shard, (self._started, 0.0)
            )
            window = max(now - prev_ts, 1e-9)
            rate = max(statements - prev_statements, 0.0) / window
            self._prev[shard] = (now, statements)
            rates[shard] = rate
            rows.append({
                "shard": shard,
                "alive": True,
                "statements": int(statements),
                "failed": int(counters.get("server.statements_failed", 0.0)),
                "stmt_per_s": round(rate, 3),
                "share": 0.0,   # filled below, needs the cluster total
                "skew": 0.0,
                "p99_statement_ms": _p99(dumps, "server.statement_ms"),
                "p99_queue_wait_ms": _p99(
                    dumps, "server.admission.queue_wait_ms"
                ),
                "p99_lock_wait_ms": _p99(dumps, "locks.wait_ms"),
                "oid_accesses": int(
                    counters.get("objcache.hits", 0.0)
                    + counters.get("objcache.misses", 0.0)
                ),
                "io_pages": int(
                    counters.get("disk.page_reads", 0.0)
                    + counters.get("disk.page_writes", 0.0)
                ),
                "hot": False,
            })
        total_rate = sum(rates.values())
        mean_rate = total_rate / len(rates) if rates else 0.0
        hot_now: set[int] = set()
        for row in rows:
            shard = row["shard"]
            if shard not in rates:
                continue
            rate = rates[shard]
            row["share"] = round(rate / total_rate, 4) if total_rate else 0.0
            skew = rate / mean_rate if mean_rate else 0.0
            row["skew"] = round(skew, 3)
            if (len(rates) > 1
                    and skew >= HOT_SHARD_SKEW
                    and rate >= HOT_SHARD_MIN_RATE):
                row["hot"] = True
                hot_now.add(shard)
                self._m_hot.inc()
                if shard not in self._hot_prev:
                    self.router.events.emit(
                        "shard_health.hot",
                        shard=shard,
                        skew=round(skew, 3),
                        stmt_per_s=round(rate, 3),
                        share=row["share"],
                    )
        self._hot_prev = hot_now
        return rows

    def _dead_row(self, shard: int) -> dict:
        return {
            "shard": shard, "alive": False, "statements": 0, "failed": 0,
            "stmt_per_s": 0.0, "share": 0.0, "skew": 0.0,
            "p99_statement_ms": 0.0, "p99_queue_wait_ms": 0.0,
            "p99_lock_wait_ms": 0.0, "oid_accesses": 0, "io_pages": 0,
            "hot": False,
        }


def _p99(dumps: dict, name: str) -> float:
    dump = dumps.get(name)
    if not isinstance(dump, dict):
        return 0.0
    return round(summarize_dump(dump)["p99"], 3)
