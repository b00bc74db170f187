"""What the benchmark runs and what it reports.

Two tables live here so that ``BENCHMARK.json``, the README and the code
cannot drift apart: the workloads (sizes, client counts, transaction mix)
and the metrics (unit, direction, bound, and -- for per-layer metrics --
which end-to-end metric on which workload each one is expected to move).
``moodbench/tests`` asserts that ``BENCHMARK.json`` equals :func:`manifest`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Measured window the manifest asks the driver for, and the threaded
#: warm-up that runs straight into it.  The issue's 30 s + 5 s do not fit
#: the driver's cap of 3420 s for 92 runs (37 s a run, set-ups and replay
#: included); all four workloads are shortened equally.
RUN_SECONDS = 18
WARMUP_SECONDS = 3.0
#: Set-ups per untraced run; ``setup_s`` is their median (the contract asks
#: for several).
SETUPS_PER_RUN = 3
#: Both OLTP workloads draw peers/transfers for a 2-way id partition, so
#: ``server-oltp`` and ``sharded-oltp`` see the same statements.
STREAM_SHARDS = 2
#: NEW/DELETE marker objects carry ``size >= MARKER_BASE``; no built
#: VehicleEngine comes near it (sizes are 1000..4000).
MARKER_BASE = 900_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str            # "embedded" | "server" | "sharded"
    scale: int             # |Vehicle|
    shards: int            # process shards behind the router (0 = none)
    clients: int           # closed-loop client threads / connections
    prepared: bool         # PREPARE once, EXECUTE with bind parameters
    keys: str              # "zipf" (theta 0.8) | "uniform"
    mix: tuple             # the deck: ((transaction kind, cards), ...)
    replay_txns: int       # N of the deterministic single-client replay
    ladder_txns: int       # N of each replay-ladder rung (traced run)

    @property
    def mutates_weight(self) -> bool:
        """Whether reads of ``weight`` can be checked against the oracle
        exactly (no) or only through the conservation law (yes)."""
        return any(kind in ("write", "xfer") for kind, _ in self.mix)


# A mix is a deck of cards dealt in seeded random order and reshuffled when
# exhausted (TPC-C's device): the issue's percentages hold exactly over
# every deck, so the seed moves *which* keys and *what order*, not how many
# writes a window happens to contain.
#: 50% single point/path reads, 20% two-statement read transactions, 30%
#: write transactions.
_OLTP_DECK = (("point", 4), ("path_mfr", 3), ("path_eng", 3),
              ("read2", 4), ("write", 6))
#: 85% of the above (42.5 / 17.5 / 25 %), 10% cross-shard transfers, 5%
#: scatter SELECTs; 40 cards so that the shares are whole cards.
_SHARDED_DECK = (("point", 7), ("path_mfr", 5), ("path_eng", 5),
                 ("read2", 7), ("write", 10), ("xfer", 4), ("scatter", 2))

WORKLOADS = (
    Workload(
        name="embedded-traverse",
        why="in-process, 1 thread, |Vehicle|=400 fits every cache, literal "
            "SQL: only sql/optimizer/core/engine work, so executor and "
            "cache changes show and a wire/server change must show nothing",
        target="embedded", scale=400, shards=0, clients=1,
        prepared=False, keys="zipf",
        mix=(("point", 8), ("path_mfr", 4), ("path_eng", 4), ("back", 3),
             ("range", 1)),
        replay_txns=100, ladder_txns=60,
    ),
    Workload(
        name="server-oltp",
        why="MoodServer over TCP, 2 clients, |Vehicle|=400, prepared, 30% "
            "write txns: session locks, admission, latch, WAL and thread "
            "hand-off dominate; reads and writes share the Vehicle extent",
        target="server", scale=400, shards=0, clients=2,
        prepared=True, keys="zipf", mix=_OLTP_DECK,
        replay_txns=100, ladder_txns=40,
    ),
    Workload(
        name="server-scan-cold",
        why="MoodServer over TCP, 1 client, |Vehicle|=2400 (580 pages > the "
            "512-page buffer pool), unprepared scans returning 50-500 rows + "
            "NEW/DELETE: buffer misses, compile and JSON row encoding",
        target="server", scale=2400, shards=0, clients=1,
        prepared=False, keys="uniform",
        mix=(("scan_cyl", 4), ("scan_w", 5), ("path_mfr", 5),
             ("path_eng", 4), ("newdel", 2)),
        replay_txns=40, ladder_txns=20,
    ),
    Workload(
        name="sharded-oltp",
        why="ShardedServer, 2 process shards, 2 clients, server-oltp's mix "
            "with shard_key hints + 10% cross-shard 2PC transfer + 5% "
            "scatter SELECT: the difference to server-oltp is the router",
        target="sharded", scale=400, shards=2, clients=2,
        prepared=True, keys="zipf",
        mix=_SHARDED_DECK,
        replay_txns=120, ladder_txns=40,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

#: (name, unit, better, bound).  README "Bounds" and "Baseline" have the
#: measurements.  What is counted holds the issue's ceiling of 0.10.  What
#: is timed spreads by 3-10% between runs on this shared 2-vCPU box (18-20%
#: in a disturbed hour) and by a tenth in level between two sets of runs an
#: hour apart, so it carries the 0.25 the driver's contract allows.
#: The issue's ``txn_p50_ms`` and ``txn_p95_ms`` did not stay within 10%
#: (13.2% and 10.5%: multi-modal latencies) and are demoted to the
#: diagnostics ``server.client.txn_p50_ms`` / ``..._p95_ms``, as the issue
#: says, not given a wider bound.  ``setup_s`` cannot be demoted: the
#: contract requires it, with the largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("txn_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_txn", "ms", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.05),
    ("charged_io_ms_per_txn", "ms", "lower", 0.10),
)

#: (name, unit, better, source, moves).  source: "R" = replay ladder
#: (single client, fixed N; counts repeat exactly), "T" = telemetry or
#: client-side delta over the timed window.  ``moves`` names the
#: end-to-end metric and workload the layer metric is expected to move;
#: ``latency`` stands for the diagnostics ``server.client.txn_p50_ms`` and
#: ``server.client.txn_p95_ms``.
_EXEC = "txn_per_s, latency on embedded-traverse, server-scan-cold"
_SQL = "latency on server-scan-cold, embedded-traverse; not server-oltp"
_WIRE = "latency on server-scan-cold; nothing on embedded-traverse"
_SESSION = "txn_per_s, latency tail on server-oltp"
_ROUTER = "txn_per_s on sharded-oltp only"
_IO = "charged_io_ms_per_txn, latency on server-scan-cold; flat when hot"
_WAL = "write_p50_ms on server-oltp, sharded-oltp"
_WAIT = "txn_per_s, latency tail on server-oltp, sharded-oltp; not 1-client"
_2PC = "latency tail on sharded-oltp"
_CPU = "splits cpu_ms_per_txn between server and generator"

PER_LAYER = (
    # [R] entry-point times, median ms per statement.
    ("server.client.call_ms", "ms", "lower", "R", "is the latency, per statement"),
    ("server.router.handle_ms", "ms", "lower", "R", _ROUTER),
    ("server.server.handle_ms", "ms", "lower", "R", _SESSION),
    ("server.session.execute_ms", "ms", "lower", "R", _SESSION),
    ("core.database.execute_ms", "ms", "lower", "R", _EXEC),
    ("core.database.analyze_ms", "ms", "lower", "R",
     "write_p50_ms, latency tail wherever a read follows a write"),
    ("core.kernel.execute_prepared_ms", "ms", "lower", "R", _EXEC),
    ("sql.parser.parse_ms", "ms", "lower", "R", _SQL),
    ("core.prepare.compile_ms", "ms", "lower", "R", _SQL),
    ("optimizer.planner.plan_ms", "ms", "lower", "R", _SQL),
    ("server.protocol.frame_ms", "ms", "lower", "R", _WIRE),
    ("server.protocol.frame_bytes", "bytes", "lower", "R", _WIRE),
    ("engine.objects.deref_ms", "ms", "lower", "R", _EXEC),
    ("engine.objects.deref_many_ms", "ms", "lower", "R", _EXEC),
    ("engine.objects.iter_extent_ms", "ms", "lower", "R", _EXEC),
    # [R] self times: an entry minus the next deeper entry.
    ("self.wire_ms", "ms", "lower", "R", _WIRE),
    ("self.router_ms", "ms", "lower", "R", _ROUTER),
    ("self.session_ms", "ms", "lower", "R", _SESSION),
    ("self.sql_ms", "ms", "lower", "R", _SQL),
    ("self.compile_ms", "ms", "lower", "R", _SQL),
    ("self.exec_ms", "ms", "lower", "R", _EXEC),
    ("self.unattributed_ms", "ms", "lower", "R", "must stay <= 5% of call_ms"),
    # [R] exact counts per transaction.
    ("storage.disk.page_reads_per_txn", "1/txn", "lower", "R", _IO),
    ("storage.disk.page_writes_per_txn", "1/txn", "lower", "R", _IO),
    ("storage.buffer.hit_ratio", "ratio", "higher", "R", _IO),
    ("storage.buffer.evictions_per_txn", "1/txn", "lower", "R", _IO),
    ("engine.objcache.hit_ratio", "ratio", "higher", "R", _IO),
    ("engine.objcache.evictions_per_txn", "1/txn", "lower", "R", _IO),
    ("engine.objcache.invalidations_per_txn", "1/txn", "lower", "R",
     "latency on server-scan-cold (NEW/DELETE beside scans), writes"),
    ("engine.objcache.mean_batch", "count", "higher", "R", _IO),
    ("engine.objects_touched_per_row", "1/row", "lower", "R",
     "cpu_ms_per_txn everywhere (wasted work)"),
    ("core.plancache.hit_ratio", "ratio", "higher", "R",
     "latency where SQL is unprepared"),
    ("storage.wal.records_per_txn", "1/txn", "lower", "R", _WAL),
    ("storage.wal.forces_per_txn", "1/txn", "lower", "R", _WAL),
    ("storage.wal.pages_written_per_txn", "1/txn", "lower", "R", _WAL),
    ("storage.locks.acquisitions_per_txn", "1/txn", "lower", "R", _SESSION),
    # [T] contention and tails over the timed window.
    ("storage.locks.wait_ms_p50", "ms", "lower", "T", _WAIT),
    ("storage.locks.wait_ms_p99", "ms", "lower", "T", _WAIT),
    ("server.admission.queue_wait_ms_p99", "ms", "lower", "T", _WAIT),
    ("server.admission.rejected", "count", "lower", "T", _WAIT),
    ("server.deadlock_aborts", "count", "lower", "T", _WAIT),
    ("server.lock_timeouts", "count", "lower", "T", _WAIT),
    ("server.statement_ms_p50", "ms", "lower", "T", "latency median, server side"),
    ("server.statement_ms_p99", "ms", "lower", "T", "latency tail, server side"),
    ("server.client.retries_per_txn", "1/txn", "lower", "T", _WAIT),
    ("server.client.txn_p50_ms", "ms", "lower", "T",
     "diagnostic (demoted): sits between two modes with two clients"),
    ("server.client.txn_p95_ms", "ms", "lower", "T",
     "diagnostic (demoted): sits on the edge of the waited-twice mode"),
    ("server.client.txn_p99_ms", "ms", "lower", "T", "diagnostic tail"),
    ("server.client.read_p50_ms", "ms", "lower", "T", "latency by kind"),
    ("server.client.path_p50_ms", "ms", "lower", "T", "latency by kind"),
    ("server.client.scan_p50_ms", "ms", "lower", "T", "latency by kind"),
    ("server.client.write_p50_ms", "ms", "lower", "T", "latency by kind"),
    ("server.client.xfer_p50_ms", "ms", "lower", "T", _2PC),
    ("server.router.raw_relays_per_txn", "1/txn", "higher", "T", _ROUTER),
    ("server.router.scatter_per_txn", "1/txn", "lower", "T", _2PC),
    ("server.router.twopc_total_ms_p50", "ms", "lower", "T", _2PC),
    ("server.router.twopc_commits", "count", "higher", "T", _2PC),
    ("proc.server_cpu_ms_per_txn", "ms", "lower", "T", _CPU),
    ("proc.client_cpu_ms_per_txn", "ms", "lower", "T", _CPU),
    ("bench.generator_busy_share", "share", "lower", "T",
     "must stay < 0.5 or the run measures the generator"),
    ("bench.trace_overhead_pct", "%", "lower", "T",
     "cost of the benchmark's own spans on server.client.call_ms"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "moodbench"],
        "paths": ["moodbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _source, _moves in PER_LAYER
        ],
    }
