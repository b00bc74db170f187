"""MoodDatabase: the user-facing facade.

Wraps :class:`~repro.core.kernel.MoodKernel` with conveniences: statement
scripts, a direct object API (the 'defined through C++' route), and I/O
accounting helpers for experiments.  Statements go to the kernel as they
are, and the kernel alone decides when to collect statistics
(``MoodKernel.refresh_statistics``), so the facade tracks no writes.
"""

from __future__ import annotations

from repro.core.kernel import (
    ExplainResult,
    MoodKernel,
    QueryResult,
    StatementResult,
)
from repro.model.objects import MoodObject
from repro.sql.parser import parse_script
from repro.storage.disk import DiskParams, IOStats
from repro.storage.oid import OID


class MoodDatabase:
    """A MOOD database instance."""

    def __init__(
        self,
        disk_params: DiskParams | None = None,
        buffer_capacity: int = 512,
        cache_enabled: bool = True,
        page_base: int = 0,
    ):
        self.kernel = MoodKernel(
            disk_params, buffer_capacity,
            cache_enabled=cache_enabled, page_base=page_base,
        )
        self._recluster_daemon = None

    # -- statements -------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult | StatementResult:
        """Execute one statement."""
        results = self.execute_script(sql)
        return results[-1]

    def execute_script(self, sql: str) -> list[QueryResult | StatementResult]:
        """Execute a ';'-separated script; returns one result per statement."""
        return [self.kernel.execute_statement(statement)
                for statement in parse_script(sql)]

    def query(self, sql: str) -> QueryResult:
        result = self.execute(sql)
        if not isinstance(result, QueryResult):
            raise TypeError("query() is for SELECT statements")
        return result

    def explain(self, sql: str, analyze: bool = True) -> ExplainResult:
        """``EXPLAIN [ANALYZE]`` a query; a bare SELECT is prefixed."""
        text = sql.strip().rstrip(";")
        if not text.upper().startswith("EXPLAIN"):
            text = ("EXPLAIN ANALYZE " if analyze else "EXPLAIN ") + text
        result = self.execute(text)
        if not isinstance(result, ExplainResult):
            raise TypeError("explain() is for SELECT statements")
        return result

    def analyze(self):
        return self.kernel.analyze()

    # -- direct object API (the C++ route) -----------------------------------------

    def new_object(self, class_name: str, state: dict) -> MoodObject:
        """Create an object directly; MoodObject values become references."""
        converted = {key: _to_storable(value) for key, value in state.items()}
        return self.kernel.objects.new_object(class_name, converted)

    def get(self, oid: OID) -> MoodObject:
        return self.kernel.objects.deref(oid)

    def save(self, obj: MoodObject) -> None:
        self.kernel.objects.update_object(obj)

    def delete(self, oid: OID) -> None:
        self.kernel.objects.delete_object(oid)

    def extent(self, class_name: str, deep: bool = True) -> list[MoodObject]:
        return list(self.kernel.objects.iter_extent(class_name, deep=deep))

    def invoke(self, obj: MoodObject, method: str, args: list | None = None):
        """Invoke a member function with late binding."""
        return self.kernel.functions.invoke(
            obj, method, args or [], resolve=self.kernel.objects.deref
        )

    # -- dynamic clustering ------------------------------------------------------

    @property
    def reclusterer(self):
        """The kernel's online reclusterer (status via ``SYS$CLUSTERING``)."""
        return self.kernel.reclusterer

    def recluster(self) -> dict:
        """Run one synchronous reclustering pass; returns its run stats."""
        return self.kernel.reclusterer.run_once()

    def start_reclusterer(self, interval: float = 30.0) -> None:
        """Start (or retune) the background reclustering daemon."""
        if self._recluster_daemon is not None:
            self._recluster_daemon.stop()
        from repro.cluster.recluster import ReclusterDaemon

        self._recluster_daemon = ReclusterDaemon(
            self.kernel.reclusterer, interval=interval
        )
        self._recluster_daemon.start()

    def stop_reclusterer(self) -> None:
        if self._recluster_daemon is not None:
            self._recluster_daemon.stop()
            self._recluster_daemon = None

    @property
    def reclusterer_running(self) -> bool:
        return (
            self._recluster_daemon is not None
            and self._recluster_daemon.running
        )

    # -- accounting -------------------------------------------------------------

    @property
    def object_cache(self):
        """The deref cache (``None`` when disabled); its hits, misses and
        invalidations are the ``objcache.*`` registry counters."""
        return self.kernel.objects.cache

    def set_cache_enabled(self, enabled: bool) -> None:
        """Toggle the deref fast path and the plan cache (off =
        paper-faithful I/O charging and recompile-per-statement)."""
        self.kernel.set_cache_enabled(enabled)

    @property
    def io_stats(self) -> IOStats:
        return self.kernel.storage.io_stats

    def io_probe(self):
        """Snapshot for measuring a single operation's I/O."""
        return self.kernel.storage.io_snapshot()

    def io_since(self, snapshot) -> IOStats:
        return self.kernel.storage.io_stats.since(snapshot)


def _to_storable(value):
    if isinstance(value, MoodObject):
        return value.oid
    if isinstance(value, (set, frozenset)):
        return {_to_storable(v) for v in value}
    if isinstance(value, list):
        return [_to_storable(v) for v in value]
    return value
