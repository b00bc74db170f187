"""The online reclusterer: execute placement plans in small WAL'd batches.

Each run takes the access log's per-class first-touch sequences, turns
them into :class:`PlacementPlan`s and executes those batch by batch.  A
batch is one ordinary transaction:

1. take X locks (sorted, with a short lock timeout) on every extent file
   plus the catalog's system files -- relocation re-identifies objects,
   so any record anywhere may need its stored references rewritten;
2. allocate fresh target pages and :meth:`StorageManager.relocate` each
   group member onto them -- ordinary logged writes (WAL ``MOVE`` + page
   images: crash-safe) that give the member a new OID and leave no stub;
3. rewrite every stored reference to a moved OID (a full scan applying
   the old->new mapping to each record's decoded state), remap index
   entries, re-point named roots and catalog name bindings, and re-home
   object-cache entries; then commit.

A lock timeout aborts only the current batch -- the WAL undoes its page
images -- and its OIDs go back into the access log for the next tick, so
foreground statements are never blocked for long.  Strict 2PL makes the
whole batch atomic to concurrent sessions: they either see the old
placement or the new one, never a torn mix.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import (
    LockError,
    PageFullError,
    RecordNotFoundError,
    SerdeError,
    StorageError,
)
from repro.cluster.policy import PlacementPlan, plan_placements
from repro.model.serde import decode, encode
from repro.storage.oid import OID

#: Default objects moved per batch transaction.
DEFAULT_BATCH_SIZE = 64
#: Default lock-wait budget (seconds) for a batch before it yields.
DEFAULT_LOCK_TIMEOUT = 2.0


class _ClusterCounters:
    """Pre-resolved ``cluster.*`` registry counters."""

    __slots__ = ("runs", "batches", "moves", "pages_allocated",
                 "ref_rewrites", "index_rewrites", "lock_timeouts")

    def __init__(self, component):
        self.runs = component.counter("runs")
        self.batches = component.counter("batches")
        self.moves = component.counter("moves")
        self.pages_allocated = component.counter("pages_allocated")
        self.ref_rewrites = component.counter("ref_rewrites")
        self.index_rewrites = component.counter("index_rewrites")
        self.lock_timeouts = component.counter("lock_timeouts")


def _replace_oids(value, mapping: dict[OID, OID]):
    """Apply an OID mapping through any serde value shape; returns
    ``(new_value, changed)``."""
    if isinstance(value, OID):
        new = mapping.get(value)
        return (new, True) if new is not None else (value, False)
    if isinstance(value, dict):
        changed = False
        out = {}
        for key, item in value.items():
            out[key], touched = _replace_oids(item, mapping)
            changed = changed or touched
        return (out, True) if changed else (value, False)
    if isinstance(value, list):
        changed = False
        out_list = []
        for item in value:
            new_item, touched = _replace_oids(item, mapping)
            out_list.append(new_item)
            changed = changed or touched
        return (out_list, True) if changed else (value, False)
    if isinstance(value, (set, frozenset)):
        changed = False
        out_set = set()
        for item in value:
            new_item, touched = _replace_oids(item, mapping)
            out_set.add(new_item)
            changed = changed or touched
        return (out_set, True) if changed else (value, False)
    return value, False


class Reclusterer:
    """Executes traversal-order placement plans online, one batch at a
    time."""

    def __init__(
        self,
        storage,
        catalog,
        objects,
        indexes,
        coaccess,
        batch_size: int = DEFAULT_BATCH_SIZE,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ):
        self.storage = storage
        self.catalog = catalog
        self.objects = objects
        self.indexes = indexes
        self.coaccess = coaccess
        self.batch_size = max(1, batch_size)
        self.lock_timeout = lock_timeout
        self._counters = _ClusterCounters(
            storage.metrics.component("cluster")
        )
        self._run_mutex = threading.Lock()
        # -- cumulative status (SYS$CLUSTERING) --
        self.state = "idle"
        self.pages_compacted = 0
        self.last_gain = 1.0
        self.last_run_at = 0.0
        self.last_error = ""

    # -- planning ------------------------------------------------------------

    def _objects_per_page(self, extent) -> int:
        """Page capacity in objects, from the extent's live average record
        size (tag byte + slot entry included)."""
        count = extent.record_count()
        if count == 0:
            return 0
        used = 0
        sampled = 0
        with self.storage.latch:  # sample consistently vs foreground writes
            for _, payload in extent.scan():
                used += len(payload) + 5  # tag byte + slot-directory entry
                sampled += 1
                if sampled >= 64:
                    break
        avg = max(1, used // max(1, sampled))
        return max(2, (extent.page_size - 4) // avg)

    def _page_of(self, extent, oid: OID):
        """The page of ``oid``'s record, or None once it is gone."""
        with self.storage.latch:
            return oid.page if extent.exists(oid) else None

    def _page_oids(self, extent, page: int) -> list[OID]:
        with self.storage.latch:
            return extent.page_oids(page)

    def plan(self) -> list[PlacementPlan]:
        """Placement plans for the classes noted since the last pass, one
        per class with work to do; the access log starts empty."""
        plans = []
        for class_name, sequence in sorted(self.coaccess.take().items()):
            try:
                extent = self.catalog.extent_file(class_name)
            except Exception:
                continue  # class dropped since the derefs were noted
            plan = plan_placements(
                class_name, sequence, self._objects_per_page(extent),
                lambda page, e=extent: self._page_oids(e, page),
            )
            if plan.groups:
                plans.append(plan)
        return plans

    # -- execution -----------------------------------------------------------

    def run_once(self) -> dict:
        """Plan and execute one full reclustering pass; returns run stats.
        Concurrent calls coalesce: a second caller returns immediately."""
        if not self._run_mutex.acquire(blocking=False):
            return {"state": "already_running", "moves": 0}
        started = time.monotonic()
        moves = batches = timeouts = 0
        gain_before = gain_after = 0
        try:
            self.state = "running"
            self.last_error = ""
            for plan in self.plan():
                gain_before += plan.pages_before
                gain_after += plan.pages_after
                done, timed_out = self._execute_plan(plan)
                moves += done
                batches += (done + self.batch_size - 1) // self.batch_size
                timeouts += timed_out
            if gain_after:
                self.last_gain = gain_before / gain_after
            self._counters.runs.inc()
            self.last_run_at = time.time()
            self.storage.events.emit(
                "cluster.run", moves=moves, batches=batches,
                lock_timeouts=timeouts,
                ms=round((time.monotonic() - started) * 1000.0, 3),
            )
        except Exception as exc:  # surface in SYS$CLUSTERING, don't die
            self.last_error = f"{type(exc).__name__}: {exc}"
            self.storage.events.emit("cluster.error", error=self.last_error)
            raise
        finally:
            self.state = "idle"
            self._run_mutex.release()
        return {
            "state": "ok", "moves": moves, "batches": batches,
            "lock_timeouts": timeouts, "estimated_gain": self.last_gain,
        }

    def _execute_plan(self, plan: PlacementPlan) -> tuple[int, int]:
        """Execute one class's plan in batches; returns
        ``(objects moved, lock timeouts)``."""
        moved = timeouts = 0
        batch: list[list[OID]] = []
        size = 0
        for group in plan.groups:
            batch.append(group)
            size += len(group)
            if size >= self.batch_size:
                outcome = self._execute_batch(plan.class_name, batch)
                if outcome is None:
                    timeouts += 1
                else:
                    moved += outcome
                batch, size = [], 0
        if batch:
            outcome = self._execute_batch(plan.class_name, batch)
            if outcome is None:
                timeouts += 1
            else:
                moved += outcome
        return moved, timeouts

    def _execute_batch(
        self, class_name: str, groups: list[list[OID]]
    ) -> int | None:
        """Relocate one batch of page groups under a single transaction.
        Returns objects moved, or ``None`` on a lock timeout (the batch
        rolled back; retry at the next run)."""
        storage = self.storage
        extent = self.catalog.extent_file(class_name)
        txn = storage.begin()
        txn.lock_timeout = self.lock_timeout
        try:
            resources = sorted(
                ("file", f.file_id) for f in storage.files()
            )
            for resource in resources:
                storage.txns.lock_exclusive(txn, resource)
        except LockError:
            txn.abort()
            self._counters.lock_timeouts.inc()
            self.storage.events.emit(
                "cluster.batch_yield", class_name=class_name,
                groups=len(groups),
            )
            # Retry at the next run: the yielded groups go back in the log.
            self.coaccess.note(
                (oid, class_name) for group in groups for oid in group
            )
            return None

        mapping: dict[OID, OID] = {}
        pages_before: set[int] = set()
        for group in groups:
            target = None
            for oid in group:
                page = self._page_of(extent, oid)
                if page is None:
                    continue  # deleted since planning
                pages_before.add(page)
                if target is None:
                    target = self._allocate_target(extent, txn)
                try:
                    new_oid = storage.relocate(extent, oid, target, txn)
                except PageFullError:
                    # Estimate was optimistic: spill to a fresh page.
                    target = self._allocate_target(extent, txn)
                    new_oid = storage.relocate(extent, oid, target, txn)
                except (RecordNotFoundError, StorageError):
                    continue  # deleted since planning
                if new_oid != oid:
                    mapping[oid] = new_oid

        if not mapping:
            txn.commit()
            return 0

        # Re-home caches first: the reference rewrite below invalidates
        # any entry (old or new identity) whose payload it touches, and a
        # later rehome must not resurrect a stale state over that.
        for old_oid, new_oid in mapping.items():
            self.objects.note_relocation(class_name, old_oid, new_oid)
        rewrites = self._rewrite_references(mapping, txn)
        index_rewrites = self.indexes.remap_oids(mapping)
        self._rebind_names(mapping)
        txn.commit()

        moves = len(mapping)
        self.pages_compacted += max(0, len(pages_before) - len(
            {new.page for new in mapping.values()}
        ))
        self._counters.batches.inc()
        self._counters.moves.inc(moves)
        self._counters.ref_rewrites.inc(rewrites)
        self._counters.index_rewrites.inc(index_rewrites)
        self.storage.events.emit(
            "cluster.batch", class_name=class_name, moves=moves,
            ref_rewrites=rewrites, index_rewrites=index_rewrites,
        )
        return moves

    def _allocate_target(self, extent, txn) -> int:
        """A fresh, WAL-covered, page-map-registered target page."""
        page_no = self.storage.allocate_page(extent, txn)
        self._counters.pages_allocated.inc()
        return page_no

    def _rewrite_references(self, mapping: dict[OID, OID], txn) -> int:
        """Rewrite every stored reference to a moved OID, everywhere."""
        storage = self.storage
        rewrites = 0
        for storage_file in storage.files():
            for oid, payload in list(storage_file.scan()):
                try:
                    state = decode(payload)
                except SerdeError:
                    continue  # not a serde record (nothing to rewrite)
                new_state, changed = _replace_oids(state, mapping)
                if changed:
                    storage.update(storage_file, oid, encode(new_state), txn)
                    if self.objects.cache is not None:
                        self.objects.cache.invalidate(oid)
                    rewrites += 1
        return rewrites

    def _rebind_names(self, mapping: dict[OID, OID]) -> None:
        """Re-point named roots and the catalog's in-memory name bindings
        at moved OIDs.  The stored bindings are records of the names
        system file, which the reference rewrite already covered."""
        storage = self.storage
        for name in storage.root_names():
            root = storage.get_root(name)
            if root in mapping:
                storage.set_root(name, mapping[root])
        self.catalog.follow_moves(mapping)

    # -- status --------------------------------------------------------------

    def status(self) -> dict:
        """One SYS$CLUSTERING row (the totals are the ``cluster.*``
        counters)."""
        counters = self._counters
        return {
            "state": self.state,
            "runs": int(counters.runs.value),
            "moves": int(counters.moves.value),
            "batches": int(counters.batches.value),
            "pages_allocated": int(counters.pages_allocated.value),
            "pages_compacted": self.pages_compacted,
            "ref_rewrites": int(counters.ref_rewrites.value),
            "index_rewrites": int(counters.index_rewrites.value),
            "lock_timeouts": int(counters.lock_timeouts.value),
            "estimated_gain": round(self.last_gain, 3),
            "objects_noted": len(self.coaccess),
            "last_run_at": self.last_run_at,
            "last_error": self.last_error,
        }


class ReclusterDaemon:
    """Background thread running :meth:`Reclusterer.run_once` on a timer."""

    def __init__(self, reclusterer: Reclusterer, interval: float = 30.0):
        self.reclusterer = reclusterer
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="mood-recluster", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.reclusterer.run_once()
            except Exception:
                # run_once already journaled and recorded last_error;
                # the daemon keeps its cadence.
                continue
