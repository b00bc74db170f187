"""A bounded LRU cache of dereferenced objects (the deref fast path).

The paper's cost model charges one random I/O per pointer chase (Table 16's
F(P2) is 20,000 of them), and the executor originally paid that price --
plus a full decode -- every time the *same* OID was chased.  Clustering-
aware fetching and object caching are the classic OODB answers (Darmont &
Gruenwald's clustering survey); this module supplies the caching half:

* a bounded ``OrderedDict``-based LRU mapping OID -> (class name, state),
* invalidation hooks the object manager drives on insert/update/delete,
  on transaction abort and on crash/restart recovery,
* ``objcache.*`` registry counters (hits, misses, invalidations,
  evictions, batches) so EXPLAIN ANALYZE can surface cache behaviour.

Cached state is the *committed* state of the object: :meth:`get` hands out
a fresh ``MoodObject`` with a shallow copy of the state dict, so the common
mutate-then-``update_object`` pattern never pollutes the cache, and the
update itself invalidates the entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.model.objects import MoodObject
from repro.storage.oid import OID

#: Default number of objects kept resident.
DEFAULT_CAPACITY = 4096


class ObjectCacheStats:
    """Plain-int mirror of the cache counters (cheap to read in tests)."""

    __slots__ = ("hits", "misses", "invalidations", "evictions", "batches",
                 "batched_oids")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.batches = 0
        self.batched_oids = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _CacheCounters:
    """Pre-resolved registry counters for the cache's hot paths."""

    __slots__ = ("hits", "misses", "invalidations", "evictions", "batches",
                 "batched_oids", "batch_size")

    def __init__(self, component):
        self.hits = component.counter("hits")
        self.misses = component.counter("misses")
        self.invalidations = component.counter("invalidations")
        self.evictions = component.counter("evictions")
        self.batches = component.counter("batches")
        self.batched_oids = component.counter("batched_oids")
        self.batch_size = component.histogram("batch_size")


class ObjectCache:
    """Bounded LRU of ``OID -> (class_name, committed state)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("object cache needs capacity >= 1")
        self.capacity = capacity
        self.stats = ObjectCacheStats()
        self._entries: "OrderedDict[OID, tuple[str, dict]]" = OrderedDict()
        self._metrics: _CacheCounters | None = None
        # The cache is shared by every server session; the OrderedDict's
        # move_to_end/popitem pair is not safe under concurrent mutation.
        self._mutex = threading.RLock()

    def attach_metrics(self, component) -> None:
        """Mirror cache activity into registry counters (``objcache.*``)."""
        self._metrics = _CacheCounters(component)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: OID) -> bool:
        return oid in self._entries

    # -- core protocol -------------------------------------------------------

    def get(self, oid: OID) -> MoodObject | None:
        """The cached object (a fresh wrapper over a copied state dict),
        or ``None``; counts the hit/miss either way."""
        with self._mutex:
            entry = self._entries.get(oid)
            if entry is None:
                self.stats.misses += 1
                if self._metrics is not None:
                    self._metrics.misses.inc()
                return None
            self._entries.move_to_end(oid)
            self.stats.hits += 1
            if self._metrics is not None:
                self._metrics.hits.inc()
            class_name, state = entry
            return MoodObject(oid, class_name, dict(state))

    def put(self, oid: OID, class_name: str, state: dict) -> None:
        """Remember the committed state just read for ``oid``.

        The cache keeps its own shallow copy of ``state`` so later caller
        mutations of the returned object cannot leak in.
        """
        with self._mutex:
            if oid in self._entries:
                self._entries.move_to_end(oid)
            self._entries[oid] = (class_name, dict(state))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self._metrics is not None:
                    self._metrics.evictions.inc()

    # -- invalidation --------------------------------------------------------

    def invalidate(self, oid: OID) -> None:
        with self._mutex:
            if self._entries.pop(oid, None) is not None:
                self.stats.invalidations += 1
                if self._metrics is not None:
                    self._metrics.invalidations.inc()

    def rehome(self, old_oid: OID, new_oid: OID, class_name: str) -> None:
        """Move a cached entry to the record's new identity after a
        relocation (``StorageFile.relocate``).  The state is unchanged --
        only the address moved -- so warmth is preserved instead of thrown
        away.  A resident entry under ``new_oid`` (recycled slot) is
        replaced."""
        with self._mutex:
            entry = self._entries.pop(old_oid, None)
            if entry is None:
                return
            self._entries.pop(new_oid, None)
            self._entries[new_oid] = (class_name, entry[1])

    def clear(self) -> int:
        """Drop everything (transaction abort, crash, restart recovery);
        returns the number of entries dropped so callers can journal
        invalidation storms."""
        with self._mutex:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.stats.invalidations += dropped
                if self._metrics is not None:
                    self._metrics.invalidations.inc(dropped)
            return dropped

    # -- batch accounting ----------------------------------------------------

    def note_batch(self, size: int) -> None:
        """Record one ``deref_many`` batch of ``size`` distinct OIDs."""
        with self._mutex:
            self.stats.batches += 1
            self.stats.batched_oids += size
        if self._metrics is not None:
            self._metrics.batches.inc()
            self._metrics.batched_oids.inc(size)
            self._metrics.batch_size.observe(size)
