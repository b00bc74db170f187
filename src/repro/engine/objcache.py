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
from repro.obs.metrics import ComponentMetrics, MetricsRegistry
from repro.storage.oid import OID

#: Default number of objects kept resident.
DEFAULT_CAPACITY = 4096


class ObjectCache:
    """Bounded LRU of ``OID -> (class_name, committed state)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metrics: ComponentMetrics | None = None):
        if capacity < 1:
            raise ValueError("object cache needs capacity >= 1")
        self.capacity = capacity
        # ``objcache.*`` counters (a private registry when built alone).
        metrics = metrics or MetricsRegistry().component("objcache")
        self._hits = metrics.counter("hits")
        self._misses = metrics.counter("misses")
        self._invalidations = metrics.counter("invalidations")
        self._evictions = metrics.counter("evictions")
        self._batches = metrics.counter("batches")
        self._batched_oids = metrics.counter("batched_oids")
        self._batch_size = metrics.histogram("batch_size")
        self._entries: "OrderedDict[OID, tuple[str, dict]]" = OrderedDict()
        # The cache is shared by every server session; the OrderedDict's
        # move_to_end/popitem pair is not safe under concurrent mutation.
        self._mutex = threading.RLock()

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
                self._misses.inc()
                return None
            self._entries.move_to_end(oid)
            self._hits.inc()
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
                self._evictions.inc()

    # -- invalidation --------------------------------------------------------

    def invalidate(self, oid: OID) -> None:
        with self._mutex:
            if self._entries.pop(oid, None) is not None:
                self._invalidations.inc()

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
                self._invalidations.inc(dropped)
            return dropped

    # -- batch accounting ----------------------------------------------------

    def note_batch(self, size: int) -> None:
        """Record one ``deref_many`` batch of ``size`` distinct OIDs."""
        self._batches.inc()
        self._batched_oids.inc(size)
        self._batch_size.observe(size)
