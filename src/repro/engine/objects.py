"""The object manager: persistent MOOD objects over class extents.

Bridges the catalog's schema and the storage manager's record files:
creating an object validates its state against the class's (inherited)
tuple type, serialises it, and places it in the class extent; dereferencing
an OID locates its extent through a page map and decodes the record.

Implements the algebra's :class:`~repro.algebra.collections.ObjectStore`
protocol, so algebra operators run directly against persistent data.
All I/O goes through the storage manager and is therefore accounted
against the Table 10 disk parameters.

The manager alone decides how dereferencing is charged; operators just
call :meth:`deref` for one OID, :meth:`deref_many` for a frontier (one
object back per OID given, in caller order) and :meth:`warm` to prefetch
a path.  Dereferencing has a *fast path* (on by default,
``cache_enabled``):

* an :class:`~repro.engine.objcache.ObjectCache` LRU short-circuits
  repeated chases of the same OID without touching the disk;
* :meth:`deref_many` fetches a frontier's distinct misses grouped by
  extent in ascending page order, so N random chases collapse into
  page-clustered reads (consecutive same-page reads are buffer hits) --
  the access pattern the paper's forward-traversal formula assumes --
  and a miss a short gap past the disk head reads through the gap
  instead of seeking (``SimulatedDisk.read_through``);
* :meth:`warm` walks a path over a whole batch of rows with one
  ``deref_many`` per step;
* the cache is invalidated on insert/update/delete, cleared wholesale on
  transaction abort and on crash/restart recovery (registered through the
  storage manager's hooks), and cleared when the page map is rebuilt
  (DROP CLASS may recycle pages).

With ``cache_enabled=False`` every chase is a charged read + decode again
-- ``deref_many`` is a ``deref`` per entry in caller order and ``warm``
does nothing -- restoring the exact paper-faithful I/O accounting the
Table 16/17 cost validation measures.

Multi-session service (``repro.server``) threads a *current transaction*
through the manager: while :attr:`current_txn` is set, every read takes an
S lock and every write an X lock on the touched extent file (strict 2PL
via the storage manager), and the shared object cache follows two
visibility rules so sessions never see each other's uncommitted state:

* a read by a transaction that holds an X lock on the extent skips the
  ``put`` (its reads may be of its own uncommitted writes);
* cache hits still require the S lock first, so a reader blocks behind a
  writer exactly as an uncached read would.

:meth:`deref` keeps the rules per OID, :meth:`deref_many` per extent (one
S lock per extent of the frontier, taken before any of its entries is
looked up).  The transaction changes no charge: a frontier is
page-clustered with or without one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from repro.algebra.collections import ObjectStore
from repro.catalog.catalog import Catalog
from repro.core.errors import CatalogError, ExecutionError
from repro.engine.objcache import DEFAULT_CAPACITY, ObjectCache
from repro.model.objects import MoodObject
from repro.model.serde import decode, encode
from repro.storage.manager import StorageManager
from repro.storage.oid import OID
from repro.storage.transactions import Transaction


class ObjectManager(ObjectStore):
    """Creates, reads, updates and deletes persistent MOOD objects."""

    def __init__(
        self,
        storage: StorageManager,
        catalog: Catalog,
        cache_enabled: bool = True,
    ):
        self.storage = storage
        self.catalog = catalog
        # page number -> class name, for OID -> extent resolution.  Kept
        # incrementally correct: every tracked extent registers its new
        # pages at allocation time (``StorageFile.on_new_page``), so
        # ordinary extent growth never falls back to a full rebuild (which
        # flushes the object cache wholesale).
        self._page_class: dict[int, str] = {}
        # file_id -> class name of extents whose allocation callback is
        # wired (file ids are never reused, so entries cannot go stale).
        self._tracked_extents: dict[int, str] = {}
        #: Optional access log (``repro.cluster``): the kernel plugs one
        #: in so deref traffic feeds the reclustering policy.
        self.coaccess = None
        #: observers notified as (event, obj, old_state) for index upkeep
        self.observers: list = []
        #: The session transaction all CRUD/deref calls implicitly run
        #: under (set by the server while it holds the engine latch, so at
        #: most one statement consults it at a time).  ``None`` keeps the
        #: embedded single-caller behaviour: no locks, no WAL.
        self.current_txn: Transaction | None = None
        #: class -> NEW/UPDATE/DELETE (aborted ones too) since the class's
        #: statistics were last measured; the kernel reads and resets it.
        self.churn: Counter[str] = Counter()
        self._cache_capacity = DEFAULT_CAPACITY
        self.cache: ObjectCache | None = None
        if cache_enabled:
            self.cache = self._build_cache()
        # A cached entry only ever reflects *committed* pages: an abort
        # restores before-images underneath us, and a crash/restart throws
        # volatile state away, so both flush the cache wholesale.
        storage.txns.abort_listeners.append(self._on_abort)
        storage.add_reset_hook(self._on_storage_reset)

    # -- cache plumbing ------------------------------------------------------

    def _build_cache(self) -> ObjectCache:
        return ObjectCache(
            self._cache_capacity, self.storage.metrics.component("objcache")
        )

    @property
    def cache_enabled(self) -> bool:
        return self.cache is not None

    def set_cache_enabled(self, enabled: bool) -> None:
        """Flip the deref fast path at runtime.

        Disabling restores paper-faithful per-chase I/O charging (used by
        the Table 16/17 cost validation); re-enabling starts cold.
        """
        if enabled and self.cache is None:
            self.cache = self._build_cache()
        elif not enabled:
            self.cache = None

    def invalidate_cache(self, oid: OID | None = None) -> None:
        """Evict one OID (or everything) after an out-of-band write --
        e.g. the kernel's ALTER CLASS instance migration, which rewrites
        records through the storage manager directly."""
        if self.cache is None:
            return
        if oid is None:
            self._flush_cache("explicit")
        else:
            self.cache.invalidate(oid)

    #: A wholesale flush dropping at least this many entries is journaled
    #: as an invalidation storm (warm-cache work thrown away at once).
    STORM_THRESHOLD = 64

    def _flush_cache(self, reason: str) -> None:
        if self.cache is None:
            return
        dropped = self.cache.clear()
        if dropped >= self.STORM_THRESHOLD:
            self.storage.events.emit(
                "objcache.storm", reason=reason, invalidated=dropped
            )

    def _on_abort(self, txn: Transaction) -> None:
        self._flush_cache("txn_abort")

    def _on_storage_reset(self) -> None:
        self._flush_cache("storage_reset")

    # -- page map ------------------------------------------------------------

    def _map_extent(self, class_name: str, extent) -> None:
        """Enter ``extent``'s pages in the page map and register its
        page-allocation callback (idempotent), so new pages enter the map
        the moment they are allocated."""
        self._page_class.update(dict.fromkeys(extent.pages, class_name))
        if self._tracked_extents.get(extent.file_id) == class_name:
            return
        self._tracked_extents[extent.file_id] = class_name

        def _register(page_no: int, _cls: str = class_name) -> None:
            self._page_class[page_no] = _cls

        extent.on_new_page = _register

    def _track_extent(self, class_name: str, extent) -> None:
        """Cheap per-write upkeep: map an extent on first contact;
        already-tracked extents cost one dict probe instead of the old
        every-write full page walk."""
        if self._tracked_extents.get(extent.file_id) != class_name:
            self._map_extent(class_name, extent)

    def _class_of(self, oid: OID) -> str:
        class_name = self._page_class.get(oid.page)
        if class_name is None:
            self.rebuild_page_map()
            class_name = self._page_class.get(oid.page)
        if class_name is None:
            raise ExecutionError(f"OID {oid} does not address any extent")
        return class_name

    def rebuild_page_map(self) -> None:
        self._page_class.clear()
        # Extents may have been dropped and their pages recycled; any
        # cached objects addressed through them are no longer trustworthy.
        self._flush_cache("page_map_rebuild")
        for class_name in self.catalog.class_names(include_system=True):
            definition = self.catalog.class_def(class_name)
            if definition.is_class:
                self._map_extent(class_name,
                                 self.catalog.extent_file(class_name))

    # -- CRUD ------------------------------------------------------------------

    def new_object(
        self,
        class_name: str,
        state: dict,
        txn: Transaction | None = None,
    ) -> MoodObject:
        if txn is None:
            txn = self.current_txn
        definition = self.catalog.class_def(class_name)
        if not definition.is_class:
            raise CatalogError(
                f"{class_name!r} is a type; values of it are not objects"
            )
        validator = self.catalog.validator_for(class_name)
        canonical = validator.validate(state) or {}
        extent = self.catalog.extent_file(class_name)
        self._track_extent(class_name, extent)
        oid = self.storage.insert(extent, encode(canonical), txn)
        self.churn[class_name] += 1
        if self.cache is not None:
            # Slotted files recycle slots: a delete + insert can hand the
            # same (volume, page, slot) to a new object.
            self.cache.invalidate(oid)
        obj = MoodObject(oid, class_name, canonical)
        for observer in self.observers:
            observer("insert", obj, None)
        return obj

    def deref(self, oid: OID) -> MoodObject:
        txn = self.current_txn
        if txn is None and self.cache is not None:
            cached = self.cache.get(oid)
            if cached is not None:
                self._note_access(oid, cached.class_name)
                return cached
        class_name = self._class_of(oid)
        extent = self.catalog.extent_file(class_name)
        if txn is not None:
            # Visibility rule 1: the S lock comes before the cache lookup,
            # so a cache hit cannot bypass a writer's X lock.
            self.storage.txns.lock_shared(txn, ("file", extent.file_id))
            if self.cache is not None:
                cached = self.cache.get(oid)
                if cached is not None:
                    self._note_access(oid, cached.class_name)
                    return cached
        payload = self.storage.read(extent, oid, txn)
        state = decode(payload)
        if self.cache is not None and not self._writes_extent(txn, extent):
            # Visibility rule 2: an extent the transaction itself writes
            # may serve it uncommitted state -- correct for the writer,
            # poison for the shared cache.
            self.cache.put(oid, class_name, state)
        self._note_access(oid, class_name)
        return MoodObject(oid, class_name, state)

    def _note_access(self, oid: OID, class_name: str) -> None:
        if self.coaccess is not None:
            self.coaccess.note(((oid, class_name),))

    def _writes_extent(self, txn: Transaction | None, extent) -> bool:
        """True when ``txn`` holds the X lock on ``extent``'s file."""
        if txn is None:
            return False
        from repro.storage.locks import LockMode

        mode = self.storage.locks.mode_held(
            txn.txn_id, ("file", extent.file_id)
        )
        return mode is LockMode.X

    def deref_many(self, oids: Iterable[OID]) -> list[MoodObject]:
        """Dereference a batch of OIDs: one object per OID given, in the
        caller's order (duplicates included).

        The store alone decides how the batch is charged, by one of two
        policies:

        * cache off -- one charged :meth:`deref` per entry, duplicates
          included, in caller order (the paper's one-chase-one-read
          accounting);
        * cache on -- distinct cache misses are grouped by extent and
          fetched in ascending page order, so chases that share a page
          are served by one buffered read instead of one random I/O each,
          and a page a few pages past the head is read through to rather
          than sought: about ``min(m * RNDCOST(1), SEQCOST(span))`` for
          ``m`` misses spanning ``span`` pages.

        A session transaction changes no charge, only the visibility rules
        :meth:`deref` keeps per OID, here kept per extent: the S lock is
        taken once per extent before any of its cached entries is looked
        at (rule 1), and misses from an extent the transaction writes are
        not put in the shared cache (rule 2).
        """
        oids = list(oids)
        if self.cache is None:
            return [self.deref(oid) for oid in oids]
        txn = self.current_txn
        distinct = list(dict.fromkeys(oids))
        result: dict[OID, MoodObject] = {}
        misses: dict[str, list[OID]] = {}
        for oid in distinct:
            class_name = self._class_of(oid)
            if class_name not in misses:
                misses[class_name] = []
                if txn is not None:
                    # Visibility rule 1: the extent's S lock comes before
                    # the first lookup of any of its entries.
                    extent = self.catalog.extent_file(class_name)
                    self.storage.txns.lock_shared(
                        txn, ("file", extent.file_id))
            cached = self.cache.get(oid)
            if cached is not None:
                result[oid] = cached
            else:
                misses[class_name].append(oid)
        self.cache.note_batch(len(distinct))
        for class_name in sorted(misses):
            extent = self.catalog.extent_file(class_name)
            shared = not self._writes_extent(txn, extent)   # rule 2
            # OIDs order as (volume, page, slot): sorting clusters the
            # reads by page, ascending -- the paper's assumed pattern --
            # and a page a short gap past the head is read through to,
            # not sought.  The extent's S lock is already held, so the
            # reads take none.
            for oid in sorted(misses[class_name]):
                state = decode(self.storage.read(extent, oid,
                                                 read_through=True))
                if shared:
                    self.cache.put(oid, class_name, state)
                result[oid] = MoodObject(oid, class_name, state)
        if self.coaccess is not None:
            # The hop frontier in traversal order is the order a cold
            # replay will chase it in: the clustering policy's evidence.
            self.coaccess.note(
                (oid, result[oid].class_name) for oid in distinct
            )
        return [result[oid] for oid in oids]

    def warm(self, frontier: list, attrs: Sequence[str]) -> None:
        """Pull every object a path walk from ``frontier`` along ``attrs``
        reaches into the cache, one :meth:`deref_many` per step, so later
        per-row evaluation of the path never issues a random chase.

        Returns at once when the cache is off: there is nothing to warm,
        so a prefetch charges no I/O.  Deliberately conservative: null
        references and non-object values are skipped -- per-row
        evaluation is the single place errors and NULL semantics are
        decided.
        """
        if self.cache is None:
            return
        for step, attribute in enumerate(attrs, 1):
            oids = [
                v for v in frontier if isinstance(v, OID) and not v.is_null
            ]
            # One object per OID, in frontier order.
            objs = iter(self.deref_many(oids) if oids else ())
            if step == len(attrs):
                return  # the path's final values are never dereferenced
            next_frontier: list = []
            for value in frontier:
                if isinstance(value, MoodObject):
                    obj = value
                elif isinstance(value, OID) and not value.is_null:
                    obj = next(objs)
                else:
                    continue
                attr_value = obj.state.get(attribute)
                if isinstance(attr_value, (set, frozenset, list)):
                    next_frontier.extend(attr_value)
                else:
                    next_frontier.append(attr_value)
            frontier = next_frontier
            if not frontier:
                return

    def note_relocation(self, class_name: str, old_oid: OID,
                        new_oid: OID) -> None:
        """Engine-side upkeep for one relocation: re-home the object-cache
        entry under the record's new identity (the page map learned the
        target page at allocation time)."""
        if self.cache is not None:
            self.cache.rehome(old_oid, new_oid, class_name)

    def update_object(
        self,
        obj: MoodObject,
        txn: Transaction | None = None,
    ) -> None:
        """Persist an object's (modified) state."""
        if txn is None:
            txn = self.current_txn
        validator = self.catalog.validator_for(obj.class_name)
        extent = self.catalog.extent_file(obj.class_name)
        # The before-image is only materialised when an observer (index
        # maintenance) actually needs it -- and the cache can often supply
        # it without a charged read.
        old_state = None
        if self.observers:
            cached = self.cache.get(obj.oid) if self.cache is not None \
                else None
            old_state = cached.state if cached is not None \
                else decode(self.storage.read(extent, obj.oid, txn))
        canonical = validator.validate(obj.state) or {}
        obj.state = canonical
        self._track_extent(obj.class_name, extent)
        self.storage.update(extent, obj.oid, encode(canonical), txn)
        self.churn[obj.class_name] += 1
        if self.cache is not None:
            self.cache.invalidate(obj.oid)
        for observer in self.observers:
            observer("update", obj, old_state)

    def delete_object(self, oid: OID, txn: Transaction | None = None) -> None:
        # Resolving the extent needs only the page map, not a full deref;
        # the old object is materialised solely for observers.
        if txn is None:
            txn = self.current_txn
        class_name = self._class_of(oid)
        extent = self.catalog.extent_file(class_name)
        obj = self.deref(oid) if self.observers else None
        self.storage.delete(extent, oid, txn)
        self.churn[class_name] += 1
        if self.cache is not None:
            self.cache.invalidate(oid)
        for observer in self.observers:
            observer("delete", obj, None)

    # -- extents -------------------------------------------------------------

    def iter_extent(
        self, class_name: str, deep: bool = True,
        include: tuple[str, ...] | None = None,
    ) -> Iterator[MoodObject]:
        """Objects of a class extent, in physical page order.

        ``deep`` includes subclasses (IS-A); ``include`` restricts to an
        explicit class list (the FROM clause's resolved closure).  The
        member extents are read in one storage sweep over the union of
        their pages (``StorageManager.scan``), not one file at a time."""
        classes = self._closure(class_name, deep) if include is None \
            else include
        member_of = {self.catalog.extent_file(m): m for m in classes}
        for extent, oid, payload in self.storage.scan(member_of,
                                                      self.current_txn):
            yield MoodObject(oid, member_of[extent], decode(payload))

    def extent(self, class_name: str) -> list[MoodObject]:
        """ObjectStore protocol: the deep extent, materialised."""
        return list(self.iter_extent(class_name, deep=True))

    def _closure(self, class_name: str, deep: bool) -> list[str]:
        """``class_name`` and, when ``deep``, its subclasses (IS-A)."""
        if deep:
            return self.catalog.hierarchy.extent_classes(class_name)
        return [class_name]

    def count(self, class_name: str, deep: bool = False) -> int:
        return sum(
            self.catalog.extent_file(member).record_count()
            for member in self._closure(class_name, deep)
        )

    def nbpages(self, class_name: str, deep: bool = False) -> int:
        return sum(
            self.catalog.extent_file(member).nbpages()
            for member in self._closure(class_name, deep)
        )
