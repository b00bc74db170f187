"""Buffer manager: a pool of page frames over the simulated disk.

ESM provides MOOD with buffered page access; we reproduce a classic
pin/unpin LRU buffer pool.  Frames are ``bytearray`` views that callers
(e.g. :class:`repro.storage.page.SlottedPage`) edit in place; a frame
marked dirty is written back when evicted or flushed.

The pool counts hits, misses, evictions and flushes into ``buffer.*``
registry counters so experiments can distinguish buffer behaviour from
raw disk behaviour, and supports :meth:`drop_all`, which models losing
volatile memory in a crash.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.errors import StorageError
from repro.obs.metrics import ComponentMetrics, MetricsRegistry
from repro.storage.disk import SimulatedDisk

PageId = tuple[int, int]  # (volume, page_no)


@dataclass
class _Frame:
    page_id: PageId
    data: bytearray
    pin_count: int = 0
    dirty: bool = False


@dataclass
class _CaptureWindow:
    """One open before-image capture window (they nest, LIFO)."""

    before: dict[PageId, bytes] = field(default_factory=dict)
    dirty: set[PageId] = field(default_factory=set)


class BufferManager:
    """Fixed-capacity LRU buffer pool with pin counting."""

    def __init__(self, disk: SimulatedDisk, capacity: int = 128,
                 metrics: ComponentMetrics | None = None):
        if capacity < 1:
            raise StorageError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        #: ``buffer.*`` counters (a private registry when built alone).
        self.metrics = metrics or MetricsRegistry().component("buffer")
        self._hits = self.metrics.counter("hits")
        self._misses = self.metrics.counter("misses")
        self._evictions = self.metrics.counter("evictions")
        self._flushes = self.metrics.counter("flushes")
        # Recency-ordered: least-recently used first.  A fetch moves the
        # frame to the tail, so eviction pops from the head in O(1) (the
        # scan below only skips pinned frames).
        self._frames: "OrderedDict[PageId, _Frame]" = OrderedDict()
        self._captures: list[_CaptureWindow] = []

    # -- core protocol -------------------------------------------------------

    def fetch(self, volume: int, page_no: int,
              read_through: bool = False) -> bytearray:
        """Pin the page and return its in-memory frame buffer.

        ``read_through`` (a per-call choice, for page-ordered batches) lets
        a miss reach its page by reading through a short gap past the
        disk head instead of seeking (:meth:`SimulatedDisk.read_through`).
        The gap is measured after the victim is written back, since that
        write moves the head; only the wanted page enters the pool."""
        page_id = (volume, page_no)
        frame = self._frames.get(page_id)
        if frame is None:
            self._misses.inc()
            self._ensure_room()
            if read_through:
                self.disk.read_through(volume, page_no)
            frame = _Frame(page_id, bytearray(self.disk.read_page(volume, page_no)))
            self._frames[page_id] = frame
        else:
            self._hits.inc()
            self._frames.move_to_end(page_id)
        for window in self._captures:
            if page_id not in window.before:
                window.before[page_id] = bytes(frame.data)
        frame.pin_count += 1
        return frame.data

    def unpin(self, volume: int, page_no: int, dirty: bool = False) -> None:
        frame = self._frames.get((volume, page_no))
        if frame is None or frame.pin_count == 0:
            raise StorageError(f"unpin of unpinned page {volume}.{page_no}")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty
        if dirty:
            for window in self._captures:
                # A window only reports pages it saw fetched: the before-
                # image must predate the window's own start.
                if (volume, page_no) in window.before:
                    window.dirty.add((volume, page_no))

    def _ensure_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        # Frames iterate least-recently used first; the first unpinned one
        # is the LRU victim (O(1) amortised, vs. the old full min() scan).
        for frame in self._frames.values():
            if frame.pin_count == 0:
                self._evict(frame)
                return
        raise StorageError("buffer pool exhausted: every frame is pinned")

    def _evict(self, frame: _Frame) -> None:
        if frame.dirty:
            self.disk.write_page(*frame.page_id, bytes(frame.data))
            self._flushes.inc()
        del self._frames[frame.page_id]
        self._evictions.inc()

    # -- page-image capture (write-ahead logging support) --------------------

    def start_capture(self) -> None:
        """Begin recording before-images of pages touched from now on.

        Windows nest: each ``start_capture`` pushes a fresh window and each
        ``end_capture`` pops the innermost one, so WAL before-image capture
        and an observability measurement window can coexist.  Every open
        window records the before-image of each page fetched while it is
        open, independently of the others.
        """
        self._captures.append(_CaptureWindow())

    def end_capture(self) -> list[tuple[PageId, bytes, bytes]]:
        """Close the innermost window; return ``(page_id, before, after)``
        per page dirtied inside it."""
        if not self._captures:
            raise StorageError("no page capture in progress")
        window = self._captures.pop()
        changes: list[tuple[PageId, bytes, bytes]] = []
        for page_id in sorted(window.dirty):
            before = window.before[page_id]
            frame = self._frames.get(page_id)
            if frame is not None:
                after = bytes(frame.data)
            else:  # evicted mid-operation; the disk holds the after-image
                after = self.disk.peek_page(*page_id)
            changes.append((page_id, before, after))
        # Outer windows must also report pages dirtied by the inner one.
        for outer in self._captures:
            outer.dirty.update(
                page_id for page_id in window.dirty if page_id in outer.before
            )
        return changes

    @property
    def capture_depth(self) -> int:
        return len(self._captures)

    # -- durability --------------------------------------------------------

    def flush_page(self, volume: int, page_no: int) -> None:
        frame = self._frames.get((volume, page_no))
        if frame is not None and frame.dirty:
            self.disk.write_page(volume, page_no, bytes(frame.data))
            frame.dirty = False
            self._flushes.inc()

    def flush_all(self) -> None:
        for page_id in sorted(self._frames):
            self.flush_page(*page_id)

    def drop_all(self) -> None:
        """Discard every frame without write-back (crash simulation)."""
        self._frames.clear()

    def forget_page(self, volume: int, page_no: int) -> None:
        """Discard a frame without write-back (used when a page is freed)."""
        self._frames.pop((volume, page_no), None)

    # -- introspection -------------------------------------------------------

    @property
    def resident_pages(self) -> list[PageId]:
        return sorted(self._frames)

    def pin_count(self, volume: int, page_no: int) -> int:
        frame = self._frames.get((volume, page_no))
        return frame.pin_count if frame else 0
