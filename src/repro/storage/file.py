"""Storage files: ordered collections of slotted pages holding records.

A file is the persistent home of a class extent (and of the system catalog
extents of Figure 2.2).  Records are addressed by :class:`~repro.storage.oid.OID`
and keep their OID for life: an update that no longer fits on its page moves
the body elsewhere and leaves a *forwarding stub* behind, exactly as slotted
storage managers of the ESM era did.

Record wire format: a one-byte tag followed by the payload.

====== ==========================================================
tag     meaning
====== ==========================================================
DATA    record body lives here, addressed by this slot's OID
FWD     stub; payload is the OID of the record's MOVED body
MOVED   a record's body away from home; reachable only through its stub
====== ==========================================================

There is one kind of stub.  ``FWD -> MOVED`` is always exactly one hop:
the record's identity stays at the stub's OID, every reader follows the
stub once, and moving the body again re-points the stub instead of
chaining a second one.

:meth:`StorageFile.relocate` is the other way a record changes page: it
gives the record a *new identity* on the target page and frees the old
slot in the same write, leaving no stub.  Its caller (the reclusterer)
rewrites every stored reference to the new OID inside the same
transaction, so nothing ever resolves through the old one.

Every page change of a record or body -- oversize growth and relocation
alike -- is reported through :attr:`StorageFile.on_move`; the storage
manager logs it as one ``MOVE`` record.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.core.errors import (
    PageFullError,
    RecordNotFoundError,
    StorageError,
)
from repro.storage.buffer import BufferManager
from repro.storage.oid import OID
from repro.storage.page import SlottedPage, max_record_size

_TAG_DATA = 0
_TAG_FWD = 1
_TAG_MOVED = 2

#: A packed OID: the payload of a stub and of a ``MOVE`` log record.
_FWD = struct.Struct("<III")


def _stub(target: OID) -> bytes:
    return bytes([_TAG_FWD]) + _FWD.pack(target.volume, target.page,
                                         target.slot)


class StorageCounters:
    """Pre-resolved ``storage.*`` registry counters, shared by every file
    of a storage manager (attach via :class:`~repro.storage.manager`)."""

    __slots__ = ("forwards_followed", "relocations")

    def __init__(self, component):
        self.forwards_followed = component.counter("forwards_followed")
        self.relocations = component.counter("relocations")


class StorageFile:
    """A file of records on one volume, managed through the buffer pool."""

    def __init__(self, file_id: int, volume: int, buffer: BufferManager):
        self.file_id = file_id
        self.volume = volume
        self.buffer = buffer
        self.pages: list[int] = []
        self._page_set: set[int] = set()
        self._record_count = 0
        # Pages believed to have free room, checked again before use.
        self._free_hints: list[int] = []
        #: Shared ``storage.*`` counters (:class:`StorageCounters`) or None.
        self.counters: StorageCounters | None = None
        #: ``on_new_page(page_no)`` fires whenever the file grows; the
        #: object manager keeps its page->class map current through it.
        self.on_new_page = None
        #: ``on_move(source, target)`` fires whenever a record or its body
        #: lands on another page; the storage manager logs it as ``MOVE``.
        self.on_move = None

    # -- capacity ------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.buffer.disk.params.block_size

    def nbpages(self) -> int:
        """Number of pages in the file (the cost model's nbpages(C))."""
        return len(self.pages)

    def record_count(self) -> int:
        return self._record_count

    def max_payload(self) -> int:
        return max_record_size(self.page_size) - 1

    # -- page helpers ----------------------------------------------------------

    def allocate_page(self) -> int:
        """Allocate, format and register a fresh empty page.

        Ordinary inserts grow the file through ``_place``; the
        reclusterer calls this to lay out the pages it then fills
        explicitly via :meth:`relocate`.
        """
        page_no = self.buffer.disk.allocate_page(self.volume)
        frame = self.buffer.fetch(self.volume, page_no)
        SlottedPage.format(frame)
        self.buffer.unpin(self.volume, page_no, dirty=True)
        self.pages.append(page_no)
        self._page_set.add(page_no)
        if self.on_new_page is not None:
            self.on_new_page(page_no)
        return page_no

    def _page(self, page_no: int, read_through: bool = False) -> SlottedPage:
        return SlottedPage(
            self.buffer.fetch(self.volume, page_no, read_through))

    # -- record operations --------------------------------------------------

    def insert(self, payload: bytes) -> OID:
        if len(payload) > self.max_payload():
            raise StorageError(
                f"record of {len(payload)} bytes exceeds the page capacity "
                f"of {self.max_payload()} bytes"
            )
        record = bytes([_TAG_DATA]) + payload
        slot, page_no = self._place(record)
        self._record_count += 1
        return OID(self.volume, page_no, slot)

    def _place(self, record: bytes) -> tuple[int, int]:
        """Store a raw tagged record somewhere with room; return (slot, page)."""
        while self._free_hints:
            page_no = self._free_hints[-1]
            page = self._page(page_no)
            if page.has_room_for(record):
                slot = page.insert(record)
                self.buffer.unpin(self.volume, page_no, dirty=True)
                return slot, page_no
            self.buffer.unpin(self.volume, page_no, dirty=False)
            self._free_hints.pop()
        page_no = self.allocate_page()
        page = self._page(page_no)
        slot = page.insert(record)
        self.buffer.unpin(self.volume, page_no, dirty=True)
        self._free_hints.append(page_no)
        return slot, page_no

    def _read_raw(self, oid: OID, read_through: bool = False) -> bytes:
        if oid.volume != self.volume or oid.page not in self._page_set:
            raise RecordNotFoundError(f"OID {oid} is not in file {self.file_id}")
        page = self._page(oid.page, read_through)
        try:
            raw = page.read(oid.slot)
        finally:
            self.buffer.unpin(self.volume, oid.page, dirty=False)
        return raw

    def _home(self, oid: OID, read_through: bool = False) -> bytes:
        """The raw record at ``oid``, which must be a record's home (DATA
        or a stub), never a body reachable only through its stub."""
        raw = self._read_raw(oid, read_through)
        if raw[0] == _TAG_MOVED:
            raise RecordNotFoundError(
                f"OID {oid} addresses a forwarded body, not a record"
            )
        return raw

    @staticmethod
    def _stub_target(raw: bytes) -> OID:
        return OID(*_FWD.unpack(raw[1:1 + _FWD.size]))

    def _follow(self, stub: bytes) -> bytes:
        """The raw MOVED body one hop from the raw ``stub``."""
        if self.counters is not None:
            self.counters.forwards_followed.inc()
        target = self._stub_target(stub)
        body = self._read_raw(target)
        if body[0] != _TAG_MOVED:
            raise StorageError(f"forwarding stub to {target} finds no body")
        return body

    def read(self, oid: OID, read_through: bool = False) -> bytes:
        """Read a record payload, following its forwarding stub.
        ``read_through`` lets a miss on the home page read through a short
        gap instead of seeking (``BufferManager.fetch``)."""
        raw = self._home(oid, read_through)
        if raw[0] == _TAG_FWD:
            raw = self._follow(raw)
        return raw[1:]

    def update(self, oid: OID, payload: bytes) -> None:
        """Replace the record at ``oid``, keeping its OID.  A record that
        no longer fits at home moves its body to a page with room and
        leaves a stub; a forwarded record drops its old body and comes
        home again when it fits.  Raises :class:`PageFullError`, changing
        nothing, when the home page cannot even hold the stub."""
        if len(payload) > self.max_payload():
            raise StorageError("updated record exceeds page capacity")
        raw = self._home(oid)
        if raw[0] == _TAG_FWD:
            self._delete_raw(self._stub_target(raw))
        page = self._page(oid.page)
        try:
            page.update(oid.slot, bytes([_TAG_DATA]) + payload)
        except PageFullError:
            try:
                # Claim the stub's room before the body moves anywhere.
                page.update(oid.slot, _stub(oid))
            except PageFullError:
                self.buffer.unpin(self.volume, oid.page, dirty=False)
                raise
        else:
            self.buffer.unpin(self.volume, oid.page, dirty=True)
            return
        self.buffer.unpin(self.volume, oid.page, dirty=True)
        slot, page_no = self._place(bytes([_TAG_MOVED]) + payload)
        body = OID(self.volume, page_no, slot)
        page = self._page(oid.page)
        try:
            page.update(oid.slot, _stub(body))
        finally:
            self.buffer.unpin(self.volume, oid.page, dirty=True)
        self._moved(oid, body)

    def _moved(self, source: OID, target: OID) -> None:
        if self.counters is not None:
            self.counters.relocations.inc()
        if self.on_move is not None:
            self.on_move(source, target)

    def _delete_raw(self, oid: OID) -> None:
        page = self._page(oid.page)
        try:
            page.delete(oid.slot)
        finally:
            self.buffer.unpin(self.volume, oid.page, dirty=True)
        if oid.page not in self._free_hints:
            self._free_hints.append(oid.page)

    def _drop(self, oid: OID, raw: bytes) -> None:
        """Free the home slot ``oid`` (holding ``raw``) and its body."""
        if raw[0] == _TAG_FWD:
            self._delete_raw(self._stub_target(raw))
        self._delete_raw(oid)

    def delete(self, oid: OID) -> None:
        self._drop(oid, self._home(oid))
        self._record_count -= 1

    # -- relocation ------------------------------------------------------------

    def relocate(self, oid: OID, target_page: int) -> OID:
        """Move the record at ``oid`` onto ``target_page`` under a new
        identity; return its new OID.

        The record (its body, if forwarded) is written as a DATA record
        on the target page, then the old slot and any old body are freed:
        no stub stays behind, so the caller must rewrite every stored
        reference to the new OID in the same transaction.  Raises
        :class:`PageFullError` (leaving everything in place) when the
        target page lacks room.
        """
        if target_page not in self._page_set:
            raise StorageError(
                f"page {target_page} is not in file {self.file_id}"
            )
        raw = self._home(oid)
        if raw[0] == _TAG_DATA and oid.page == target_page:
            return oid  # already where it belongs
        body = self._follow(raw) if raw[0] == _TAG_FWD else raw
        record = bytes([_TAG_DATA]) + body[1:]
        page = self._page(target_page)
        try:
            slot = page.insert(record)
        except PageFullError:
            self.buffer.unpin(self.volume, target_page, dirty=False)
            raise
        self.buffer.unpin(self.volume, target_page, dirty=True)
        new_oid = OID(self.volume, target_page, slot)
        self._drop(oid, raw)
        self._moved(oid, new_oid)
        return new_oid

    def exists(self, oid: OID) -> bool:
        try:
            self.read(oid)
            return True
        except (RecordNotFoundError, StorageError):
            return False

    # -- scans ------------------------------------------------------------

    def scan(self) -> Iterator[tuple[OID, bytes]]:
        """Yield every live record, page by page (see :meth:`scan_page`)."""
        for page_no in list(self.pages):
            yield from self.scan_page(page_no)

    def scan_page(self, page_no: int) -> list[tuple[OID, bytes]]:
        """The live records homed on ``page_no`` as ``(oid, payload)``; a
        forwarded record is reported under its home (stub) OID, where its
        identity lives.  MOVED bodies are reached through their stubs only."""
        page = self._page(page_no)
        try:
            entries = page.records()
        finally:
            self.buffer.unpin(self.volume, page_no, dirty=False)
        return [
            (OID(self.volume, page_no, slot),
             raw[1:] if raw[0] == _TAG_DATA else self._follow(raw)[1:])
            for slot, raw in entries if raw[0] != _TAG_MOVED
        ]

    def page_oids(self, page_no: int) -> list[OID]:
        """The live OIDs homed on ``page_no``; none once the file no
        longer owns the page."""
        if page_no not in self._page_set:
            return []
        return [oid for oid, _ in self.scan_page(page_no)]

    def oids(self) -> list[OID]:
        return [oid for oid, _ in self.scan()]

    def destroy(self) -> None:
        """Free every page of the file."""
        for page_no in self.pages:
            self.buffer.forget_page(self.volume, page_no)
            self.buffer.disk.free_page(self.volume, page_no)
        self.pages.clear()
        self._page_set.clear()
        self._free_hints.clear()
        self._record_count = 0
