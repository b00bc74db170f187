"""Slotted data pages.

Records grow upward from a small header; the slot directory grows downward
from the end of the page.  A deleted record leaves a tombstone slot so that
slot numbers (and hence OIDs) remain stable; tombstones are reused by later
inserts.  :meth:`SlottedPage.compact` defragments the record area in place.

Layout (little-endian)::

    0              2              4                       free_ptr
    +--------------+--------------+-----------------------+---------+
    | num_slots u16| free_ptr u16 | record 0 | record 1 ..| (free)  |
    +--------------+--------------+-----------------------+---------+
                                        slot dir: ... | off,len | off,len |
                                                       page_end - 4*n

A slot offset of 0xFFFF marks a tombstone.
"""

from __future__ import annotations

import struct

from repro.core.errors import PageFullError, RecordNotFoundError, StorageError

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size
TOMBSTONE = 0xFFFF

#: Largest record a page of size ``page_size`` can hold.
def max_record_size(page_size: int) -> int:
    return page_size - HEADER_SIZE - SLOT_SIZE


class SlottedPage:
    """In-place slotted-page editor over a ``bytearray`` buffer frame."""

    def __init__(self, data: bytearray):
        if len(data) < HEADER_SIZE + SLOT_SIZE:
            raise StorageError("page buffer too small for slotted layout")
        self.data = data

    # -- header ------------------------------------------------------------

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialise an empty slotted page in ``data``."""
        page = cls(data)
        page._write_header(0, HEADER_SIZE)
        return page

    def _read_header(self) -> tuple[int, int]:
        num_slots, free_ptr = _HEADER.unpack_from(self.data, 0)
        if free_ptr < HEADER_SIZE:
            # An all-zero page (freshly allocated, or restored to its
            # pre-format image by transaction undo) reads as a valid empty
            # page: no slots, record area starting after the header.
            return num_slots, HEADER_SIZE
        return num_slots, free_ptr

    def _write_header(self, num_slots: int, free_ptr: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, free_ptr)

    @property
    def num_slots(self) -> int:
        return self._read_header()[0]

    # -- slot directory ------------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return len(self.data) - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> tuple[int, int]:
        num_slots = self.num_slots
        if not 0 <= slot < num_slots:
            raise RecordNotFoundError(f"slot {slot} out of range (0..{num_slots - 1})")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    def slot_is_live(self, slot: int) -> bool:
        offset, _ = self._read_slot(slot)
        return offset != TOMBSTONE

    def live_slots(self) -> list[int]:
        return [s for s in range(self.num_slots) if self.slot_is_live(s)]

    # -- space accounting ----------------------------------------------------

    def free_space(self) -> int:
        """Contiguous free bytes between record area and slot directory."""
        num_slots, free_ptr = self._read_header()
        return len(self.data) - SLOT_SIZE * num_slots - free_ptr

    def _reusable_slot(self) -> int | None:
        for slot in range(self.num_slots):
            offset, _ = self._read_slot(slot)
            if offset == TOMBSTONE:
                return slot
        return None

    def has_room_for(self, record: bytes) -> bool:
        needed = len(record)
        if self._reusable_slot() is None:
            needed += SLOT_SIZE
        if self.free_space() >= needed:
            return True
        return self._reclaimable() + self.free_space() >= needed

    def _reclaimable(self) -> int:
        """Bytes a compaction would recover from dead record space."""
        num_slots, free_ptr = self._read_header()
        live = sum(self._read_slot(s)[1] for s in range(num_slots)
                   if self._read_slot(s)[0] != TOMBSTONE)
        return (free_ptr - HEADER_SIZE) - live

    # -- record operations -----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record``; return its slot number.

        Raises :class:`PageFullError` when the page cannot hold it even
        after compaction.
        """
        if len(record) > max_record_size(len(self.data)):
            raise PageFullError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        if not self.has_room_for(record):
            raise PageFullError("page full")
        slot = self._reusable_slot()
        needed = len(record) + (0 if slot is not None else SLOT_SIZE)
        if self.free_space() < needed:
            self.compact()
        num_slots, free_ptr = self._read_header()
        if slot is None:
            slot = num_slots
            num_slots += 1
        self.data[free_ptr:free_ptr + len(record)] = record
        self._write_header(num_slots, free_ptr + len(record))
        self._write_slot(slot, free_ptr, len(record))
        return slot

    def read(self, slot: int) -> bytes:
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return bytes(self.data[offset:offset + length])

    def delete(self, slot: int) -> None:
        offset, _ = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot} is already deleted")
        self._write_slot(slot, TOMBSTONE, 0)

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot``.

        Shrinking updates happen in place; growing updates re-insert into
        free space (compacting if necessary).  Raises
        :class:`PageFullError` when the new image does not fit, in which
        case the caller must relocate the record to another page.
        """
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        if len(record) <= length:
            self.data[offset:offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            return
        # Grow: logically free the old image, then place the new one.
        self._write_slot(slot, TOMBSTONE, 0)
        if len(record) > self.free_space() + self._reclaimable():
            self._write_slot(slot, offset, length)  # roll back
            raise PageFullError("updated record does not fit on page")
        if len(record) > self.free_space():
            self.compact()
        num_slots, free_ptr = self._read_header()
        self.data[free_ptr:free_ptr + len(record)] = record
        self._write_header(num_slots, free_ptr + len(record))
        self._write_slot(slot, free_ptr, len(record))

    def records(self) -> list[tuple[int, bytes]]:
        """All live ``(slot, record)`` pairs in slot order."""
        return [(slot, self.read(slot)) for slot in self.live_slots()]

    def compact(self) -> None:
        """Slide live records together, erasing dead space."""
        live = [(slot,) + self._read_slot(slot) for slot in range(self.num_slots)
                if self._read_slot(slot)[0] != TOMBSTONE]
        live.sort(key=lambda entry: entry[1])  # by current offset
        images = [(slot, bytes(self.data[off:off + length]))
                  for slot, off, length in live]
        write_ptr = HEADER_SIZE
        for slot, image in images:
            self.data[write_ptr:write_ptr + len(image)] = image
            self._write_slot(slot, write_ptr, len(image))
            write_ptr += len(image)
        self._write_header(self.num_slots, write_ptr)
