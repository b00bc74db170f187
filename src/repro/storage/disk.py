"""Simulated disk with the paper's Table 10 physical parameters.

MOOD runs on the Exodus Storage Manager; its cost model (Sections 5 and 6)
is expressed purely in terms of the physical disk parameters of Table 10:

==========  =============================
parameter   definition
==========  =============================
``B``       block size
``btt``     block transfer time
``ebt``     effective block transfer time
``r``       average rotational latency
``s``       average seek time
==========  =============================

This module provides a page-addressed disk whose accounting charges exactly
those constants, so that executing a query plan on the simulated disk yields
an elapsed time directly comparable with the analytic SEQCOST/RNDCOST
formulas of Section 5.

The paper also notes an ESM quirk: *"in ESM, a file is stored as a B+ tree
and therefore the sequential access cost of a file is equal to its random
access cost."*  :attr:`DiskParams.esm_sequential_is_random` reproduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.errors import StorageError, VolumeError

#: Default page (block) size in bytes.
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class DiskParams:
    """Physical disk parameters (paper Table 10, after [Sal 88]).

    Times are in milliseconds.  The defaults describe an IBM-3380-class
    disk of the kind Salzberg's book analyses: 16.7 ms average seek,
    8.3 ms average rotational latency (3600 rpm), ~1 ms block transfers.
    With these constants one random page access costs
    ``s + r + btt = 26.04125 ms``, which makes the forward-traversal cost
    of Example 8.1's company path exactly the paper's Table 16 value
    (20000 chases = 520.825 seconds), so the paper's own figures appear to
    be computed from constants of this class.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    btt: float = 1.04125  # block transfer time (random access)
    ebt: float = 1.3      # effective block transfer time (sequential chains)
    r: float = 8.3        # average rotational latency
    s: float = 16.7       # average seek time
    esm_sequential_is_random: bool = False

    def seq_cost(self, pages: float) -> float:
        """SEQCOST(b) = s + r + b * ebt (Section 5)."""
        if pages <= 0:
            return 0.0
        if self.esm_sequential_is_random:
            return self.rnd_cost(pages)
        return self.s + self.r + pages * self.ebt

    def rnd_cost(self, pages: float) -> float:
        """RNDCOST(b) = b * (s + r + btt) (Section 5).  Fractional b is
        the expected-page count mid-derivation and is costed linearly."""
        if pages <= 0:
            return 0.0
        return pages * (self.s + self.r + self.btt)

    @property
    def read_through_limit(self) -> int:
        """G: the largest gap ``g`` for which reading the ``g`` pages
        between the head and a wanted page, then the page itself, is
        cheaper than one seek: ``(g + 1) * ebt < s + r + btt``.  19 pages
        at the default constants; 0 when sequential access costs as much
        as random access."""
        if self.esm_sequential_is_random:
            return 0
        return max(0, math.ceil(self.rnd_cost(1) / self.ebt) - 2)


@dataclass
class IOStats:
    """Ledger of simulated I/O with an elapsed-time accumulator.

    The disk distinguishes *sequential* accesses (the page follows the
    previously accessed page of the same volume) from *random* ones, and
    charges ``ebt`` versus ``s + r + btt`` accordingly, matching the
    SEQCOST/RNDCOST derivations.  A sequential chain pays its ``s + r``
    start-up once, on the first (random) access.

    ``read_through`` counts the pages a skip-sequential read passed over
    on its way to a wanted page (:meth:`SimulatedDisk.read_through`);
    they are charged, and counted in ``sequential_reads``, like any other
    sequential read.

    ``on_charge(kind, pages, cost_ms)`` is an optional observer the
    metrics registry attaches; it fires once per charge with the access
    kind (``random_read`` etc.) and once per read-through with kind
    ``read_through`` and no cost, and is excluded from snapshots and
    deltas.
    """

    random_reads: int = 0
    sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
    elapsed_ms: float = 0.0
    read_through: int = 0
    on_charge: object = field(default=None, repr=False, compare=False)

    @property
    def page_reads(self) -> int:
        return self.random_reads + self.sequential_reads

    @property
    def page_writes(self) -> int:
        return self.random_writes + self.sequential_writes

    @property
    def page_ios(self) -> int:
        return self.page_reads + self.page_writes

    def charge_random_read(self, params: DiskParams, pages: int = 1) -> None:
        cost = params.rnd_cost(pages)
        self.random_reads += pages
        self.elapsed_ms += cost
        if self.on_charge is not None:
            self.on_charge("random_read", pages, cost)

    def charge_sequential_read(self, params: DiskParams, pages: int = 1) -> None:
        if params.esm_sequential_is_random:
            self.charge_random_read(params, pages)
            return
        cost = pages * params.ebt
        self.sequential_reads += pages
        self.elapsed_ms += cost
        if self.on_charge is not None:
            self.on_charge("sequential_read", pages, cost)

    def charge_random_write(self, params: DiskParams, pages: int = 1) -> None:
        cost = params.rnd_cost(pages)
        self.random_writes += pages
        self.elapsed_ms += cost
        if self.on_charge is not None:
            self.on_charge("random_write", pages, cost)

    def charge_sequential_write(self, params: DiskParams, pages: int = 1) -> None:
        if params.esm_sequential_is_random:
            self.charge_random_write(params, pages)
            return
        cost = pages * params.ebt
        self.sequential_writes += pages
        self.elapsed_ms += cost
        if self.on_charge is not None:
            self.on_charge("sequential_write", pages, cost)

    def note_read_through(self, pages: int) -> None:
        self.read_through += pages
        if self.on_charge is not None:
            self.on_charge("read_through", pages, 0.0)

    def reset(self) -> None:
        self.random_reads = 0
        self.sequential_reads = 0
        self.random_writes = 0
        self.sequential_writes = 0
        self.elapsed_ms = 0.0
        self.read_through = 0

    def snapshot(self) -> "IOStats":
        return IOStats(
            random_reads=self.random_reads,
            sequential_reads=self.sequential_reads,
            random_writes=self.random_writes,
            sequential_writes=self.sequential_writes,
            elapsed_ms=self.elapsed_ms,
            read_through=self.read_through,
        )

    def since(self, earlier: "IOStats") -> "IOStats":
        """Return the delta between this ledger and an earlier snapshot."""
        return IOStats(
            random_reads=self.random_reads - earlier.random_reads,
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            random_writes=self.random_writes - earlier.random_writes,
            sequential_writes=self.sequential_writes - earlier.sequential_writes,
            elapsed_ms=self.elapsed_ms - earlier.elapsed_ms,
            read_through=self.read_through - earlier.read_through,
        )


@dataclass
class _Volume:
    """One mounted volume: an append-only array of fixed-size pages.

    ``page_base`` offsets the volume's page numbering: page ``page_base``
    is stored at index 0.  A sharded deployment gives each shard its own
    disjoint page range, so the page number inside every OID identifies
    its shard (the OID-space partition function).
    """

    volume_id: int
    pages: list[bytearray] = field(default_factory=list)
    free_pages: list[int] = field(default_factory=list)
    last_accessed: int = -2  # sentinel: nothing is 'sequential after' it
    page_base: int = 0


class SimulatedDisk:
    """Page-addressed simulated disk.

    Pages live in memory but every access is charged against an
    :class:`IOStats` ledger using :class:`DiskParams`; an access to page
    ``p`` is *sequential* when the volume's previously accessed page was
    ``p - 1``, and *random* otherwise.  :meth:`crash` models a power failure:
    the page arrays (the platters) survive, and the caller is responsible
    for discarding any volatile state layered above.
    """

    def __init__(
        self, params: DiskParams | None = None, page_base: int = 0
    ):
        self.params = params or DiskParams()
        self.stats = IOStats()
        self._volumes: dict[int, _Volume] = {}
        self._next_volume_id = 1
        #: First page number volumes allocate from (shard-disjoint ranges
        #: make the page number in an OID identify its shard).
        self.page_base = page_base

    # -- volume management -------------------------------------------------

    def mount_volume(self) -> int:
        """Create and mount a fresh volume; return its id."""
        volume_id = self._next_volume_id
        self._next_volume_id += 1
        self._volumes[volume_id] = _Volume(volume_id, page_base=self.page_base)
        return volume_id

    def _volume(self, volume_id: int) -> _Volume:
        try:
            return self._volumes[volume_id]
        except KeyError:
            raise VolumeError(f"no volume {volume_id}") from None

    # -- page allocation ---------------------------------------------------

    def allocate_page(self, volume_id: int) -> int:
        """Allocate a zeroed page; reuses freed pages before growing."""
        volume = self._volume(volume_id)
        if volume.free_pages:
            page_no = volume.free_pages.pop()
            volume.pages[page_no - volume.page_base] = bytearray(
                self.params.block_size
            )
        else:
            page_no = volume.page_base + len(volume.pages)
            volume.pages.append(bytearray(self.params.block_size))
        return page_no

    def free_page(self, volume_id: int, page_no: int) -> None:
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        volume.free_pages.append(page_no)

    def num_pages(self, volume_id: int) -> int:
        """Number of allocated (non-freed) pages on the volume."""
        volume = self._volume(volume_id)
        return len(volume.pages) - len(volume.free_pages)

    @staticmethod
    def _check_page(volume: _Volume, page_no: int) -> None:
        if not volume.page_base <= page_no < volume.page_base + len(
            volume.pages
        ):
            raise StorageError(
                f"page {page_no} out of range on volume {volume.volume_id}"
            )

    # -- page I/O ----------------------------------------------------------

    def read_page(self, volume_id: int, page_no: int) -> bytes:
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        self._charge(volume, page_no, write=False)
        return bytes(volume.pages[page_no - volume.page_base])

    def read_through(self, volume_id: int, page_no: int) -> None:
        """Bring the head to just before ``page_no`` by reading the pages
        in between, when that is cheaper than seeking: the gap ``g`` from
        the head must satisfy ``0 < g <= params.read_through_limit``.  The
        gap pages are charged as the sequential reads they are and their
        bytes discarded, so the following :meth:`read_page` of
        ``page_no`` is a sequential transfer instead of a seek.  A head
        with no position on the volume (fresh or after :meth:`crash`)
        never reads through."""
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        head = volume.last_accessed
        gap = page_no - head - 1
        if head < volume.page_base or not (
            0 < gap <= self.params.read_through_limit
        ):
            return
        for gap_page in range(head + 1, page_no):
            self._charge(volume, gap_page, write=False)
        self.stats.note_read_through(gap)

    def write_page(self, volume_id: int, page_no: int, data: bytes) -> None:
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        if len(data) != self.params.block_size:
            raise StorageError(
                f"page write of {len(data)} bytes; block size is "
                f"{self.params.block_size}"
            )
        self._charge(volume, page_no, write=True)
        volume.pages[page_no - volume.page_base] = bytearray(data)

    def _charge(self, volume: _Volume, page_no: int, write: bool) -> None:
        sequential = page_no == volume.last_accessed + 1
        volume.last_accessed = page_no
        if write:
            if sequential:
                self.stats.charge_sequential_write(self.params)
            else:
                self.stats.charge_random_write(self.params)
        else:
            if sequential:
                self.stats.charge_sequential_read(self.params)
            else:
                self.stats.charge_random_read(self.params)

    # -- observability -------------------------------------------------------

    def attach_metrics(self, component) -> None:
        """Mirror every charge into named counters on a
        :class:`~repro.obs.metrics.ComponentMetrics` handle.

        A random access is one seek + one rotation + one block transfer per
        page; a sequential access is a transfer only (its chain start-up is
        charged on the preceding random access), so the counters decompose
        ``elapsed_ms`` exactly the way Table 10 does.
        """
        seeks = component.counter("seeks")
        rotations = component.counter("rotations")
        transfers = component.counter("transfers")
        elapsed = component.counter("elapsed_ms")
        reads = component.counter("page_reads")
        writes = component.counter("page_writes")
        read_through = component.counter("read_through")

        def observe(kind: str, pages: int, cost_ms: float) -> None:
            if kind == "read_through":   # already charged page by page
                read_through.inc(pages)
                return
            transfers.inc(pages)
            elapsed.inc(cost_ms)
            if kind.startswith("random"):
                seeks.inc(pages)
                rotations.inc(pages)
            if kind.endswith("read"):
                reads.inc(pages)
            else:
                writes.inc(pages)

        self.stats.on_charge = observe

    def peek_page(self, volume_id: int, page_no: int) -> bytes:
        """Read a page without I/O accounting (infrastructure use only)."""
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        return bytes(volume.pages[page_no - volume.page_base])

    def poke_page(self, volume_id: int, page_no: int, data: bytes) -> None:
        """Write a page without I/O accounting (recovery infrastructure)."""
        volume = self._volume(volume_id)
        self._check_page(volume, page_no)
        if len(data) != self.params.block_size:
            raise StorageError("poke of wrong-sized page image")
        volume.pages[page_no - volume.page_base] = bytearray(data)

    # -- failure simulation -------------------------------------------------

    def crash(self) -> None:
        """Simulate power loss.  Platters survive; access history resets."""
        for volume in self._volumes.values():
            volume.last_accessed = -2
