"""Tests for the LRU buffer manager."""

import pytest

from repro.core.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskParams, SimulatedDisk


def make_disk(pages=8, block_size=128):
    disk = SimulatedDisk(DiskParams(block_size=block_size))
    vol = disk.mount_volume()
    for _ in range(pages):
        disk.allocate_page(vol)
    return disk, vol


def test_fetch_miss_then_hit():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)
    pool.fetch(vol, 0)
    pool.unpin(vol, 0)
    pool.fetch(vol, 0)
    pool.unpin(vol, 0)
    assert pool.metrics.counter("misses").value == 1
    assert pool.metrics.counter("hits").value == 1


def test_dirty_page_written_back_on_eviction():
    disk, vol = make_disk(pages=4, block_size=128)
    pool = BufferManager(disk, capacity=2)
    frame = pool.fetch(vol, 0)
    frame[0] = 0xAB
    pool.unpin(vol, 0, dirty=True)
    # Fill the pool to force eviction of page 0.
    for page in (1, 2):
        pool.fetch(vol, page)
        pool.unpin(vol, page)
    assert disk.peek_page(vol, 0)[0] == 0xAB
    assert pool.metrics.counter("evictions").value >= 1


def test_clean_page_eviction_skips_writeback():
    disk, vol = make_disk(pages=4)
    pool = BufferManager(disk, capacity=1)
    pool.fetch(vol, 0)
    pool.unpin(vol, 0, dirty=False)
    writes_before = disk.stats.page_writes
    pool.fetch(vol, 1)
    pool.unpin(vol, 1)
    assert disk.stats.page_writes == writes_before


def test_pinned_pages_are_not_evicted():
    disk, vol = make_disk(pages=4)
    pool = BufferManager(disk, capacity=2)
    pool.fetch(vol, 0)  # stays pinned
    pool.fetch(vol, 1)
    pool.unpin(vol, 1)
    pool.fetch(vol, 2)  # must evict page 1, not pinned page 0
    pool.unpin(vol, 2)
    assert (vol, 0) in pool.resident_pages


def test_all_pinned_pool_exhaustion():
    disk, vol = make_disk(pages=4)
    pool = BufferManager(disk, capacity=2)
    pool.fetch(vol, 0)
    pool.fetch(vol, 1)
    with pytest.raises(StorageError):
        pool.fetch(vol, 2)


def test_unpin_unpinned_rejected():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=2)
    with pytest.raises(StorageError):
        pool.unpin(vol, 0)


def test_lru_chooses_least_recently_used():
    disk, vol = make_disk(pages=4)
    pool = BufferManager(disk, capacity=2)
    pool.fetch(vol, 0)
    pool.unpin(vol, 0)
    pool.fetch(vol, 1)
    pool.unpin(vol, 1)
    pool.fetch(vol, 0)  # touch page 0 again; page 1 becomes LRU
    pool.unpin(vol, 0)
    pool.fetch(vol, 2)
    pool.unpin(vol, 2)
    assert (vol, 0) in pool.resident_pages
    assert (vol, 1) not in pool.resident_pages


def test_lru_skips_pinned_head_evicts_next_unpinned():
    """The recency queue's head may be pinned; the victim is the oldest
    *unpinned* frame, not merely the oldest."""
    disk, vol = make_disk(pages=6)
    pool = BufferManager(disk, capacity=3)
    pool.fetch(vol, 0)  # oldest, stays pinned
    pool.fetch(vol, 1)
    pool.unpin(vol, 1)
    pool.fetch(vol, 2)
    pool.unpin(vol, 2)
    pool.fetch(vol, 3)  # must evict page 1 (oldest unpinned)
    pool.unpin(vol, 3)
    assert (vol, 0) in pool.resident_pages
    assert (vol, 1) not in pool.resident_pages
    assert (vol, 2) in pool.resident_pages


def test_flush_all_writes_dirty_frames():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)
    frame = pool.fetch(vol, 3)
    frame[5] = 77
    pool.unpin(vol, 3, dirty=True)
    pool.flush_all()
    assert disk.peek_page(vol, 3)[5] == 77


def test_drop_all_loses_unflushed_updates():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)
    frame = pool.fetch(vol, 2)
    frame[0] = 99
    pool.unpin(vol, 2, dirty=True)
    pool.drop_all()
    assert disk.peek_page(vol, 2)[0] == 0


def test_capture_reports_before_and_after_images():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)
    pool.start_capture()
    frame = pool.fetch(vol, 1)
    frame[0] = 42
    pool.unpin(vol, 1, dirty=True)
    frame2 = pool.fetch(vol, 2)  # touched but clean
    pool.unpin(vol, 2)
    changes = pool.end_capture()
    assert len(changes) == 1
    (page_id, before, after) = changes[0]
    assert page_id == (vol, 1)
    assert before[0] == 0
    assert after[0] == 42


def test_capture_with_eviction_reads_after_image_from_disk():
    disk, vol = make_disk(pages=6)
    pool = BufferManager(disk, capacity=2)
    pool.start_capture()
    frame = pool.fetch(vol, 0)
    frame[0] = 7
    pool.unpin(vol, 0, dirty=True)
    # Evict page 0 by cycling other pages through the tiny pool.
    for page in (1, 2, 3):
        pool.fetch(vol, page)
        pool.unpin(vol, page)
    changes = pool.end_capture()
    assert changes[0][2][0] == 7  # after-image recovered from disk


def test_nested_capture_windows():
    """Capture windows nest: each window reports the pages dirtied while it
    was open, and an inner window's changes propagate to the outer one."""
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)

    pool.start_capture()                  # outer
    frame = pool.fetch(vol, 0)
    frame[0] = 11
    pool.unpin(vol, 0, dirty=True)

    pool.start_capture()                  # inner
    assert pool.capture_depth == 2
    frame = pool.fetch(vol, 1)
    frame[0] = 22
    pool.unpin(vol, 1, dirty=True)
    inner = pool.end_capture()

    # Inner window saw only page 1 (page 0 was dirtied before it opened).
    assert [c[0] for c in inner] == [(vol, 1)]
    assert inner[0][1][0] == 0 and inner[0][2][0] == 22

    outer = pool.end_capture()
    outer_pages = {c[0] for c in outer}
    # Outer window saw both its own change and the inner window's.
    assert outer_pages == {(vol, 0), (vol, 1)}
    assert pool.capture_depth == 0


def test_nested_capture_inner_window_ignores_outer_only_pages():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4)
    pool.start_capture()                  # outer
    frame = pool.fetch(vol, 0)
    pool.start_capture()                  # inner: page 0 already resident
    frame[0] = 33
    pool.unpin(vol, 0, dirty=True)
    inner = pool.end_capture()
    outer = pool.end_capture()
    # The inner window never fetched page 0, so it reports nothing; the
    # outer window (which fetched it) reports the change.
    assert inner == []
    assert [c[0] for c in outer] == [(vol, 0)]
    assert outer[0][2][0] == 33


def test_unbalanced_end_capture_rejected():
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=2)
    with pytest.raises(StorageError):
        pool.end_capture()
