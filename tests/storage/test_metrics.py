"""Tests for the storage-layer metrics wiring (repro.obs.metrics).

Every storage component counts into a shared :class:`MetricsRegistry`
(its only ledger) under a stable prefix: ``disk.*``, ``buffer.*``,
``locks.*``, ``wal.*`` (and ``functions.*`` one layer up).  These tests pin
the counter semantics the observability layer documents: hit-ratio
arithmetic, eviction accounting under capacity pressure, and the
``esm_sequential_is_random`` switch's effect on charged sequential-scan
cost.
"""

import threading

import pytest

from repro.core.errors import DeadlockError
from repro.obs.metrics import MetricsRegistry
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskParams, SimulatedDisk
from repro.storage.locks import LockManager, LockMode
from repro.storage.manager import StorageManager


def make_disk(pages=16, registry=None, **params):
    disk = SimulatedDisk(DiskParams(block_size=128, **params))
    if registry is not None:
        disk.attach_metrics(registry.component("disk"))
    vol = disk.mount_volume()
    for _ in range(pages):
        disk.allocate_page(vol)
    return disk, vol


# -- disk counters ----------------------------------------------------------


def test_disk_counters_decompose_elapsed_ms():
    registry = MetricsRegistry()
    disk, vol = make_disk(registry=registry)
    disk.read_page(vol, 5)            # random
    disk.read_page(vol, 6)            # sequential (5 -> 6)
    disk.read_page(vol, 2)            # random
    disk.write_page(vol, 3, bytes(128))  # sequential (2 -> 3)

    assert registry.value("disk.page_reads") == 3
    assert registry.value("disk.page_writes") == 1
    assert registry.value("disk.transfers") == 4
    # One seek + one rotation per *random* access only.
    assert registry.value("disk.seeks") == 2
    assert registry.value("disk.rotations") == 2
    # The mirrored elapsed time is the ledger's, exactly.
    assert registry.value("disk.elapsed_ms") == \
        pytest.approx(disk.stats.elapsed_ms)
    params = disk.params
    assert disk.stats.elapsed_ms == \
        pytest.approx(2 * params.rnd_cost(1) + 2 * params.ebt)


def test_esm_sequential_is_random_charges_full_random_cost():
    """The paper's ESM caveat: with the switch on, a sequential scan is
    charged (and counted) as page-sized random accesses."""
    plain = MetricsRegistry()
    esm = MetricsRegistry()
    disk_plain, vol_p = make_disk(registry=plain)
    disk_esm, vol_e = make_disk(registry=esm, esm_sequential_is_random=True)

    for page in range(10):  # page 0 is random, 1..9 sequential
        disk_plain.read_page(vol_p, page)
        disk_esm.read_page(vol_e, page)

    params = disk_plain.params
    assert disk_plain.stats.sequential_reads == 9
    assert disk_plain.stats.elapsed_ms == \
        pytest.approx(params.rnd_cost(1) + 9 * params.ebt)
    # ESM mode: every page pays seek + rotation + transfer.
    assert disk_esm.stats.sequential_reads == 0
    assert disk_esm.stats.random_reads == 10
    assert disk_esm.stats.elapsed_ms == pytest.approx(10 * params.rnd_cost(1))
    assert esm.value("disk.seeks") == 10
    assert plain.value("disk.seeks") == 1
    # Identical page traffic, different charged cost.
    assert esm.value("disk.page_reads") == plain.value("disk.page_reads")
    assert esm.value("disk.elapsed_ms") > plain.value("disk.elapsed_ms")


# -- buffer counters --------------------------------------------------------


def test_buffer_hit_ratio_counters_match_stats():
    registry = MetricsRegistry()
    disk, vol = make_disk()
    pool = BufferManager(disk, capacity=4,
                         metrics=registry.component("buffer"))

    pool.fetch(vol, 0); pool.unpin(vol, 0)   # miss
    pool.fetch(vol, 0); pool.unpin(vol, 0)   # hit
    pool.fetch(vol, 1); pool.unpin(vol, 1)   # miss
    pool.fetch(vol, 0); pool.unpin(vol, 0)   # hit
    pool.fetch(vol, 1); pool.unpin(vol, 1)   # hit

    assert registry.value("buffer.hits") == 3
    assert registry.value("buffer.misses") == 2
    assert pool.resident_pages == [(vol, 0), (vol, 1)]


def test_eviction_accounting_under_capacity_pressure():
    registry = MetricsRegistry()
    disk, vol = make_disk(pages=8)
    pool = BufferManager(disk, capacity=2,
                         metrics=registry.component("buffer"))

    for page in range(6):
        frame = pool.fetch(vol, page)
        assert len(pool.resident_pages) <= 2   # never exceeds capacity
        frame[0] = page + 1
        pool.unpin(vol, page, dirty=page % 2 == 0)

    # 6 fetches into 2 frames: 4 evictions; the dirty victims flushed.
    assert registry.value("buffer.evictions") == 4
    assert registry.value("buffer.flushes") == 2   # victims pages 0 and 2
    pool.flush_all()
    assert registry.value("buffer.flushes") == 3   # resident dirty page 4


# -- lock counters ----------------------------------------------------------


def test_lock_counters_acquisitions_waits_deadlocks():
    registry = MetricsRegistry()
    lm = LockManager(timeout=2.0, metrics=registry.component("locks"))

    lm.acquire("t1", "a", LockMode.X)
    lm.acquire("t2", "b", LockMode.X)
    assert registry.value("locks.acquisitions") == 2

    released = {}

    def t1_wants_b():
        lm.acquire("t1", "b", LockMode.X, timeout=1.0)
        released["t1"] = True

    thread = threading.Thread(target=t1_wants_b)
    thread.start()
    import time

    time.sleep(0.05)  # let t1 enqueue its wait
    assert registry.value("locks.waits") == 1
    with pytest.raises(DeadlockError):
        lm.acquire("t2", "a", LockMode.X, timeout=1.0)
    assert registry.value("locks.deadlocks") == 1
    lm.release_all("t2")
    thread.join()
    assert released["t1"]
    # t1's granted wait counts as an acquisition.
    assert registry.value("locks.acquisitions") == 3
    assert registry.value("locks.releases") == 1   # t2's b, by release_all


# -- whole-manager wiring ---------------------------------------------------


def test_storage_manager_wires_all_components():
    manager = StorageManager(buffer_capacity=4)
    storage_file = manager.create_file("objects")
    txn = manager.begin()
    for i in range(20):
        manager.insert(storage_file, f"record-{i}".encode(), txn=txn)
    txn.commit()

    names = set(manager.metrics.names())
    for required in (
        "disk.page_reads", "disk.page_writes", "disk.elapsed_ms",
        "disk.seeks", "disk.transfers",
        "buffer.hits", "buffer.misses",
        "wal.records", "wal.forces", "wal.pages_written",
        "locks.acquisitions", "locks.releases",
    ):
        assert required in names, required
    assert manager.metrics.value("wal.records") > 0
    assert manager.metrics.value("wal.forces") >= 1
    assert manager.metrics.value("locks.acquisitions") > 0
    assert manager.metrics.value("disk.elapsed_ms") == \
        pytest.approx(manager.io_stats.elapsed_ms)


def test_metrics_snapshot_and_since():
    manager = StorageManager(buffer_capacity=4)
    storage_file = manager.create_file("f")
    before = manager.metrics.snapshot()
    txn = manager.begin()
    manager.insert(storage_file, b"x", txn=txn)
    txn.commit()
    delta = manager.metrics.since(before)
    assert delta  # something was charged
    assert all(value > 0 for value in delta.values())
    assert "wal.records" in delta
    rendered = manager.metrics.render()
    assert "disk.elapsed_ms" in rendered
