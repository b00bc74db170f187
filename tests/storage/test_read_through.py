"""Skip-sequential reads: a page-ordered frontier reads through short gaps.

When ``ObjectManager.deref_many`` fetches an extent's misses in ascending
page order, a miss on page ``q`` whose volume head sits at ``h`` with a gap
``0 < q - h - 1 = g <= G`` reads the ``g`` pages in between and then ``q``
sequentially, for ``(g + 1) * ebt``, instead of paying a seek
(``s + r + btt``).  ``G = DiskParams.read_through_limit`` is the largest gap
that is cheaper to read than to seek over.  Nothing else moves: buffer
contents, hit/miss/eviction counts and the head after every read are those
of the seeking read, so the charged time can only fall.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.paperdb import build_paper_database
from repro.core.database import MoodDatabase
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskParams, SimulatedDisk
from repro.storage.manager import StorageManager

PARAMS = DiskParams()
SEEK_MS = PARAMS.rnd_cost(1)


def _pool(params: DiskParams = PARAMS, page_base: int = 0, pages: int = 64,
          capacity: int = 8):
    disk = SimulatedDisk(params, page_base=page_base)
    volume = disk.mount_volume()
    for _ in range(pages):
        disk.allocate_page(volume)
    return disk, volume, BufferManager(disk, capacity)


def _read(pool: BufferManager, volume: int, page_no: int,
          read_through: bool = True) -> None:
    pool.fetch(volume, page_no, read_through)
    pool.unpin(volume, page_no)


# -- (a) exact charges --------------------------------------------------------

def test_limit_comes_from_the_disk_parameters():
    assert PARAMS.read_through_limit == 19
    assert 20 * PARAMS.ebt < SEEK_MS <= 21 * PARAMS.ebt
    assert DiskParams(esm_sequential_is_random=True).read_through_limit == 0
    # A disk whose transfer costs as much as a seek never reads through.
    assert DiskParams(ebt=SEEK_MS).read_through_limit == 0


@pytest.mark.parametrize("gap", [1, 19])
def test_a_short_gap_is_read_through(gap):
    disk, volume, pool = _pool()
    _read(pool, volume, 10)
    before = disk.stats.snapshot()
    _read(pool, volume, 11 + gap)
    delta = disk.stats.since(before)
    assert delta.read_through == gap
    assert delta.random_reads == 0
    assert delta.sequential_reads == gap + 1
    assert delta.elapsed_ms == pytest.approx((gap + 1) * PARAMS.ebt)
    # The gap's bytes are discarded: only the wanted pages are buffered.
    assert pool.resident_pages == [(volume, 10), (volume, 11 + gap)]
    assert pool.metrics.counter("misses").value == 2


def test_a_gap_past_the_limit_seeks():
    disk, volume, pool = _pool()
    _read(pool, volume, 10)
    before = disk.stats.snapshot()
    _read(pool, volume, 31)               # g = 20
    delta = disk.stats.since(before)
    assert delta.read_through == 0
    assert delta.random_reads == 1 and delta.sequential_reads == 0
    assert delta.elapsed_ms == pytest.approx(SEEK_MS)


def test_backwards_and_adjacent_pages_never_read_through():
    disk, volume, pool = _pool()
    _read(pool, volume, 10)
    _read(pool, volume, 11)               # g = 0: plain sequential read
    _read(pool, volume, 5)                # behind the head: a seek
    assert disk.stats.read_through == 0
    assert disk.stats.random_reads == 2
    assert disk.stats.sequential_reads == 1


def test_only_a_per_call_choice_reads_through():
    disk, volume, pool = _pool()
    _read(pool, volume, 10)
    _read(pool, volume, 12, read_through=False)
    assert disk.stats.read_through == 0
    assert disk.stats.random_reads == 2


def test_no_read_through_when_sequential_costs_a_seek():
    params = DiskParams(esm_sequential_is_random=True)
    disk, volume, pool = _pool(params)
    _read(pool, volume, 10)
    _read(pool, volume, 12)
    assert disk.stats.read_through == 0
    assert disk.stats.random_reads == 2
    assert disk.stats.elapsed_ms == pytest.approx(2 * SEEK_MS)


def test_a_fresh_or_crashed_head_never_reads_through():
    disk, volume, pool = _pool()
    _read(pool, volume, 5)    # the sentinel head (-2) is no position
    assert disk.stats.read_through == 0
    assert disk.stats.random_reads == 1
    _read(pool, volume, 3)
    disk.crash()
    pool.drop_all()
    _read(pool, volume, 5)
    assert disk.stats.read_through == 0
    assert disk.stats.random_reads == 3


def test_a_based_volume_never_reads_outside_its_range():
    disk, volume, pool = _pool(page_base=10, pages=40)   # pages 10..49
    charged = []
    charge = disk._charge

    def spy(vol, page_no, write):
        charged.append(page_no)
        charge(vol, page_no, write)

    disk._charge = spy
    _read(pool, volume, 10)   # head -2 would put the "gap" at -1..9
    _read(pool, volume, 13)
    assert charged == [10, 11, 12, 13]
    assert disk.stats.read_through == 2
    assert disk.stats.random_reads == 1


def test_a_dirty_victim_moves_the_head_before_the_gap_is_measured():
    """The eviction write comes first: the gap is measured from the
    victim's page, not from the page read before it."""
    disk, volume, pool = _pool(capacity=2)
    pool.fetch(volume, 30)
    pool.unpin(volume, 30, dirty=True)
    _read(pool, volume, 5)                # head at 5; 30 is the LRU victim
    before = disk.stats.snapshot()
    _read(pool, volume, 32)               # write 30, read 31 through, 32
    delta = disk.stats.since(before)
    assert delta.random_writes == 1
    assert delta.read_through == 1
    assert delta.random_reads == 0 and delta.sequential_reads == 2
    assert delta.elapsed_ms == pytest.approx(SEEK_MS + 2 * PARAMS.ebt)
    assert pool.resident_pages == [(volume, 5), (volume, 32)]


def test_read_through_is_mirrored_into_the_registry():
    storage = StorageManager(buffer_capacity=8)
    for _ in range(30):
        storage.disk.allocate_page(storage.volume)
    _read(storage.buffer, storage.volume, 2)
    _read(storage.buffer, storage.volume, 9)
    counters = storage.metrics.counters()
    assert counters["disk.read_through"] == 6
    assert counters["disk.page_reads"] == 8     # the gap's pages included
    assert counters["disk.seeks"] == 1
    assert counters["disk.transfers"] == 8


# -- (b) the property: only seeks turn into transfers ---------------------------

CLASSES = ("Company", "Vehicle", "VehicleDriveTrain", "VehicleEngine")


@pytest.fixture(scope="module")
def base():
    db = MoodDatabase(buffer_capacity=8)
    build_paper_database(db, scale=240, seed=7)
    db.kernel.storage.buffer.flush_all()
    oids = {name: [obj.oid for obj in db.extent(name)] for name in CLASSES}
    return db, oids


def _run(db, frontiers, touches):
    """Replay ``frontiers`` from a cold pool, a cold object cache and an
    unpositioned head; after frontier ``i``, rewrite its first
    ``touches[i]`` objects unchanged (dirtying their pages).  Returns what
    the twins must agree on and the I/O delta."""
    storage, objects = db.kernel.storage, db.kernel.objects
    storage.buffer.flush_all()
    storage.buffer.drop_all()
    storage.disk.crash()
    objects.invalidate_cache()
    before = storage.metrics.snapshot()
    probe = db.io_probe()
    rows, resident = [], []
    for frontier, touch in zip(frontiers, touches):
        batch = objects.deref_many(frontier)
        rows.append([(obj.oid, obj.class_name, obj.state) for obj in batch])
        for obj in batch[:touch]:
            objects.update_object(obj)
        resident.append(storage.buffer.resident_pages)
    counts = storage.metrics.since(before)
    same = (rows, resident,
            *(counts.get(f"buffer.{name}", 0.0)
              for name in ("hits", "misses", "evictions")))
    return same, db.io_since(probe)


_frontier = st.lists(
    st.tuples(st.sampled_from(CLASSES), st.integers(0, 10_000)),
    min_size=1, max_size=60,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_frontier, st.integers(0, 2)),
                min_size=1, max_size=4))
def test_read_through_only_turns_seeks_into_transfers(base, steps):
    db, oids = base
    frontiers = [
        [oids[name][i % len(oids[name])] for name, i in frontier]
        for frontier, _ in steps
    ]
    touches = [touch for _, touch in steps]
    same, io = _run(db, frontiers, touches)
    with mock.patch.object(SimulatedDisk, "read_through",
                           lambda self, volume_id, page_no: None):
        twin_same, twin_io = _run(db, frontiers, touches)
    assert same == twin_same
    assert io.elapsed_ms <= twin_io.elapsed_ms + 1e-6
    assert io.random_reads + io.random_writes \
        <= twin_io.random_reads + twin_io.random_writes
    assert io.page_reads - io.read_through == twin_io.page_reads
    assert io.page_writes == twin_io.page_writes
    assert twin_io.read_through == 0


# -- (c) the scan that motivated it, pinned -------------------------------------

def test_scan_cyl_projection_reads_through_its_manufacturer_frontier():
    """``server-scan-cold``'s ``scan_cyl`` at |Vehicle| = 2400 from a cold
    pool: PROJECT's ``v.manufacturer`` frontier wants 105 of Company's
    pages in ascending order.  Seeking to each of them charged the
    statement 2 258.84 ms (PROJECT's own share 2 115.80 ms over 105 page
    reads, 81 of them random); reading through the short gaps costs one
    sweep."""
    db = MoodDatabase()
    build_paper_database(db, scale=2400)
    db.analyze()
    db.kernel.storage.buffer.flush_all()
    db.kernel.storage.buffer.drop_all()
    db.kernel.objects.invalidate_cache()
    probe = db.io_probe()
    result = db.explain(
        "SELECT v.id, v.manufacturer.name FROM Vehicle v "
        "WHERE v.drivetrain.engine.cylinders = 8"
    )
    delta = db.io_since(probe)
    project = result.report.lines[0]
    assert project.operator == "PROJECT"
    assert project.act_rows == 150
    assert project.act_self_pages == 454          # 105 wanted + 349 gap
    assert project.act_self_ms == pytest.approx(639.6825, abs=1e-3)
    assert project.act_pages == delta.page_reads == 545
    assert project.act_sim_ms == pytest.approx(782.72375, abs=1e-3)
    assert delta.elapsed_ms == pytest.approx(782.72375, abs=1e-3)
    assert delta.read_through == 349
    assert delta.random_reads == 3
