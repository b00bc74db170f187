"""Tests for storage files: OID stability, forwarding, scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RecordNotFoundError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskParams, SimulatedDisk
from repro.storage.file import StorageFile


def make_file(block_size=256, capacity=16):
    disk = SimulatedDisk(DiskParams(block_size=block_size))
    vol = disk.mount_volume()
    pool = BufferManager(disk, capacity=capacity)
    return StorageFile(1, vol, pool)


def test_insert_read_roundtrip():
    f = make_file()
    oid = f.insert(b"record one")
    assert f.read(oid) == b"record one"
    assert f.record_count() == 1


def test_oids_distinct_and_parseable():
    f = make_file()
    oids = [f.insert(bytes([i])) for i in range(20)]
    assert len(set(oids)) == 20
    for oid in oids:
        assert type(oid).parse(str(oid)) == oid


def test_file_grows_pages_as_needed():
    f = make_file(block_size=128)
    for i in range(40):
        f.insert(b"x" * 20)
    assert f.nbpages() > 1
    assert f.record_count() == 40


def test_delete_then_read_fails():
    f = make_file()
    oid = f.insert(b"bye")
    f.delete(oid)
    with pytest.raises(RecordNotFoundError):
        f.read(oid)
    assert f.record_count() == 0


def test_update_in_place():
    f = make_file()
    oid = f.insert(b"aaaa")
    f.update(oid, b"bb")
    assert f.read(oid) == b"bb"


def test_update_relocation_preserves_oid():
    """A growing update that spills off-page must keep the original OID."""
    f = make_file(block_size=128)
    oids = [f.insert(b"a" * 30) for _ in range(3)]  # pack a page
    target = oids[0]
    big = b"B" * 90  # cannot fit back on the full page
    f.update(target, big)
    assert f.read(target) == big
    # Other records untouched.
    for other in oids[1:]:
        assert f.read(other) == b"a" * 30


def test_scan_reports_relocated_records_under_home_oid():
    f = make_file(block_size=128)
    oids = [f.insert(b"a" * 30) for _ in range(3)]
    f.update(oids[0], b"B" * 90)
    scanned = dict(f.scan())
    assert set(scanned) == set(oids)
    assert scanned[oids[0]] == b"B" * 90
    assert f.record_count() == 3


def test_delete_forwarded_record():
    f = make_file(block_size=128)
    oids = [f.insert(b"a" * 30) for _ in range(3)]
    f.update(oids[0], b"B" * 90)
    f.delete(oids[0])
    assert not f.exists(oids[0])
    assert f.record_count() == 2


def test_update_forwarded_record_again():
    f = make_file(block_size=128)
    oids = [f.insert(b"a" * 30) for _ in range(3)]
    f.update(oids[0], b"B" * 90)
    f.update(oids[0], b"C" * 95)
    assert f.read(oids[0]) == b"C" * 95
    assert f.record_count() == 3


def test_foreign_oid_rejected():
    f = make_file()
    g = make_file()
    oid = g.insert(b"elsewhere")
    with pytest.raises(RecordNotFoundError):
        f.read(oid)


def test_oversized_record_rejected():
    f = make_file(block_size=128)
    with pytest.raises(StorageError):
        f.insert(b"x" * 1000)


def test_scan_order_is_page_order():
    f = make_file(block_size=128)
    oids = [f.insert(bytes([i]) * 20) for i in range(12)]
    scanned = [oid for oid, _ in f.scan()]
    assert scanned == sorted(scanned)
    assert set(scanned) == set(oids)


def test_page_oids_lists_live_records_of_owned_pages_only():
    f = make_file(block_size=128)
    oids = [f.insert(bytes([i]) * 20) for i in range(12)]
    f.delete(oids[1])
    first = oids[0].page
    assert f.page_oids(first) == [
        oid for oid in oids if oid.page == first and oid != oids[1]
    ]
    f.destroy()
    assert f.page_oids(first) == []


def test_destroy_frees_pages():
    f = make_file()
    for i in range(10):
        f.insert(b"data")
    pages = f.nbpages()
    assert pages >= 1
    f.destroy()
    assert f.nbpages() == 0
    assert f.record_count() == 0


def test_deleted_space_is_reused():
    f = make_file(block_size=128)
    oids = [f.insert(b"a" * 30) for _ in range(9)]
    pages_before = f.nbpages()
    for oid in oids:
        f.delete(oid)
    for _ in range(9):
        f.insert(b"b" * 30)
    assert f.nbpages() == pages_before


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.binary(min_size=0, max_size=60),
        ),
        max_size=40,
    )
)
def test_property_file_matches_dict_model(ops):
    f = make_file(block_size=256, capacity=8)
    model = {}
    for op, payload in ops:
        if op == "insert":
            oid = f.insert(payload)
            model[oid] = payload
        elif op == "delete" and model:
            oid = sorted(model)[len(model) // 2]
            f.delete(oid)
            del model[oid]
        elif op == "update" and model:
            oid = sorted(model)[0]
            f.update(oid, payload)
            model[oid] = payload
    assert dict(f.scan()) == model
    assert f.record_count() == len(model)
