"""Tests for the StorageManager facade (files, indexes, roots, accounting)."""

import pytest

from repro.core.errors import FileNotFoundStorageError, StorageError
from repro.storage.manager import StorageManager
from repro.storage.oid import OID
from repro.storage.rtree import Rect


@pytest.fixture
def sm():
    return StorageManager(buffer_capacity=32)


def test_create_and_lookup_file(sm):
    f = sm.create_file("extent_Vehicle")
    assert sm.file(f.file_id) is f
    assert sm.file_by_name("extent_Vehicle") is f


def test_duplicate_file_name_rejected(sm):
    sm.create_file("x")
    with pytest.raises(StorageError):
        sm.create_file("x")


def test_missing_file_rejected(sm):
    with pytest.raises(FileNotFoundStorageError):
        sm.file(99)
    with pytest.raises(FileNotFoundStorageError):
        sm.file_by_name("nope")


def test_drop_file(sm):
    f = sm.create_file("gone")
    sm.insert(f, b"data")
    sm.drop_file(f.file_id)
    with pytest.raises(FileNotFoundStorageError):
        sm.file_by_name("gone")


def test_record_roundtrip_unlogged(sm):
    f = sm.create_file()
    oid = sm.insert(f, b"payload")
    assert sm.read(f, oid) == b"payload"
    sm.update(f, oid, b"updated")
    assert sm.read(f, oid) == b"updated"
    sm.delete(f, oid)
    assert not f.exists(oid)


def test_scan_through_manager(sm):
    f = sm.create_file()
    oids = [sm.insert(f, bytes([i])) for i in range(5)]
    assert [o for _, o, _ in sm.scan([f])] == oids


def test_io_accounting_scan_is_mostly_sequential(sm):
    f = sm.create_file()
    for i in range(400):
        sm.insert(f, b"x" * 40)
    sm.buffer.flush_all()
    sm.buffer.drop_all()
    before = sm.io_snapshot()
    list(sm.scan([f]))
    delta = sm.io_stats.since(before)
    assert delta.page_reads == f.nbpages()
    assert delta.sequential_reads >= delta.page_reads - 2


def test_btree_index_registry_and_accounting(sm):
    tree = sm.create_btree_index("Vehicle_id", order=2)
    for i in range(100):
        tree.insert(i, OID(1, i, 0))
    before = sm.io_snapshot()
    tree.search(55)
    delta = sm.io_stats.since(before)
    assert tree.params().level <= delta.random_reads <= tree.params().level + 1
    assert sm.btree_index("Vehicle_id") is tree
    with pytest.raises(StorageError):
        sm.create_btree_index("Vehicle_id")


def test_hash_index_registry(sm):
    index = sm.create_hash_index("Company_name")
    index.insert("BMW", OID(1, 1, 1))
    assert sm.hash_index("Company_name").search("BMW") == [OID(1, 1, 1)]
    with pytest.raises(StorageError):
        sm.hash_index("nope")


def test_rtree_registry(sm):
    tree = sm.create_rtree_index("map")
    tree.insert(Rect.point(1, 2), OID(1, 0, 0))
    assert len(sm.rtree_index("map").search(Rect(0, 0, 5, 5))) == 1


def test_drop_index(sm):
    sm.create_btree_index("tmp")
    sm.drop_index("tmp")
    with pytest.raises(StorageError):
        sm.btree_index("tmp")
    with pytest.raises(StorageError):
        sm.drop_index("tmp")


def test_index_names_listing(sm):
    sm.create_btree_index("b")
    sm.create_hash_index("h")
    sm.create_rtree_index("r")
    assert sm.index_names() == ["b", "h", "r"]


def test_named_roots(sm):
    f = sm.create_file()
    oid = sm.insert(f, b"catalog root")
    sm.set_root("catalog", oid)
    assert sm.get_root("catalog") == oid
    assert sm.get_root("missing") is None
    assert sm.root_names() == ["catalog"]
