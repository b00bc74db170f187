"""Extendible hash index.

ESM's second indexing mechanism for simple selections (Section 3.2,
``IndSel``) is hashing.  We implement classic extendible hashing: a
directory of bucket pointers addressed by the low ``global_depth`` bits of
the key hash; an overflowing bucket splits, doubling the directory only
when the bucket's local depth equals the global depth.

Like the B+-tree, every bucket (and the directory) is treated as occupying
disk pages, and accesses are reported to an optional accountant so hash
probes show up in measured I/O.  Equality search is O(1) directory + one
bucket read -- the property the optimizer relies on when costing hash
access paths.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.errors import IndexStructureError


def _stable_hash(key: Any) -> int:
    """Deterministic hash for index keys (runs are reproducible)."""
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, int):
        return key * 2654435761 % (1 << 32)
    if isinstance(key, float):
        return _stable_hash(hash(key) & 0xFFFFFFFF)
    if isinstance(key, str):
        value = 5381
        for ch in key:
            value = ((value << 5) + value + ord(ch)) & 0xFFFFFFFF
        return value
    return _stable_hash(repr(key))


class _Bucket:
    __slots__ = ("local_depth", "entries")

    def __init__(self, local_depth: int):
        self.local_depth = local_depth
        self.entries: list[tuple[Any, Any]] = []


@dataclass
class HashStats:
    splits: int = 0
    directory_doublings: int = 0

    def reset(self) -> None:
        self.splits = 0
        self.directory_doublings = 0


class ExtendibleHashIndex:
    """Extendible hash index over ``(key, value)`` entries."""

    def __init__(
        self,
        bucket_capacity: int = 32,
        unique: bool = False,
        on_bucket_access: Callable[[], None] | None = None,
    ):
        if bucket_capacity < 1:
            raise IndexStructureError("bucket capacity must be positive")
        self.bucket_capacity = bucket_capacity
        self.unique = unique
        self.stats = HashStats()
        self._on_bucket_access = on_bucket_access
        self.global_depth = 0
        bucket = _Bucket(local_depth=0)
        self._directory: list[_Bucket] = [bucket]
        self._num_entries = 0

    def __len__(self) -> int:
        return self._num_entries

    @property
    def directory_size(self) -> int:
        return len(self._directory)

    def _visit(self, bucket: _Bucket) -> None:
        if self._on_bucket_access is not None:
            self._on_bucket_access()

    def _bucket_for(self, key: Any) -> _Bucket:
        index = _stable_hash(key) & ((1 << self.global_depth) - 1)
        return self._directory[index]

    # -- operations ------------------------------------------------------

    def search(self, key: Any) -> list[Any]:
        bucket = self._bucket_for(key)
        self._visit(bucket)
        return [value for k, value in bucket.entries if k == key]

    def contains(self, key: Any) -> bool:
        return bool(self.search(key))

    def insert(self, key: Any, value: Any) -> None:
        if self.unique and self.contains(key):
            raise IndexStructureError(f"duplicate key {key!r} in unique index")
        key_hash = _stable_hash(key)
        while True:
            bucket = self._bucket_for(key)
            self._visit(bucket)
            if len(bucket.entries) < self.bucket_capacity:
                bucket.entries.append((key, value))
                self._num_entries += 1
                return
            if all(_stable_hash(k) == key_hash for k, _ in bucket.entries):
                # Splitting cannot separate identical hashes (e.g. duplicate
                # keys): overflow the bucket rather than double the
                # directory forever.
                bucket.entries.append((key, value))
                self._num_entries += 1
                return
            self._split(bucket)

    def _split(self, bucket: _Bucket) -> None:
        if bucket.local_depth == self.global_depth:
            self._directory = self._directory + self._directory
            self.global_depth += 1
            self.stats.directory_doublings += 1
        self.stats.splits += 1
        new_depth = bucket.local_depth + 1
        low = _Bucket(new_depth)
        high = _Bucket(new_depth)
        distinguishing_bit = 1 << bucket.local_depth
        for key, value in bucket.entries:
            target = high if _stable_hash(key) & distinguishing_bit else low
            target.entries.append((key, value))
        for index in range(len(self._directory)):
            if self._directory[index] is bucket:
                target = high if index & distinguishing_bit else low
                self._directory[index] = target

    def delete(self, key: Any, value: Any) -> bool:
        bucket = self._bucket_for(key)
        self._visit(bucket)
        for index, (k, v) in enumerate(bucket.entries):
            if k == key and v == value:
                bucket.entries.pop(index)
                self._num_entries -= 1
                return True
        return False

    def items(self) -> Iterator[tuple[Any, Any]]:
        seen: set[int] = set()
        for bucket in self._directory:
            if id(bucket) in seen:
                continue
            seen.add(id(bucket))
            yield from bucket.entries

    # -- structural checking (used by tests) --------------------------------

    def check_invariants(self) -> None:
        if len(self._directory) != 1 << self.global_depth:
            raise IndexStructureError("directory size is not 2^global_depth")
        seen: set[int] = set()
        total = 0
        for index, bucket in enumerate(self._directory):
            if bucket.local_depth > self.global_depth:
                raise IndexStructureError("local depth exceeds global depth")
            mask = (1 << bucket.local_depth) - 1
            for key, _ in bucket.entries:
                if _stable_hash(key) & mask != index & mask:
                    raise IndexStructureError(
                        f"entry for key {key!r} hashed to the wrong bucket"
                    )
            if id(bucket) not in seen:
                seen.add(id(bucket))
                total += len(bucket.entries)
        if total != self._num_entries:
            raise IndexStructureError(
                f"entry counter {self._num_entries} != actual {total}"
            )
