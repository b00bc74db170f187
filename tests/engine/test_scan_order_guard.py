"""Extent scans go through the one physical-order storage sweep.

``StorageManager.scan(files, txn)`` reads a class closure's pages once,
ascending by page number, so a cold closure scan costs SEQCOST rather
than a random read per page.  Query-side code must not rebuild a
file-at-a-time scan beside it: ``StorageFile.scan_page`` is a storage
internal, and ``engine/`` and ``core/`` neither loop over an extent's
``pages`` nor call ``StorageFile.scan`` themselves.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
PAGE_LOOP = re.compile(r"\bfor\b.*\bin\b.*\.pages\b")
# ``self.storage.scan(...)`` is the storage manager's sweep; any other
# ``.scan(`` on a file object is a file-at-a-time scan.
FILE_SCAN = re.compile(r"(?<!storage)\.scan\(")


def _hits(path: pathlib.Path, pattern: re.Pattern) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_scan_page_is_called_only_from_storage():
    hits = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "storage"
        for hit in _hits(path, re.compile(r"\bscan_page\b"))
    ]
    assert not hits, "\n".join(hits)


@pytest.mark.parametrize("package", ["engine", "core"])
def test_query_side_never_scans_a_file_by_itself(package):
    hits = [
        hit
        for path in sorted((SRC / package).rglob("*.py"))
        for pattern in (PAGE_LOOP, FILE_SCAN)
        for hit in _hits(path, pattern)
    ]
    assert not hits, "\n".join(hits)
