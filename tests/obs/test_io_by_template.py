"""Smoke test for ``scripts/io_by_template.py``: its split of the
model-cost replay adds up to moodbench's own ``charged_io_ms_per_txn``."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "scripts"))

import io_by_template  # noqa: E402
from moodbench import ladder, spec  # noqa: E402
from repro.storage.disk import DiskParams  # noqa: E402


def test_split_adds_up_to_the_benchmark_figure():
    workload = dataclasses.replace(
        spec.WORKLOAD_BY_NAME["embedded-traverse"], replay_txns=12)
    split = io_by_template.split_charged_io(workload, seed=1)
    expected, failed = ladder.charged_io_ms_per_txn(workload, 1)
    assert failed == split["failed"] == 0
    assert split["txns"] == 12
    assert split["total_ms"] / 12 == pytest.approx(expected)
    rows = split["rows"]
    assert sum(ms for _, ms in rows.values()) == pytest.approx(
        split["total_ms"])
    templates = set(rows) - {io_by_template.ANALYZE, io_by_template.OUTSIDE}
    assert templates and templates <= set(io_by_template.gen.TEMPLATES)
    assert sum(calls for name, (calls, _) in rows.items()
               if name in templates) >= 12
    assert "ms/txn" in io_by_template.render(workload, 1, split)


def test_pages_split_decomposes_every_row():
    """``--pages``: every row's seeks, transfers and read-through pages
    account for its milliseconds the Table 10 way -- a seek costs
    s + r + btt with its transfer, every other transfer ebt.  The scan
    workload's page-ordered frontiers read through short gaps."""
    workload = dataclasses.replace(
        spec.WORKLOAD_BY_NAME["server-scan-cold"], replay_txns=4)
    split = io_by_template.split_charged_io(workload, seed=1)
    params = DiskParams()
    assert set(split["pages"]) == set(split["rows"])
    for name, (seeks, transfers, read_through) in split["pages"].items():
        ms = split["rows"][name][1]
        assert 0 <= read_through <= transfers - seeks
        assert ms == pytest.approx(
            seeks * params.rnd_cost(1) + (transfers - seeks) * params.ebt,
            abs=1e-6)
    assert sum(read for _, _, read in split["pages"].values()) > 0
    table = io_by_template.render(workload, 1, split, pages=True)
    header = table.splitlines()[1]
    assert header.split()[-3:] == ["seeks/txn", "xfers/txn", "rthru/txn"]
    assert "seeks/txn" not in io_by_template.render(workload, 1, split)


def test_server_oltp_split_charges_statistics_to_analyze():
    """The session path with writes: every statistics collection is charged
    to the ``ANALYZE`` row through the one collection entry point, and the
    rows still add up to the benchmark figure."""
    workload = dataclasses.replace(
        spec.WORKLOAD_BY_NAME["server-oltp"], replay_txns=12)
    split = io_by_template.split_charged_io(workload, seed=1)
    expected, failed = ladder.charged_io_ms_per_txn(workload, 1)
    assert failed == split["failed"] == 0
    assert split["txns"] == 12
    assert split["total_ms"] / 12 == pytest.approx(expected)
    rows = split["rows"]
    assert sum(ms for _, ms in rows.values()) == pytest.approx(
        split["total_ms"])
    assert set(rows) - {io_by_template.ANALYZE, io_by_template.OUTSIDE} \
        <= set(io_by_template.gen.TEMPLATES)
    assert rows.get(io_by_template.ANALYZE, [0, 0.0])[1] \
        <= 0.01 * split["total_ms"]
