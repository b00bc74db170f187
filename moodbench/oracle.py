"""The oracle: what every generated statement must return.

Loaded from the system under test at set-up (over the wire for servers,
shard by shard behind a router), digested, and compared with the digest
recorded in ``expected.json`` -- a mismatch means the object base is not
the one the baseline was measured on and invalidates the run.  Immutable
facts (``manufacturer.name``, ``cylinders``, the id sets they induce) are
checked exactly; ``weight`` is checked exactly on read-only workloads and
by the end-of-run conservation law on the OLTP ones.
"""

from __future__ import annotations

import hashlib
import json
import os

from moodbench.spec import MARKER_BASE

ORACLE_SQL = (
    "SELECT v.id, v.weight, v.manufacturer.name, "
    "v.drivetrain.engine.cylinders FROM Vehicle v"
)
MARKER_SQL = f"SELECT e.size FROM VehicleEngine e WHERE e.size >= {MARKER_BASE}"
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


class Oracle:
    def __init__(self, shard_rows: list, weights_mutable: bool):
        """``shard_rows``: one list of ORACLE_SQL rows per shard (a single
        list for an unsharded target); their union is the object base."""
        rows = sorted(tuple(row) for part in shard_rows for row in part)
        self.name = {r[0]: r[2] for r in rows}
        self.cylinders = {r[0]: r[3] for r in rows}
        self.weight0 = {r[0]: r[1] for r in rows}
        self.weights_mutable = weights_mutable
        if len(self.name) != len(rows):
            raise ValueError("oracle: duplicate Vehicle ids across shards")
        self.ids_by_cyl: dict = {}
        for vid, cyl in self.cylinders.items():
            self.ids_by_cyl.setdefault(cyl, set()).add(vid)
        self.digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()
        ).hexdigest()

    @property
    def weight_sum(self) -> int:
        return sum(self.weight0.values())

    def check(self, expect: tuple, rows, count) -> bool:
        """Does a statement's result (``rows`` of a SELECT, else ``count``)
        match the oracle?"""
        tag = expect[0]
        if tag == "count":
            return count == expect[1]
        if tag == "new":
            return rows is None
        if rows is None:
            return False
        if tag == "empty":
            return rows == []
        if tag == "mfr":
            return rows == [(expect[1], self.name[expect[1]])]
        if tag == "eng":
            return rows == [(self.cylinders[expect[1]],)]
        if tag == "point":
            if len(rows) != 1 or rows[0][0] != expect[1]:
                return False
            return self._weight_ok(expect[1], rows[0][1])
        if tag == "weight":
            return len(rows) == 1 and self._weight_ok(expect[1], rows[0][0])
        if tag == "back_cyl":
            # Scatter-gather: the merged rows must be the union over shards.
            return sorted(r[0] for r in rows) == sorted(
                self.ids_by_cyl.get(expect[1], ()))
        if tag == "ex81":
            want = [vid for vid in self.ids_by_cyl.get(expect[1], ())
                    if self.name[vid] == expect[2]]
            return sorted(r[0] for r in rows) == sorted(want)
        if tag == "scan_cyl":
            want = [(vid, self.name[vid])
                    for vid in self.ids_by_cyl.get(expect[1], ())]
            return sorted(rows) == sorted(want)
        if tag == "range_w":
            want = [(vid, w) for vid, w in self.weight0.items()
                    if w > expect[1]]
            return sorted(rows) == sorted(want)
        if tag == "scan_w":
            want = [(vid, self.cylinders[vid])
                    for vid, w in self.weight0.items()
                    if expect[1] < w <= expect[2]]
            return sorted(rows) == sorted(want)
        raise ValueError(f"unknown oracle check {tag!r}")

    def _weight_ok(self, vehicle_id: int, weight) -> bool:
        if not self.weights_mutable:
            return weight == self.weight0[vehicle_id]
        return isinstance(weight, int)  # exactness: the conservation law


def expected_digest(workload_name: str) -> str | None:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["data_digest"].get(workload_name)
