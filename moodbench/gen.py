"""The seeded transaction generator.

``--seed`` is the generator's only input: a workload's stream for client
``c`` is a pure function of ``(workload, seed, c)``.  The program under
test sees nothing but the generated statements.  Random sources are
``random.Random`` instances seeded with strings (hashed with SHA-512 by
the standard library, so independent of ``PYTHONHASHSEED``).

A transaction is a tuple of steps; a step names a statement template, its
bind values, an optional ``shard_key`` routing hint, and the oracle check
its result must pass (see :mod:`moodbench.oracle`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from moodbench.spec import MARKER_BASE, STREAM_SHARDS, Workload

ZIPF_THETA = 0.8

#: Statement templates over the Section 3.1 schema (``?`` = bind value).
TEMPLATES = {
    "point": "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = ?",
    "path_mfr": "SELECT v.id, v.manufacturer.name FROM Vehicle v "
                "WHERE v.id = ?",
    "path_eng": "SELECT v.drivetrain.engine.cylinders FROM Vehicle v "
                "WHERE v.id = ?",
    # Example 8.1's shape: two path predicates the optimizer may traverse
    # backward from the selective end.
    "ex81": "SELECT v.id FROM Vehicle v "
            "WHERE v.drivetrain.engine.cylinders = ? "
            "AND v.manufacturer.name = ?",
    "back_cyl": "SELECT v.id FROM Vehicle v "
                "WHERE v.drivetrain.engine.cylinders = ?",
    "range_w": "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > ?",
    "scan_cyl": "SELECT v.id, v.manufacturer.name FROM Vehicle v "
                "WHERE v.drivetrain.engine.cylinders = ?",
    "scan_w": "SELECT v.id, v.drivetrain.engine.cylinders FROM Vehicle v "
              "WHERE v.weight > ? AND v.weight <= ?",
    "credit": "UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = ?",
    "debit": "UPDATE Vehicle v SET weight = v.weight - 1 WHERE v.id = ?",
    "weight": "SELECT v.weight FROM Vehicle v WHERE v.id = ?",
    "new_eng": "NEW VehicleEngine <?, 0>",
    "del_eng": "DELETE FROM VehicleEngine e WHERE e.size = ?",
    "find_eng": "SELECT e.size FROM VehicleEngine e WHERE e.size = ?",
}

#: Templates that change data: ``MoodDatabase`` re-runs ANALYZE before the
#: next read.
WRITES = frozenset({"credit", "debit", "new_eng", "del_eng"})

#: paperdb constants the generator may name (cylinders are 2..32 even;
#: every JapaneseAuto is made by one of these three).
CYLINDERS = tuple(range(2, 33, 2))
JAPANESE = ("Toyota", "Honda", "Nissan")
#: paperdb weights are 800 + (37 i mod 1400).
WEIGHT_LOW, WEIGHT_SPAN = 800, 1400

#: Transaction kind -> latency class reported as server.client.<cls>_p50_ms.
LATENCY_CLASS = {
    "point": "read",
    "path_mfr": "path", "path_eng": "path", "read2": "path",
    "back": "scan", "range": "scan", "scan_cyl": "scan", "scan_w": "scan",
    "scatter": "scan",
    "write": "write", "newdel": "write",
    "xfer": "xfer",
}


@dataclass(frozen=True)
class Step:
    template: str
    params: tuple
    key: int | None     # shard_key hint (None = unhinted)
    expect: tuple       # oracle check: (tag, *args)

    @property
    def sql(self) -> str:
        """The literal-SQL rendering (unprepared workloads send this)."""
        return render(TEMPLATES[self.template], self.params)


@dataclass(frozen=True)
class Txn:
    kind: str
    steps: tuple
    atomic: bool        # BEGIN..COMMIT through run_transaction
    weight_delta: int   # what a commit adds to the sum of Vehicle.weight

    @property
    def cls(self) -> str:
        return LATENCY_CLASS[self.kind]


def render(template: str, params: tuple) -> str:
    """Substitute bind values for ``?`` left to right as MOODSQL literals."""
    pieces = template.split("?")
    if len(pieces) != len(params) + 1:
        raise ValueError(f"{template!r} takes {len(pieces) - 1} values")
    out = [pieces[0]]
    for value, piece in zip(params, pieces[1:]):
        out.append(f"'{value}'" if isinstance(value, str) else str(value))
        out.append(piece)
    return "".join(out)


class KeyPicker:
    """Vehicle ids: uniform, or Zipf(theta) over a seeded permutation.

    The permutation sends rank ``r`` to an id congruent to ``r`` modulo
    STREAM_SHARDS: which ids are hot depends on the seed, how the hot set
    splits over the shards does not (otherwise the seed would decide
    whether one shard is the bottleneck)."""

    def __init__(self, scale: int, keys: str, seed: int):
        self.scale = scale
        self._cumulative = None
        if keys == "zipf":
            rng = random.Random(f"moodbench/{seed}/hotset")
            lanes = []
            for lane in range(STREAM_SHARDS):
                ids = list(range(lane, scale, STREAM_SHARDS))
                rng.shuffle(ids)
                lanes.append(ids)
            self._order = [lanes[rank % STREAM_SHARDS][rank // STREAM_SHARDS]
                           for rank in range(scale)]
            self._cumulative = list(itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_THETA for rank in range(scale)
            ))

    def pick(self, rng: random.Random) -> int:
        if self._cumulative is None:
            return rng.randrange(self.scale)
        point = rng.random() * self._cumulative[-1]
        return self._order[bisect.bisect_left(self._cumulative, point)]


class Deck:
    """Deals a mix's cards in seeded random order, reshuffling when the
    deck runs out."""

    def __init__(self, mix: tuple, rng: random.Random):
        self._rng = rng
        self._cards = [kind for kind, count in mix for _ in range(count)]
        self._hand: list = []

    def deal(self) -> str:
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def stream(workload: Workload, seed: int, client: int):
    """The endless transaction stream of one client."""
    rng = random.Random(f"moodbench/{seed}/{workload.name}/{client}")
    keys = KeyPicker(workload.scale, workload.keys, seed)
    deck = Deck(workload.mix, rng)
    hinted = workload.target == "sharded"
    scale = workload.scale
    marker = MARKER_BASE + client * 10_000_000

    def hint(vehicle_id: int):
        return vehicle_id if hinted else None

    def one(template: str, params: tuple, key, *expect) -> tuple:
        return (Step(template, params, key, expect),)

    while True:
        kind = deck.deal()
        k = keys.pick(rng)
        delta, atomic = 0, False
        if kind == "point":
            steps = one("point", (k,), hint(k), "point", k)
        elif kind == "path_mfr":
            steps = one("path_mfr", (k,), hint(k), "mfr", k)
        elif kind == "path_eng":
            steps = one("path_eng", (k,), hint(k), "eng", k)
        elif kind == "back":
            cyl, name = rng.choice(CYLINDERS), rng.choice(JAPANESE)
            steps = one("ex81", (cyl, name), None, "ex81", cyl, name)
        elif kind == "range":
            low = WEIGHT_LOW + rng.randrange(WEIGHT_SPAN)
            steps = one("range_w", (low,), None, "range_w", low)
        elif kind == "scan_cyl":
            cyl = rng.choice(CYLINDERS)
            steps = one("scan_cyl", (cyl,), None, "scan_cyl", cyl)
        elif kind == "scan_w":
            # 4%..20% of the weight domain: 50-500 rows at |Vehicle|=2400.
            width = rng.randrange(WEIGHT_SPAN // 25, WEIGHT_SPAN // 5)
            low = WEIGHT_LOW + rng.randrange(WEIGHT_SPAN - width)
            steps = one("scan_w", (low, low + width), None,
                        "scan_w", low, low + width)
        elif kind == "scatter":
            cyl = rng.choice(CYLINDERS)
            steps = one("back_cyl", (cyl,), None, "back_cyl", cyl)
        elif kind == "read2":
            # The peer is STREAM_SHARDS ids away: same shard, so the
            # transaction stays single-shard behind a router.
            peer = (k + STREAM_SHARDS) % scale
            atomic = True
            steps = (
                Step("path_mfr", (k,), hint(k), ("mfr", k)),
                Step("path_eng", (peer,), hint(peer), ("eng", peer)),
            )
        elif kind == "write":
            # Every writing transaction ends by reading back: the first
            # read after a write re-runs ANALYZE, and paying for it inside
            # the transaction that caused it keeps a deck's work in the deck.
            peer = (k + scale // 2) % scale     # scale/2 is even: same shard
            atomic, delta = True, 1
            steps = (
                Step("credit", (k,), hint(k), ("count", 1)),
                Step("weight", (peer,), hint(peer), ("weight", peer)),
            )
        elif kind == "xfer":
            # Ids one apart live on different shards; lock shards in
            # ascending order (cross-shard deadlocks are invisible to the
            # per-shard wait-for graphs).
            first, second = sorted((k, (k + 1) % scale),
                                   key=lambda vid: vid % STREAM_SHARDS)
            atomic = True
            steps = (
                Step("credit", (first,), hint(first), ("count", 1)),
                Step("debit", (second,), hint(second), ("count", 1)),
                Step("weight", (first,), hint(first), ("weight", first)),
                Step("weight", (second,), hint(second), ("weight", second)),
            )
        elif kind == "newdel":
            marker += 1
            atomic = True
            steps = (
                Step("new_eng", (marker,), None, ("new",)),
                Step("del_eng", (marker,), None, ("count", 1)),
                Step("find_eng", (marker,), None, ("empty",)),
            )
        else:
            raise ValueError(f"unknown transaction kind {kind!r}")
        yield Txn(kind, steps, atomic, delta)


def first_txns(workload: Workload, seed: int, count: int,
               client: int = 0) -> list:
    return list(itertools.islice(stream(workload, seed, client), count))


def workload_digest(workload: Workload, seed: int, count: int = 1000) -> str:
    """SHA-256 over the first ``count`` transactions of client 0."""
    digest = hashlib.sha256()
    for txn in first_txns(workload, seed, count):
        digest.update(json.dumps(
            [txn.kind, [[s.template, list(s.params), s.key]
                        for s in txn.steps]],
            separators=(",", ":"),
        ).encode())
    return digest.hexdigest()
