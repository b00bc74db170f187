"""The router's two-phase-commit decision log (presumed abort).

A cross-shard transaction commits in two phases: every participant votes
by forcing a ``PREPARE`` record into its own WAL, then the coordinator
*decides*.  The decision is the commit point, so it must be durable
before any participant learns it -- this log is that stable storage.

Presumed abort logs only COMMIT decisions: a gid with no logged decision
is aborted, whoever asks.  A ``DONE`` record retires a decision once
every participant acknowledged phase 2; recovery re-drives decisions
that have no DONE.  (A log written by an older router may also hold
ABORT decisions; they replay and are re-driven like any other.)

The log is a JSON-lines file when given a path (one fsync per record,
mirroring a log on a separate stable device) and memory only otherwise
-- the in-memory form survives a *simulated* router crash because tests
hand the same object to the restarted router, exactly as the simulated
disk's platters survive ``crash()``.  Either way only the pending
decisions are held in memory.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class Decision:
    """One logged decision and its participant set."""

    gid: str
    verdict: str               # "COMMIT" (or "ABORT" from an older log)
    shards: tuple[int, ...]    # participants awaiting the decision


class CoordinatorLog:
    """Append-only decision log that remembers its pending decisions."""

    def __init__(self, path: str | None = None):
        self._mutex = threading.Lock()
        #: Decisions with no DONE record yet, in log order.
        self._pending: dict[str, Decision] = {}
        self._path = path
        if path is not None and os.path.exists(path):
            self._replay(path)

    def _replay(self, path: str) -> None:
        with open(path, "rb") as handle:
            lines = handle.readlines()
        intact = 0  # bytes of whole records read so far
        for number, line in enumerate(lines):
            try:
                record = json.loads(line) if line.strip() else None
                if not line.endswith(b"\n"):
                    raise ValueError("record has no line end")
            except ValueError:
                if number < len(lines) - 1:
                    raise
                # A torn append: its log_decision never returned, so
                # presumed abort covers it.  Cut it off so the next
                # append starts a line of its own.
                os.truncate(path, intact)
                return
            if record is not None:
                self._apply(record)
            intact += len(line)

    def _apply(self, record: dict) -> None:
        if record["kind"] == "DECISION":
            self._pending[record["gid"]] = Decision(
                record["gid"], record["verdict"], tuple(record["shards"]),
            )
        else:
            self._pending.pop(record["gid"], None)

    def _append(self, record: dict) -> None:
        with self._mutex:
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
            self._apply(record)

    def log_decision(self, gid: str, shards) -> None:
        """Force the commit point: after this returns, ``gid`` commits
        no matter who crashes."""
        self._append({
            "kind": "DECISION", "gid": gid, "verdict": "COMMIT",
            "shards": sorted(int(s) for s in shards),
        })

    def log_done(self, gid: str) -> None:
        """Every participant has acknowledged phase 2; forget ``gid``."""
        self._append({"kind": "DONE", "gid": gid})

    def pending(self) -> list[Decision]:
        """Decisions with no DONE record, in log order -- the re-drive
        list for coordinator recovery."""
        with self._mutex:
            return list(self._pending.values())
