"""Shard workers: one engine per OID-space partition.

A *shard* is a complete MOOD engine -- its own storage manager, WAL,
buffer pool, lock table, object cache, plan cache and
:class:`~repro.server.server.MoodServer` -- owning a disjoint slice of
the OID space (``page_base = shard_index * SHARD_PAGE_SPAN``, see
:mod:`repro.storage.oid`).  The router talks to every shard over the
ordinary frame protocol, so a shard is just a MOOD server that happens
to allocate pages from its own range.

Two backends implement the same small surface (``shard_index``,
``address``, ``start``, ``stop``):

* :class:`ProcessShard` runs the engine in a ``multiprocessing`` worker
  (spawn context) -- the scale-out deployment.  Each worker binds port 0
  and reports the OS-assigned address back through a pipe.
* :class:`LocalShard` runs the engine in-process.  Because the simulated
  disk and WAL live in memory, only this backend can *simulate* a shard
  crash and restart with its data intact (``crash()`` / ``restart()``),
  so the 2PC recovery tests use it; killing a ProcessShard loses the
  shard's universe along with the process.
"""

from __future__ import annotations

import multiprocessing
import threading

from repro.core.errors import MoodError, ShardUnavailableError
from repro.core.database import MoodDatabase
from repro.server.server import MoodServer, ServerConfig
from repro.storage.oid import shard_page_base

#: Seconds to wait for a worker process to come up / shut down.
WORKER_START_TIMEOUT = 60.0
WORKER_STOP_TIMEOUT = 15.0


def _build_database(shard_index: int, shard_count: int, options: dict) -> MoodDatabase:
    db = MoodDatabase(
        buffer_capacity=options.get("buffer_capacity", 512),
        page_base=shard_page_base(shard_index),
    )
    if options.get("build_paper"):
        from repro.bench.paperdb import build_paper_shard

        build_paper_shard(
            db, shard_index, shard_count,
            scale=options.get("scale", 100),
            seed=options.get("seed", 42),
        )
    if options.get("analyze"):
        db.analyze()
    return db


def _server_config(options: dict) -> ServerConfig:
    config = ServerConfig(port=0)
    for field in ("max_workers", "max_queue", "admission_timeout",
                  "statement_timeout", "recluster_interval"):
        if field in options:
            setattr(config, field, options[field])
    return config


def worker_main(
    shard_index: int, shard_count: int, options: dict, conn
) -> None:
    """Worker-process entry point (top level, so spawn can import it).

    Builds the shard's engine, serves on an OS-assigned port, reports
    ``("ready", host, port)`` down the pipe, then blocks on the pipe for
    a ``"stop"`` command.  A hard kill is delivered by the parent as
    ``Process.terminate`` -- no cleanup runs, which is the point.
    """
    try:
        db = _build_database(shard_index, shard_count, options)
        server = MoodServer(db, _server_config(options))
        host, port = server.start()
    except Exception as exc:  # surface the failure to the parent
        conn.send(("error", repr(exc)))
        return
    conn.send(("ready", host, port))
    while True:
        message = conn.recv()
        if message == "stop":
            server.stop()
            conn.send(("stopped",))
            return


class ProcessShard:
    """One shard engine in a dedicated worker process."""

    def __init__(self, shard_index: int, shard_count: int,
                 options: dict | None = None):
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.options = dict(options or {})
        self._process: multiprocessing.Process | None = None
        self._conn = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        if self._process is not None:
            raise MoodError(f"shard {self.shard_index} already started")
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(self.shard_index, self.shard_count, self.options,
                  child_conn),
            name=f"mood-shard-{self.shard_index}",
            daemon=True,
        )
        self._process.start()
        self._conn = parent_conn
        if not parent_conn.poll(WORKER_START_TIMEOUT):
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.shard_index} did not report ready"
            )
        message = parent_conn.recv()
        if message[0] != "ready":
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.shard_index} failed to start: {message[1]}"
            )
        self.address = (message[1], message[2])
        return self.address

    def stop(self) -> None:
        """Graceful shutdown (drain, rollback, checkpoint) then join."""
        if self._process is None:
            return
        try:
            self._conn.send("stop")
            if self._conn.poll(WORKER_STOP_TIMEOUT):
                self._conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._process.join(timeout=WORKER_STOP_TIMEOUT)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
        self._process = None
        self.address = None

    def kill(self) -> None:
        """Hard kill: the worker gets no chance to clean up."""
        if self._process is None:
            return
        self._process.terminate()
        self._process.join(timeout=5)
        self._process = None
        self.address = None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()


class LocalShard:
    """One shard engine in-process, with crash/restart simulation.

    The engine's simulated disk and WAL are ordinary objects in this
    process, so :meth:`crash` can lose exactly the volatile state (buffer
    pool, lock table, live transactions, the listener) while the platters
    and the log survive for :meth:`restart` -- the only way to exercise a
    shard's restart recovery, in-doubt resurrection included.
    """

    def __init__(self, shard_index: int, shard_count: int,
                 options: dict | None = None):
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.options = dict(options or {})
        self.db: MoodDatabase | None = None
        self.server: MoodServer | None = None
        self.address: tuple[str, int] | None = None
        self._mutex = threading.Lock()

    def start(self) -> tuple[str, int]:
        with self._mutex:
            if self.server is not None:
                raise MoodError(f"shard {self.shard_index} already started")
            if self.db is None:
                self.db = _build_database(
                    self.shard_index, self.shard_count, self.options
                )
            self.server = MoodServer(self.db, _server_config(self.options))
            self.address = self.server.start()
            return self.address

    def stop(self) -> None:
        with self._mutex:
            if self.server is not None:
                self.server.stop()
                self.server = None
                self.address = None

    def crash(self) -> None:
        """Simulate a worker crash: the listener dies mid-flight and all
        volatile engine state is lost; log and platters survive."""
        with self._mutex:
            if self.server is not None:
                self.server.simulate_crash()
                self.server = None
                self.address = None
            self.db.kernel.storage.crash()

    def restart(self) -> tuple[str, int]:
        """Restart recovery over the surviving log, then serve again."""
        with self._mutex:
            if self.server is not None:
                raise MoodError(f"shard {self.shard_index} is running")
            self.db.kernel.storage.restart()
            self.server = MoodServer(self.db, _server_config(self.options))
            self.address = self.server.start()
            return self.address

    @property
    def alive(self) -> bool:
        return self.server is not None
