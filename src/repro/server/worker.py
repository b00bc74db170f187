"""Shard workers: one engine per OID-space partition.

A *shard* is a complete MOOD engine -- its own storage manager, WAL,
buffer pool, lock table, object cache, plan cache and
:class:`~repro.server.server.MoodServer` -- owning a disjoint slice of
the OID space (``page_base = shard_index * SHARD_PAGE_SPAN``, see
:mod:`repro.storage.oid`).  The router talks to every shard over the
ordinary frame protocol, so a shard is just a MOOD server that happens
to allocate pages from its own range.

Two backends implement the same small surface (``shard_index``,
``start``, ``stop``, ``alive``, and ``connect``, which returns the link
the router sends the shard's frames over):

* :class:`ProcessShard` runs the engine in a ``multiprocessing`` worker
  (spawn context) -- the scale-out deployment.  Each worker binds port 0
  and reports the OS-assigned address back through a pipe.
* :class:`LocalShard` runs the engine in-process; its links are calls.
  Because the simulated disk and WAL live in memory, only this backend
  can *simulate* a shard crash and restart with its data intact
  (``crash()`` / ``restart()``), so the 2PC recovery tests use it;
  killing a ProcessShard loses the shard's universe along with the
  process.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading

from repro.core.errors import MoodError, ProtocolError, ShardUnavailableError
from repro.core.database import MoodDatabase
from repro.server.protocol import (
    answer_frame, decode_frame, encode_frame, recv_frame_bytes,
    send_frame_bytes,
)
from repro.server.server import MoodServer, ServerConfig
from repro.storage.oid import shard_page_base

#: Seconds to wait for a worker process to come up / shut down.
WORKER_START_TIMEOUT = 60.0
WORKER_STOP_TIMEOUT = 15.0
#: Seconds one router->shard call may take over a socket link.
LINK_TIMEOUT = 60.0


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
    a ``"stop"`` command, and exits once stopped.  A hard kill is
    delivered by the parent as ``Process.terminate`` -- no cleanup runs.
    """
    try:
        db = _build_database(shard_index, shard_count, options)
        server = MoodServer(db, _server_config(options))
        host, port = server.start()
    except Exception as exc:  # surface the failure to the parent
        conn.send(("error", repr(exc)))
        return
    conn.send(("ready", host, port))
    conn.recv()  # the parent's one command: "stop"
    server.stop()


class _ShardLink:
    """One socket to one shard worker.  Any transport failure surfaces
    as :class:`ShardUnavailableError`; the owner must then discard the
    link (its stream may be desynchronised)."""

    def __init__(self, shard_index: int, address: tuple[str, int]):
        self.shard_index = shard_index
        try:
            self._sock = socket.create_connection(address,
                                                  timeout=LINK_TIMEOUT)
        except OSError as exc:
            raise ShardUnavailableError(
                f"shard {shard_index} unreachable at {address}: {exc}"
            ) from None

    def call(self, request):
        """Send one frame -- a dict, or already-encoded bytes -- and return
        the response in the same form.  Bytes in, bytes out is the relay
        hot path: no JSON decode/re-encode at the router."""
        raw = isinstance(request, bytes)
        try:
            send_frame_bytes(self._sock,
                             request if raw else encode_frame(request))
            response = recv_frame_bytes(self._sock)
        except (OSError, ProtocolError) as exc:
            raise ShardUnavailableError(
                f"shard {self.shard_index} failed mid-call: {exc}"
            ) from None
        if response is None:
            raise ShardUnavailableError(f"shard {self.shard_index} hung up")
        return response if raw else decode_frame(response)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


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
        except OSError:
            pass  # the worker is already gone
        self._process.join(timeout=WORKER_STOP_TIMEOUT)
        self.kill()  # a worker that did not exit in time

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

    def connect(self) -> _ShardLink:
        if self.address is None:
            raise ShardUnavailableError(f"shard {self.shard_index} is down")
        return _ShardLink(self.shard_index, self.address)


class _CallLink:
    """A link to an in-process shard that is a call: the shard's server
    answers each encoded frame in the caller's thread.  The link belongs
    to the server live at :meth:`LocalShard.connect`; once the shard
    crashes or stops, every call raises :class:`ShardUnavailableError`."""

    def __init__(self, shard: "LocalShard"):
        self._shard = shard
        self._server = shard.server
        self._check_live()
        self._session = self._server.open_session()

    def _check_live(self) -> None:
        if self._server is None or self._shard.server is not self._server:
            raise ShardUnavailableError(
                f"shard {self._shard.shard_index} is down"
            )

    def call(self, request):
        raw = isinstance(request, bytes)
        payload = request if raw else encode_frame(request)
        self._check_live()
        try:
            response, _ = answer_frame(self._server, self._session, payload)
        finally:
            # A crash mid-call loses the answer, whatever the dying
            # engine raised or returned: the caller sees the shard gone.
            self._check_live()
        return response if raw else decode_frame(response)

    def close(self) -> None:
        # Only on the live server: a stale session must not roll back
        # work on the restarted engine.
        if self._shard.server is self._server:
            self._server.close_session(self._session)


class LocalShard:
    """One shard engine in-process, with crash/restart simulation.

    The engine's simulated disk and WAL are ordinary objects in this
    process, so :meth:`crash` can lose exactly the volatile state (buffer
    pool, lock table, live transactions, the server) while the platters
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
        self._mutex = threading.Lock()

    def start(self) -> None:
        with self._mutex:
            if self.server is not None:
                raise MoodError(f"shard {self.shard_index} already started")
            if self.db is None:
                self.db = _build_database(
                    self.shard_index, self.shard_count, self.options
                )
            self.server = MoodServer(self.db, _server_config(self.options))

    def stop(self) -> None:
        with self._mutex:
            if self.server is not None:
                self.server.stop()
                self.server = None

    def crash(self) -> None:
        """Simulate a worker crash: the server is dropped mid-flight and
        all volatile engine state is lost; log and platters survive."""
        with self._mutex:
            # A process kill takes the reclusterer thread with it.
            self.db.stop_reclusterer()
            self.server = None
            self.db.kernel.storage.crash()

    def restart(self) -> None:
        """Restart recovery over the surviving log, then serve again."""
        with self._mutex:
            if self.server is not None:
                raise MoodError(f"shard {self.shard_index} is running")
            self.db.kernel.storage.restart()
            self.server = MoodServer(self.db, _server_config(self.options))

    @property
    def alive(self) -> bool:
        return self.server is not None

    def connect(self) -> _CallLink:
        return _CallLink(self)
