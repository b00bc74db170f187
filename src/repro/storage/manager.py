"""The storage manager facade: our stand-in for the Exodus Storage Manager.

Per the paper's Section 1, ESM gives MOOD storage management, concurrency
control, and backup/recovery; the MOOD kernel layers catalog management,
SQL interpretation/optimization, and dynamic function linking on top.  This
class is the 'ESM' the rest of the reproduction talks to:

* volumes/pages/buffering over the simulated disk,
* record files addressed by OID,
* B+-tree, extendible-hash and R-tree indexes wired into I/O accounting,
* transactions with strict file-level 2PL and physical WAL -- every write
  (insert, update, delete, relocation, page allocation) goes through one
  logged-write path, :meth:`StorageManager._write`,
* crash and restart-recovery simulation,
* named roots (persistent entry points used to bootstrap the catalog).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.errors import (
    FileNotFoundStorageError,
    StorageError,
)
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskParams, IOStats, SimulatedDisk
from repro.storage.file import _FWD, StorageCounters, StorageFile
from repro.storage.hashindex import ExtendibleHashIndex
from repro.storage.locks import LockManager
from repro.storage.oid import OID
from repro.storage.recovery import RecoveryReport, recover
from repro.storage.rtree import RTree
from repro.storage.transactions import Transaction, TransactionManager
from repro.storage.wal import LogKind, WriteAheadLog


class StorageManager:
    """Facade over disk, buffer pool, WAL, locks, files and indexes."""

    def __init__(
        self,
        params: DiskParams | None = None,
        buffer_capacity: int = 256,
        page_base: int = 0,
    ):
        self.metrics = MetricsRegistry()
        #: Server-wide journal of notable operational events (lock waits,
        #: deadlocks, checkpoints, recovery, cache storms, admission
        #: rejections); components above the storage layer share it.
        self.events = EventJournal()
        self.disk = SimulatedDisk(params, page_base=page_base)
        self.disk.attach_metrics(self.metrics.component("disk"))
        self.volume = self.disk.mount_volume()
        self.buffer = BufferManager(
            self.disk, buffer_capacity, self.metrics.component("buffer")
        )
        self.wal = WriteAheadLog(self.disk.params, self.metrics.component("wal"))
        self.locks = LockManager(
            metrics=self.metrics.component("locks"), events=self.events
        )
        self.txns = TransactionManager(self.wal, self.locks, self._apply_page_image)
        self.txns.on_abort = self._refresh_after_abort
        #: The storage latch (shared with the transaction manager and used
        #: by the server as its engine latch): whoever holds it may touch
        #: pages, the buffer pool, and capture windows.  Reentrant, so
        #: nested storage calls under a session's statement are free.
        self.latch = self.txns.latch
        #: Move/forwarding counters (``storage.*``), shared by every file
        #: so moves and stub hops are visible fleet-wide.
        self.storage_counters = StorageCounters(
            self.metrics.component("storage")
        )
        self._files: dict[int, StorageFile] = {}
        self._file_names: dict[str, int] = {}
        self._next_file_id = 1
        #: The transaction of the logged write in progress: like the
        #: capture window, only meaningful under the latch (see _write).
        self._writer: Transaction | None = None
        #: Test hook: called right after a MOVE log record is appended,
        #: before its write's page images are logged (None in production).
        self._move_failpoint = None
        self._btrees: dict[str, BPlusTree] = {}
        self._hashes: dict[str, ExtendibleHashIndex] = {}
        self._rtrees: dict[str, RTree] = {}
        self._named_roots: dict[str, OID] = {}
        #: Callbacks run when volatile state is lost (crash) or rebuilt
        #: (restart recovery) -- caches layered above register here.
        self._reset_hooks: list = []

    def add_reset_hook(self, hook) -> None:
        """Register ``hook()`` to run on :meth:`crash` and :meth:`restart`."""
        self._reset_hooks.append(hook)

    def _run_reset_hooks(self) -> None:
        for hook in self._reset_hooks:
            hook()

    # -- I/O accounting ------------------------------------------------------

    @property
    def params(self) -> DiskParams:
        return self.disk.params

    @property
    def io_stats(self) -> IOStats:
        return self.disk.stats

    def io_snapshot(self) -> IOStats:
        return self.disk.stats.snapshot()

    def _charge_index_page(self) -> None:
        """One index-node visit = one random page read (INDCOST model)."""
        self.disk.stats.charge_random_read(self.disk.params)

    # -- files --------------------------------------------------------------

    def create_file(self, name: str | None = None) -> StorageFile:
        file_id = self._next_file_id
        self._next_file_id += 1
        storage_file = StorageFile(file_id, self.volume, self.buffer)
        storage_file.counters = self.storage_counters
        storage_file.on_move = self._log_move
        self._files[file_id] = storage_file
        if name is not None:
            if name in self._file_names:
                raise StorageError(f"file named {name!r} already exists")
            self._file_names[name] = file_id
        return storage_file

    def file(self, file_id: int) -> StorageFile:
        try:
            return self._files[file_id]
        except KeyError:
            raise FileNotFoundStorageError(f"no file {file_id}") from None

    def file_by_name(self, name: str) -> StorageFile:
        if name not in self._file_names:
            raise FileNotFoundStorageError(f"no file named {name!r}")
        return self._files[self._file_names[name]]

    def drop_file(self, file_id: int) -> None:
        storage_file = self.file(file_id)
        storage_file.destroy()
        del self._files[file_id]
        for name, fid in list(self._file_names.items()):
            if fid == file_id:
                del self._file_names[name]

    def files(self) -> list[StorageFile]:
        return [self._files[fid] for fid in sorted(self._files)]

    # -- record operations (transaction-aware) -------------------------------

    def _write(self, storage_file: StorageFile, txn: Transaction | None,
               op, *args):
        """The one logged-write path: run ``op(*args)`` against
        ``storage_file``.

        Without a transaction the write is unlogged.  Under one, it takes
        the X lock on the file, then runs under the latch inside a page
        capture window (the latch keeps the window, a global LIFO on the
        buffer pool, paired with exactly this operation's page writes).
        Every record or body the write moves to another page is logged as
        a ``MOVE`` record the moment it moves (:meth:`_log_move`), and the
        page images the window captured follow as ``UPDATE`` records.
        """
        if txn is None:
            return op(*args)
        self.txns.lock_exclusive(txn, ("file", storage_file.file_id))
        with self.latch:
            self._writer = txn
            self.buffer.start_capture()
            try:
                result = op(*args)
            finally:
                changes = self.buffer.end_capture()
                self._writer = None
            for (volume, page_no), before, after in changes:
                self.txns.log_page_update(txn, volume, page_no, before, after)
        return result

    def _log_move(self, source: OID, target: OID) -> None:
        """``StorageFile.on_move``: inside a logged write, append the
        logical ``MOVE`` record -- packed source and target OIDs, no page
        bytes -- ahead of the write's page images."""
        if self._writer is None:
            return
        self.wal.append(
            LogKind.MOVE, self._writer.txn_id,
            volume=source.volume, page_no=source.page,
            before=_FWD.pack(source.volume, source.page, source.slot),
            after=_FWD.pack(target.volume, target.page, target.slot),
        )
        if self._move_failpoint is not None:
            self._move_failpoint()

    def insert(
        self, storage_file: StorageFile, payload: bytes, txn: Transaction | None = None
    ) -> OID:
        return self._write(storage_file, txn, storage_file.insert, payload)

    def read(
        self, storage_file: StorageFile, oid: OID,
        txn: Transaction | None = None, read_through: bool = False,
    ) -> bytes:
        """Read ``oid``'s payload (S-locking the file under ``txn``).
        ``read_through`` is for callers reading in ascending page order: a
        miss may then read through a short gap instead of seeking."""
        if txn is not None:
            self.txns.lock_shared(txn, ("file", storage_file.file_id))
        return storage_file.read(oid, read_through)

    def update(
        self,
        storage_file: StorageFile,
        oid: OID,
        payload: bytes,
        txn: Transaction | None = None,
    ) -> None:
        self._write(storage_file, txn, storage_file.update, oid, payload)

    def delete(
        self, storage_file: StorageFile, oid: OID, txn: Transaction | None = None
    ) -> None:
        self._write(storage_file, txn, storage_file.delete, oid)

    def scan(
        self, files: Iterable[StorageFile], txn: Transaction | None = None
    ) -> Iterator[tuple[StorageFile, OID, bytes]]:
        """Yield every live record of ``files`` as ``(file, oid, payload)``
        in one sweep over the union of their pages, ascending by page
        number: interleaved member extents of a class hierarchy then cost
        SEQCOST, not a random read per page.  Under ``txn`` every file is
        S-locked before the first row."""
        files = list(files)
        if txn is not None:
            for storage_file in files:
                self.txns.lock_shared(txn, ("file", storage_file.file_id))
        owners = {page_no: f for f in files for page_no in f.pages}
        for page_no in sorted(owners):
            for oid, payload in owners[page_no].scan_page(page_no):
                yield owners[page_no], oid, payload

    def relocate(
        self,
        storage_file: StorageFile,
        oid: OID,
        target_page: int,
        txn: Transaction | None = None,
    ) -> OID:
        """Move ``oid``'s record onto ``target_page`` under a new identity
        (see ``StorageFile.relocate``) and return its new OID.  Logged like
        any other write: the ``MOVE`` record, then the page images, so a
        crash at any point leaves exactly one live copy."""
        return self._write(
            storage_file, txn, storage_file.relocate, oid, target_page
        )

    def allocate_page(
        self, storage_file: StorageFile, txn: Transaction | None = None
    ) -> int:
        """Add a fresh formatted page to ``storage_file`` (logged under
        ``txn``, so an abort or crash frees it again)."""
        return self._write(storage_file, txn, storage_file.allocate_page)

    # -- transactions -------------------------------------------------------

    def begin(self) -> Transaction:
        return self.txns.begin()

    def checkpoint(self) -> None:
        """Flush all dirty pages and cut a checkpoint in the log."""
        self.buffer.flush_all()
        lsn = self.wal.append(LogKind.CHECKPOINT, 0)
        self.wal.force()
        self.events.emit("wal.checkpoint", lsn=lsn, records=len(self.wal))

    # -- crash / restart simulation -------------------------------------------

    def crash(self) -> None:
        """Lose volatile state: buffer pool, lock table, active transactions."""
        self.buffer.drop_all()
        self.disk.crash()
        self.txns.active.clear()
        self.txns.in_doubt.clear()   # resurrected from the log on restart
        self.locks = LockManager(metrics=self.locks.metrics, events=self.events)
        self.txns.locks = self.locks
        self.events.emit("storage.crash")
        self._run_reset_hooks()

    def restart(self) -> RecoveryReport:
        """Run restart recovery and refresh per-file record counts.

        Losers are rolled back through the ordinary, logged abort, so a
        second crash cannot bring their writes back.  In-doubt
        (2PC-prepared) transactions found on the log are resurrected with
        their lock sets re-held: their pages stay redone (not undone), and
        only their coordinator's decision -- delivered via
        ``txns.commit_prepared`` / ``txns.rollback_prepared`` -- releases
        them.
        """
        # Under the storage latch: a statement still running on a thread
        # the crash abandoned must not slip its page images in between the
        # analysis pass and the undo that relies on it.
        with self.latch:
            report = recover(self.txns)
            for storage_file in self._files.values():
                self._recount(storage_file)
        self.events.emit(
            "recovery.replay",
            winners=len(report.winners), losers=len(report.losers),
            redone=report.redone, undone=report.undone,
            in_doubt=len(report.in_doubt),
        )
        self._run_reset_hooks()
        return report

    def _apply_page_image(self, volume: int, page_no: int, image: bytes) -> None:
        self.buffer.forget_page(volume, page_no)
        self.disk.poke_page(volume, page_no, image)

    def _recount(self, storage_file: StorageFile) -> None:
        count = sum(1 for _ in storage_file.scan())
        storage_file._record_count = count

    def _refresh_after_abort(self, txn: Transaction) -> None:
        """Recount records of files the aborted transaction wrote."""
        for resource in self.locks.held_by(txn.txn_id):
            if isinstance(resource, tuple) and resource[0] == "file":
                storage_file = self._files.get(resource[1])
                if storage_file is not None:
                    self._recount(storage_file)

    # -- indexes --------------------------------------------------------------

    def create_btree_index(
        self,
        name: str,
        order: int = 32,
        unique: bool = False,
        keysize: int = 8,
    ) -> BPlusTree:
        if name in self._btrees:
            raise StorageError(f"B+-tree index {name!r} already exists")
        tree = BPlusTree(
            order=order,
            unique=unique,
            keysize=keysize,
            on_node_access=self._charge_index_page,
        )
        self._btrees[name] = tree
        return tree

    def btree_index(self, name: str) -> BPlusTree:
        try:
            return self._btrees[name]
        except KeyError:
            raise StorageError(f"no B+-tree index {name!r}") from None

    def create_hash_index(
        self, name: str, bucket_capacity: int = 32, unique: bool = False
    ) -> ExtendibleHashIndex:
        if name in self._hashes:
            raise StorageError(f"hash index {name!r} already exists")
        index = ExtendibleHashIndex(
            bucket_capacity=bucket_capacity,
            unique=unique,
            on_bucket_access=self._charge_index_page,
        )
        self._hashes[name] = index
        return index

    def hash_index(self, name: str) -> ExtendibleHashIndex:
        try:
            return self._hashes[name]
        except KeyError:
            raise StorageError(f"no hash index {name!r}") from None

    def create_rtree_index(self, name: str, max_entries: int = 8) -> RTree:
        if name in self._rtrees:
            raise StorageError(f"R-tree index {name!r} already exists")
        tree = RTree(max_entries=max_entries, on_node_access=self._charge_index_page)
        self._rtrees[name] = tree
        return tree

    def rtree_index(self, name: str) -> RTree:
        try:
            return self._rtrees[name]
        except KeyError:
            raise StorageError(f"no R-tree index {name!r}") from None

    def drop_index(self, name: str) -> None:
        for registry in (self._btrees, self._hashes, self._rtrees):
            if name in registry:
                del registry[name]
                return
        raise StorageError(f"no index {name!r}")

    def index_names(self) -> list[str]:
        return sorted([*self._btrees, *self._hashes, *self._rtrees])

    # -- named roots ------------------------------------------------------------

    def set_root(self, name: str, oid: OID) -> None:
        self._named_roots[name] = oid

    def get_root(self, name: str) -> OID | None:
        return self._named_roots.get(name)

    def root_names(self) -> list[str]:
        return sorted(self._named_roots)
