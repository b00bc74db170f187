"""Exception hierarchy for the MOOD reproduction.

The paper (Section 2) routes *all* system errors -- including signals raised
by dynamically linked, separately compiled member functions -- through a
single ``Exception`` class so that compiled code fails as gracefully as
interpreted code.  We mirror that with a single rooted hierarchy: every error
the library raises derives from :class:`MoodError`.

Every class carries a stable identity usable across process boundaries:

* ``code`` -- a short mnemonic string (``"DEADLOCK"``, ``"PARSE"``), and
* ``errno`` -- a numeric code, allocated in per-subsystem blocks
  (``11xx`` storage, ``12xx`` locks, ..., ``20xx`` server).

The wire protocol (:mod:`repro.server.protocol`) ships ``code``/``errno``
in every error frame so a :class:`~repro.server.client.MoodClient` can
re-raise faithfully, and ``retryable`` marks the errors a client may
safely retry after backing off (deadlock victims, lock/admission
timeouts): the transaction was rolled back, the statement had no effect.
"""

from __future__ import annotations


class MoodError(Exception):
    """Root of all errors raised by the MOOD reproduction."""

    #: Stable mnemonic identifying the error class on the wire.
    code: str = "MOOD"
    #: Stable numeric code (per-subsystem blocks, see module docstring).
    errno: int = 1000
    #: True when a client may retry the failed unit of work.
    retryable: bool = False


# --------------------------------------------------------------------------
# Storage layer
# --------------------------------------------------------------------------

class StorageError(MoodError):
    """Base class for storage-manager failures."""

    code = "STORAGE"
    errno = 1100


class PageFullError(StorageError):
    """A slotted page had insufficient free space for a record."""

    code = "PAGE_FULL"
    errno = 1101


class RecordNotFoundError(StorageError):
    """An OID did not resolve to a live record."""

    code = "RECORD_NOT_FOUND"
    errno = 1102


class FileNotFoundStorageError(StorageError):
    """A storage file id did not resolve to a file."""

    code = "FILE_NOT_FOUND"
    errno = 1103


class VolumeError(StorageError):
    """A volume id did not resolve to a mounted volume."""

    code = "VOLUME"
    errno = 1104


class IndexStructureError(StorageError):
    """An index (B+-tree, hash, R-tree) violated a structural expectation."""

    code = "INDEX_STRUCTURE"
    errno = 1105


class LockError(MoodError):
    """Base class for lock-manager failures."""

    code = "LOCK"
    errno = 1200


class DeadlockError(LockError):
    """A lock wait would have closed a cycle in the wait-for graph."""

    code = "DEADLOCK"
    errno = 1201
    retryable = True


class LockTimeoutError(LockError):
    """A lock could not be acquired within the allotted time."""

    code = "LOCK_TIMEOUT"
    errno = 1202
    retryable = True


class TransactionError(MoodError):
    """Illegal transaction state transition or use of a dead transaction."""

    code = "TRANSACTION"
    errno = 1300


# --------------------------------------------------------------------------
# Data model / type system
# --------------------------------------------------------------------------

class TypeSystemError(MoodError):
    """Base class for type-system failures."""

    code = "TYPE_SYSTEM"
    errno = 1500


class TypeMismatchError(TypeSystemError):
    """A value did not conform to its declared MOOD type."""

    code = "TYPE_MISMATCH"
    errno = 1501


class UnknownTypeError(TypeSystemError):
    """A type id or type name did not resolve in the type registry."""

    code = "UNKNOWN_TYPE"
    errno = 1502


class SerdeError(MoodError):
    """Value (de)serialisation failed."""

    code = "SERDE"
    errno = 1510


# --------------------------------------------------------------------------
# Catalog and schema
# --------------------------------------------------------------------------

class CatalogError(MoodError):
    """Base class for catalog failures."""

    code = "CATALOG"
    errno = 1600


class SchemaError(CatalogError):
    """Illegal schema definition or modification."""

    code = "SCHEMA"
    errno = 1601


class UnknownClassError(CatalogError):
    """A class name or type id did not resolve in the catalog."""

    code = "UNKNOWN_CLASS"
    errno = 1602


class UnknownAttributeError(CatalogError):
    """An attribute name did not resolve on a class."""

    code = "UNKNOWN_ATTRIBUTE"
    errno = 1603


# --------------------------------------------------------------------------
# Function manager
# --------------------------------------------------------------------------

class FunctionError(MoodError):
    """Base class for function-manager failures."""

    code = "FUNCTION"
    errno = 1700


class FunctionNotFoundError(FunctionError):
    """No member function matched the requested signature."""

    code = "FUNCTION_NOT_FOUND"
    errno = 1701


class CompilationError(FunctionError):
    """A member-function body failed to compile."""

    code = "COMPILATION"
    errno = 1702


class FunctionRuntimeError(FunctionError):
    """A dynamically linked member function raised at run time.

    This is the reproduction of the paper's ``Exception`` class: errors from
    compiled functions are caught and surfaced 'as if they are interpreted'.
    """

    code = "FUNCTION_RUNTIME"
    errno = 1703

    def __init__(self, signature: str, original: BaseException):
        super().__init__(f"member function {signature!r} failed: {original!r}")
        self.signature = signature
        self.original = original


# --------------------------------------------------------------------------
# MOODSQL front end
# --------------------------------------------------------------------------

class MoodSqlError(MoodError):
    """Base class for MOODSQL front-end failures."""

    code = "MOODSQL"
    errno = 1800


class LexerError(MoodSqlError):
    """The MOODSQL lexer met an illegal character sequence."""

    code = "LEXER"
    errno = 1801

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ParseError(MoodSqlError):
    """The MOODSQL parser met an unexpected token."""

    code = "PARSE"
    errno = 1802


# --------------------------------------------------------------------------
# Algebra / optimizer / executor
# --------------------------------------------------------------------------

class AlgebraError(MoodError):
    """An algebra operator was applied to an unsupported argument kind."""

    code = "ALGEBRA"
    errno = 1900


class OptimizerError(MoodError):
    """The optimizer could not produce a plan."""

    code = "OPTIMIZER"
    errno = 1901


class ExecutionError(MoodError):
    """Plan execution failed."""

    code = "EXECUTION"
    errno = 1902


class LockCancelledError(LockError):
    """A lock wait was cancelled because its owner was aborted externally
    (e.g. the server timed the transaction out from another thread)."""

    code = "LOCK_CANCELLED"
    errno = 1203
    retryable = True


# --------------------------------------------------------------------------
# Server (repro.server)
# --------------------------------------------------------------------------

class ServerError(MoodError):
    """Base class for database-server failures."""

    code = "SERVER"
    errno = 2000


class ServerBusyError(ServerError):
    """Admission control rejected the statement: worker pool saturated and
    the wait queue full (or the queue wait timed out)."""

    code = "SERVER_BUSY"
    errno = 2001
    retryable = True


class StatementTimeoutError(ServerError):
    """A statement exceeded its per-statement time budget."""

    code = "STATEMENT_TIMEOUT"
    errno = 2002
    retryable = True


class SessionClosedError(ServerError):
    """An operation was issued against a closed session."""

    code = "SESSION_CLOSED"
    errno = 2003


class ProtocolError(ServerError):
    """A malformed frame or an unknown operation arrived on the wire."""

    code = "PROTOCOL"
    errno = 2004


class ServerShuttingDownError(ServerError):
    """The server is draining and no longer admits new statements."""

    code = "SHUTTING_DOWN"
    errno = 2005
    retryable = True


class TransactionAbortedError(ServerError):
    """The session's transaction was rolled back by the server (deadlock
    victim, lock timeout, statement timeout); the client should retry the
    whole transaction."""

    code = "TXN_ABORTED"
    errno = 2006
    retryable = True


class UnknownPreparedStatementError(ServerError):
    """EXECUTE / DEALLOCATE named a prepared statement the session does
    not hold (never prepared, deallocated, or lost with a previous
    session).  Not retryable as-is: the client must re-PREPARE first --
    :class:`~repro.server.client.MoodClient` does so transparently from
    its retained statement text."""

    code = "UNKNOWN_PREPARED"
    errno = 2007


class ShardUnavailableError(ServerError):
    """A shard worker could not be reached (starting up, crashed, or
    restarting).  Presumed abort guarantees any transaction this statement
    belonged to rolls back, so the client may retry the whole transaction
    once the shard is back."""

    code = "SHARD_UNAVAILABLE"
    errno = 2008
    retryable = True


class TransactionInDoubtError(ServerError):
    """A cross-shard commit could not reach its decision point (a
    participant vanished mid-prepare).  No commit decision was logged, so
    presumed abort resolves every prepared branch to rollback; the client
    may retry the transaction."""

    code = "TXN_IN_DOUBT"
    errno = 2009
    retryable = True


# --------------------------------------------------------------------------
# The code registry
# --------------------------------------------------------------------------

def error_classes() -> list[type[MoodError]]:
    """The canonical taxonomy: every :class:`MoodError` subclass defined
    here (including the root), by errno.  Subclasses other modules define
    (e.g. the client's wire-error wrapper) inherit an identity but are not
    part of the registry."""
    found: list[type[MoodError]] = [MoodError]
    stack: list[type[MoodError]] = [MoodError]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__ == __name__:
                found.append(sub)
            stack.append(sub)
    return sorted(found, key=lambda cls: cls.errno)


def error_class_for(code: str | int) -> type[MoodError]:
    """Resolve a mnemonic or numeric code back to its exception class.

    Unknown codes resolve to :class:`MoodError` itself, so a newer server
    never crashes an older client (and vice versa).
    """
    for cls in error_classes():
        if cls.code == code or cls.errno == code:
            return cls
    return MoodError


def describe_error(exc: BaseException) -> dict:
    """The wire-protocol identity of an exception: a JSON-ready dict of
    ``code``/``errno``/``retryable``/``message``.  Non-MOOD exceptions map
    to the root class's identity (the paper's single ``Exception`` story:
    foreign errors surface as gracefully as native ones)."""
    if isinstance(exc, MoodError):
        return {
            "code": exc.code,
            "errno": exc.errno,
            "retryable": exc.retryable,
            "message": str(exc),
        }
    return {
        "code": MoodError.code,
        "errno": MoodError.errno,
        "retryable": False,
        "message": f"{type(exc).__name__}: {exc}",
    }
