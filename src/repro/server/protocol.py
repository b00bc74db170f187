"""The MOOD wire protocol: length-prefixed JSON frames over a byte stream.

MoodView talks to the MOOD kernel over a client/server boundary (the paper
runs the interfaces as clients of a shared kernel on ESM); this module is
that boundary's wire format -- and its one TCP front,
:class:`FrameListener`, shared by the single-engine server and the
sharded router (:func:`answer_frame` is its per-frame step, which an
in-process shard link calls directly):

* a frame is a 4-byte big-endian payload length followed by a UTF-8 JSON
  document -- trivially debuggable with ``nc`` plus a hex dump, and
  framing survives any TCP segmentation;
* requests carry ``op`` (one of :data:`VERBS`) and op-specific fields,
  checked by :func:`validate_request` before a server reads any of them;
* responses carry ``ok`` plus either a result payload or an ``error``
  object holding the stable ``code``/``errno``/``retryable``/``message``
  identity from :mod:`repro.core.errors`.

Values that cross the wire are encoded structurally: an OID becomes
``{"$oid": "v.p.s"}``, a :class:`~repro.model.objects.MoodObject` becomes
``{"$object": {...}}``, and sets become ``{"$set": [...]}`` (JSON has no
set).  :func:`decode_value` restores them as :class:`RemoteObject` /
:class:`RemoteOID` client-side stand-ins -- the client deliberately does
*not* rebuild live kernel objects.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field

from repro.core.errors import MoodError, ProtocolError, describe_error

_LENGTH = struct.Struct("!I")

#: Upper bound on one frame's JSON payload; a longer length prefix means a
#: desynchronised or hostile peer, not a big result.
MAX_FRAME_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class Verb:
    """One wire op: the fields it must carry, whether it is a
    *statement* (counted and traced by the router), and whether it is
    *internal* (router -> shard two-phase commit; the router refuses it
    from clients)."""

    required: tuple[str, ...] = ()
    statement: bool = False
    internal: bool = False


#: Every op a server understands; anything else is a PROTOCOL error.
#: DESIGN.md's op table mirrors this one (``scripts/check_metrics_doc.py``
#: fails tier-1 when they disagree).
VERBS: dict[str, Verb] = {
    "EXECUTE": Verb(("sql",), statement=True),
    "QUERY": Verb(("sql",), statement=True),
    "EXPLAIN": Verb(("sql",), statement=True),
    "BEGIN": Verb(statement=True),
    "COMMIT": Verb(statement=True),
    "ROLLBACK": Verb(statement=True),
    "PREPARE": Verb(("name", "sql"), statement=True),
    "EXECUTE_PREPARED": Verb(("name",), statement=True),
    "DEALLOCATE": Verb(("name",), statement=True),
    "PING": Verb(),
    "STATS": Verb(),
    "METRICS": Verb(),
    "CLOSE": Verb(),
    # Observability scatter-gather: a SYS$ view's rows or the raw metrics
    # registry; read-only and admission-free.
    "TELEMETRY": Verb(),
    # Dynamic clustering control; admission-free like TELEMETRY.
    "RECLUSTER": Verb(),
    # Two-phase commit: the phase-1 vote, the idempotent phase-2
    # decisions, and the in-doubt report of presumed-abort recovery.
    "PREPARE_TXN": Verb(("gid",), internal=True),
    "COMMIT_PREPARED": Verb(("gid",), internal=True),
    "ROLLBACK_PREPARED": Verb(("gid",), internal=True),
    "IN_DOUBT": Verb(internal=True),
}

RECLUSTER_ACTIONS = ("run", "start", "stop", "status")


def _is_text(value) -> bool:
    return isinstance(value, str)


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: The typed request fields, whatever the op: ``field -> (test, what
#: the field must be)``.  A field set to null counts as absent.
FIELDS = {
    "sql": (_is_text, "a string"),
    "name": (_is_name, "a non-empty string"),
    "gid": (_is_name, "a non-empty string"),
    "trace": (_is_text, "a string"),
    "view": (_is_text, "a string"),
    "params": (lambda v: isinstance(v, (list, dict)), "a list or an object"),
    "timeout": (lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    "interval": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "shard": (lambda v: isinstance(v, int) and not isinstance(v, bool)
              and v >= 0, "a non-negative integer"),
    "action": (lambda v: v in RECLUSTER_ACTIONS,
               "one of " + "/".join(RECLUSTER_ACTIONS)),
}
_FIELD_NAMES = frozenset(FIELDS)


def validate_request(request: dict) -> Verb:
    """The request's :class:`Verb`, once its op is known, its required
    fields are present and every typed field has its type; otherwise a
    :class:`ProtocolError`.  Servers call this before reading any field,
    so a malformed frame gets one answer from every server."""
    op = request.get("op")
    verb = VERBS.get(op) if isinstance(op, str) else None
    if verb is None:
        raise ProtocolError(f"unknown op {op!r}")
    for key in verb.required:
        if request.get(key) is None:
            raise ProtocolError(f"{op} needs a '{key}' field")
    for key in request.keys() & _FIELD_NAMES:
        value = request[key]
        test, what = FIELDS[key]
        if value is not None and not test(value):
            raise ProtocolError(f"{op} '{key}' must be {what}")
    return verb


# --------------------------------------------------------------------------
# Framing
# --------------------------------------------------------------------------

def encode_frame(message: dict) -> bytes:
    """``message`` as one frame payload (compact JSON, UTF-8)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def send_frame(sock: socket.socket, message: dict) -> None:
    """Encode ``message`` as one length-prefixed JSON frame and send it."""
    send_frame_bytes(sock, encode_frame(message))


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    payload = recv_frame_bytes(sock)
    if payload is None:
        return None
    return decode_frame(payload)


def recv_frame_bytes(sock: socket.socket) -> bytes | None:
    """One frame's undecoded payload; ``None`` on a clean EOF.  The
    router's relay path reads frames this way so it can forward them
    byte-identical without a decode/re-encode round trip."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return payload


def send_frame_bytes(sock: socket.socket, payload: bytes) -> None:
    """Send an already-encoded frame payload (the relay's other half)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def decode_frame(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """``count`` bytes off the socket, or ``None`` on EOF before byte one."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            return None if not chunks else _raise_truncated()
        chunks.extend(chunk)
    return bytes(chunks)


def _raise_truncated() -> bytes:
    raise ProtocolError("connection closed mid-frame")


# --------------------------------------------------------------------------
# Value encoding
# --------------------------------------------------------------------------

def encode_value(value):
    """A JSON-ready rendering of any value a statement can produce."""
    from repro.model.objects import MoodObject
    from repro.storage.oid import OID

    if isinstance(value, MoodObject):
        return {"$object": {
            "oid": str(value.oid),
            "class": value.class_name,
            "state": {k: encode_value(v) for k, v in value.state.items()},
        }}
    if isinstance(value, OID):
        return {"$oid": str(value)}
    if isinstance(value, (set, frozenset)):
        return {"$set": [encode_value(v) for v in value]}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class RemoteOID:
    """Client-side stand-in for an OID (``volume.page.slot`` text)."""

    text: str

    def __str__(self) -> str:
        return self.text


@dataclass
class RemoteObject:
    """Client-side stand-in for a MoodObject: identity + state, no kernel."""

    oid: RemoteOID
    class_name: str
    state: dict = field(default_factory=dict)

    def __getitem__(self, attribute: str):
        return self.state[attribute]


def decode_value(value):
    """Invert :func:`encode_value` into client-side stand-ins."""
    if isinstance(value, dict):
        if "$object" in value and len(value) == 1:
            body = value["$object"]
            return RemoteObject(
                oid=RemoteOID(body["oid"]),
                class_name=body["class"],
                state={k: decode_value(v) for k, v in body["state"].items()},
            )
        if "$oid" in value and len(value) == 1:
            return RemoteOID(value["$oid"])
        if "$set" in value and len(value) == 1:
            return [decode_value(v) for v in value["$set"]]
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


# --------------------------------------------------------------------------
# Result envelopes
# --------------------------------------------------------------------------

def ok_response(payload: dict | None = None) -> dict:
    message = {"ok": True}
    if payload:
        message.update(payload)
    return message


def error_response(error: dict) -> dict:
    """``error`` is :func:`repro.core.errors.describe_error` output."""
    return {"ok": False, "error": error}


def telemetry_response(kernel, request: dict) -> dict:
    """The TELEMETRY verb against one kernel.  Without a ``view``: the
    metrics registry's counters plus *mergeable* histogram dumps.  With
    one: that SYS$ view's rows -- on the router, the federated view, so
    what a scraper gets there is already cluster-wide.  An unknown view
    answers empty rather than erroring, so a newer router can scatter
    to an older worker during a rolling upgrade."""
    view = request.get("view")
    if view is None:
        metrics = kernel.storage.metrics
        return ok_response({
            "counters": metrics.counters(),
            "histograms": metrics.histogram_dumps(),
        })
    views = kernel.system_views
    rows = views.rows(view) if views.has(view) else []
    return ok_response({"rows": [encode_value(row) for row in rows]})


def answer_frame(owner, session, payload: bytes) -> tuple[bytes, bool]:
    """One request payload answered by ``owner`` for ``session``: the
    response payload, and whether the request was a CLOSE (the peer hangs
    up after answering it).  A payload that is no JSON object is answered
    PROTOCOL and the conversation goes on -- the framing survived it."""
    try:
        request = decode_frame(payload)
    except ProtocolError as exc:
        return encode_frame(error_response(describe_error(exc))), False
    response = owner.handle_request(session, request, payload)
    if not isinstance(response, bytes):
        response = encode_frame(response)
    return response, request.get("op") == "CLOSE"


# --------------------------------------------------------------------------
# The listener
# --------------------------------------------------------------------------

class FrameListener(socketserver.ThreadingTCPServer):
    """The one TCP front of every MOOD server: per connection, one
    thread, one session and one frame loop.

    The owner supplies ``open_session()``, ``handle_request(session,
    request, payload)`` -- answering a dict, or response bytes that are
    relayed verbatim -- and ``close_session(session)``.  Listening starts
    on construction; :meth:`close` ends it.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, owner, address: tuple[str, int], name: str):
        super().__init__(address, _FrameHandler)
        self.owner = owner
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05},
            name=name, daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def close(self) -> None:
        """Stop accepting and release the port.  Connection threads run
        on until their clients hang up."""
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)

    def serve(self, sock: socket.socket) -> None:
        """One connection, from its session to its hang-up."""
        try:
            try:
                session = self.owner.open_session()
            except MoodError as exc:
                send_frame(sock, error_response(describe_error(exc)))
                return
            try:
                self._frame_loop(sock, session)
            finally:
                self.owner.close_session(session)
        except OSError:
            pass  # the client vanished

    def _frame_loop(self, sock: socket.socket, session) -> None:
        while True:
            try:
                payload = recv_frame_bytes(sock)
            except ProtocolError as exc:
                # Framing is gone; answer once and hang up.
                send_frame(sock, error_response(describe_error(exc)))
                return
            if payload is None:
                return
            response, closing = answer_frame(self.owner, session, payload)
            send_frame_bytes(sock, response)
            if closing:
                return


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.server.serve(self.request)
