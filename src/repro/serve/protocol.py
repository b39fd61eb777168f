"""Wire protocol of the serving daemon: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests are objects with an ``op`` field plus
op-specific arguments; responses are ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"code": ..., "message": ...}}``.  Vertex
labels travel as strings (``str(vertex)``, the same resolution rule the
``repro oracle query`` CLI uses) and distances as JSON numbers —
``inf`` rides on the json module's ``Infinity`` extension, which both
ends of this protocol speak.

Failure semantics are *typed*, never a traceback on the wire:

* a frame whose JSON does not parse, is not an object, or lacks a
  string ``op`` is answered with ``malformed_frame`` and the connection
  stays usable (the framing itself was intact);
* a length prefix beyond ``max_frame`` is answered with
  ``oversized_frame`` and the connection is then closed — the stream
  position can no longer be trusted;
* an unknown ``op`` is ``unknown_op``; missing/ill-typed arguments are
  ``bad_request``; a label that is not a vertex of the served structure
  is ``unknown_vertex``.

A connection whose worker dies, or that a shutdown catches, is closed
with no answer: its client reads :class:`ConnectionClosed` (a reset
connection reads the same) and may reconnect.

Every error code doubles as a daemon metrics counter
(``serve.errors.<code>``), so the failure taxonomy is observable with
the same vocabulary it is reported with.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple, Union

#: a TCP ``(host, port)`` pair or a unix-domain socket path
Address = Union[Tuple[str, int], str]

#: frames larger than this are rejected with ``oversized_frame``
DEFAULT_MAX_FRAME = 1 << 20

#: 4-byte big-endian unsigned frame length
_LEN = struct.Struct("!I")

#: the typed protocol error taxonomy (codes double as metric suffixes,
#: so they follow the ``[a-z0-9_]`` metric-segment alphabet)
ERROR_CODES = (
    "malformed_frame",
    "oversized_frame",
    "unknown_op",
    "bad_request",
    "unknown_vertex",
    "internal",
)

#: request operations the daemon understands
OPS = (
    "ping", "info", "vertices", "stats", "query", "query_many",
    "k_nearest", "crash_worker", "shutdown",
)


class ProtocolError(Exception):
    """A typed protocol failure (``code`` is one of :data:`ERROR_CODES`)."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


class ConnectionClosed(Exception):
    """The peer closed or reset the connection (mid-frame iff ``dirty``)."""

    def __init__(self, dirty: bool) -> None:
        super().__init__(
            "connection closed mid-frame" if dirty else "connection closed"
        )
        self.dirty = dirty


def encode_frame(payload: Dict[str, Any], max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame for ``payload`` (length prefix + JSON body).

    Raises
    ------
    ProtocolError
        (``oversized_frame``) when the encoded body exceeds ``max_frame``.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame:
        raise ProtocolError(
            "oversized_frame",
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte limit",
        )
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body into a request/response object.

    Raises
    ------
    ProtocolError
        (``malformed_frame``) when the body is not UTF-8 JSON or not a
        JSON object.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            "malformed_frame", f"frame body does not parse as JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            "malformed_frame",
            f"frame body must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def recv_exactly(sock: socket.socket, count: int, started: bool) -> bytes:
    """Read exactly ``count`` bytes from a blocking socket.

    ``started`` states whether part of a frame was already consumed —
    it decides the ``dirty`` flag of :class:`ConnectionClosed` when the
    peer goes away, by closing the connection or by resetting it (a peer
    process that dies with unread input resets it).
    """
    chunks = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(count - got)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            raise ConnectionClosed(dirty=started or got > 0)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Dict[str, Any]:
    """Read and decode one frame from a blocking socket.

    Raises
    ------
    ConnectionClosed
        On EOF or a reset (``dirty`` when it lands mid-frame).
    ProtocolError
        ``oversized_frame`` on a length prefix beyond ``max_frame``
        (the caller must then close the connection — the stream position
        is unrecoverable), ``malformed_frame`` on an unparsable body.
    """
    header = recv_exactly(sock, _LEN.size, started=False)
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            "oversized_frame",
            f"frame of {length} bytes exceeds the {max_frame}-byte limit",
        )
    return decode_body(recv_exactly(sock, length, started=True))


def write_frame(
    sock: socket.socket,
    payload: Dict[str, Any],
    max_frame: int = DEFAULT_MAX_FRAME,
) -> None:
    """Encode and send one frame over a blocking socket.

    Raises
    ------
    ConnectionClosed
        When the peer has closed or reset the connection.
    """
    frame = encode_frame(payload, max_frame=max_frame)
    try:
        sock.sendall(frame)
    except (BrokenPipeError, ConnectionResetError):
        raise ConnectionClosed(dirty=False) from None


def ok_response(result: Any) -> Dict[str, Any]:
    """A success response envelope."""
    return {"ok": True, "result": result}


def error_response(code: str, message: str) -> Dict[str, Any]:
    """A typed-error response envelope (validates ``code``)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    return {"ok": False, "error": {"code": code, "message": message}}


def parse_request(payload: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Split a request object into ``(op, arguments)``.

    Raises
    ------
    ProtocolError
        ``malformed_frame`` when ``op`` is missing or not a string;
        ``unknown_op`` when it names no operation.
    """
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            "malformed_frame", "request object lacks a string 'op' field"
        )
    if op not in OPS:
        raise ProtocolError(
            "unknown_op", f"unknown op {op!r}; supported: {', '.join(OPS)}"
        )
    return op, {k: v for k, v in payload.items() if k != "op"}


def result_of(response: Dict[str, Any]) -> Any:
    """Unwrap a response envelope, raising the typed error it carries.

    Raises
    ------
    ProtocolError
        Rebuilt from the envelope when ``ok`` is false, or
        ``malformed_frame`` when the envelope itself is ill-shaped.
    """
    if response.get("ok") is True:
        return response.get("result")
    error = response.get("error")
    if not isinstance(error, dict):
        raise ProtocolError(
            "malformed_frame", f"response envelope is ill-shaped: {response!r}"
        )
    code = error.get("code")
    message = str(error.get("message", ""))
    if code not in ERROR_CODES:
        raise ProtocolError("internal", f"unknown error code {code!r}: {message}")
    raise ProtocolError(str(code), message)


def address_of(spec: str) -> Address:
    """Parse a ``host:port`` or ``unix:/path`` address spec.

    Raises
    ------
    ValueError
        When the spec is neither form.
    """
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError("empty unix socket path")
        return path
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address {spec!r} is neither 'host:port' nor 'unix:/path'"
        )
    return host, int(port)


def connect(
    address: Address, timeout: Optional[float] = None
) -> socket.socket:
    """Open a blocking client socket to a TCP or unix-domain address."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock
