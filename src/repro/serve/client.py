"""Blocking client for the serving daemon's frame protocol.

One :class:`ServeClient` wraps one socket; requests are strictly
sequential per client (one frame out, one frame in), which is exactly
the unit the load generator multiplies — concurrency comes from many
clients, not from pipelining one.  A served error surfaces as
:class:`~repro.serve.protocol.ProtocolError` carrying the daemon's
typed code (``bad_request``, ``unknown_vertex``, ...); a connection the
daemon closed, because the worker holding it died or the daemon stopped,
surfaces as :class:`~repro.serve.protocol.ConnectionClosed`, and a new
connection is the retry.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.serve import protocol
from repro.serve.protocol import Address


class ServeClient:
    """A connected client of one serving daemon.

    Usable as a context manager::

        with ServeClient.open(("127.0.0.1", port)) as client:
            d = client.query("0", "99")
    """

    def __init__(
        self,
        sock: Any,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        self._sock = sock
        self._max_frame = max_frame

    @classmethod
    def open(
        cls,
        address: Address,
        timeout: Optional[float] = 30.0,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> "ServeClient":
        """Connect to a daemon at a TCP ``(host, port)`` or unix path."""
        return cls(protocol.connect(address, timeout=timeout), max_frame=max_frame)

    def close(self) -> None:
        """Close the underlying socket."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # -- raw request ---------------------------------------------------
    def call(self, op: str, **args: Any) -> Any:
        """Send one request and return the unwrapped result.

        Raises
        ------
        ProtocolError
            With the daemon's typed code on any served error.
        ConnectionClosed
            When the daemon closes the connection.
        """
        payload: Dict[str, Any] = {"op": op}
        payload.update(args)
        protocol.write_frame(self._sock, payload, max_frame=self._max_frame)
        return protocol.result_of(
            protocol.read_frame(self._sock, max_frame=self._max_frame)
        )

    def _call_object(self, op: str) -> Dict[str, Any]:
        """:meth:`call` for an op whose result is a JSON object.

        Raises
        ------
        ProtocolError
            ``malformed_frame`` when the result is not an object.
        """
        result = self.call(op)
        if not isinstance(result, dict):
            raise protocol.ProtocolError(
                "malformed_frame", f"{op} result is not an object: {result!r}"
            )
        return result

    # -- typed convenience wrappers ------------------------------------
    def ping(self) -> bool:
        """True iff the daemon answers."""
        return bool(self.call("ping")["pong"])

    def info(self) -> Dict[str, Any]:
        """Daemon/structure metadata (n, m, workers, the serving worker,
        payload bytes...)."""
        return self._call_object("info")

    def vertices(self, limit: int = 100, offset: int = 0) -> List[str]:
        """Up to ``limit`` vertex labels starting at ``offset``."""
        result = self.call("vertices", limit=limit, offset=offset)
        return list(result["vertices"])

    def query(self, u: str, v: str) -> float:
        """Exact structure distance between labels ``u`` and ``v``."""
        return float(self.call("query", u=u, v=v)["distance"])

    def query_many(self, pairs: Sequence[Tuple[str, str]]) -> List[float]:
        """Batched :meth:`query`, one answer per pair in order."""
        result = self.call(
            "query_many", pairs=[[u, v] for u, v in pairs]
        )
        return [float(d) for d in result["distances"]]

    def k_nearest(self, v: str, k: int) -> List[Tuple[str, float]]:
        """The ``k`` nearest other vertices of ``v``."""
        result = self.call("k_nearest", v=v, k=k)
        return [(str(u), float(d)) for u, d in result["nearest"]]

    def stats(self) -> Dict[str, Any]:
        """Merged daemon metrics snapshot plus per-worker cache info."""
        return self._call_object("stats")

    def shutdown(self) -> None:
        """Ask the daemon to stop (it answers before stopping)."""
        self.call("shutdown")

    def crash_worker(self) -> int:
        """Kill the worker serving this connection (crash-isolation test
        endpoint), which answers first; returns its id.  The next call on
        this client raises :class:`~repro.serve.protocol.ConnectionClosed`.
        """
        return int(self.call("crash_worker")["killed"])
