"""Multi-worker oracle serving daemon over one shared-memory segment.

Architecture — a supervising parent, N workers that own their
connections::

    clients ── TCP / unix socket ──▶ parent: accept(), then hand the fd
                                        │  to the next live worker in turn
                                        │  over its duplex Pipe
                                        ▼
                       worker 0 … worker N-1  (forked or spawned; each
                                        ▲       one selectors loop over its
                one shared segment ─────┘       pipe and its connections)

The parent accepts each connection, passes its fd to the next live
worker in turn (:func:`multiprocessing.reduction.send_handle`) and
closes its own copy.  From then on the worker alone reads that
connection's frames and answers every op on it; no request passes
through the parent.  The parent only supervises: it respawns a worker
whose ``Process.sentinel`` becomes readable, folds the per-worker parts
of a ``stats`` answer, and stops on ``shutdown``.  Handing off, rather
than letting every worker ``accept()`` on one inherited listener, spreads
connections evenly: idle workers selecting on one listener take them in
whatever order the kernel wakes them, often all on one.

A worker that dies takes its connections with it: their clients read a
closed connection (:class:`~repro.serve.protocol.ConnectionClosed`) and
reconnect, and the replacement serves the new connections.  A
connection accepted between a worker's death and the parent noticing it
may read closed once too.

Workers are forked while the daemon runs one thread, as ``repro serve``
does, and spawned otherwise (a ``Server`` whose loop runs in a thread):
a forked worker starts from the parent's imported modules instead of a
fresh interpreter, and forking a multi-threaded process can deadlock
the child.  A forked worker first closes the fds it inherited from the
parent (:meth:`Server._parent_fds` lists them and why) and resets
SIGTERM to its default.

``stats`` merges every live worker's
:class:`~repro.obs.metrics.MetricsRegistry` snapshot into the parent's
through the ``snapshot()/merge()`` contract, so the merged counters
equal a single-worker run's exactly: the worker that holds the asking
connection asks the parent, which collects a part from every live
worker (the asking one included) and sends the merged answer back.

Robustness contract (regression-tested): malformed frames are answered
``malformed_frame`` on a connection that stays usable; an oversized
length prefix is answered ``oversized_frame`` and the connection is
closed (the stream position is unrecoverable); a client that
disconnects mid-request is dropped with a metrics counter — no
traceback ever reaches stderr, no worker is ever left stuck.
"""

from __future__ import annotations

import itertools
import os
import random
import selectors
import signal
import socket
import struct
import time
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.reduction import recv_handle, send_handle
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.oracle.oracle import DistanceOracle
from repro.serve import protocol
from repro.serve.protocol import Address
from repro.serve.shm import AttachedOracle, OracleShare, attach_oracle, publish_oracle

if TYPE_CHECKING:
    from multiprocessing.context import ForkContext, SpawnContext

DEFAULT_WORKERS = 2
DEFAULT_HOST = "127.0.0.1"
#: how long start() waits for every worker's ready message
READY_TIMEOUT = 60.0

_LEN = struct.Struct("!I")


class _Daemon(NamedTuple):
    """What a worker knows of its daemon (for ``info`` and framing)."""

    pid: int
    workers: int
    max_frame: int
    started_at: float


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Client:
    """Worker-side record of one client connection."""

    __slots__ = ("sock", "fd", "rbuf", "wbuf", "closing", "waiting")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.closing = False  # close once wbuf drains (oversized frame)
        self.waiting = False  # a stats answer is due; read no frame


class _WorkerLoop:
    """One worker's selectors loop over its pipe and its connections.

    All state is local to the process: a private metrics registry, the
    label-resolution dict, the attached oracle and the connections the
    parent handed over — nothing global is written.
    """

    def __init__(
        self,
        worker_id: int,
        handle: AttachedOracle,
        conn: Connection,
        daemon: _Daemon,
    ) -> None:
        oracle = handle.oracle
        assert oracle is not None
        self.worker_id = worker_id
        self.oracle = oracle
        self.payload_bytes = handle.payload_bytes
        self.conn = conn
        self.daemon = daemon
        self.registry = MetricsRegistry()
        self.by_name = {str(v): v for v in oracle.csr.verts}
        self.clients: Dict[int, _Client] = {}
        # stats token -> the connection that asked
        self.waiting: Dict[int, _Client] = {}
        self.tokens = itertools.count()
        self.sel = selectors.DefaultSelector()
        self.sel.register(conn, selectors.EVENT_READ, None)

    def run(self) -> None:
        """Serve until the parent says exit or its pipe closes."""
        try:
            while True:
                for key, mask in self.sel.select():
                    if key.data is None:
                        if not self._pipe_readable():
                            return
                        continue
                    if mask & selectors.EVENT_WRITE:
                        self._client_writable(key.data)
                    if mask & selectors.EVENT_READ:
                        self._client_readable(key.data)
        finally:
            for client in self.clients.values():
                client.sock.close()
            self.sel.close()

    # -- the parent ----------------------------------------------------
    def _pipe_readable(self) -> bool:
        """Handle the parent's messages; False once the worker must exit."""
        try:
            while self.conn.poll():
                kind, arg = self.conn.recv()
                if kind == "conn":
                    self._adopt(socket.socket(fileno=recv_handle(self.conn)))
                elif kind == "part":
                    self.conn.send(("part", (arg, self._stats_part())))
                elif kind == "stats":
                    self._stats_answered(*arg)
                elif kind == "exit":
                    return False
        except (EOFError, OSError):  # the parent is gone
            return False
        return True

    def _adopt(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        client = _Client(sock)
        self.clients[client.fd] = client
        self.sel.register(sock, selectors.EVENT_READ, client.fd)

    def _stats_part(self) -> Dict[str, Any]:
        """This worker's share of a ``stats`` answer."""
        merged = MetricsRegistry()
        merged.merge(self.registry.snapshot())
        merged.merge(self.oracle.metrics.snapshot())
        return {
            "worker": self.worker_id,
            "snapshot": merged.snapshot(),
            "cache": self.oracle.cache_info(),
        }

    def _stats_answered(self, token: int, result: Dict[str, Any]) -> None:
        client = self.waiting.pop(token)
        if self.clients.get(client.fd) is not client:
            return  # it disconnected while it waited
        client.waiting = False
        self._send_to_client(client, protocol.ok_response(result))
        self._parse_frames(client)  # the frames that came in meanwhile

    # -- clients -------------------------------------------------------
    def _drop_client(self, client: _Client) -> None:
        if self.clients.get(client.fd) is not client:
            return
        if client.waiting:
            self.registry.counter("serve.clients.disconnect_midrequest").inc()
        client.closing = True
        del self.clients[client.fd]
        try:
            self.sel.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        try:
            client.sock.close()
        except OSError:
            pass
        self.registry.counter("serve.clients.closed").inc()

    def _send_to_client(self, client: _Client, payload: Dict[str, Any]) -> None:
        try:
            frame = protocol.encode_frame(payload, max_frame=self.daemon.max_frame)
        except protocol.ProtocolError:
            # the *response* outgrew the frame limit (huge query_many):
            # degrade to a typed error that always fits
            self._count_error("oversized_frame")
            frame = protocol.encode_frame(
                protocol.error_response(
                    "oversized_frame",
                    f"response exceeds the {self.daemon.max_frame}-byte "
                    f"frame limit",
                )
            )
        client.wbuf += frame
        self._flush_client(client)

    def _flush_client(self, client: _Client) -> None:
        if client.wbuf:
            try:
                sent = client.sock.send(client.wbuf)
                del client.wbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._drop_client(client)
                return
        events = selectors.EVENT_READ
        if client.wbuf:
            events |= selectors.EVENT_WRITE
        try:
            self.sel.modify(client.sock, events, client.fd)
        except (KeyError, ValueError):
            return
        if client.closing and not client.wbuf:
            self._drop_client(client)

    def _client_writable(self, fd: int) -> None:
        client = self.clients.get(fd)
        if client is not None:
            self._flush_client(client)

    def _client_readable(self, fd: int) -> None:
        client = self.clients.get(fd)
        if client is None:
            return
        try:
            data = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._drop_client(client)
            return
        client.rbuf += data
        self._parse_frames(client)

    def _count_error(self, code: str) -> None:
        self.registry.counter(f"serve.errors.{code}").inc()

    def _parse_frames(self, client: _Client) -> None:
        max_frame = self.daemon.max_frame
        while not client.closing and not client.waiting:
            if len(client.rbuf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(client.rbuf)
            if length > max_frame:
                self._count_error("oversized_frame")
                client.rbuf.clear()  # stream position is unrecoverable
                client.closing = True
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "oversized_frame",
                        f"frame of {length} bytes exceeds the "
                        f"{max_frame}-byte limit",
                    ),
                )
                return
            if len(client.rbuf) < _LEN.size + length:
                return
            body = bytes(client.rbuf[_LEN.size : _LEN.size + length])
            del client.rbuf[: _LEN.size + length]
            try:
                op, args = protocol.parse_request(protocol.decode_body(body))
            except protocol.ProtocolError as exc:
                self._count_error(exc.code)
                self._send_to_client(
                    client, protocol.error_response(exc.code, exc.message)
                )
                continue
            self.registry.counter("serve.requests.total").inc()
            self._handle_request(client, op, args)

    # -- request handling ----------------------------------------------
    def _handle_request(
        self, client: _Client, op: str, args: Dict[str, Any]
    ) -> None:
        if op == "stats":
            token = next(self.tokens)
            self.waiting[token] = client
            client.waiting = True
            self.conn.send(("stats", token))
            return
        envelope = self._execute(op, args)
        if envelope["ok"] is not True:
            self._count_error(envelope["error"]["code"])
        self._send_to_client(client, envelope)
        if op == "shutdown":
            self.conn.send(("shutdown", None))
        elif op == "crash_worker":
            try:  # the answer leaves before the kill
                client.sock.setblocking(True)
                client.sock.sendall(client.wbuf)
            except OSError:
                pass
            os.kill(os.getpid(), signal.SIGKILL)

    def _execute(self, op: str, args: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one op but ``stats``; always returns a response envelope."""
        oracle = self.oracle

        def resolve(label: Any, field: str) -> Any:
            if not isinstance(label, str):
                raise protocol.ProtocolError(
                    "bad_request", f"{op} needs a string {field!r} field"
                )
            try:
                return self.by_name[label]
            except KeyError:
                raise protocol.ProtocolError(
                    "unknown_vertex",
                    f"{label!r} is not a vertex of the served structure",
                ) from None

        try:
            if op == "ping":
                return protocol.ok_response({"pong": True})
            if op == "info":
                daemon = self.daemon
                return protocol.ok_response(
                    {
                        "n": oracle.csr.n,
                        "m": oracle.csr.m,
                        "landmarks": len(oracle.landmark_indices),
                        "strategy": oracle.strategy,
                        "seed": oracle.seed,
                        "workers": daemon.workers,
                        "worker": self.worker_id,
                        "payload_bytes": self.payload_bytes,
                        "max_frame": daemon.max_frame,
                        "pid": daemon.pid,
                        "uptime_s": time.monotonic() - daemon.started_at,
                    }
                )
            if op == "vertices":
                limit = args.get("limit", 100)
                offset = args.get("offset", 0)
                # type() rather than isinstance(): a JSON true is no count
                if not all(type(x) is int and x >= 0 for x in (limit, offset)):
                    raise protocol.ProtocolError(
                        "bad_request",
                        "vertices needs non-negative int 'limit'/'offset'",
                    )
                verts = oracle.csr.verts
                return protocol.ok_response(
                    {
                        "n": len(verts),
                        "vertices": [
                            str(v) for v in verts[offset : offset + limit]
                        ],
                    }
                )
            if op == "shutdown":
                return protocol.ok_response({"stopping": True})
            if op == "crash_worker":
                return protocol.ok_response(
                    {"killed": self.worker_id, "pid": os.getpid()}
                )
            # the compute ops, which read the oracle
            self.registry.counter("serve.worker.requests").inc()
            if op == "query":
                u = resolve(args.get("u"), "u")
                v = resolve(args.get("v"), "v")
                return protocol.ok_response({"distance": oracle.query(u, v)})
            if op == "query_many":
                pairs = args.get("pairs")
                if not isinstance(pairs, list):
                    raise protocol.ProtocolError(
                        "bad_request", "query_many needs a 'pairs' list of [u, v]"
                    )
                resolved = []
                for pair in pairs:
                    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                        raise protocol.ProtocolError(
                            "bad_request", f"pair {pair!r} is not a [u, v] pair"
                        )
                    resolved.append(
                        (resolve(pair[0], "pairs[0]"), resolve(pair[1], "pairs[1]"))
                    )
                return protocol.ok_response(
                    {"distances": oracle.query_many(resolved)}
                )
            # k_nearest, the last op parse_request lets through
            v = resolve(args.get("v"), "v")
            k = args.get("k")
            if type(k) is not int or k < 1:
                raise protocol.ProtocolError(
                    "bad_request", f"k_nearest needs an int k >= 1, got {k!r}"
                )
            near = oracle.k_nearest(v, k)
            return protocol.ok_response(
                {"nearest": [[str(u), d] for u, d in near]}
            )
        except protocol.ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message)
        except ValueError as exc:
            return protocol.error_response("bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - the wire gets a typed error
            return protocol.error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            )


def worker_main(
    worker_id: int,
    shm_name: str,
    conn: Connection,
    warm: int,
    daemon: _Daemon,
    parent_fds: Tuple[int, ...],
) -> None:
    """Entry point of one serving worker (a forked or spawned process).

    A forked worker first closes ``parent_fds``, the parent's fds it
    inherited (a spawned one gets ``()``), and both kinds reset the
    parent's signal handlers.  Then it attaches the shared oracle
    segment (zero-copy), optionally warms the scratch arrays and cache
    with ``warm`` seeded self-queries, reports ready, and serves the
    connections the parent hands it until told to exit or the pipe
    closes.
    """
    for fd in parent_fds:
        os.close(fd)
    # a worker forked after ``repro serve`` installed its handlers would
    # otherwise ignore terminate(); the parent handles SIGINT for the
    # whole process group, and a worker interrupted mid-recv would die
    # with a KeyboardInterrupt traceback instead of exiting through the
    # pipe protocol
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    handle = attach_oracle(shm_name)
    try:
        loop = _WorkerLoop(worker_id, handle, conn, daemon)
        if warm > 0:
            oracle = loop.oracle
            rng = random.Random(oracle.seed * 1_000_003 + worker_id)
            verts = oracle.csr.verts
            for _ in range(warm):
                u = verts[rng.randrange(len(verts))]
                v = verts[rng.randrange(len(verts))]
                oracle.query(u, v)
        conn.send(("ready", worker_id))
        loop.run()
    except OSError:  # pragma: no cover - the parent vanished
        pass
    finally:
        handle.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _single_threaded() -> bool:
    """True while this process runs one thread, so a worker may be forked.

    A forked worker starts from the parent's imported modules in a few
    milliseconds, where a spawned one starts a fresh interpreter and
    imports ``repro`` again.  Forking a process that runs other threads
    can deadlock the child (CPython 3.12+ warns), so the thread count
    the OS reports decides, as it does for that warning; without
    ``/proc`` to count them, workers are spawned.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("worker_id", "proc", "conn", "alive")

    def __init__(self, worker_id: int, proc: Any, conn: Connection) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.alive = True


class _Stats:
    """One ``stats`` collection: who asked, and the parts still due."""

    __slots__ = ("worker", "token", "pending", "parts")

    def __init__(self, worker: _Worker, token: int, pending: Set[int]) -> None:
        self.worker = worker
        self.token = token
        self.pending = pending
        self.parts: List[Dict[str, Any]] = []


class Server:
    """The serving daemon: shared-memory publish + N workers + supervisor.

    Build the oracle first (:meth:`DistanceOracle.build`), then::

        server = Server(oracle, workers=4, port=0)
        server.start()            # publish shm, spawn workers, bind
        server.serve_forever()    # blocks; request_shutdown() stops it

    ``port=0`` binds an ephemeral TCP port (read it back from
    ``server.address``); ``unix_path`` serves a unix-domain socket
    instead.  :meth:`serve_forever` tears everything down on exit —
    workers are told to exit, closing the connections they hold, and
    joined (killed if they won't), and the shared segment is unlinked;
    the teardown runs on the failure path too.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        workers: int = DEFAULT_WORKERS,
        host: str = DEFAULT_HOST,
        port: int = 0,
        unix_path: Optional[str] = None,
        warm: int = 0,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.oracle = oracle
        self.workers = workers
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.warm = warm
        self.max_frame = max_frame
        self.metrics = MetricsRegistry()
        self._share: Optional[OracleShare] = None
        self._workers: Dict[int, _Worker] = {}
        self._collections: Dict[int, _Stats] = {}
        self._collection_ids = itertools.count()
        self._handoffs = 0
        self._listener: Optional[socket.socket] = None
        self._sel: Optional[selectors.DefaultSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        # a plain flag: a signal handler that waited on a lock the
        # interrupted main thread holds would never return
        self._stopping = False
        self._closed = False
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Address:
        """The bound address (``(host, port)`` or the unix socket path)."""
        if self.unix_path is not None:
            return self.unix_path
        if self._listener is None:
            return (self.host, self.port)
        bound = self._listener.getsockname()
        return (bound[0], bound[1])

    @property
    def payload_bytes(self) -> int:
        """Size of the published shared segment (0 before :meth:`start`)."""
        return self._share.payload_bytes if self._share is not None else 0

    def _spawn_worker(self, worker_id: int) -> _Worker:
        assert self._share is not None
        fork = _single_threaded()
        ctx: Union[ForkContext, SpawnContext] = (
            get_context("fork") if fork else get_context("spawn")
        )
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        parent_fds = self._parent_fds(parent_conn) if fork else ()
        daemon = _Daemon(os.getpid(), self.workers, self.max_frame, self._started_at)
        proc = ctx.Process(
            target=worker_main,
            args=(worker_id, self._share.name, child_conn, self.warm, daemon,
                  parent_fds),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(worker_id, proc, parent_conn)
        self._workers[worker_id] = worker
        self.metrics.counter("serve.workers.spawned").inc()
        if self._sel is not None:
            self._register_worker(worker)
        return worker

    def _parent_fds(self, own_end: Connection) -> Tuple[int, ...]:
        """The fds a forked worker must close before anything else.

        Holding the listener keeps the port bound after the parent
        exits; the wake sockets and the selector belong to the parent's
        loop.  A worker holding another worker's pipe end, or
        ``own_end`` (the parent end of its own new pipe), keeps that
        worker from reading EOF when the parent dies.  No client socket
        is listed: the parent closes each one as it hands it off, before
        anything can fork.
        """
        fds = [own_end.fileno()]
        fds += [worker.conn.fileno() for worker in self._workers.values()]
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                fds.append(sock.fileno())
        if self._sel is not None:
            fds.append(self._sel.fileno())
        return tuple(fds)

    def _register_worker(self, worker: _Worker) -> None:
        assert self._sel is not None
        # keyed by the record, not the id: one select batch can carry a
        # dead worker's pipe EOF and its sentinel, and the first of them
        # already put a replacement under the same id
        self._sel.register(worker.conn, selectors.EVENT_READ, ("worker", worker))
        self._sel.register(
            worker.proc.sentinel, selectors.EVENT_READ, ("sentinel", worker)
        )

    def start(self) -> None:
        """Publish the segment, spawn workers, wait ready, bind the socket.

        The seconds each of the three steps took are the gauges
        ``serve.startup.publish_s``, ``.workers_s`` and ``.bind_s``.

        Raises
        ------
        RuntimeError
            When a worker fails to report ready within
            :data:`READY_TIMEOUT` seconds.
        """
        step = time.perf_counter()
        self._share = publish_oracle(self.oracle)
        self._started_at = time.monotonic()
        step = self._startup_step("publish_s", step)
        try:
            for worker_id in range(self.workers):
                self._spawn_worker(worker_id)
            deadline = time.monotonic() + READY_TIMEOUT
            for worker in self._workers.values():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not worker.conn.poll(remaining):
                    raise RuntimeError(
                        f"worker {worker.worker_id} not ready within "
                        f"{READY_TIMEOUT:.0f}s"
                    )
                try:
                    kind, _ = worker.conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        f"worker {worker.worker_id} died during startup"
                    ) from None
                if kind != "ready":
                    raise RuntimeError(
                        f"worker {worker.worker_id} sent {kind!r} instead of ready"
                    )
            step = self._startup_step("workers_s", step)
            if self.unix_path is not None:
                try:
                    os.unlink(self.unix_path)
                except FileNotFoundError:
                    pass
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                listener.bind(self.unix_path)
            else:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self.host, self.port))
            listener.listen(128)
            listener.setblocking(False)
            self._listener = listener
            self._sel = selectors.DefaultSelector()
            self._sel.register(listener, selectors.EVENT_READ, ("listener", None))
            for worker in self._workers.values():
                self._register_worker(worker)
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
            self._startup_step("bind_s", step)
        except BaseException:
            self.close()
            raise

    def _startup_step(self, name: str, began: float) -> float:
        """Record the seconds since ``began`` as ``serve.startup.<name>``;
        return now."""
        now = time.perf_counter()
        self.metrics.gauge(f"serve.startup.{name}").set(now - began)
        return now

    def request_shutdown(self) -> None:
        """Ask the loop to stop (thread- and signal-safe)."""
        self._stopping = True
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:  # pragma: no cover - already closed
                pass

    # -- event loop ----------------------------------------------------
    def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (or a ``shutdown`` op); then
        tear everything down, failure path included."""
        if self._sel is None:
            raise RuntimeError("serve_forever() before start()")
        try:
            while not self._stopping:
                for key, _mask in self._sel.select(timeout=0.5):
                    kind, worker = key.data
                    if kind == "listener":
                        self._accept()
                    elif kind == "wake":
                        try:
                            assert self._wake_r is not None
                            self._wake_r.recv(4096)
                        except (BlockingIOError, OSError):
                            pass
                    elif kind == "worker":
                        self._worker_readable(worker)
                    elif kind == "sentinel":
                        self._worker_died(worker)
        finally:
            self.close()

    def _accept(self) -> None:
        """Hand one connection to the next worker in turn, keep no copy."""
        assert self._listener is not None
        if self._stopping:  # a dead worker is no longer replaced
            return
        # respawn the dead first: a worker forked while this process
        # holds an accepted socket would keep that connection open
        for worker in list(self._workers.values()):
            if not worker.proc.is_alive():
                self._worker_died(worker)
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        self.metrics.counter("serve.clients.accepted").inc()
        worker = self._workers[self._handoffs % self.workers]
        self._handoffs += 1
        try:
            worker.conn.send(("conn", None))
            send_handle(worker.conn, sock.fileno(), worker.proc.pid)
        except OSError:
            sock.close()  # before the respawn below forks
            self._worker_died(worker)
        else:
            sock.close()

    # -- worker events -------------------------------------------------
    def _worker_readable(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        try:
            while worker.conn.poll():
                kind, arg = worker.conn.recv()
                if kind == "stats":
                    self._collect_stats(worker, arg)
                elif kind == "part":
                    self._stats_part(worker, *arg)
                elif kind == "shutdown":
                    self.request_shutdown()
                # a respawned worker's "ready" needs no answer
        except (EOFError, OSError):
            self._worker_died(worker)

    def _collect_stats(self, asker: _Worker, token: int) -> None:
        """Ask every live worker for its part of ``asker``'s answer."""
        cid = next(self._collection_ids)
        self._collections[cid] = _Stats(asker, token, set(self._workers))
        for worker in self._workers.values():
            try:
                worker.conn.send(("part", cid))
            except OSError:
                pass  # its sentinel reports the death, which drops the part

    def _stats_part(self, worker: _Worker, cid: int, part: Dict[str, Any]) -> None:
        collection = self._collections.get(cid)
        if collection is None:
            return  # its asker died; a late part opens nothing
        collection.parts.append(part)
        collection.pending.discard(worker.worker_id)
        if not collection.pending:
            self._finish_stats(cid)

    def _finish_stats(self, cid: int) -> None:
        collection = self._collections.pop(cid)
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        for part in collection.parts:
            merged.merge(part["snapshot"])
        result = {
            "workers": len(collection.parts),
            "snapshot": merged.snapshot(),
            "caches": [
                {"worker": part["worker"], "cache": part["cache"]}
                for part in collection.parts
            ],
        }
        try:
            collection.worker.conn.send(("stats", (collection.token, result)))
        except OSError:
            pass  # the asker died; its sentinel reports it

    def _worker_died(self, worker: _Worker) -> None:
        assert self._sel is not None
        if not worker.alive:
            return
        worker.alive = False
        for fileobj in (worker.conn, worker.proc.sentinel):
            try:
                self._sel.unregister(fileobj)
            except (KeyError, ValueError):
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        self.metrics.counter("serve.workers.crashed").inc()
        for cid, collection in list(self._collections.items()):
            if collection.worker is worker:
                del self._collections[cid]
            elif worker.worker_id in collection.pending:
                collection.pending.discard(worker.worker_id)
                if not collection.pending:
                    self._finish_stats(cid)
        self._workers.pop(worker.worker_id, None)
        if not self._stopping:
            self._spawn_worker(worker.worker_id)
            self.metrics.counter("serve.workers.respawned").inc()

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Tear everything down (idempotent; runs on the failure path too)."""
        if self._closed:
            return
        self._closed = True
        self._stopping = True
        self._collections.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        for worker in self._workers.values():
            if not worker.alive:
                continue
            try:
                worker.conn.send(("exit", None))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        for wake in (self._wake_r, self._wake_w):
            if wake is not None:
                try:
                    wake.close()
                except OSError:
                    pass
        self._wake_r = self._wake_w = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        if self._share is not None:
            self._share.unlink()
            self._share = None
