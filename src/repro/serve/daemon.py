"""Multi-worker oracle serving daemon over one shared-memory segment.

Architecture — one parent event loop, N compute workers::

    clients ── TCP / unix socket ──▶ parent (selectors loop)
                                        │  per-worker duplex Pipe
                                        ▼
                       worker 0 … worker N-1  (forked or spawned)
                                        ▲
                one shared segment ─────┘  (repro.serve.shm)

The parent owns every client connection and never computes a distance;
workers never touch a socket.  That split is what makes crash isolation
*answerable*: when a worker dies (its ``Process.sentinel`` becomes
readable in the same selector that watches the sockets), the parent
still holds the client connections of the requests that died with it,
answers each with a typed ``worker_crashed`` error, and respawns the
worker — the daemon as a whole never hangs and never drops a
connection because of a worker failure.

Workers are forked while the daemon runs one thread, as ``repro serve``
does, and spawned otherwise (a ``Server`` whose loop runs in a thread):
a forked worker starts from the parent's imported modules instead of a
fresh interpreter, and forking a multi-threaded process can deadlock
the child.  A forked worker first closes the fds it inherited from the
parent (:meth:`Server._parent_fds` lists them and why) and resets
SIGTERM to its default.

Requests are dispatched to the live worker with the fewest outstanding
requests; ``stats`` fans out to every worker and folds the per-worker
:class:`~repro.obs.metrics.MetricsRegistry` snapshots into the parent's
registry via the existing ``snapshot()/merge()`` contract, so the
merged counters equal a single-worker run's exactly.

Robustness contract (regression-tested): malformed frames are answered
``malformed_frame`` on a connection that stays usable; an oversized
length prefix is answered ``oversized_frame`` and the connection is
closed (the stream position is unrecoverable); a client that
disconnects mid-request is dropped with a metrics counter and the
worker's eventual answer is discarded — no traceback ever reaches
stderr, no worker is ever left stuck.
"""

from __future__ import annotations

import os
import random
import selectors
import signal
import socket
import struct
import time
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.oracle.oracle import DistanceOracle
from repro.serve import protocol
from repro.serve.protocol import Address
from repro.serve.shm import OracleShare, attach_oracle, publish_oracle

if TYPE_CHECKING:
    from multiprocessing.context import ForkContext, SpawnContext

DEFAULT_WORKERS = 2
DEFAULT_HOST = "127.0.0.1"
#: how long start() waits for every worker's ready message
READY_TIMEOUT = 60.0

_LEN = struct.Struct("!I")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute(
    op: str,
    args: Dict[str, Any],
    oracle: DistanceOracle,
    by_name: Dict[str, Any],
    registry: MetricsRegistry,
    worker_id: int,
) -> Dict[str, Any]:
    """Run one dispatched op; always returns a response envelope."""

    def resolve(label: Any, field: str) -> Any:
        if not isinstance(label, str):
            raise protocol.ProtocolError(
                "bad_request", f"{op} needs a string {field!r} field"
            )
        try:
            return by_name[label]
        except KeyError:
            raise protocol.ProtocolError(
                "unknown_vertex",
                f"{label!r} is not a vertex of the served structure",
            ) from None

    try:
        registry.counter("serve.worker.requests").inc()
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
        if op == "k_nearest":
            v = resolve(args.get("v"), "v")
            k = args.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise protocol.ProtocolError(
                    "bad_request", f"k_nearest needs an int k >= 1, got {k!r}"
                )
            near = oracle.k_nearest(v, k)
            return protocol.ok_response(
                {"nearest": [[str(u), d] for u, d in near]}
            )
        if op == "stats":
            merged = MetricsRegistry()
            merged.merge(registry.snapshot())
            merged.merge(oracle.metrics.snapshot())
            return protocol.ok_response(
                {
                    "worker": worker_id,
                    "snapshot": merged.snapshot(),
                    "cache": oracle.cache_info(),
                }
            )
        raise protocol.ProtocolError(
            "bad_request", f"op {op!r} is not dispatchable to a worker"
        )
    except protocol.ProtocolError as exc:
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response(exc.code, exc.message)
    except ValueError as exc:
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response("bad_request", str(exc))
    except Exception as exc:  # noqa: BLE001 - the wire gets a typed error
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response(
            "internal", f"{type(exc).__name__}: {exc}"
        )


def worker_main(
    worker_id: int,
    shm_name: str,
    conn: Connection,
    warm: int,
    parent_fds: Tuple[int, ...],
) -> None:
    """Entry point of one serving worker (a forked or spawned process).

    A forked worker first closes ``parent_fds``, the parent's fds it
    inherited (a spawned one gets ``()``), and both kinds reset the
    parent's signal handlers.  Then it attaches the shared oracle
    segment (zero-copy), optionally warms the scratch arrays and cache
    with ``warm`` seeded self-queries, reports ready, then answers
    ``(req_id, op, args)`` messages from the parent until told to exit
    or the pipe closes.  All state is local to the process: a private
    metrics registry, the label-resolution dict, and the attached
    oracle — nothing global is written.
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
    oracle = handle.oracle
    assert oracle is not None
    registry = MetricsRegistry()
    by_name = {str(v): v for v in oracle.csr.verts}
    if warm > 0:
        rng = random.Random(oracle.seed * 1_000_003 + worker_id)
        verts = oracle.csr.verts
        for _ in range(warm):
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            oracle.query(u, v)
    conn.send((-1, {"ready": worker_id, "pid": os.getpid()}))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            req_id, op, args = message
            if op == "exit":
                break
            conn.send(
                (req_id, _execute(op, args, oracle, by_name, registry, worker_id))
            )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent vanished
        pass
    finally:
        del oracle, by_name
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

    __slots__ = ("worker_id", "proc", "conn", "outstanding", "alive")

    def __init__(self, worker_id: int, proc: Any, conn: Connection) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.outstanding: Set[int] = set()
        self.alive = True


class _Client:
    """Parent-side record of one client connection."""

    __slots__ = ("sock", "fd", "rbuf", "wbuf", "closing", "inflight")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.closing = False  # close once wbuf drains (oversized frame)
        self.inflight: Set[int] = set()


class _Request:
    """One in-flight request: who asked, who is computing it."""

    __slots__ = ("req_id", "client_fd", "op", "worker_ids", "parts")

    def __init__(self, req_id: int, client_fd: int, op: str) -> None:
        self.req_id = req_id
        self.client_fd = client_fd
        self.op = op
        self.worker_ids: Set[int] = set()
        self.parts: List[Dict[str, Any]] = []


class Server:
    """The serving daemon: shared-memory publish + N workers + event loop.

    Build the oracle first (:meth:`DistanceOracle.build`), then::

        server = Server(oracle, workers=4, port=0)
        server.start()            # publish shm, spawn workers, bind
        server.serve_forever()    # blocks; request_shutdown() stops it

    ``port=0`` binds an ephemeral TCP port (read it back from
    ``server.address``); ``unix_path`` serves a unix-domain socket
    instead.  :meth:`serve_forever` tears everything down on exit —
    in-flight requests are answered ``shutting_down``, workers are told
    to exit and joined (killed if they won't), and the shared segment
    is unlinked; the teardown runs on the failure path too.
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
        self._clients: Dict[int, _Client] = {}
        self._requests: Dict[int, _Request] = {}
        self._next_req = 0
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
        proc = ctx.Process(
            target=worker_main,
            args=(worker_id, self._share.name, child_conn, self.warm, parent_fds),
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

        A worker holding a client socket keeps the connection open after
        the parent closes it, so the client never reads EOF; holding the
        listener keeps the port bound after the parent exits; the wake
        sockets and the selector belong to the parent's loop.  A worker
        holding another worker's pipe end, or ``own_end`` (the parent end
        of its own new pipe), keeps that worker from reading EOF when
        the parent dies.
        """
        fds = [own_end.fileno()]
        fds += [client.fd for client in self._clients.values()]
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
                    tag, info = worker.conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        f"worker {worker.worker_id} died during startup"
                    ) from None
                if tag != -1 or not isinstance(info, dict) or "ready" not in info:
                    raise RuntimeError(
                        f"worker {worker.worker_id} sent {info!r} instead of ready"
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
                for key, mask in self._sel.select(timeout=0.5):
                    kind, tag = key.data
                    if kind == "listener":
                        self._accept()
                    elif kind == "wake":
                        try:
                            assert self._wake_r is not None
                            self._wake_r.recv(4096)
                        except (BlockingIOError, OSError):
                            pass
                    elif kind == "client":
                        if mask & selectors.EVENT_WRITE:
                            self._client_writable(tag)
                        if mask & selectors.EVENT_READ:
                            self._client_readable(tag)
                    elif kind == "worker":
                        self._worker_readable(tag)
                    elif kind == "sentinel":
                        self._worker_died(tag)
        finally:
            self.close()

    # -- clients -------------------------------------------------------
    def _accept(self) -> None:
        assert self._listener is not None and self._sel is not None
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock)
        self._clients[client.fd] = client
        self._sel.register(sock, selectors.EVENT_READ, ("client", client.fd))
        self.metrics.counter("serve.clients.accepted").inc()

    def _drop_client(self, client: _Client, midrequest: bool) -> None:
        assert self._sel is not None
        for req_id in list(client.inflight):
            request = self._requests.pop(req_id, None)
            if request is None:
                continue
            for worker_id in request.worker_ids:
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.outstanding.discard(req_id)
        if midrequest and client.inflight:
            self.metrics.counter("serve.clients.disconnect_midrequest").inc()
        client.inflight.clear()
        try:
            self._sel.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        self._clients.pop(client.fd, None)
        try:
            client.sock.close()
        except OSError:
            pass
        self.metrics.counter("serve.clients.closed").inc()

    def _send_to_client(self, client: _Client, payload: Dict[str, Any]) -> None:
        try:
            frame = protocol.encode_frame(payload, max_frame=self.max_frame)
        except protocol.ProtocolError:
            # the *response* outgrew the frame limit (huge query_many):
            # degrade to a typed error that always fits
            self._count_error("oversized_frame")
            frame = protocol.encode_frame(
                protocol.error_response(
                    "oversized_frame",
                    f"response exceeds the {self.max_frame}-byte frame limit",
                )
            )
        client.wbuf += frame
        self._flush_client(client)

    def _flush_client(self, client: _Client) -> None:
        assert self._sel is not None
        if client.wbuf:
            try:
                sent = client.sock.send(client.wbuf)
                del client.wbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._drop_client(client, midrequest=True)
                return
        events = selectors.EVENT_READ
        if client.wbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._sel.modify(client.sock, events, ("client", client.fd))
        except (KeyError, ValueError):
            return
        if client.closing and not client.wbuf:
            self._drop_client(client, midrequest=False)

    def _client_writable(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is not None:
            self._flush_client(client)

    def _client_readable(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is None:
            return
        try:
            data = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_client(client, midrequest=True)
            return
        if not data:
            self._drop_client(client, midrequest=bool(client.inflight))
            return
        client.rbuf += data
        self._parse_frames(client)

    def _count_error(self, code: str) -> None:
        self.metrics.counter(f"serve.errors.{code}").inc()

    def _parse_frames(self, client: _Client) -> None:
        while not client.closing:
            if len(client.rbuf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(client.rbuf)
            if length > self.max_frame:
                self._count_error("oversized_frame")
                client.rbuf.clear()  # stream position is unrecoverable
                client.closing = True
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "oversized_frame",
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte limit",
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
            self.metrics.counter("serve.requests.total").inc()
            self._handle_request(client, op, args)

    # -- request handling ----------------------------------------------
    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def _handle_request(
        self, client: _Client, op: str, args: Dict[str, Any]
    ) -> None:
        if self._stopping:
            self._count_error("shutting_down")
            self._send_to_client(
                client,
                protocol.error_response(
                    "shutting_down", "the daemon is shutting down"
                ),
            )
            return
        if op == "ping":
            self._send_to_client(
                client, protocol.ok_response({"pong": True})
            )
            return
        if op == "info":
            share = self._share
            self._send_to_client(
                client,
                protocol.ok_response(
                    {
                        "n": self.oracle.csr.n,
                        "m": self.oracle.csr.m,
                        "landmarks": len(self.oracle.landmark_indices),
                        "strategy": self.oracle.strategy,
                        "seed": self.oracle.seed,
                        "workers": len(self._alive_workers()),
                        "payload_bytes": share.payload_bytes if share else 0,
                        "max_frame": self.max_frame,
                        "pid": os.getpid(),
                        "uptime_s": time.monotonic() - self._started_at,
                    }
                ),
            )
            return
        if op == "vertices":
            limit = args.get("limit", 100)
            offset = args.get("offset", 0)
            if (
                not isinstance(limit, int)
                or isinstance(limit, bool)
                or not isinstance(offset, int)
                or isinstance(offset, bool)
                or limit < 0
                or offset < 0
            ):
                self._count_error("bad_request")
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "bad_request",
                        "vertices needs non-negative int 'limit'/'offset'",
                    ),
                )
                return
            verts = self.oracle.csr.verts
            self._send_to_client(
                client,
                protocol.ok_response(
                    {
                        "n": len(verts),
                        "vertices": [
                            str(v) for v in verts[offset : offset + limit]
                        ],
                    }
                ),
            )
            return
        if op == "shutdown":
            self._send_to_client(client, protocol.ok_response({"stopping": True}))
            self.request_shutdown()
            return
        if op == "crash_worker":
            self._crash_worker(client, args)
            return
        if op == "stats":
            self._fanout_stats(client)
            return
        # compute ops go to the least-loaded live worker
        alive = self._alive_workers()
        if not alive:
            self._count_error("worker_crashed")
            self._send_to_client(
                client,
                protocol.error_response(
                    "worker_crashed", "no live worker to serve the request"
                ),
            )
            return
        worker = min(alive, key=lambda w: (len(w.outstanding), w.worker_id))
        request = self._new_request(client, op)
        request.worker_ids.add(worker.worker_id)
        worker.outstanding.add(request.req_id)
        self.metrics.counter("serve.requests.dispatched").inc()
        self._send_to_worker(worker, request.req_id, op, args)

    def _new_request(self, client: _Client, op: str) -> _Request:
        self._next_req += 1
        request = _Request(self._next_req, client.fd, op)
        self._requests[request.req_id] = request
        client.inflight.add(request.req_id)
        return request

    def _send_to_worker(
        self, worker: _Worker, req_id: int, op: str, args: Dict[str, Any]
    ) -> None:
        try:
            worker.conn.send((req_id, op, args))
        except (BrokenPipeError, OSError):
            self._worker_died(worker)

    def _crash_worker(self, client: _Client, args: Dict[str, Any]) -> None:
        """Kill one worker (test/ops endpoint exercising crash isolation)."""
        alive = self._alive_workers()
        if not alive:
            self._count_error("bad_request")
            self._send_to_client(
                client,
                protocol.error_response("bad_request", "no live worker to crash"),
            )
            return
        wanted = args.get("worker")
        if wanted is None:
            target = max(alive, key=lambda w: len(w.outstanding))
        else:
            matches = [w for w in alive if w.worker_id == wanted]
            if not matches:
                self._count_error("bad_request")
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "bad_request", f"no live worker {wanted!r}"
                    ),
                )
                return
            target = matches[0]
        pid = target.proc.pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        self._send_to_client(
            client,
            protocol.ok_response({"killed": target.worker_id, "pid": pid}),
        )

    def _fanout_stats(self, client: _Client) -> None:
        alive = self._alive_workers()
        request = self._new_request(client, "stats")
        if not alive:
            self._finish_stats(request)
            return
        for worker in alive:
            request.worker_ids.add(worker.worker_id)
            worker.outstanding.add(request.req_id)
            self._send_to_worker(worker, request.req_id, "stats", {})

    def _finish_stats(self, request: _Request) -> None:
        self._requests.pop(request.req_id, None)
        client = self._clients.get(request.client_fd)
        if client is None:
            return
        client.inflight.discard(request.req_id)
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        caches = []
        for part in request.parts:
            merged.merge(part.get("snapshot", {}))
            caches.append(
                {"worker": part.get("worker"), "cache": part.get("cache")}
            )
        self._send_to_client(
            client,
            protocol.ok_response(
                {
                    "workers": len(request.parts),
                    "snapshot": merged.snapshot(),
                    "caches": caches,
                }
            ),
        )

    # -- worker events -------------------------------------------------
    def _worker_readable(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        try:
            while worker.conn.poll():
                req_id, envelope = worker.conn.recv()
                self._worker_reply(worker, req_id, envelope)
        except (EOFError, OSError):
            self._worker_died(worker)

    def _worker_reply(
        self, worker: _Worker, req_id: int, envelope: Dict[str, Any]
    ) -> None:
        if req_id == -1:  # a respawned worker reporting ready
            return
        worker.outstanding.discard(req_id)
        request = self._requests.get(req_id)
        if request is None:
            return  # client disconnected mid-request; answer discarded
        if request.op == "stats":
            request.worker_ids.discard(worker.worker_id)
            if envelope.get("ok") is True and isinstance(
                envelope.get("result"), dict
            ):
                request.parts.append(envelope["result"])
            if not request.worker_ids:
                self._finish_stats(request)
            return
        self._requests.pop(req_id, None)
        client = self._clients.get(request.client_fd)
        if client is None:
            return
        client.inflight.discard(req_id)
        if envelope.get("ok") is not True:
            error = envelope.get("error")
            if isinstance(error, dict) and error.get("code") in protocol.ERROR_CODES:
                self._count_error(str(error["code"]))
        self._send_to_client(client, envelope)

    def _worker_died(self, worker: _Worker) -> None:
        assert self._sel is not None
        if not worker.alive:
            return
        worker.alive = False
        worker_id = worker.worker_id
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
        # every request that died with the worker gets a typed error now
        for req_id in sorted(worker.outstanding):
            request = self._requests.get(req_id)
            if request is None:
                continue
            if request.op == "stats":
                request.worker_ids.discard(worker_id)
                if not request.worker_ids:
                    self._finish_stats(request)
                continue
            self._requests.pop(req_id, None)
            client = self._clients.get(request.client_fd)
            if client is None:
                continue
            client.inflight.discard(req_id)
            self._count_error("worker_crashed")
            self._send_to_client(
                client,
                protocol.error_response(
                    "worker_crashed",
                    f"worker {worker_id} died while serving the request",
                ),
            )
        worker.outstanding.clear()
        self._workers.pop(worker_id, None)
        if not self._stopping:
            self._spawn_worker(worker_id)
            self.metrics.counter("serve.workers.respawned").inc()

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Tear everything down (idempotent; runs on the failure path too)."""
        if self._closed:
            return
        self._closed = True
        self._stopping = True
        # in-flight requests are answered with a typed shutting_down error
        for request in list(self._requests.values()):
            client = self._clients.get(request.client_fd)
            if client is None:
                continue
            client.inflight.discard(request.req_id)
            self._count_error("shutting_down")
            try:
                client.sock.setblocking(True)
                client.sock.settimeout(1.0)
                client.sock.sendall(
                    protocol.encode_frame(
                        protocol.error_response(
                            "shutting_down", "the daemon is shutting down"
                        )
                    )
                )
            except OSError:
                pass
        self._requests.clear()
        for client in list(self._clients.values()):
            try:
                client.sock.close()
            except OSError:
                pass
        self._clients.clear()
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
                worker.conn.send((None, "exit", {}))
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
