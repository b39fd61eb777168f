"""Suite for the shared-memory serving daemon (repro.serve).

Three layers of contract:

* **shm** — publish/attach round-trips the oracle exactly, attached
  oracles answer over zero-copy views, and worker-side private memory
  stays far below one full oracle copy (the whole point of sharing);
* **protocol/daemon** — every failure in the typed taxonomy is a typed
  envelope, never a traceback or a hang: malformed frames keep the
  connection, oversized frames close it, disconnecting clients and
  SIGKILLed workers leave the daemon serving;
* **correctness under concurrency** — workers=N answers equal
  workers=1 answers equal Dijkstra-on-H (1e-9), and per-worker metric
  registries merge into exact totals.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import selectors
import signal
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import verify_oracle
from repro.graphs import erdos_renyi_graph
from repro.graphs.shortest_paths import dijkstra
from repro.harness.loadgen import launch_daemon, run_closed_level, stop_daemon
from repro.io import write_json
from repro.oracle import build_oracle
from repro.serve import (
    ConnectionClosed,
    ProtocolError,
    ServeClient,
    Server,
    address_of,
    attach_oracle,
    publish_oracle,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    decode_body,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    read_frame,
    result_of,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH = erdos_renyi_graph(150, 0.06, seed=21)
ORACLE = build_oracle(GRAPH, landmarks=4, seed=3)
PAIRS = [(u, v) for u in [0, 3, 7, 20] for v in [1, 9, 33, 140]]


def _serve_in_thread(server):
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def served():
    """One shared daemon (2 workers, TCP) for the read-only tests."""
    server = Server(ORACLE, workers=2, port=0, warm=3)
    thread = _serve_in_thread(server)
    yield server
    server.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture()
def client(served):
    with ServeClient.open(served.address) as c:
        yield c


def _raw_conn(served):
    sock = socket.create_connection(served.address, timeout=10)
    sock.settimeout(10)
    return sock


# ---------------------------------------------------------------------------
# protocol helpers
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "query", "u": "0", "v": "1"}
        frame = encode_frame(payload)
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_infinity_rides_the_wire(self):
        frame = encode_frame(ok_response(float("inf")))
        assert result_of(decode_body(frame[4:])) == float("inf")

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError) as err:
            encode_frame({"blob": "x" * 100}, max_frame=50)
        assert err.value.code == "oversized_frame"

    def test_parse_request_taxonomy(self):
        assert parse_request({"op": "ping"}) == ("ping", {})
        with pytest.raises(ProtocolError) as err:
            parse_request({"no": "op"})
        assert err.value.code == "malformed_frame"
        with pytest.raises(ProtocolError) as err:
            parse_request({"op": "frobnicate"})
        assert err.value.code == "unknown_op"

    def test_result_of_rebuilds_typed_errors(self):
        with pytest.raises(ProtocolError) as err:
            result_of(error_response("unknown_vertex", "no such vertex"))
        assert err.value.code == "unknown_vertex"

    @pytest.mark.parametrize("op", ["info", "stats"])
    def test_client_rejects_a_non_object_result(self, op):
        ours, daemon = socket.socketpair()
        try:
            # the fake daemon's answer waits in the socket before the ask
            daemon.sendall(encode_frame(ok_response([1])))
            with pytest.raises(ProtocolError) as err:
                getattr(ServeClient(ours), op)()
            assert err.value.code == "malformed_frame"
        finally:
            ours.close()
            daemon.close()

    def test_address_of(self):
        assert address_of("127.0.0.1:80") == ("127.0.0.1", 80)
        assert address_of("unix:/tmp/s.sock") == "/tmp/s.sock"
        with pytest.raises(ValueError):
            address_of("unix:")
        with pytest.raises(ValueError):
            address_of("no-port-here")


# ---------------------------------------------------------------------------
# shared-memory publish / attach
# ---------------------------------------------------------------------------
class TestShm:
    def test_attach_round_trips_the_oracle(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                attached = handle.oracle
                assert attached.csr.n == ORACLE.csr.n
                assert list(attached.csr.verts) == list(ORACLE.csr.verts)
                assert attached.landmark_indices == ORACLE.landmark_indices
                got = attached.query_many(PAIRS)
                want = ORACLE.query_many(PAIRS)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-9)
            finally:
                handle.close()
        finally:
            share.unlink()

    def test_attached_arrays_are_views_not_copies(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                csr = handle.oracle.csr
                assert isinstance(csr.indptr, memoryview)
                assert isinstance(csr.weights, memoryview)
                assert isinstance(handle.oracle.potentials[0], memoryview)
            finally:
                handle.close()
        finally:
            share.unlink()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="magic"):
                attach_oracle(seg.name)
        finally:
            seg.close()
            seg.unlink()

    def test_shm_backed_oracle_still_pickles_self_contained(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                clone = pickle.loads(pickle.dumps(handle.oracle))
            finally:
                handle.close()
        finally:
            share.unlink()
        # the segment is gone; the clone must answer from its own arrays
        for g, w in zip(clone.query_many(PAIRS), ORACLE.query_many(PAIRS)):
            assert g == pytest.approx(w, abs=1e-9)

    def test_worker_private_memory_is_a_fraction_of_a_copy(self, tmp_path):
        """The memory-footprint gate: a worker that *attaches* pays far
        less private memory than a worker holding its own *unpickled
        copy* — the array payload stays in shared pages.  (The label
        table is rebuilt privately either way, so the honest comparison
        is attach-vs-copy, not attach-vs-zero.)"""
        big_graph = erdos_renyi_graph(3000, 0.006, seed=5)
        big_oracle = build_oracle(big_graph, landmarks=6, seed=9)
        share = publish_oracle(big_oracle)
        pickled = tmp_path / "oracle.pkl"
        pickled.write_bytes(pickle.dumps(big_oracle))
        script = tmp_path / "residency_probe.py"
        script.write_text(textwrap.dedent("""\
            import json
            import pickle
            import sys

            from multiprocessing import resource_tracker

            from repro.serve import attach_oracle


            def private_bytes() -> int:
                total = 0
                with open("/proc/self/smaps_rollup") as fh:
                    for line in fh:
                        if line.startswith(("Private_Dirty:", "Private_Clean:")):
                            total += int(line.split()[1]) * 1024
                return total


            mode, source = sys.argv[1], sys.argv[2]
            before = private_bytes()
            if mode == "attach":
                handle = attach_oracle(source)
                oracle = handle.oracle
                payload = handle.payload_bytes
                # this probe owns its resource tracker (it is not a
                # multiprocessing child); pre-3.13 attach registered the
                # segment there, and exiting would unlink it from under
                # the publisher — hand the registration back first
                resource_tracker.unregister(
                    "/" + source.lstrip("/"), "shared_memory"
                )
            else:
                with open(source, "rb") as fh:
                    oracle = pickle.loads(fh.read())
                payload = 0
            touched = (
                sum(oracle.csr.weights)
                + sum(oracle.csr.indptr)
                + sum(sum(p) for p in oracle.potentials)
                + float(oracle.query(0, 1))
            )
            after = private_bytes()
            print(json.dumps({
                "delta": after - before,
                "payload": payload,
                "touched": touched,
            }))
        """))

        def probe(mode, source):
            out = subprocess.run(
                [sys.executable, str(script), mode, source],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            )
            assert out.returncode == 0, out.stderr
            return json.loads(out.stdout)

        try:
            attached = probe("attach", share.name)
            copied = probe("copy", str(pickled))
        finally:
            share.unlink()
        assert attached["payload"] > 500_000  # the gate must be meaningful
        # both probes touch every value and compute one query; only the
        # copy materializes the arrays as private Python objects
        assert attached["touched"] == pytest.approx(copied["touched"])
        assert attached["delta"] < 0.5 * copied["delta"], (attached, copied)
        # and the attach-side private cost stays below one payload even
        # counting the rebuilt label table
        assert attached["delta"] < attached["payload"], attached


# ---------------------------------------------------------------------------
# daemon ops
# ---------------------------------------------------------------------------
class TestDaemonOps:
    def test_ping_info_vertices(self, served, client):
        assert client.ping() is True
        info = client.info()
        assert info["n"] == ORACLE.csr.n
        assert info["workers"] == 2
        assert info["payload_bytes"] == served.payload_bytes > 0
        page = client.call("vertices", limit=5)
        assert page["n"] == ORACLE.csr.n
        assert len(page["vertices"]) == 5
        assert client.vertices(limit=5) == page["vertices"]

    def test_query_matches_direct_oracle_and_dijkstra(self, client):
        dist, _ = dijkstra(GRAPH, 0)
        for v in (1, 9, 140):
            served_d = client.query("0", str(v))
            assert served_d == pytest.approx(ORACLE.query(0, v), abs=1e-9)
            assert served_d == pytest.approx(
                dist.get(v, float("inf")), abs=1e-9
            )

    def test_query_many_matches_batch(self, client):
        got = client.query_many([[str(u), str(v)] for u, v in PAIRS])
        for g, w in zip(got, ORACLE.query_many(PAIRS)):
            assert g == pytest.approx(w, abs=1e-9)

    def test_k_nearest_matches(self, client):
        got = client.k_nearest("7", k=4)
        want = ORACLE.k_nearest(7, 4)
        assert [u for u, _ in got] == [str(u) for u, _ in want]
        for (_, gd), (_, wd) in zip(got, want):
            assert gd == pytest.approx(wd, abs=1e-9)

    def test_unknown_vertex_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.query("0", "nope")
        assert err.value.code == "unknown_vertex"

    def test_bad_request_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.call("query", u="0")  # v missing
        assert err.value.code == "bad_request"
        with pytest.raises(ProtocolError) as err:
            client.call("k_nearest", v="0", k="three")
        assert err.value.code == "bad_request"

    def test_stats_carries_the_startup_split(self, client):
        snapshot = client.stats()["snapshot"]
        for step in ("publish_s", "workers_s", "bind_s"):
            gauge = snapshot[f"serve.startup.{step}"]
            assert gauge["type"] == "gauge" and gauge["value"] > 0

    def test_stats_merges_worker_registries(self, served, client):
        before = client.stats()["snapshot"].get(
            "serve.worker.requests", {}
        ).get("value", 0)
        for u, v in PAIRS:
            client.query(str(u), str(v))
        stats = client.stats()
        assert stats["workers"] == 2
        after = stats["snapshot"]["serve.worker.requests"]["value"]
        # every compute op landed on exactly one worker; the merged
        # total counts them all (stats itself is answered by fan-out)
        assert after - before >= len(PAIRS)
        assert len(stats["caches"]) == 2


# ---------------------------------------------------------------------------
# robustness: the typed failure taxonomy, end to end
# ---------------------------------------------------------------------------
class TestRobustness:
    def test_malformed_frame_keeps_the_connection(self, served):
        sock = _raw_conn(served)
        try:
            body = b"this is not json"
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = read_frame(sock)
            assert reply["error"]["code"] == "malformed_frame"
            # the framing was intact, so the connection still serves
            sock.sendall(encode_frame({"op": "ping"}))
            assert result_of(read_frame(sock))["pong"] is True
        finally:
            sock.close()

    def test_non_object_json_is_malformed(self, served):
        sock = _raw_conn(served)
        try:
            body = json.dumps([1, 2, 3]).encode()
            sock.sendall(struct.pack("!I", len(body)) + body)
            assert read_frame(sock)["error"]["code"] == "malformed_frame"
        finally:
            sock.close()

    def test_oversized_frame_answers_then_closes(self, served):
        sock = _raw_conn(served)
        try:
            sock.sendall(struct.pack("!I", DEFAULT_MAX_FRAME + 1))
            reply = read_frame(sock)
            assert reply["error"]["code"] == "oversized_frame"
            # the stream position is unrecoverable: the daemon closes
            with pytest.raises(ConnectionClosed):
                read_frame(sock)
        finally:
            sock.close()

    def test_client_disconnect_mid_request_never_wedges(self, served):
        for _ in range(3):
            sock = _raw_conn(served)
            sock.sendall(encode_frame({"op": "query", "u": "0", "v": "9"}))
            sock.close()  # gone before the answer comes back
        # the daemon must still be fully alive for everyone else
        with ServeClient.open(served.address) as c:
            assert c.ping() is True
            assert c.query("0", "9") == pytest.approx(
                ORACLE.query(0, 9), abs=1e-9
            )

    def test_partial_frame_then_eof_is_harmless(self, served):
        sock = _raw_conn(served)
        sock.sendall(b"\x00\x00")  # half a length prefix
        sock.close()
        with ServeClient.open(served.address) as c:
            assert c.ping() is True


# ---------------------------------------------------------------------------
# crash isolation and lifecycle
# ---------------------------------------------------------------------------
class _PipeFirstSelector(selectors.DefaultSelector):
    """Reports a worker's pipe events ahead of its sentinel's in each
    batch: which of a dead worker's fds the kernel reports first depends
    on the order the worker's fds close in, so fix the harder order."""

    def select(self, timeout=None):
        events = super().select(timeout)
        return sorted(events, key=lambda event: event[0].data[0] == "sentinel")


class TestLifecycle:
    def test_worker_crash_respawns_and_service_continues(self):
        server = Server(ORACLE, workers=2, port=0)
        thread = _serve_in_thread(server)
        before = set(multiprocessing.active_children())
        try:
            with ServeClient.open(server.address) as c:
                killed = c.crash_worker(worker=0)
                assert killed == 0
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    snap = c.stats()["snapshot"]
                    crashed = snap.get(
                        "serve.workers.crashed", {"value": 0}
                    )["value"]
                    respawned = snap.get(
                        "serve.workers.respawned", {"value": 0}
                    )["value"]
                    if crashed >= 1 and respawned >= 1:
                        break
                    time.sleep(0.1)
                assert crashed >= 1 and respawned >= 1
                for u, v in PAIRS:
                    assert c.query(str(u), str(v)) == pytest.approx(
                        ORACLE.query(u, v), abs=1e-9
                    )
                # the loop runs in a thread, so the replacement was
                # spawned: forking a multi-threaded process can deadlock
                (replacement,) = set(multiprocessing.active_children()) - before
                assert b"multiprocessing" in Path(
                    f"/proc/{replacement.pid}/cmdline"
                ).read_bytes()
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_one_crash_respawns_one_worker(self, monkeypatch):
        """A dead worker's pipe EOF and its sentinel arrive in one select
        batch; the replacement started on the first of them is not taken
        for dead on the second."""
        monkeypatch.setattr(selectors, "DefaultSelector", _PipeFirstSelector)
        server = Server(ORACLE, workers=1, port=0)
        before = set(multiprocessing.active_children())
        server.start()
        (worker,) = set(multiprocessing.active_children()) - before
        worker.kill()
        worker.join(timeout=10)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient.open(server.address) as c:
                snap = c.stats()["snapshot"]
                assert snap["serve.workers.crashed"]["value"] == 1
                assert snap["serve.workers.respawned"]["value"] == 1
                assert c.query("0", "9") == pytest.approx(
                    ORACLE.query(0, 9), abs=1e-9
                )
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_shutdown_op_stops_the_daemon(self):
        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        address = server.address
        with ServeClient.open(address) as c:
            c.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2)

    def test_unix_socket_serving(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        server = Server(ORACLE, workers=1, unix_path=path)
        thread = _serve_in_thread(server)
        try:
            assert server.address == path
            with ServeClient.open(path) as c:
                assert c.ping() is True
                assert c.query("0", "1") == pytest.approx(
                    ORACLE.query(0, 1), abs=1e-9
                )
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        assert not Path(path).exists()  # stale socket files are removed

    def test_request_shutdown_takes_no_lock(self):
        """repro serve calls request_shutdown from its signal handlers,
        which run wherever the main thread was interrupted: waiting there
        for a lock the interrupted code holds never returns."""
        lock_types = (type(threading.Lock()), type(threading.RLock()))
        taken = []

        def profile(frame, event, arg):
            if event == "c_call" and isinstance(
                getattr(arg, "__self__", None), lock_types
            ):
                taken.append(arg)

        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        sys.setprofile(profile)
        try:
            server.request_shutdown()
        finally:
            sys.setprofile(None)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert taken == []

    def test_close_is_idempotent(self):
        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        server.request_shutdown()
        thread.join(timeout=30)
        server.close()
        server.close()


# ---------------------------------------------------------------------------
# a CLI daemon's workers: what a respawned worker holds and obeys
# ---------------------------------------------------------------------------
def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from /proc, or None once it is reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _exited(pid):
    stat = _proc_stat(pid)
    return stat is None or stat[0] == "Z"


def _workers_of(daemon_pid):
    """Live worker pids of a daemon: its children, minus the
    multiprocessing resource tracker."""
    pids = []
    for entry in sorted(Path("/proc").iterdir()):
        if not entry.name.isdigit():
            continue
        stat = _proc_stat(entry.name)
        if stat is None or stat[0] == "Z" or stat[1] != daemon_pid:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            pids.append(int(entry.name))
    return sorted(pids)


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _respawned(client):
    snap = client.stats()["snapshot"]
    return snap.get("serve.workers.respawned", {"value": 0})["value"] >= 1


class _CliDaemons:
    """``repro serve`` daemons on a small structure file.  Teardown stops
    each one and SIGKILLs every worker the test listed that still runs,
    so a failing test leaves no process behind."""

    def __init__(self, path):
        self.path = path
        self.procs = []
        self.seen = set()

    def launch(self, workers):
        proc, address = launch_daemon([
            "--structure", str(self.path), "--workers", str(workers),
            "--port", "0", "--landmarks", "4",
        ])
        self.procs.append(proc)
        self.workers(proc)
        return proc, address

    def workers(self, proc):
        pids = _workers_of(proc.pid)
        self.seen.update(pids)
        return pids

    def close(self):
        for proc in self.procs:
            self.workers(proc)
            stop_daemon(proc)
        for pid in self.seen:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.fixture()
def cli_daemons(tmp_path):
    path = tmp_path / "structure.json"
    write_json(GRAPH, path)
    daemons = _CliDaemons(path)
    yield daemons
    daemons.close()


class TestCliDaemonWorkers:
    """``repro serve`` runs one thread, as it does when deployed."""

    def test_workers_are_forked(self, cli_daemons):
        proc, address = cli_daemons.launch(2)
        with ServeClient.open(address) as c:
            c.crash_worker(worker=0)
            assert _wait_for(lambda: _respawned(c), 30)
            assert c.ping() is True
        cmdline = Path(f"/proc/{proc.pid}/cmdline").read_bytes()
        workers = cli_daemons.workers(proc)
        assert len(workers) == 2
        for pid in workers:
            assert Path(f"/proc/{pid}/cmdline").read_bytes() == cmdline

    def test_respawn_leaves_client_connections_to_the_parent(
        self, cli_daemons
    ):
        _proc, address = cli_daemons.launch(1)
        sock = socket.create_connection(address, timeout=10)
        sock.settimeout(10)
        try:
            # the parent has accepted the connection once it answers
            sock.sendall(encode_frame({"op": "ping"}))
            assert result_of(read_frame(sock))["pong"] is True
            with ServeClient.open(address) as c:
                c.crash_worker(worker=0)
                assert _wait_for(lambda: _respawned(c), 30)
                assert c.query("0", "9") == pytest.approx(
                    ORACLE.query(0, 9), abs=1e-9
                )
            sock.sendall(struct.pack("!I", DEFAULT_MAX_FRAME + 1))
            assert read_frame(sock)["error"]["code"] == "oversized_frame"
            # the parent closed the connection and no worker holds it
            with pytest.raises(ConnectionClosed):
                read_frame(sock)
        finally:
            sock.close()

    def test_workers_exit_when_the_parent_is_killed(self, cli_daemons):
        proc, address = cli_daemons.launch(2)
        with ServeClient.open(address) as c:
            c.crash_worker(worker=0)
            assert _wait_for(lambda: _respawned(c), 30)
            for u, v in PAIRS[:4]:
                c.query(str(u), str(v))
        workers = cli_daemons.workers(proc)
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        assert _wait_for(lambda: all(_exited(p) for p in workers), 10), [
            p for p in workers if not _exited(p)
        ]

    def test_prints_the_startup_split_before_ready(self, tmp_path):
        path = tmp_path / "structure.json"
        write_json(GRAPH, path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--structure", str(path),
             "--workers", "1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        lines = []
        try:
            for line in proc.stdout:
                lines.append(line)
                if line.startswith("READY "):
                    break
        finally:
            stop_daemon(proc)
        assert lines[-1].startswith("READY "), lines
        (startup,) = [line for line in lines if line.startswith("startup ")]
        fields = dict(part.split("=") for part in startup.split()[1:])
        assert list(fields) == [
            "load_s", "oracle_s", "publish_s", "workers_s", "bind_s"
        ]
        assert all(float(value) >= 0 for value in fields.values())

    def test_sigterm_ends_a_respawned_worker(self, cli_daemons):
        proc, address = cli_daemons.launch(1)
        (first,) = cli_daemons.workers(proc)
        with ServeClient.open(address) as c:
            c.crash_worker(worker=0)
            assert _wait_for(lambda: _respawned(c), 30)
            # answered, so the replacement is past its start-up
            assert c.query("0", "9") == pytest.approx(
                ORACLE.query(0, 9), abs=1e-9
            )
        (worker,) = [p for p in cli_daemons.workers(proc) if p != first]
        os.kill(worker, signal.SIGTERM)
        assert _wait_for(lambda: _exited(worker), 5)


# ---------------------------------------------------------------------------
# workers=N == workers=1 == Dijkstra
# ---------------------------------------------------------------------------
class TestMultiWorkerCorrectness:
    def test_answers_agree_across_worker_counts(self):
        verify_oracle(GRAPH, ORACLE, pairs=20, seed=3)
        pairs = [(str(u), str(v)) for u, v in PAIRS] * 3
        answers = {}
        for workers in (1, 2):
            server = Server(ORACLE, workers=workers, port=0)
            thread = _serve_in_thread(server)
            try:
                _, got = run_closed_level(
                    server.address, pairs, concurrency=2,
                    collect_answers=True,
                )
            finally:
                server.request_shutdown()
                thread.join(timeout=30)
            answers[workers] = sorted(got)
        assert answers[1] == answers[2]
        dist_cache = {}
        for u, v, d in answers[2]:
            if u not in dist_cache:
                dist_cache[u] = dijkstra(GRAPH, int(u))[0]
            assert d == pytest.approx(
                dist_cache[u].get(int(v), float("inf")), abs=1e-9
            )
