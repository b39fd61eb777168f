"""Packed binary graph format suite (repro.kernels.binfmt / genpack).

The ``.rpg`` format is the substrate of the huge tier, so its failure
mode matters as much as its happy path: a truncated download or a
corrupted cache entry must be rejected with a clear
:class:`PackedFormatError` — never served as a silently-wrong graph.
The suite covers the round-trip, every rejection path (short header,
bad magic, wrong version, truncated payload, CRC mismatch), the
``ensure_packed`` cache (hit, corrupt-entry regeneration), the
python/numpy packer byte parity, and the mmap lifetime rules.
"""

from __future__ import annotations

import struct

import pytest

from repro.graphs import erdos_renyi_graph, ring_chords_graph
from repro.kernels import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    PackedFormatError,
    has_numpy,
    load_packed,
    pack_arrays,
    pack_ring_chords,
    ensure_packed,
    pykern,
)
from repro.kernels.genpack import packed_name

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="numpy not installed")


@pytest.fixture
def packed(tmp_path):
    """A small valid .rpg file plus the CSR columns it was packed from."""
    csr = erdos_renyi_graph(60, 0.1, seed=0).freeze()
    path = tmp_path / "g.rpg"
    pack_arrays(path, csr.indptr, csr.indices, csr.weights)
    return path, csr


# ------------------------------------------------------------- round trip

def test_round_trip(packed):
    path, csr = packed
    with load_packed(path) as pg:
        assert pg.n == csr.n
        assert pg.m_arcs == len(csr.indices)
        assert list(pg.indptr) == list(csr.indptr)
        assert list(pg.indices) == list(csr.indices)
        assert list(pg.weights) == pytest.approx(list(csr.weights))


def test_round_trip_preserves_shortest_paths(packed):
    path, csr = packed
    with load_packed(path) as pg:
        from_file = pykern.sssp(pg.indptr, pg.indices, pg.weights, [0])[0]
    in_memory = pykern.sssp(csr.indptr, csr.indices, csr.weights, [0])[0]
    assert from_file == pytest.approx(in_memory)


def test_pack_arrays_empty_graph(tmp_path):
    path = tmp_path / "empty.rpg"
    pack_arrays(path, [0], [], [])
    with load_packed(path) as pg:
        assert pg.n == 0 and pg.m_arcs == 0


# ------------------------------------------------------------- rejections

def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.rpg"
    path.write_bytes(b"RPROGRPH123")
    with pytest.raises(PackedFormatError, match="shorter than"):
        load_packed(path)


def test_rejects_bad_magic(packed):
    path, _ = packed
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTAGRPH"
    path.write_bytes(bytes(blob))
    with pytest.raises(PackedFormatError, match="bad magic"):
        load_packed(path)


def test_rejects_future_version(packed):
    path, _ = packed
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(PackedFormatError, match="version"):
        load_packed(path)


def test_rejects_truncated_payload(packed):
    path, _ = packed
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(PackedFormatError, match="truncated or corrupt"):
        load_packed(path)
    # even with the CRC pass skipped, the size check still rejects it
    with pytest.raises(PackedFormatError, match="truncated or corrupt"):
        load_packed(path, verify=False)


def test_rejects_corrupt_payload(packed):
    path, _ = packed
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 12] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(PackedFormatError, match="CRC32"):
        load_packed(path)
    # verify=False trusts the payload (documented cache fast path)
    load_packed(path, verify=False).close()


def test_magic_is_stamped(packed):
    path, _ = packed
    assert path.read_bytes()[:8] == MAGIC


# ------------------------------------------------------------ genpack cache

def test_packed_ring_chords_matches_generator(tmp_path):
    """The streamed packer writes the same CSR freeze() builds."""
    n, chords, seed = 500, 3, 11
    path = tmp_path / "rc.rpg"
    pack_ring_chords(path, n, chords, seed)
    csr = ring_chords_graph(n, chords=chords, seed=seed).freeze()
    with load_packed(path) as pg:
        assert list(pg.indptr) == list(csr.indptr)
        dist_file = pykern.sssp(pg.indptr, pg.indices, pg.weights, [7])[0]
    dist_mem = pykern.sssp(csr.indptr, csr.indices, csr.weights, [7])[0]
    assert dist_file == pytest.approx(dist_mem, abs=1e-12)


@needs_numpy
def test_python_and_numpy_packers_byte_identical(tmp_path, monkeypatch):
    from repro.kernels import genpack

    a = tmp_path / "np.rpg"
    pack_ring_chords(a, 700, 3, 5)
    b = tmp_path / "py.rpg"
    monkeypatch.setattr(genpack, "numpy_or_none", lambda: None)
    pack_ring_chords(b, 700, 3, 5)
    assert a.read_bytes() == b.read_bytes()


def test_ensure_packed_cache_hit(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HUGE_CACHE", str(tmp_path))
    p1 = ensure_packed(300, 3, 0)
    stamp = p1.stat().st_mtime_ns
    p2 = ensure_packed(300, 3, 0)
    assert p1 == p2
    assert p2.stat().st_mtime_ns == stamp  # served from cache, not rebuilt
    assert p1 == tmp_path / packed_name(300, 3, 0)


def test_ensure_packed_regenerates_corrupt_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HUGE_CACHE", str(tmp_path))
    p1 = ensure_packed(300, 3, 0)
    blob = p1.read_bytes()
    p1.write_bytes(blob[: len(blob) - 8])  # truncate the cache entry
    p2 = ensure_packed(300, 3, 0)
    assert p2 == p1
    load_packed(p2).close()  # valid again


# ------------------------------------------------------------ mmap lifetime

def test_views_raise_after_close(packed):
    path, _ = packed
    pg = load_packed(path)
    pg.close()
    with pytest.raises((ValueError, TypeError)):
        pg.indptr[0]
    pg.close()  # idempotent


@needs_numpy
def test_close_with_live_numpy_views(packed):
    """Consumers may hold numpy arrays over the mapping past close();
    close() must not raise (regression: BufferError on exported views)."""
    import numpy as np

    path, _ = packed
    pg = load_packed(path)
    arr = np.asarray(pg.weights)
    total = float(arr.sum())
    pg.close()  # arr still alive: must not raise
    assert float(arr.sum()) == total  # mapping stays valid while referenced
    del arr


# ----------------------------------------------------------------- CLI

def test_cli_graph_pack_and_load(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli.rpg"
    assert main(["graph", "pack", "--n", "400", "--chords", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert main(["graph", "load", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "vertices    400" in stdout
    assert "checksum    ok" in stdout


def test_cli_graph_load_rejects_corrupt(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli.rpg"
    assert main(["graph", "pack", "--n", "400", "--chords", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    blob = bytearray(out.read_bytes())
    blob[HEADER_SIZE + 5] ^= 0xFF
    out.write_bytes(bytes(blob))
    assert main(["graph", "load", str(out)]) == 2
    assert "CRC32" in capsys.readouterr().err
