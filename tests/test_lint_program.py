"""Whole-program analyzer tests (``repro lint --program``).

Fixture trees are written under ``tmp_path/src/repro/...`` so module
names resolve exactly as in the real repo; every fixture but one is
annotated and per-file-clean on purpose, so the asserted findings
isolate the program passes (layering REP9xx, seed-taint REP1001/REP1002,
pool-safety REP1011–REP1013), the suppression lifecycle across runs
with and without ``--program``, the content-hash cache, and the
contract/DESIGN.md sync.  The exception carries per-file findings and
waivers, to show that a plain run finds a subset of what a
``--program`` run finds.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths
from repro.lint.cache import AnalysisCache
from repro.lint.program import LAYERS, allowed_import, render_contract
from repro.lint.program.contract import EXTERNAL_CONTRACT

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _codes(tmp_path, *, program=True):
    """Sorted (relative path, line, code) triples for the fixture tree."""
    diags = lint_paths([tmp_path], program=program)
    return sorted(
        (str(Path(d.path).relative_to(tmp_path)), d.line, d.code)
        for d in diags
    )


# ---------------------------------------------------------------------------
# REP901–REP904 — import graph vs the declared layering contract
# ---------------------------------------------------------------------------
class TestLayering:
    def test_upward_import_is_rep901(self, tmp_path):
        _write(tmp_path, "src/repro/harness/util.py", """\
            def helper() -> int:
                return 1
        """)
        _write(tmp_path, "src/repro/obs/bad.py", """\
            from repro.harness.util import helper


            def use() -> int:
                return helper()
        """)
        assert ("src/repro/obs/bad.py", 1, "REP901") in _codes(tmp_path)

    def test_downward_and_same_layer_imports_are_clean(self, tmp_path):
        _write(tmp_path, "src/repro/determinism.py", """\
            def seed_of() -> int:
                return 0
        """)
        _write(tmp_path, "src/repro/graphs/a.py", """\
            from repro.determinism import seed_of
            from repro.kernels.k import fast


            def go() -> int:
                return seed_of() + fast()
        """)
        _write(tmp_path, "src/repro/kernels/k.py", """\
            def fast() -> int:
                return 2
        """)
        assert _codes(tmp_path) == []

    def test_lazy_upward_import_is_still_rep901(self, tmp_path):
        _write(tmp_path, "src/repro/harness/util.py", """\
            def helper() -> int:
                return 1
        """)
        _write(tmp_path, "src/repro/graphs/sneaky.py", """\
            def use() -> int:
                from repro.harness.util import helper

                return helper()
        """)
        assert ("src/repro/graphs/sneaky.py", 2, "REP901") in _codes(tmp_path)

    def test_top_level_cycle_is_rep902_on_both_edges(self, tmp_path):
        _write(tmp_path, "src/repro/mst/a.py", """\
            from repro.mst.b import g


            def f() -> int:
                return g() + 1
        """)
        _write(tmp_path, "src/repro/mst/b.py", """\
            from repro.mst.a import f


            def g() -> int:
                return 0
        """)
        codes = _codes(tmp_path)
        assert ("src/repro/mst/a.py", 1, "REP902") in codes
        assert ("src/repro/mst/b.py", 1, "REP902") in codes

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        _write(tmp_path, "src/repro/mst/a.py", """\
            from repro.mst.b import g


            def f() -> int:
                return g() + 1
        """)
        _write(tmp_path, "src/repro/mst/b.py", """\
            def g() -> int:
                from repro.mst.a import f

                return 0
        """)
        assert [c for c in _codes(tmp_path) if c[2] == "REP902"] == []

    def test_contracted_external_outside_its_packages_is_rep903(
        self, tmp_path
    ):
        _write(tmp_path, "src/repro/core/interop.py", """\
            import networkx


            def use() -> int:
                return networkx.Graph()
        """)
        assert ("src/repro/core/interop.py", 1, "REP903") in _codes(tmp_path)

    def test_contracted_external_in_its_package_is_clean(self, tmp_path):
        _write(tmp_path, "src/repro/graphs/interop.py", """\
            def to_nx() -> object:
                import networkx

                return networkx.Graph()
        """)
        assert [c for c in _codes(tmp_path) if c[2] == "REP903"] == []

    def test_undeclared_package_is_rep904(self, tmp_path):
        _write(tmp_path, "src/repro/webui/daemon.py", """\
            def start() -> None:
                return None
        """)
        assert ("src/repro/webui/daemon.py", 1, "REP904") in _codes(tmp_path)

    def test_program_codes_absent_without_program_flag(self, tmp_path):
        _write(tmp_path, "src/repro/webui/daemon.py", """\
            def start() -> None:
                return None
        """)
        assert _codes(tmp_path, program=False) == []


class TestNumpyContainment:
    """numpy is the optional ``[fast]`` accelerator: REP903 keeps every
    import of it, eager or lazy, inside ``EXTERNAL_CONTRACT["numpy"]``."""

    def test_numpy_import_outside_kernels_is_rep903(self, tmp_path):
        _write(tmp_path, "src/repro/analysis/fixture.py", """\
            import numpy
            import numpy as np
            import numpy.linalg
            from numpy import array
        """)
        rel = "src/repro/analysis/fixture.py"
        assert _codes(tmp_path) == [
            (rel, 1, "REP903"), (rel, 2, "REP903"),
            (rel, 3, "REP903"), (rel, 4, "REP903"),
        ]

    def test_lazy_function_level_import_is_rep903(self, tmp_path):
        _write(tmp_path, "src/repro/oracle/fixture.py", """\
            def fast_path(x: int) -> int:
                import numpy as np

                return int(np.int64(x))
        """)
        assert _codes(tmp_path) == [("src/repro/oracle/fixture.py", 2, "REP903")]

    def test_kernels_package_may_import_numpy(self, tmp_path):
        for rel in ("src/repro/kernels/fixture.py",
                    "src/repro/kernels/sub/fixture.py"):
            _write(tmp_path, rel, """\
                import numpy as np
                from numpy import float64
            """)
        assert _codes(tmp_path) == []

    def test_not_applied_outside_package(self, tmp_path):
        _write(tmp_path, "benchmarks/fixture.py", """\
            import numpy
        """)
        assert _codes(tmp_path) == []

    def test_similar_names_not_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/graphs/fixture.py", """\
            import numpy_financial
            from numpystubs import thing
        """)
        assert _codes(tmp_path) == []


# ---------------------------------------------------------------------------
# REP1001/REP1002 — interprocedural seed-taint
# ---------------------------------------------------------------------------
_SEEDED_BUILDER = """\
    import random
    from typing import List, Optional


    def build(n: int, seed: Optional[int] = None) -> List[float]:
        rng = random.Random(seed)
        return [rng.random() for _ in range(n)]
"""


class TestSeedTaint:
    def test_sealed_chain_is_rep1001(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n)
        """)
        assert ("src/repro/analysis/run.py", 7, "REP1001") in _codes(tmp_path)

    def test_dropped_chain_is_rep1002(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List, Optional

            from repro.spanners.build import build


            def analyze(n: int, seed: Optional[int] = None) -> List[float]:
                return build(n)
        """)
        assert _codes(tmp_path) == [
            ("src/repro/analysis/run.py", 7, "REP1002"),
        ]

    def test_threaded_seed_is_clean(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List, Optional

            from repro.spanners.build import build


            def analyze(n: int, seed: Optional[int] = None) -> List[float]:
                return build(n, seed=seed)
        """)
        assert _codes(tmp_path) == []

    def test_explicit_seed_value_is_deliberate_and_clean(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n, seed=17)
        """)
        assert _codes(tmp_path) == []

    def test_taint_propagates_through_a_threading_wrapper(self, tmp_path):
        # wrapped() threads its seed into build(), so wrapped itself
        # needs a seed; calling *wrapped* bare then seals the chain.
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/spanners/wrap.py", """\
            from typing import List, Optional

            from repro.spanners.build import build


            def wrapped(n: int, seed: Optional[int] = None) -> List[float]:
                return build(n, seed=seed)
        """)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.wrap import wrapped


            def analyze(n: int) -> List[float]:
                return wrapped(n)
        """)
        assert ("src/repro/analysis/run.py", 7, "REP1001") in _codes(tmp_path)


# ---------------------------------------------------------------------------
# REP1011–REP1013 — pool-safety race detector
# ---------------------------------------------------------------------------
_OBS_STUB = {
    "src/repro/obs/__init__.py": """\
        from repro.obs.metrics import counter
    """,
    "src/repro/obs/metrics.py": """\
        def counter(name: str, value: int = 1) -> None:
            return None
    """,
}


def _write_obs_stub(tmp_path):
    for rel, source in _OBS_STUB.items():
        _write(tmp_path, rel, source)


class TestPoolSafety:
    def test_worker_side_global_write_is_rep1011(self, tmp_path):
        _write(tmp_path, "src/repro/analysis/par.py", """\
            from multiprocessing import Pool
            from typing import Dict, List

            _STATE: Dict[str, int] = {}


            def _init(n: int) -> None:
                _STATE["n"] = n


            def _record(i: int) -> None:
                _STATE["last"] = i


            def _work(i: int) -> int:
                _record(i)
                return i


            def run(items: List[int]) -> List[int]:
                with Pool(2, initializer=_init, initargs=(3,)) as pool:
                    return list(pool.imap(_work, items))
        """)
        codes = _codes(tmp_path)
        # _record's write is flagged; the initializer's identical write
        # is the documented per-process-state protocol and is exempt
        assert ("src/repro/analysis/par.py", 12, "REP1011") in codes
        assert ("src/repro/analysis/par.py", 8, "REP1011") not in codes

    def test_differential_per_file_rules_miss_what_program_catches(
        self, tmp_path
    ):
        """The tentpole's reason to exist, as a test: the worker-side
        write above is invisible to every per-file rule (module-level
        worker, no lambdas, picklable args), and only the reachability
        pass connects `pool.imap(_work, ...)` to `_record`'s write."""
        _write(tmp_path, "src/repro/analysis/par.py", """\
            from multiprocessing import Pool
            from typing import Dict, List

            _STATE: Dict[str, int] = {}


            def _record(i: int) -> None:
                _STATE["last"] = i


            def _work(i: int) -> int:
                _record(i)
                return i


            def run(items: List[int]) -> List[int]:
                with Pool(2) as pool:
                    return list(pool.imap(_work, items))
        """)
        assert _codes(tmp_path, program=False) == []
        assert _codes(tmp_path) == [
            ("src/repro/analysis/par.py", 8, "REP1011"),
        ]

    def test_csr_mutation_reachable_from_worker_is_rep1012(self, tmp_path):
        _write(tmp_path, "src/repro/analysis/par.py", """\
            from multiprocessing import Pool
            from typing import Any, List


            def _clamp(graph: Any) -> None:
                graph.weights[0] = 0.0


            def _work(graph: Any) -> int:
                _clamp(graph)
                return 0


            def run(graphs: List[Any]) -> List[int]:
                with Pool(2) as pool:
                    return list(pool.map(_work, graphs))
        """)
        assert ("src/repro/analysis/par.py", 6, "REP1012") in _codes(tmp_path)

    def test_process_target_is_a_pool_root(self, tmp_path):
        """Process(target=...) workers (the serve daemon's shape) are
        reachability roots exactly like pool dispatch targets."""
        _write(tmp_path, "src/repro/analysis/proc.py", """\
            from multiprocessing import Process
            from typing import Dict

            _STATE: Dict[str, int] = {}


            def _worker(n: int) -> None:
                _STATE["n"] = n


            def run(n: int) -> None:
                proc = Process(target=_worker, args=(n,))
                proc.start()
                proc.join()
        """)
        assert ("src/repro/analysis/proc.py", 8, "REP1011") in _codes(tmp_path)

    def test_constructor_self_init_of_csr_arrays_is_clean(self, tmp_path):
        """self.indptr = ... inside __init__ is construction; the same
        store outside a constructor still gates as REP1012."""
        _write(tmp_path, "src/repro/graphs/csrlike.py", """\
            from typing import List


            class Frozen:
                def __init__(self, indptr: List[int]) -> None:
                    self.indptr = indptr
        """)
        _write(tmp_path, "src/repro/analysis/proc.py", """\
            from multiprocessing import Process

            from repro.graphs.csrlike import Frozen


            def _stomp(frozen: Frozen) -> None:
                frozen.indptr[0] = 1


            def _worker() -> None:
                frozen = Frozen([0])
                _stomp(frozen)


            def run() -> None:
                Process(target=_worker).start()
        """)
        codes = [c for c in _codes(tmp_path) if c[2] == "REP1012"]
        assert ("src/repro/analysis/proc.py", 7, "REP1012") in codes
        assert not any(path.endswith("csrlike.py") for path, _, _ in codes)

    def test_obs_global_registry_in_worker_is_rep1013(self, tmp_path):
        _write_obs_stub(tmp_path)
        _write(tmp_path, "src/repro/analysis/par.py", """\
            from multiprocessing import Pool
            from typing import List

            from repro.obs import counter


            def _work(i: int) -> int:
                counter("chunks")
                return i


            def run(items: List[int]) -> List[int]:
                with Pool(2) as pool:
                    return list(pool.map(_work, items))
        """)
        assert ("src/repro/analysis/par.py", 8, "REP1013") in _codes(tmp_path)

    def test_parent_side_obs_calls_are_clean(self, tmp_path):
        _write_obs_stub(tmp_path)
        _write(tmp_path, "src/repro/analysis/par.py", """\
            from multiprocessing import Pool
            from typing import List

            from repro.obs import counter


            def _work(i: int) -> int:
                return i + 1


            def run(items: List[int]) -> List[int]:
                with Pool(2) as pool:
                    out = list(pool.map(_work, items))
                counter("batches")
                return out
        """)
        assert _codes(tmp_path) == []

    def test_partial_wrapped_worker_is_traced(self, tmp_path):
        _write(tmp_path, "src/repro/analysis/par.py", """\
            import functools
            from multiprocessing import Pool
            from typing import Dict, List

            _CACHE: Dict[int, int] = {}


            def _work(scale: int, i: int) -> int:
                _CACHE[i] = i * scale
                return i * scale


            def run(items: List[int]) -> List[int]:
                with Pool(2) as pool:
                    return list(pool.map(functools.partial(_work, 3), items))
        """)
        assert ("src/repro/analysis/par.py", 9, "REP1011") in _codes(tmp_path)


# ---------------------------------------------------------------------------
# Suppression lifecycle under --program
# ---------------------------------------------------------------------------
class TestProgramSuppressions:
    def test_waiver_suppresses_exactly_one_edge(self, tmp_path):
        _write(tmp_path, "src/repro/harness/util.py", """\
            def helper() -> int:
                return 1
        """)
        _write(tmp_path, "src/repro/harness/extra.py", """\
            def more() -> int:
                return 2
        """)
        _write(tmp_path, "src/repro/obs/bad.py", """\
            from repro.harness.util import helper  # repro: allow[REP901] -- transitional; moves down in the next PR
            from repro.harness.extra import more


            def use() -> int:
                return helper() + more()
        """)
        codes = _codes(tmp_path)
        assert ("src/repro/obs/bad.py", 1, "REP901") not in codes
        assert ("src/repro/obs/bad.py", 2, "REP901") in codes

    def test_removed_edge_turns_waiver_into_rep003(self, tmp_path):
        _write(tmp_path, "src/repro/obs/bad.py", """\
            x = 1  # repro: allow[REP901] -- transitional; moves down in the next PR
        """)
        assert _codes(tmp_path) == [("src/repro/obs/bad.py", 1, "REP003")]

    def test_program_waiver_not_stale_without_program_run(self, tmp_path):
        """A plain run cannot vouch for REP9xx/REP10xx waivers, so it
        must not flag them stale either."""
        _write(tmp_path, "src/repro/obs/bad.py", """\
            x = 1  # repro: allow[REP901] -- transitional; moves down in the next PR
        """)
        assert _codes(tmp_path, program=False) == []

    def test_plain_findings_are_a_strict_subset_of_program_findings(
        self, tmp_path
    ):
        """Both modes share finalize's hygiene, per-file findings and
        waivers; a plain run only skips the staleness check of waivers
        that name a program code.  So on one tree a plain run finds
        nothing a --program run misses, and the repo's --program
        self-check (TestProgramCliAndGate) covers the plain one too."""
        _write(tmp_path, "src/repro/obs/mixed.py", """\
            import random

            a = random.random()
            b = random.random()  # repro: allow[REP101] -- fixture: a waived per-file finding
            c = 1  # repro: allow[REP101] -- fixture: a stale per-file waiver
            d = 2  # repro: allow[REP901] -- fixture: a stale program waiver
        """)
        plain = set(_codes(tmp_path, program=False))
        program = set(_codes(tmp_path))
        assert plain == {
            ("src/repro/obs/mixed.py", 3, "REP101"),
            ("src/repro/obs/mixed.py", 5, "REP003"),
        }
        assert program - plain == {("src/repro/obs/mixed.py", 6, "REP003")}
        assert plain < program

    def test_seed_taint_waiver_suppresses_and_goes_stale(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        run = """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n)  # repro: allow[REP1001] -- smoke helper; stream identity is irrelevant here
        """
        _write(tmp_path, "src/repro/analysis/run.py", run)
        assert _codes(tmp_path) == []
        # thread the seed for real; the stale waiver must now surface
        _write(tmp_path, "src/repro/analysis/run.py",
               run.replace("return build(n)  ", "return build(n, seed=0)  "))
        assert _codes(tmp_path) == [("src/repro/analysis/run.py", 7, "REP003")]


# ---------------------------------------------------------------------------
# Content-hash cache
# ---------------------------------------------------------------------------
class TestCache:
    def _tree(self, tmp_path):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n)
        """)

    def test_warm_run_is_identical_and_hits_cache(self, tmp_path):
        self._tree(tmp_path)
        cache = AnalysisCache(tmp_path / "cache")
        cold = lint_paths([tmp_path / "src"], program=True, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        warm_cache = AnalysisCache(tmp_path / "cache")
        warm = lint_paths([tmp_path / "src"], program=True, cache=warm_cache)
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert warm == cold
        assert [d.code for d in warm] == ["REP1001"]

    def test_edited_file_misses_and_reflects_the_change(self, tmp_path):
        self._tree(tmp_path)
        cache = AnalysisCache(tmp_path / "cache")
        lint_paths([tmp_path / "src"], program=True, cache=cache)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n, seed=3)
        """)
        cache2 = AnalysisCache(tmp_path / "cache")
        diags = lint_paths([tmp_path / "src"], program=True, cache=cache2)
        assert cache2.hits == 1 and cache2.misses == 1
        assert diags == []

    def test_corrupt_cache_entry_is_a_miss_not_a_crash(self, tmp_path):
        self._tree(tmp_path)
        cache = AnalysisCache(tmp_path / "cache")
        lint_paths([tmp_path / "src"], program=True, cache=cache)
        for entry in sorted((tmp_path / "cache").glob("*.pkl")):
            entry.write_bytes(b"not a pickle")
        cache2 = AnalysisCache(tmp_path / "cache")
        diags = lint_paths([tmp_path / "src"], program=True, cache=cache2)
        assert cache2.hits == 0 and cache2.misses == 2
        assert [d.code for d in diags] == ["REP1001"]


# ---------------------------------------------------------------------------
# CLI and the repo-wide gate
# ---------------------------------------------------------------------------
class TestProgramCliAndGate:
    def test_cli_program_flag_end_to_end(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/spanners/build.py", _SEEDED_BUILDER)
        _write(tmp_path, "src/repro/analysis/run.py", """\
            from typing import List

            from repro.spanners.build import build


            def analyze(n: int) -> List[float]:
                return build(n)
        """)
        argv = ["lint", "--program", "--cache-dir",
                str(tmp_path / "cache"), str(tmp_path / "src")]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP1001" in out
        rc = main(argv)  # warm
        assert rc == 1
        assert "REP1001" in capsys.readouterr().out

    def test_repo_tree_is_program_clean(self):
        """The repo gates on itself: lint --program src tests is clean."""
        diags = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], program=True
        )
        assert diags == [], "\n".join(d.render() for d in diags)


# ---------------------------------------------------------------------------
# The declared contract and its rendered documentation
# ---------------------------------------------------------------------------
class TestContract:
    def test_design_md_embeds_the_rendered_contract(self):
        """DESIGN.md's layering diagram is generated, not hand-drawn:
        regenerate with render_contract() whenever LAYERS changes."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        assert render_contract() in design

    def test_every_real_package_is_declared(self):
        declared = {pkg for _, pkgs in LAYERS for pkg in pkgs}
        src = REPO_ROOT / "src" / "repro"
        for child in sorted(src.iterdir()):
            if child.name.startswith("_") or child.name == "py.typed":
                continue
            name = child.name.removesuffix(".py")
            assert f"repro.{name}" in declared, f"undeclared: repro.{name}"

    def test_direction_semantics(self):
        assert allowed_import("repro.harness.runner", "repro.graphs.csr")
        assert allowed_import("repro.graphs.csr", "repro.kernels.sssp")
        assert not allowed_import("repro.obs.metrics", "repro.harness.runner")
        assert allowed_import("repro.spt.tree", "repro.spt.heap")
        # the serving layer: the load generator (harness) drives the
        # daemon, never the other way around; serve and oracle are peers
        assert allowed_import("repro.harness.loadgen", "repro.serve.client")
        assert allowed_import("repro.serve.shm", "repro.oracle.oracle")
        assert not allowed_import("repro.serve.daemon", "repro.harness.runner")

    def test_external_contract_rows(self):
        assert EXTERNAL_CONTRACT["numpy"] == ("repro.kernels",)
        assert "repro.graphs" in EXTERNAL_CONTRACT["networkx"]
