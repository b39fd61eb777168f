"""Tests for the ``repro.lint`` static analyzer.

Each rule family gets one clean fixture and at least two violating
fixtures asserting the *exact* code and line number — the diagnostics
are CI gates, so their anchoring must not drift.  Fixture sources are
written to ``tmp_path`` (under a fake ``src/repro/...`` root when a
rule is package-scoped) and linted through the real engine entry
points.
"""
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import all_codes, lint_file, lint_paths, rule_catalog
from repro.lint.rules.typing_gate import STRICT_MODULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _codes(diagnostics):
    """(line, code) pairs, sorted — the shape every fixture asserts."""
    return sorted((d.line, d.code) for d in diagnostics)


def lint_source(tmp_path, rel, source):
    return lint_file(_write(tmp_path, rel, source))


# ---------------------------------------------------------------------------
# REP1xx — RNG discipline
# ---------------------------------------------------------------------------
class TestRngDiscipline:
    def test_good_threaded_rng(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random


            def draw(rng: random.Random) -> float:
                return rng.random()
        """)
        assert diags == []

    def test_global_draw_is_rep101(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random

            x = random.random()
            y = random.randint(0, 3)
        """)
        assert _codes(diags) == [(3, "REP101"), (4, "REP101")]

    def test_from_import_of_draw_is_rep101(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from random import shuffle
        """)
        assert _codes(diags) == [(1, "REP101")]

    def test_unseeded_generator_is_rep102(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random

            rng = random.Random()
        """)
        assert _codes(diags) == [(3, "REP102")]

    def test_parameter_free_seed_is_rep103_in_package(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/core/fixture.py", """\
            import random


            def build():
                rng = random.Random(12345)
                return rng.random()
        """)
        assert _codes(diags) == [(5, "REP103")]

    def test_rep103_quiet_when_seed_flows_from_parameter(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/core/fixture.py", """\
            import random


            def build(seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert diags == []

    def test_rep103_not_applied_outside_package(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random


            def build():
                return random.Random(7).random()
        """)
        assert diags == []


# ---------------------------------------------------------------------------
# REP2xx — iteration order
# ---------------------------------------------------------------------------
class TestIterationOrder:
    def test_good_sorted_and_folds(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            s = {3, 1, 2}
            for x in sorted(s):
                print(x)
            total = sum(s)
            flags = any(x > 1 for x in s)
        """)
        assert diags == []

    def test_for_over_set_is_rep201(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            s = {3, 1, 2}
            for x in s:
                print(x)
        """)
        assert _codes(diags) == [(2, "REP201")]

    def test_list_of_set_call_is_rep201(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            items = list(set([3, 1, 2]))
        """)
        assert _codes(diags) == [(1, "REP201")]

    def test_ordered_comprehension_over_set_is_rep201(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            out = [x + 1 for x in {3, 1, 2}]
        """)
        assert _codes(diags) == [(1, "REP201")]

    def test_unsorted_listing_is_rep202(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import os

            names = os.listdir(".")
        """)
        assert _codes(diags) == [(3, "REP202")]

    def test_globbing_without_sort_is_rep202(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from pathlib import Path

            files = list(Path(".").glob("*.py"))
        """)
        assert _codes(diags) == [(3, "REP202")]

    def test_sorted_listing_is_clean(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import os
            from pathlib import Path

            names = sorted(os.listdir("."))
            files = sorted(p for p in Path(".").glob("*.py"))
        """)
        assert diags == []


# ---------------------------------------------------------------------------
# REP3xx — CSR freeze discipline
# ---------------------------------------------------------------------------
class TestCsrFreeze:
    def test_good_read_only_access(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.graphs.csr import CSRGraph


            def degree(g: CSRGraph, i: int) -> int:
                return g.indptr[i + 1] - g.indptr[i]
        """)
        assert diags == []

    def test_writing_frozen_array_is_rep301(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.graphs.csr import CSRGraph


            def corrupt(g: CSRGraph) -> None:
                g.weights[0] = 0.0
        """)
        assert _codes(diags) == [(5, "REP301")]

    def test_writing_freeze_result_is_rep301(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            def corrupt(graph) -> None:
                h = graph.freeze()
                h.indptr[0] = 1
        """)
        assert _codes(diags) == [(3, "REP301")]

    def test_mutator_method_is_rep302(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.graphs.csr import CSRGraph


            def corrupt(g: CSRGraph) -> None:
                g.indices.sort()
        """)
        assert _codes(diags) == [(5, "REP302")]


# ---------------------------------------------------------------------------
# REP4xx — CONGEST activity contract
# ---------------------------------------------------------------------------
class TestCongestContract:
    def test_good_program(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.congest.algorithm import CongestAlgorithm


            class Flood(CongestAlgorithm):
                def step(self, node, rnd):
                    for u in node.neighbors():
                        node.send(u, "hi")
        """)
        assert diags == []

    def test_private_view_access_is_rep401(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.congest.algorithm import CongestAlgorithm


            class Cheat(CongestAlgorithm):
                def step(self, node, rnd):
                    node._network.deliver_now()
        """)
        assert _codes(diags) == [(6, "REP401")]

    def test_handbuilt_view_is_rep403(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from repro.congest.algorithm import NodeView

            view = NodeView(0, {})
        """)
        assert _codes(diags) == [(3, "REP403")]


# ---------------------------------------------------------------------------
# REP5xx — pool-boundary safety
# ---------------------------------------------------------------------------
class TestPoolBoundary:
    def test_good_module_level_worker(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from multiprocessing import Pool


            def work(x: int) -> int:
                return x * 2


            def run() -> None:
                with Pool(2) as pool:
                    pool.map(work, [1, 2, 3])
        """)
        assert diags == []

    def test_lambda_shipped_is_rep501(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from multiprocessing import Pool


            def run() -> None:
                with Pool(2) as pool:
                    pool.map(lambda x: x * 2, [1, 2, 3])
        """)
        assert _codes(diags) == [(6, "REP501")]

    def test_nested_function_shipped_is_rep502(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            from multiprocessing import Pool


            def run() -> None:
                def work(x):
                    return x * 2

                with Pool(2) as pool:
                    pool.map(work, [1, 2, 3])
        """)
        assert _codes(diags) == [(9, "REP502")]

    def test_computed_initializer_is_rep503(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import functools
            from multiprocessing import Pool


            def init(flag):
                pass


            def run() -> None:
                with Pool(2, initializer=functools.partial(init, True)) as pool:
                    pass
        """)
        assert _codes(diags) == [(10, "REP503")]


# ---------------------------------------------------------------------------
# REP6xx — strict-typing gate
# ---------------------------------------------------------------------------
class TestTypingGate:
    def test_good_fully_annotated(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/graphs/fixture.py", """\
            class Box:
                def __init__(self, value: int) -> None:
                    self.value = value

                def doubled(self) -> int:
                    return self.value * 2
        """)
        assert diags == []

    def test_missing_param_annotation_is_rep601(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/graphs/fixture.py", """\
            def scale(x, factor: float) -> float:
                return x * factor
        """)
        assert _codes(diags) == [(1, "REP601")]

    def test_missing_return_annotation_is_rep601(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/graphs/fixture.py", """\
            def shout(word: str):
                return word.upper()
        """)
        assert _codes(diags) == [(1, "REP601")]

    def test_gate_not_applied_outside_strict_modules(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/core/fixture.py", """\
            def scale(x, factor):
                return x * factor
        """)
        assert diags == []

    def test_strict_modules_match_pyproject_allowlist(self):
        """The REP601 frontier and mypy's allowlist must be complements."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        for module in STRICT_MODULES:
            assert (
                f'"{module}' not in pyproject.split("[tool.mypy]", 1)[1]
                .split("ignore_errors", 1)[0]
            ), f"strict module {module} appears in the mypy allowlist"


# ---------------------------------------------------------------------------
# REP7xx — output discipline
# ---------------------------------------------------------------------------
class TestPrintDiscipline:
    def test_print_in_library_code_is_rep701(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/oracle/fixture.py", """\
            def serve(x: int) -> int:
                print("serving", x)
                return x
        """)
        assert _codes(diags) == [(2, "REP701")]

    def test_nested_print_is_rep701(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/obs/fixture.py", """\
            def report(rows: list) -> None:
                for row in rows:
                    print(row)
        """)
        assert _codes(diags) == [(3, "REP701")]

    def test_cli_and_main_may_print(self, tmp_path):
        for rel in ("src/repro/cli.py", "src/repro/__main__.py"):
            diags = lint_source(tmp_path, rel, """\
                print("user-facing output")
            """)
            assert diags == [], rel

    def test_not_applied_outside_package(self, tmp_path):
        diags = lint_source(tmp_path, "examples/demo.py", """\
            print("scripts may print")
        """)
        assert diags == []

    def test_method_named_print_not_flagged(self, tmp_path):
        diags = lint_source(tmp_path, "src/repro/graphs/fixture.py", """\
            class Report:
                def emit(self, sink: object) -> None:
                    sink.print(self)
        """)
        assert diags == []


# ---------------------------------------------------------------------------
# Engine: suppressions, parse errors, self-check
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_justified_suppression_silences_finding(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random

            x = random.random()  # repro: allow[REP101] -- fixture exercising waivers
        """)
        assert diags == []

    def test_multi_code_suppression(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            import random

            x = list(set(str(random.random())))  # repro: allow[REP101, REP201] -- fixture
        """)
        assert diags == []

    def test_unjustified_suppression_is_rep001_and_suppresses_nothing(
        self, tmp_path
    ):
        diags = lint_source(tmp_path, "script.py", """\
            import random

            x = random.random()  # repro: allow[REP101]
        """)
        assert _codes(diags) == [(3, "REP001"), (3, "REP101")]

    def test_malformed_marker_is_rep001(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            x = 1  # repro: allow REP101 -- forgot the brackets
        """)
        assert _codes(diags) == [(1, "REP001")]

    def test_unknown_code_is_rep002(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            x = 1  # repro: allow[REP999] -- typo in the code
        """)
        assert (1, "REP002") in _codes(diags)

    def test_stale_suppression_is_rep003(self, tmp_path):
        diags = lint_source(tmp_path, "script.py", """\
            x = 1  # repro: allow[REP101] -- nothing to suppress here
        """)
        assert _codes(diags) == [(1, "REP003")]

    def test_string_literal_is_not_a_waiver(self, tmp_path):
        """tokenize-based parsing: suppression-shaped *strings* (like the
        ones in this very test file) are neither waivers nor findings."""
        diags = lint_source(tmp_path, "script.py", '''\
            import random

            doc = "# repro: allow[REP101] -- inside a string, not a comment"
            x = random.random()
        ''')
        assert _codes(diags) == [(4, "REP101")]


class TestEngine:
    def test_syntax_error_is_rep000(self, tmp_path):
        diags = lint_source(tmp_path, "broken.py", """\
            def f(:
        """)
        assert [d.code for d in diags] == ["REP000"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([Path("no/such/tree")])

    def test_undecodable_bytes_are_rep000_not_a_traceback(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"# caf\xe9\nx = 1\n")  # 0xE9 is not valid UTF-8
        diags = lint_file(path)
        assert [d.code for d in diags] == ["REP000"]
        assert "UTF-8" in diags[0].message

    def test_nul_bytes_are_rep000_not_a_traceback(self, tmp_path):
        path = tmp_path / "nul.py"
        path.write_bytes(b"x = 1\x00\n")  # decodes fine, ast.parse raises
        diags = lint_file(path)
        assert [d.code for d in diags] == ["REP000"]

    def test_broken_file_does_not_poison_the_rest_of_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe garbage")
        _write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        diags = lint_paths([tmp_path])
        assert sorted(d.code for d in diags) == ["REP000", "REP101"]

    def test_catalog_covers_every_family(self):
        catalog = rule_catalog()
        families = {code[:4] for code in all_codes()}
        # engine codes (REP0xx) + per-file rule families + the
        # whole-program families (REP9xx import graph, REP10xx dataflow)
        assert {
            "REP0", "REP1", "REP2", "REP3", "REP4", "REP5", "REP6", "REP7",
            "REP9",
        } <= families
        assert {"REP1001", "REP1002", "REP1011", "REP1012", "REP1013"} <= set(
            catalog
        )
        assert set(catalog) == set(all_codes())


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", "x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_exit_one_with_findings_and_renders_location(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"{path}:2:" in out
        assert "REP101" in out
        assert "1 finding(s)" in out

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["lint", "no/such/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        rc = main(["lint", "--format", "json", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload[0]["code"] == "REP101"
        assert payload[0]["line"] == 2

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in all_codes():
            assert code in out

    def test_unparseable_file_exits_one_without_traceback(
        self, tmp_path, capsys
    ):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe not python")
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP000" in out
        assert "Traceback" not in out

    def test_sarif_format(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "import random\nx = random.random()\n")
        rc = main(["lint", "--format", "sarif", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(all_codes()) <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "REP101"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] == 5  # SARIF columns are 1-based

    def test_sarif_clean_tree_has_empty_results(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", "x = 1\n")
        rc = main(["lint", "--format", "sarif", str(tmp_path)])
        log = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert log["runs"][0]["results"] == []
