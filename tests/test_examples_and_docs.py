"""Smoke tests: every example runs, and the README's code executes.

A repository whose README or examples drift out of sync with the API is
broken for its first user — these tests pin them to the code.
"""

import argparse
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, capsys):
    module = _load_module(path)
    assert hasattr(module, "main"), f"{path.name} must define main()"
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100, f"{path.name} should print a report"


def test_examples_exist_and_cover_scenarios():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3, "the deliverable requires >= 3 examples"


def _python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, re.DOTALL)


def test_readme_python_blocks_execute():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = _python_blocks(readme)
    assert blocks, "README should contain a python quickstart"
    for block in blocks:
        exec(compile(block, "<README>", "exec"), {})


def test_design_md_mentions_every_core_module():
    design = (REPO_ROOT / "DESIGN.md").read_text()
    core = sorted(Path(REPO_ROOT, "src", "repro", "core").glob("*.py"))
    for module in core:
        if module.stem == "__init__":
            continue
        assert module.stem in design, f"DESIGN.md must index core/{module.name}"


def _section(markdown: str, heading: str) -> str:
    """The text under ``heading`` up to the next heading of any level."""
    start = markdown.index(heading) + len(heading)
    end = markdown.find("\n#", start)
    return markdown[start:] if end < 0 else markdown[start:end]


def test_design_md_core_index_names_only_existing_modules():
    index = _section((REPO_ROOT / "DESIGN.md").read_text(), "## Core module index")
    named = re.findall(r"^\| `(\w+)\.py` \|", index, re.MULTILINE)
    assert named, "DESIGN.md's core index should list modules"
    core = REPO_ROOT / "src" / "repro" / "core"
    for stem in named:
        assert (core / f"{stem}.py").is_file(), f"DESIGN.md indexes missing core/{stem}.py"


def test_readme_layout_names_only_importable_packages():
    layout = _section((REPO_ROOT / "README.md").read_text(), "## Layout")
    rows = re.findall(r"^\| (.*?) \|", layout, re.MULTILINE)
    packages = [p for row in rows for p in re.findall(r"`(repro(?:\.\w+)*)`", row)]
    assert packages, "README's layout table should name packages"
    for name in packages:
        importlib.import_module(name)


def test_docs_name_only_existing_benchmarks():
    named = set()
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        named.update(re.findall(r"benchmarks/\w+\.py", (REPO_ROOT / doc).read_text()))
    assert named, "the docs should point at the benchmark scripts"
    missing = sorted(p for p in named if not (REPO_ROOT / p).is_file())
    assert not missing, f"docs name benchmark scripts that do not exist: {missing}"


#: flags of other tools the docs invoke: mypy's ``--strict`` and
#: pytest-cov's ``--cov`` / ``--cov-fail-under``.
EXTERNAL_FLAGS = {"--strict", "--cov", "--cov-fail-under"}


def _parser_flags(parser):
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_docs_name_only_existing_flags():
    from repro.cli import build_parser

    declared = _parser_flags(build_parser()) | EXTERNAL_FLAGS
    scripts = [REPO_ROOT / "perfbench" / "run.py",
               *sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))]
    for script in scripts:
        declared.update(
            re.findall(r'add_argument\(\s*"(--[\w-]+)"', script.read_text())
        )
    stale = []
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md"):
        lines = (REPO_ROOT / doc).read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line):
                if flag not in declared:
                    stale.append(f"{doc}:{lineno}: {flag}")
    assert not stale, f"docs name flags that no parser declares: {stale}"


def test_experiments_md_covers_every_table1_row():
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    for row in ("T1-row1", "T1-row2", "T1-row3", "T1-row4", "§8"):
        assert row in experiments
