"""Engine-level tests for the effects analysis: interprocedural
blocking summaries, attribute-type call resolution, and the
no-silently-skipped-coroutines property over ``repro.serve``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.devtools.effects import EffectsProject, analyze_module
from repro.devtools.lint import collect_files
from repro.devtools.rules import module_name

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def build_project(*paths: Path) -> EffectsProject:
    trees = {
        p: ast.parse(p.read_text(encoding="utf-8")) for p in paths
    }
    return EffectsProject(trees)


# ---------------------------------------------------------------------------
# blocking summaries
# ---------------------------------------------------------------------------
class TestBlockingSummaries:
    def test_blocking_propagates_through_sync_call_chain(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "def low(p):\n"
            "    return open(p).read()\n"
            "def mid(p):\n"
            "    return low(p)\n"
            "def top(p):\n"
            "    return mid(p)\n",
        )
        project = build_project(path)
        fns = project.functions
        assert fns["repro.analysis.mod.low"].blocking
        assert fns["repro.analysis.mod.mid"].blocking
        assert fns["repro.analysis.mod.top"].blocking
        chain = project.blocking_chain("repro.analysis.mod.top")
        assert chain == [
            "repro.analysis.mod.top",
            "repro.analysis.mod.mid",
            "repro.analysis.mod.low",
        ]
        assert "open() performs" in project.describe_blocking(
            "repro.analysis.mod.top"
        )

    def test_blocking_stops_at_async_callees(self, tmp_path):
        """A coroutine that blocks is reported inside itself; awaiting
        it must not smear the blocking effect onto its callers."""
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n",
        )
        project = build_project(path)
        assert project.functions["repro.analysis.mod.inner"].blocking
        assert not project.functions["repro.analysis.mod.outer"].blocking

    def test_methods_are_first_class_summaries(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "class Store:\n"
            "    def put(self, p, x):\n"
            "        with open(p, 'w') as fh:\n"
            "            fh.write(x)\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.store = Store()\n"
            "    def save(self, p, x):\n"
            "        self.store.put(p, x)\n",
        )
        project = build_project(path)
        assert project.functions["repro.analysis.mod.Store.put"].blocking
        owner = project.functions["repro.analysis.mod.Owner.save"]
        assert owner.blocking
        assert owner.blocking_via == "repro.analysis.mod.Store.put"

    def test_attr_type_sets_cover_both_branches(self, tmp_path):
        """A branchy ctor (disk store | memory store) yields a type
        *set*; the call resolves to every member."""
        path = write(
            tmp_path, "src/repro/analysis/mod.py",
            "class DiskStore:\n"
            "    def put(self, x):\n"
            "        with open('f', 'a') as fh:\n"
            "            fh.write(x)\n"
            "class MemoryStore:\n"
            "    def put(self, x):\n"
            "        pass\n"
            "class Owner:\n"
            "    def __init__(self, durable):\n"
            "        if durable:\n"
            "            self.store = DiskStore()\n"
            "        else:\n"
            "            self.store = MemoryStore()\n",
        )
        project = build_project(path)
        info = project.classes["repro.analysis.mod.Owner"]
        assert info.attr_types["store"] == {
            "repro.analysis.mod.DiskStore",
            "repro.analysis.mod.MemoryStore",
        }

# ---------------------------------------------------------------------------
# coverage properties over the real tree
# ---------------------------------------------------------------------------
class TestServeCoverage:
    @pytest.fixture(scope="class")
    def serve_analysis(self):
        files = collect_files([str(REPO_ROOT / "src")])
        trees = {
            p: ast.parse(p.read_text(encoding="utf-8")) for p in files
        }
        project = EffectsProject(trees)
        serve_files = [
            p for p in files if "serve" in p.parts
        ]
        findings = []
        for p in serve_files:
            findings.extend(analyze_module(p, trees[p], project))
        return project, trees, serve_files, findings

    def test_every_serve_coroutine_is_analyzed(self, serve_analysis):
        """Property: no ``async def`` in ``repro.serve`` is silently
        skipped by the RPL201/202 pass — nesting, methods and module
        functions all land in ``analyzed_async``."""
        project, trees, serve_files, _ = serve_analysis
        covered = {
            (module, lineno)
            for module, _qualname, lineno in project.analyzed_async
        }
        census = []
        for path in serve_files:
            module = module_name(path)
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.AsyncFunctionDef):
                    census.append((module, node.lineno, node.name))
        assert len(census) >= 10  # serve is genuinely coroutine-heavy
        missed = [
            entry for entry in census if (entry[0], entry[1]) not in covered
        ]
        assert missed == []

    def test_serve_has_no_effects_findings(self, serve_analysis):
        *_rest, findings = serve_analysis
        assert [f.render() for f in findings] == []


def test_effects_engine_clean_over_src(tree_lint):
    """End to end: the shared pass over the repo leaves no unsuppressed
    event-loop finding (RPL201/RPL202) in the real ``src/`` tree."""
    src = REPO_ROOT / "src"
    hits = [
        f for f in tree_lint.findings
        if f.rule in {"RPL201", "RPL202"} and Path(f.path).is_relative_to(src)
    ]
    assert [f.render() for f in hits] == []
