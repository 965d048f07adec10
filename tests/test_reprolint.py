"""Tests for ``reprolint`` (:mod:`repro.devtools.lint` / ``rules``).

Each syntactic rule gets a positive fixture (a synthetic file that must
be flagged) and a suppressed negative (the same code with a justified
inline suppression).  Fixtures are written under ``tmp_path`` using the
real package anchors (``src/repro/...``) so the path-scoped rules see
the module names they key on.  The command-line tests cover exit statuses,
reporters, options, and the repo-clean gate.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintResult,
    UsageError,
    build_parser,
    collect_files,
    main,
    run_lint,
)
from repro.devtools.rules import (
    COLUMN_PROPERTIES,
    RULES,
    module_name,
    module_parts,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(*paths: Path) -> LintResult:
    return run_lint([str(p) for p in paths])


def rules_hit(result: LintResult) -> set:
    return {finding.rule for finding in result.findings}


# ---------------------------------------------------------------------------
# scaffolding
# ---------------------------------------------------------------------------
def test_module_name_and_parts(tmp_path):
    path = write(tmp_path, "src/repro/core/io.py", "")
    assert module_parts(path) == ("repro", "core", "io.py")
    assert module_name(path) == "repro.core.io"
    init = write(tmp_path, "src/repro/core/__init__.py", "")
    assert module_name(init) == "repro.core"


def test_collect_files_skips_pycache(tmp_path):
    write(tmp_path, "pkg/a.py", "")
    write(tmp_path, "pkg/__pycache__/a.cpython-39.py", "")
    files = collect_files([str(tmp_path / "pkg")])
    assert [p.name for p in files] == ["a.py"]


def test_collect_files_rejects_non_python(tmp_path):
    target = write(tmp_path, "notes.txt", "")
    with pytest.raises(UsageError):
        collect_files([str(target)])


def test_rule_catalog_is_complete():
    syntactic = {"RPL000", "RPL001", "RPL002"}
    dataflow = {"RPL101", "RPL102", "RPL104"}
    effects = {"RPL201", "RPL202"}
    assert set(RULES) == syntactic | dataflow | effects


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------
RPL001_BAD = """\
import random
import time


def jitter():
    return random.random() + time.time()
"""


def test_rpl001_flags_unseeded_randomness(tmp_path):
    path = write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    result = lint(path)
    assert rules_hit(result) == {"RPL001"}
    assert len(result.findings) == 2  # random.random and time.time


def test_rpl001_flags_legacy_numpy_random(tmp_path):
    path = write(
        tmp_path, "src/repro/stats/bad.py",
        "import numpy as np\n\n\ndef draw():\n    return np.random.rand(3)\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL001"}
    assert "legacy numpy.random" in result.findings[0].message


def test_rpl001_allows_seeded_generator(tmp_path):
    path = write(
        tmp_path, "src/repro/simulation/good.py",
        "import numpy as np\n\n\ndef draw(seed):\n"
        "    return np.random.default_rng(seed).random(3)\n",
    )
    assert lint(path).findings == []


def test_rpl001_scoped_to_deterministic_packages(tmp_path):
    # Same nondeterministic code outside the data-producing packages.
    path = write(tmp_path, "src/repro/cli2.py", RPL001_BAD)
    assert lint(path).findings == []


def test_rpl001_suppressed_with_justification(tmp_path):
    source = RPL001_BAD.replace(
        "    return random.random() + time.time()",
        "    return random.random() + time.time()"
        "  # reprolint: disable=RPL001 -- fixture exercising the rule",
    )
    path = write(tmp_path, "src/repro/simulation/bad.py", source)
    result = lint(path)
    assert result.findings == []
    assert len(result.suppressed) == 2


# ---------------------------------------------------------------------------
# RPL002 — immutability
# ---------------------------------------------------------------------------
def test_rpl002_flags_subscript_store_into_column(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n    dataset.error_times[0] = 0.0\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert "immutable" in result.findings[0].message


def test_rpl002_tracks_taint_through_aliases(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    times = dataset.error_times\n"
        "    times.sort()\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert ".sort()" in result.findings[0].message


def test_rpl002_flags_setflags_thaw(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def thaw(dataset):\n"
        "    times = dataset.error_times\n"
        "    times.setflags(write=True)\n",
    )
    assert rules_hit(lint(path)) == {"RPL002"}


def test_rpl002_core_creation_must_freeze_before_escape(tmp_path):
    path = write(
        tmp_path, "src/repro/core/newmod.py",
        "import numpy as np\n\n\ndef build(n):\n"
        "    out = np.zeros(n)\n    return out\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL002"}
    assert "escapes" in result.findings[0].message


def test_rpl002_core_frozen_escape_is_clean(tmp_path):
    path = write(
        tmp_path, "src/repro/core/newmod.py",
        "import numpy as np\n\n\ndef build(n):\n"
        "    out = np.zeros(n)\n    out.setflags(write=False)\n    return out\n",
    )
    assert lint(path).findings == []


def test_rpl002_copy_then_mutate_is_clean(tmp_path):
    # np.sort(column) copies; only in-place mutation of the view is banned.
    path = write(
        tmp_path, "src/repro/analysis/good.py",
        "import numpy as np\n\n\ndef ordered(dataset):\n"
        "    return np.sort(dataset.error_times)\n",
    )
    assert lint(path).findings == []


def test_rpl002_suppressed_with_justification(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    dataset.error_times[0] = 0.0"
        "  # reprolint: disable=RPL002 -- asserts the write raises\n",
    )
    result = lint(path)
    assert result.findings == []
    assert len(result.suppressed) == 1


# ---------------------------------------------------------------------------
# RPL000 — suppression hygiene
# ---------------------------------------------------------------------------
def test_rpl000_missing_justification_does_not_suppress(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/bad.py",
        "def clobber(dataset):\n"
        "    dataset.error_times[0] = 0.0  # reprolint: disable=RPL002\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000", "RPL002"}
    assert any("justification" in f.message for f in result.findings)


def test_rpl000_unused_suppression_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "def fine():\n"
        "    return 1  # reprolint: disable=RPL002 -- nothing here\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000"}
    assert "unused suppression" in result.findings[0].message


def test_rpl000_unknown_rule_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "X = 1  # reprolint: disable=RPL999 -- bogus\n",
    )
    result = lint(path)
    assert any("unknown rule" in f.message for f in result.findings)


def test_rpl000_malformed_comment_is_flagged(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        "X = 1  # reprolint: disble=RPL002 -- typo in keyword\n",
    )
    result = lint(path)
    assert rules_hit(result) == {"RPL000"}
    assert "malformed" in result.findings[0].message


def test_suppression_lookalike_inside_string_ignored(tmp_path):
    path = write(
        tmp_path, "src/repro/analysis/fine.py",
        'DOC = "x = 1  # reprolint: disable=RPL002"\n',
    )
    assert lint(path).findings == []


# ---------------------------------------------------------------------------
# reporters / CLI
# ---------------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_text_report_exits_1_on_findings(tmp_path, capsys, monkeypatch):
    write(tmp_path, "src/repro/simulation/bad.py", RPL001_BAD)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out
    assert "2 finding(s), 0 suppressed" in out


def test_cli_options_are_format_output_list_rules():
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }
    assert options == {"-h", "--help", "--format", "--output", "--list-rules"}


@pytest.mark.parametrize(
    ("target", "message"),
    [
        ("nosuchdir", "no such file or directory"),
        ("missing.py", "no such file or directory"),
        ("notes.txt", "not a python file or directory"),
        ("broken.py", "cannot parse"),
        ("latin1.py", "cannot parse"),
    ],
)
def test_cli_usage_errors_exit_2(tmp_path, capsys, monkeypatch, target,
                                 message):
    """Usage errors exit 2 with the reason on stderr, distinct from the
    exit 1 that means "findings"."""
    write(tmp_path, "notes.txt", "")
    write(tmp_path, "broken.py", "def f(:\n")
    (tmp_path / "latin1.py").write_bytes(b"X = '\xe9'\n")
    monkeypatch.chdir(tmp_path)
    assert main([target]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------
def test_repo_tree_is_lint_clean(tree_lint):
    """The repo-clean gate: one pass of every rule over the tree CI
    lints (``src tests benchmarks``) leaves no unsuppressed finding."""
    assert tree_lint.exit_code == 0, "\n".join(
        f.render() for f in tree_lint.findings
    )


def test_column_properties_reflect_dataset_surface():
    # Drift guard: the RPL002 taint sources are derived from the real
    # FOTDataset property surface; a rename there must surface here.
    assert {"error_times", "op_times", "response_times",
            "category_codes"} <= COLUMN_PROPERTIES
    assert "store" not in COLUMN_PROPERTIES
