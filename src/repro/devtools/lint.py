"""``reprolint`` — the repo-specific invariant checker.

Run it over the default tree::

    python -m repro.devtools.lint src tests benchmarks
    fouryears lint                  # CLI alias, same defaults

One pass runs every rule in the catalog (``--list-rules``): the
syntactic RPL001/RPL002 checks (:mod:`repro.devtools.rules`), the
value-flow pass (:mod:`repro.devtools.dataflow`: RPL101/102/104 plus
the interprocedural forms of RPL001/002) and the event-loop pass
(:mod:`repro.devtools.effects`: RPL201/202).

Exit status is 0 when every finding is inline-suppressed, 1 when any
finding remains, and 2 for usage errors (a missing or non-Python path,
a file that does not parse).

**Suppressions** are inline comments with *required* justification
text::

    arr[0] = 1  # reprolint: disable=RPL002 -- fixture exercising the raise

A suppression without the ``-- reason`` tail does not suppress anything
and is itself reported (RPL000), as is a suppression that matches no
finding on its line — so stale suppressions cannot rot in place.

Reporters: human ``file:line:col: RPLxxx message`` (default) and
``--format sarif`` for code-scanning upload.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devtools.dataflow import DataflowProject
from repro.devtools.dataflow import analyze_module as analyze_dataflow
from repro.devtools.effects import EffectsProject
from repro.devtools.effects import analyze_module as analyze_effects
from repro.devtools.rules import RULES, Finding, check_file

DEFAULT_PATHS = ("src", "tests", "benchmarks")

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"(?P<tail>.*)$"
)
_JUSTIFY_RE = re.compile(r"^\s*--\s*\S")


class UsageError(Exception):
    """The lint targets cannot be linted at all (exit status 2)."""


@dataclass
class Suppression:
    line: int
    codes: Tuple[str, ...]
    file_level: bool
    justified: bool
    used: bool = False


def _parse_suppressions(source: str, path: str) -> Tuple[List[Suppression],
                                                         List[Finding]]:
    """Extract suppression comments via tokenize so comment-lookalikes
    inside string literals (e.g. linter test fixtures) are ignored."""
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except tokenize.TokenizeError:  # pragma: no cover - file already parsed
        return [], []
    for token in comments:
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            if "reprolint:" in token.string:
                findings.append(
                    Finding("RPL000", path, token.start[0], token.start[1],
                            f"malformed reprolint comment {token.string.strip()!r}")
                )
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        unknown = [code for code in codes if code not in RULES]
        if unknown:
            findings.append(
                Finding("RPL000", path, token.start[0], token.start[1],
                        f"suppression names unknown rule(s) {unknown}")
            )
        justified = bool(_JUSTIFY_RE.match(match.group("tail")))
        if not justified:
            findings.append(
                Finding(
                    "RPL000", path, token.start[0], token.start[1],
                    "suppression is missing its justification — write "
                    "'# reprolint: disable=RPLxxx -- <why this is safe>'",
                )
            )
        suppressions.append(
            Suppression(
                line=token.start[0],
                codes=codes,
                file_level=match.group(1) == "disable-file",
                justified=justified,
            )
        )
    return suppressions, findings


def _apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression], path: str,
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split raw findings into (active, suppressed) and report unused
    suppressions as RPL000 meta-findings."""
    by_line: Dict[int, List[Suppression]] = {}
    file_level: List[Suppression] = []
    for suppression in suppressions:
        if suppression.file_level:
            file_level.append(suppression)
        else:
            by_line.setdefault(suppression.line, []).append(suppression)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        hit = None
        for suppression in by_line.get(finding.line, []):
            if finding.rule in suppression.codes:
                hit = suppression
                break
        if hit is None:
            for suppression in file_level:
                if finding.rule in suppression.codes:
                    hit = suppression
                    break
        if hit is not None and hit.justified:
            hit.used = True
            suppressed.append(finding)
        else:
            if hit is not None:
                hit.used = True  # unjustified: finding stays, no "unused" noise
            active.append(finding)

    unused = [
        Finding(
            "RPL000", path, suppression.line, 0,
            f"unused suppression for {', '.join(suppression.codes)} — "
            "no such finding on this line; delete it",
        )
        for suppression in suppressions if not suppression.used
    ]
    return active, suppressed, unused


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------
@dataclass
class LintResult:
    findings: List[Finding]
    suppressed: List[Finding]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def collect_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif not path.exists():
            raise UsageError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise UsageError(f"not a python file or directory: {path}")
    return files


def run_lint(paths: Sequence[str]) -> LintResult:
    """Lint ``paths`` with every rule in the catalog.

    Interprocedural summaries (nondeterminism, parameter mutation,
    blocking) are built from every linted file before any file is
    checked, so cross-file effects stay visible.
    """
    files = collect_files(paths)
    trees: Dict[Path, ast.Module] = {}
    sources: Dict[Path, str] = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            trees[path] = ast.parse(text, filename=str(path))
        except (SyntaxError, ValueError) as exc:  # UnicodeDecodeError too
            raise UsageError(f"cannot parse {path}: {exc}") from exc
        sources[path] = text

    dataflow_project = DataflowProject(trees)
    effects_project = EffectsProject(trees)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for path in files:
        tree = trees[path]
        raw_findings = sorted(
            check_file(path, tree)
            + analyze_dataflow(path, tree, dataflow_project)
            + analyze_effects(path, tree, effects_project),
            key=lambda f: (f.line, f.col, f.rule, f.message),
        )
        rel = path.as_posix()
        suppressions, meta = _parse_suppressions(sources[path], rel)
        active, quiet, unused = _apply_suppressions(
            raw_findings, suppressions, rel
        )
        findings.extend(active + meta + unused)
        suppressed.extend(quiet)
    return LintResult(findings=findings, suppressed=suppressed)


def _report_text(result: LintResult) -> str:
    lines = [finding.render() for finding in result.findings]
    lines.append(
        f"reprolint: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Invariant checker for the repro codebase "
                    "(determinism, immutability, time units, shard order, "
                    "event-loop safety)",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        dest="fmt", help="report format",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    try:
        result = run_lint(args.paths)
    except UsageError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "sarif":
        from repro.devtools.sarif import render_sarif

        report = render_sarif(result.findings).rstrip("\n")
    else:
        report = _report_text(result)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"reprolint: wrote {args.fmt} report to {args.output} "
              f"({len(result.findings)} finding(s))")
    else:
        print(report)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = [
    "LintResult",
    "UsageError",
    "collect_files",
    "run_lint",
    "main",
]
