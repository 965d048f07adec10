"""Runtime sanitizer — store immutability and cache-key integrity,
checked dynamically.

``reprolint``'s RPL002 claims *statically* that store columns are
immutable.  This module checks that claim at runtime, together with
the purity invariant the analysis cache relies on (an analysis must
never change the data it is keyed on):

* every :class:`~repro.core.columns.ColumnStore` column (all of
  ``COLUMN_NAMES``, forced into existence) must report
  ``writeable=False``;
* the dataset's content fingerprint — recomputed from raw bytes via
  :func:`~repro.core.columns.compute_fingerprint`, bypassing the memo —
  must be identical before and after every guarded analysis call, and
  must match the memoized :meth:`ColumnStore.fingerprint` (a mismatch
  means someone mutated column content behind a stale memo, which would
  silently poison every :class:`~repro.engine.cache.AnalysisCache` key
  derived from it).

Usage::

    sanitizer = Sanitizer(dataset)
    result = sanitizer.guard(tbf.analyze_tbf, dataset)
    sanitizer.verify()          # raises SanitizerViolation on drift

or end to end (the acceptance gate — a ~50k-ticket trace through the
registry plus ``full_report`` with zero assertions fired)::

    python -m repro.devtools.sanitize --scale 0.175 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.core.columns import COLUMN_NAMES, ColumnStore, compute_fingerprint
from repro.core.dataset import FOTDataset


class SanitizerViolation(AssertionError):
    """An immutability or fingerprint-drift invariant was broken."""


@dataclass
class SanitizerReport:
    """What a sanitizer run observed."""

    frozen_checks: int = 0
    fingerprint_checks: int = 0
    guarded_calls: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.violations)} violation(s)"
        return (
            f"sanitizer: {status} — {self.guarded_calls} guarded call(s), "
            f"{self.frozen_checks} frozen-array check(s), "
            f"{self.fingerprint_checks} fingerprint check(s)"
        )


class Sanitizer:
    """Watches one dataset view for mutation across analysis calls.

    ``strict=True`` (default) raises :class:`SanitizerViolation` at the
    first broken invariant; ``strict=False`` records violations in
    :attr:`report` for batch inspection (used by the linter's own test
    suite to observe deliberate mutations without unwinding).
    """

    def __init__(self, dataset: FOTDataset, *, strict: bool = True) -> None:
        self.dataset = dataset
        self.store: ColumnStore = dataset.store
        self.strict = strict
        self.report = SanitizerReport()
        # Fresh hash, never the memo: the memo could itself be stale.
        self._expected = compute_fingerprint(self.store)
        self._expected_view = dataset.fingerprint()

    # ------------------------------------------------------------------
    def _violate(self, message: str) -> None:
        self.report.violations.append(message)
        if self.strict:
            raise SanitizerViolation(message)

    def assert_frozen(self, label: str = "") -> None:
        """Force every store column into existence and assert each one
        is non-writeable."""
        suffix = f" ({label})" if label else ""
        self.report.frozen_checks += 1
        for name in COLUMN_NAMES:
            column = self.store.column(name)
            if column.flags.writeable:
                self._violate(f"store column {name!r} is writeable{suffix}")
        indices = self.dataset._indices
        if indices is not None and indices.flags.writeable:
            self._violate(f"view index array is writeable{suffix}")

    def assert_unchanged(self, label: str = "") -> None:
        """Recompute the content hash from raw bytes and compare it to
        the capture-time value and to the memoized fingerprint."""
        suffix = f" ({label})" if label else ""
        self.report.fingerprint_checks += 1
        fresh = compute_fingerprint(self.store)
        if fresh != self._expected:
            self._violate(
                f"store content hash drifted{suffix}: "
                f"{self._expected[:12]} -> {fresh[:12]}"
            )
        memoized = self.store.fingerprint()
        if memoized != fresh:
            self._violate(
                f"memoized store fingerprint is stale{suffix}: "
                f"memo {memoized[:12]} != fresh {fresh[:12]}"
            )
        if self.dataset.fingerprint() != self._expected_view:
            self._violate(f"view fingerprint drifted{suffix}")

    def checkpoint(self, label: str = "") -> None:
        self.assert_frozen(label)
        self.assert_unchanged(label)

    # ------------------------------------------------------------------
    def guard(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` between two checkpoints."""
        name = getattr(fn, "__qualname__", repr(fn))
        self.checkpoint(f"before {name}")
        value = fn(*args, **kwargs)
        self.report.guarded_calls += 1
        self.checkpoint(f"after {name}")
        return value

    def verify(self) -> SanitizerReport:
        """Final checkpoint; raises on any recorded violation even in
        non-strict mode."""
        self.checkpoint("final")
        if self.report.violations:
            raise SanitizerViolation(
                "; ".join(self.report.violations[:5])
                + (f" (+{len(self.report.violations) - 5} more)"
                   if len(self.report.violations) > 5 else "")
            )
        return self.report


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------
def run_guarded_report(dataset: FOTDataset, *,
                       strict: bool = True) -> SanitizerReport:
    """Run every registered analysis plus the full paper report over
    ``dataset`` under sanitizer guard and return the report."""
    from repro.analysis.full_report import full_report
    from repro.api import ANALYSES

    sanitizer = Sanitizer(dataset, strict=strict)
    sanitizer.assert_frozen("initial")
    for fn, params in ANALYSES.values():
        sanitizer.guard(fn, dataset, **params)
    sanitizer.guard(full_report, dataset)
    sanitizer.verify()
    return sanitizer.report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sanitize",
        description="Run all analyses + full_report under runtime "
                    "immutability and fingerprint guards",
    )
    parser.add_argument(
        "--path", default=None,
        help="ticket dump to load (.jsonl/.csv[.gz] or a .fourcol "
        "directory); default: simulate a trace",
    )
    parser.add_argument("--scale", type=float, default=0.175,
                        help="simulated fleet scale (0.175 ≈ 50k tickets)")
    parser.add_argument("--seed", type=int, default=20170626)
    parser.add_argument("--jobs", default="auto",
                        help="worker processes for trace generation "
                        "(N, 'auto' or 'serial')")
    args = parser.parse_args(argv)

    import repro.api as api
    from repro.engine import coerce_jobs

    if args.path is not None:
        dataset = api.load(args.path, lenient=True)
        print(f"loaded {len(dataset)} tickets from {args.path}")
    else:
        policy = api.ExecutionPolicy(jobs=coerce_jobs(args.jobs))
        trace = api.simulate(scale=args.scale, seed=args.seed, policy=policy)
        dataset = trace.dataset
        print(
            f"simulated {len(dataset)} tickets "
            f"(scale={args.scale}, seed={args.seed}, jobs={args.jobs})"
        )
    try:
        report = run_guarded_report(dataset)
    except SanitizerViolation as exc:
        print(f"sanitizer: VIOLATION — {exc}")
        return 1
    print(report.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = [
    "Sanitizer",
    "SanitizerReport",
    "SanitizerViolation",
    "run_guarded_report",
    "main",
]
