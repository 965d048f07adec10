"""Dataset overview — Tables I, II, III and Figure 2 of the paper.

Every entry point takes the :class:`~repro.core.dataset.FOTDataset` as
its first positional argument and returns a frozen dataclass with a
``.rows()`` method, so results render uniformly through
:func:`repro.analysis.report.format_table`.  The share-style results
also implement the ``Mapping`` protocol over their natural keys, so
dict-style callers (``shares[ComponentClass.HDD]``, ``shares.values()``)
keep working.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis.report import format_percent
from repro.core.dataset import FOTDataset
from repro.core.failure_types import table_iii_rows
from repro.core.types import ComponentClass, DetectionSource, FOTCategory
from repro.robustness.quality import InsufficientDataError


def _label(key) -> str:
    return key.value if hasattr(key, "value") else str(key)


@dataclass(frozen=True)
class _Shares(Mapping):
    """Ordered ``key -> fraction`` result with tabular rendering."""

    shares: Dict[object, float]
    total: int

    def __getitem__(self, key) -> float:
        return self.shares[key]

    def __iter__(self) -> Iterator:
        return iter(self.shares)

    def __len__(self) -> int:
        return len(self.shares)

    def rows(self) -> List[Tuple[str, str]]:
        """``(label, percent)`` rows for ``report.format_table``."""
        return [(_label(k), format_percent(v)) for k, v in self.shares.items()]


@dataclass(frozen=True)
class ComponentShares(_Shares):
    """Table II: failure share per component class, descending."""


@dataclass(frozen=True)
class FailureTypeShares(_Shares):
    """Figure 2: failure-type shares within one component class."""

    component: ComponentClass = ComponentClass.HDD


@dataclass(frozen=True)
class DetectionSourceShares(_Shares):
    """Share of tickets per detection source."""


@dataclass(frozen=True)
class CategoryBreakdown:
    """Table I: share of FOTs per handling category."""

    counts: Dict[FOTCategory, int]
    fractions: Dict[FOTCategory, float]
    total: int

    def fraction(self, category: FOTCategory) -> float:
        return self.fractions.get(category, 0.0)

    def rows(self) -> List[Tuple[str, str]]:
        return [
            (cat.value, format_percent(self.fractions.get(cat, 0.0)))
            for cat in FOTCategory
        ]


def categories(dataset: FOTDataset) -> CategoryBreakdown:
    """Table I: D_fixing / D_error / D_falsealarm shares.

    paper: 70.3 % / 28.0 % / 1.7 %.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("empty dataset")
    counts = {cat: len(sub) for cat, sub in dataset.by_category().items()}
    total = len(dataset)
    for cat in FOTCategory:
        counts.setdefault(cat, 0)
    fractions = {cat: counts[cat] / total for cat in counts}
    return CategoryBreakdown(counts=counts, fractions=fractions, total=total)


def components(dataset: FOTDataset) -> ComponentShares:
    """Table II: failure share per component class, over failures only
    (D_fixing + D_error, excluding false alarms), sorted descending.

    paper: HDD 81.84 %, miscellaneous 10.20 %, memory 3.06 %, ...
    """
    failures = dataset.failures()
    if len(failures) == 0:
        raise InsufficientDataError("no failures in dataset")
    shares = {
        cls: len(sub) / len(failures)
        for cls, sub in failures.by_component().items()
    }
    ordered = dict(sorted(shares.items(), key=lambda kv: kv[1], reverse=True))
    return ComponentShares(shares=ordered, total=len(failures))


def failure_types(
    dataset: FOTDataset, component: ComponentClass
) -> FailureTypeShares:
    """Figure 2: failure-type shares within one component class, over
    failures only, sorted descending."""
    subset = dataset.failures().of_component(component)
    if len(subset) == 0:
        raise InsufficientDataError(f"no failures for component {component}")
    shares = {
        name: len(sub) / len(subset)
        for name, sub in subset.by_failure_type().items()
    }
    ordered = dict(sorted(shares.items(), key=lambda kv: kv[1], reverse=True))
    return FailureTypeShares(shares=ordered, total=len(subset), component=component)


def detection_sources(dataset: FOTDataset) -> DetectionSourceShares:
    """Share of tickets per detection source.

    paper: agents detect ~90 % automatically (syslog + polling), ~10 %
    are manual miscellaneous reports.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("empty dataset")
    counts = np.bincount(dataset.source_codes, minlength=len(DetectionSource))
    shares = {
        src: int(counts[code]) / len(dataset)
        for code, src in enumerate(DetectionSource)
    }
    return DetectionSourceShares(shares=shares, total=len(dataset))


def table_iii() -> List[Tuple[str, str, str]]:
    """Table III: documented failure types with explanations."""
    return table_iii_rows()


__all__ = [
    "CategoryBreakdown",
    "ComponentShares",
    "FailureTypeShares",
    "DetectionSourceShares",
    "categories",
    "components",
    "failure_types",
    "detection_sources",
    "table_iii",
]
