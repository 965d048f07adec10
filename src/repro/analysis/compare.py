"""Dataset comparison — validating one FOT trace against another.

Two uses:

* checking the synthetic trace against the paper's published numbers
  (the benchmarks do this with scalar targets);
* checking a *real* ticket dump against the synthetic one, or two
  periods/fleets against each other — the "does our fleet behave like
  the paper's?" question a downstream user actually has.

The comparison covers the study's dimensions with scale-free statistics
(shares, shapes, normalized profiles) so differently-sized datasets
compare cleanly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis import overview, response, tbf, temporal
from repro.core.dataset import FOTDataset
from repro.core.types import ComponentClass, FOTCategory


@dataclass(frozen=True)
class MetricComparison:
    """One scale-free metric measured on both datasets."""

    name: str
    left: float
    right: float

    @property
    def abs_difference(self) -> float:
        return abs(self.left - self.right)

    @property
    def ratio(self) -> float:
        if self.right == 0:
            return float("inf") if self.left else 1.0
        return self.left / self.right


@dataclass(frozen=True)
class DatasetComparison:
    """The full comparison report."""

    metrics: List[MetricComparison]
    component_share_l1: float
    dow_profile_l1: float
    hour_profile_l1: float

    def worst_ratio(self) -> MetricComparison:
        return max(
            self.metrics,
            key=lambda m: max(m.ratio, 1.0 / m.ratio if m.ratio else 1.0),
        )

    def within(self, rel_tolerance: float) -> bool:
        """True when every scalar metric matches within the relative
        tolerance and the profile distances stay small."""
        if rel_tolerance <= 0:
            raise ValueError("tolerance must be positive")
        for m in self.metrics:
            hi = 1.0 + rel_tolerance
            if not (1.0 / hi <= m.ratio <= hi):
                return False
        return (
            self.component_share_l1 < rel_tolerance
            and self.dow_profile_l1 < rel_tolerance
        )

    def rows(self) -> List[Tuple[str, str, str]]:
        """Rows for :func:`repro.analysis.report.format_table`."""
        rows = [
            (m.name, f"{m.left:.4g}", f"{m.right:.4g}") for m in self.metrics
        ]
        rows.append(("component share L1", f"{self.component_share_l1:.3f}", "-"))
        rows.append(("day-of-week profile L1", f"{self.dow_profile_l1:.3f}", "-"))
        rows.append(("hour-of-day profile L1", f"{self.hour_profile_l1:.3f}", "-"))
        return rows


def _l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def _profile_or_uniform(dataset, cls, fn, size) -> np.ndarray:
    try:
        return fn(dataset, cls).fractions
    except ValueError:
        return np.full(size, 1.0 / size)


def compare_datasets(left: FOTDataset, right: FOTDataset) -> DatasetComparison:
    """Compare two FOT datasets across the paper's dimensions."""
    if len(left) == 0 or len(right) == 0:
        raise ValueError("both datasets must be non-empty")

    metrics: List[MetricComparison] = []

    cats_l = overview.categories(left)
    cats_r = overview.categories(right)
    for cat in FOTCategory:
        metrics.append(
            MetricComparison(
                f"share:{cat.value}",
                cats_l.fraction(cat),
                cats_r.fraction(cat),
            )
        )

    comp_l = overview.components(left)
    comp_r = overview.components(right)
    share_l = np.asarray([comp_l.get(c, 0.0) for c in ComponentClass])
    share_r = np.asarray([comp_r.get(c, 0.0) for c in ComponentClass])
    metrics.append(
        MetricComparison(
            "share:hdd",
            comp_l.get(ComponentClass.HDD, 0.0),
            comp_r.get(ComponentClass.HDD, 0.0),
        )
    )

    # Normalized MTBF: mean gap divided by span per failure, so the
    # comparison is volume-independent (1.0 = perfectly regular).
    def normalized_mtbf(ds: FOTDataset) -> float:
        failures = ds.failures()
        gaps = tbf.tbf_values(ds)
        expected = failures.span_seconds / max(len(failures) - 1, 1)
        return float(np.median(gaps) / expected) if expected else 0.0

    metrics.append(
        MetricComparison(
            "tbf:median_over_mean_gap",
            normalized_mtbf(left),
            normalized_mtbf(right),
        )
    )

    def rt_shape(ds: FOTDataset) -> float:
        stats = response.rt_distribution(ds, FOTCategory.FIXING)
        return stats.mean_days / max(stats.median_days, 1e-9)

    with contextlib.suppress(ValueError):
        metrics.append(
            MetricComparison("rt:mean_over_median", rt_shape(left), rt_shape(right))
        )

    dow_l = _profile_or_uniform(left, ComponentClass.HDD,
                                temporal.day_of_week_profile, 7)
    dow_r = _profile_or_uniform(right, ComponentClass.HDD,
                                temporal.day_of_week_profile, 7)
    hour_l = _profile_or_uniform(left, ComponentClass.HDD,
                                 temporal.hour_of_day_profile, 24)
    hour_r = _profile_or_uniform(right, ComponentClass.HDD,
                                 temporal.hour_of_day_profile, 24)

    return DatasetComparison(
        metrics=metrics,
        component_share_l1=_l1(share_l, share_r),
        dow_profile_l1=_l1(dow_l, dow_r),
        hour_profile_l1=_l1(hour_l, hour_r),
    )


__all__ = [
    "MetricComparison",
    "DatasetComparison",
    "compare_datasets",
]
