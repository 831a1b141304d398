"""The perf-diff verdict: ``benchmarks/e2e/compare.py``'s rule.

One workload x metric pair compares a baseline set of runs (A) with a
candidate set (B), one median per run.  With *worsening* the share of
A's median by which B's median is worse, and *spread* A's quartile
distance over A's median, the pair is

* ``regression`` when the worsening exceeds the metric's bound;
* ``unresolved`` when A's spread already exceeds the bound, unless every
  run of B reads better than every run of A;
* ``ok`` otherwise.

:func:`verdict` computes this exactly as ``compare.verdict`` does, and a
property test holds the two to the same label, so ``graphtides perf
diff`` and ``python -m benchmarks.e2e compare`` cannot disagree.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.perfdb.schema import MetricSeries

__all__ = ["REGRESSION", "UNRESOLVED", "OK", "CheckResult", "quartiles", "verdict"]

REGRESSION = "regression"
UNRESOLVED = "unresolved"
OK = "ok"


@dataclass(frozen=True, slots=True)
class CheckResult:
    """The verdict on one metric between a baseline and a target set."""

    metric: str
    label: str
    worsening: float
    spread: float
    bound: float
    baseline: tuple[float, ...]
    target: tuple[float, ...]

    @property
    def is_regression(self) -> bool:
        return self.label == REGRESSION


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(
    series: MetricSeries, baseline: Sequence[float], target: Sequence[float]
) -> CheckResult:
    """Judge ``target`` against ``baseline`` by ``series``' direction and bound.

    A zero baseline median leaves the relative change undefined, which
    reads ``unresolved``.
    """
    a, b = tuple(baseline), tuple(target)
    a_median, a_q1, a_q3 = quartiles(a)
    if a_median == 0:
        return CheckResult(
            series.name, UNRESOLVED, math.nan, math.nan, series.bound, a, b
        )
    b_median = statistics.median(b)
    sign = -1.0 if series.higher_is_better else 1.0
    worsening = sign * (b_median - a_median) / a_median
    spread = (a_q3 - a_q1) / a_median
    b_always_better = (
        min(b) > max(a) if series.higher_is_better else max(b) < min(a)
    )
    if worsening > series.bound:
        label = REGRESSION
    elif spread > series.bound and not b_always_better:
        label = UNRESOLVED
    else:
        label = OK
    return CheckResult(series.name, label, worsening, spread, series.bound, a, b)
