"""Evaluation methodology (paper sections 2.3 and 4.5).

Implements the statistically rigorous procedure the paper adopts from
Jain: declare the experiment's factors and levels, run (full factorial)
designs with repetitions, aggregate each configuration, and compare
systems by confidence-interval overlap — "non-overlapping confidence
intervals of the results from two different systems are indeed
significantly different under the given interval".  The paper requires
n >= 30 runs per configuration (central limit theorem);
:func:`repeat_runs` warns below that via the result's ``meets_n30``
flag rather than refusing, since exploratory runs are legitimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.metrics import Aggregate
from repro.errors import MethodologyError

__all__ = [
    "Factor",
    "ExperimentDesign",
    "RepeatedRuns",
    "repeat_runs",
    "ComparisonVerdict",
    "ComparisonResult",
    "compare",
    "compare_aggregates",
    "MINIMUM_RECOMMENDED_RUNS",
]

#: Section 4.5: "at least n >= 30 test runs for each configuration".
MINIMUM_RECOMMENDED_RUNS = 30


@dataclass(frozen=True, slots=True)
class Factor:
    """One experiment factor and the levels it is varied over."""

    name: str
    levels: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise MethodologyError(f"factor {self.name!r} needs at least one level")


@dataclass(frozen=True, slots=True)
class ExperimentDesign:
    """A set of factors, expandable into concrete configurations.

    :meth:`full_factorial` yields every combination of factor levels
    (the paper's "full factorial designs where all levels of all
    factors are considered"); :meth:`one_factor_at_a_time` varies one
    factor while holding the others at their first (baseline) level.
    """

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        names = [factor.name for factor in self.factors]
        if len(names) != len(set(names)):
            raise MethodologyError("factor names must be unique")
        if not self.factors:
            raise MethodologyError("design needs at least one factor")

    @property
    def configuration_count(self) -> int:
        count = 1
        for factor in self.factors:
            count *= len(factor.levels)
        return count

    def full_factorial(self) -> Iterator[dict[str, Any]]:
        """Every combination of all factor levels."""
        names = [factor.name for factor in self.factors]
        for combination in itertools.product(
            *(factor.levels for factor in self.factors)
        ):
            yield dict(zip(names, combination))

    def one_factor_at_a_time(self) -> Iterator[dict[str, Any]]:
        """Baseline config plus single-factor variations.

        The baseline (all factors at their first level) is yielded
        once, then each non-baseline level of each factor.
        """
        baseline = {factor.name: factor.levels[0] for factor in self.factors}
        yield dict(baseline)
        for factor in self.factors:
            for level in factor.levels[1:]:
                config = dict(baseline)
                config[factor.name] = level
                yield config


@dataclass(frozen=True, slots=True)
class RepeatedRuns:
    """Aggregated outcome of repeated runs of one configuration."""

    values: tuple[float, ...]
    aggregate: Aggregate
    meets_n30: bool

    @property
    def count(self) -> int:
        return len(self.values)


def repeat_runs(
    run: Callable[[int], float],
    repetitions: int,
    confidence: float = 0.95,
) -> RepeatedRuns:
    """Execute ``run(seed)`` for seeds ``0..repetitions-1`` and aggregate.

    ``run`` maps a seed to the scalar outcome metric of one test run.
    The seed doubles as the run index, making repetitions reproducible.
    """
    if repetitions < 2:
        raise MethodologyError(
            f"need at least 2 repetitions for interval estimates, "
            f"got {repetitions}"
        )
    values = tuple(float(run(seed)) for seed in range(repetitions))
    return RepeatedRuns(
        values=values,
        aggregate=Aggregate.of(values, confidence=confidence),
        meets_n30=repetitions >= MINIMUM_RECOMMENDED_RUNS,
    )


class ComparisonVerdict:
    """Outcome categories of a CI-overlap comparison."""

    A_BETTER = "a_better"
    B_BETTER = "b_better"
    INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Result of comparing two systems on one metric.

    ``verdict`` names the significantly better side (per the metric's
    optimum direction) or ``indistinguishable`` when the confidence
    intervals overlap.
    """

    a: Aggregate
    b: Aggregate
    higher_is_better: bool
    verdict: str
    intervals_overlap: bool

    @property
    def significant(self) -> bool:
        return not self.intervals_overlap


def compare(
    a_values: Sequence[float],
    b_values: Sequence[float],
    higher_is_better: bool = True,
    confidence: float = 0.95,
) -> ComparisonResult:
    """CI-overlap comparison of two measurement sets (section 4.5).

    Single-measurement sides have no confidence interval, so no
    significant difference can be claimed: the verdict degrades to
    ``indistinguishable`` (with ``intervals_overlap=True``) instead of
    raising, since callers like the perf-regression threshold check
    legitimately feed single-repeat runs.  Mismatched sample counts and
    zero-variance sides (zero-width intervals) compare normally.
    """
    return compare_aggregates(
        Aggregate.of(a_values, confidence=confidence),
        Aggregate.of(b_values, confidence=confidence),
        higher_is_better,
    )


def compare_aggregates(
    a: Aggregate, b: Aggregate, higher_is_better: bool = True
) -> ComparisonResult:
    """:func:`compare` on two sides already aggregated."""
    if a.count < 2 or b.count < 2:
        overlap = True
    else:
        overlap = a.overlaps(b)
    if overlap:
        verdict = ComparisonVerdict.INDISTINGUISHABLE
    else:
        a_wins = a.mean > b.mean if higher_is_better else a.mean < b.mean
        verdict = (
            ComparisonVerdict.A_BETTER if a_wins else ComparisonVerdict.B_BETTER
        )
    return ComparisonResult(
        a=a,
        b=b,
        higher_is_better=higher_is_better,
        verdict=verdict,
        intervals_overlap=overlap,
    )
