"""The perf-diff verdict, and its agreement with the e2e comparator."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.compare import verdict as e2e_verdict
from repro.perfdb.checks import OK, REGRESSION, UNRESOLVED, verdict
from repro.perfdb.schema import MetricSeries

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def series(higher_is_better: bool = True, bound: float = 0.25) -> MetricSeries:
    return MetricSeries(
        name="m",
        unit="events/s",
        higher_is_better=higher_is_better,
        bound=bound,
        samples=(1.0,),
    )


class TestVerdict:
    def test_identical_runs_are_ok(self):
        result = verdict(series(), STEADY, STEADY)
        assert result.label == OK
        assert result.worsening == pytest.approx(0.0)

    def test_thirty_percent_drop_is_a_regression(self):
        result = verdict(series(), STEADY, [v * 0.7 for v in STEADY])
        assert result.label == REGRESSION
        assert result.is_regression
        assert result.worsening == pytest.approx(0.3)

    def test_wide_baseline_spread_is_unresolved(self):
        # A's quartiles span more than the bound, so a 20% drop cannot
        # be told from noise.
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
        result = verdict(series(), noisy, [v * 0.8 for v in noisy])
        assert result.label == UNRESOLVED
        assert result.spread > result.bound

    def test_wide_spread_resolved_when_every_target_run_is_better(self):
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
        assert verdict(series(), noisy, [200.0, 210.0]).label == OK

    def test_single_run_sides_are_judged(self):
        assert verdict(series(), [100.0], [60.0]).label == REGRESSION
        assert verdict(series(), [100.0], [90.0]).label == OK

    def test_zero_variance_sides_do_not_crash(self):
        result = verdict(series(), [100.0, 100.0], [100.0, 100.0])
        assert result.label == OK
        assert result.spread == 0.0

    def test_zero_baseline_is_unresolved(self):
        result = verdict(series(), [0.0], [10.0])
        assert result.label == UNRESOLVED
        assert math.isnan(result.worsening)

    def test_both_zero_is_unresolved(self):
        result = verdict(series(), [0.0], [0.0])
        assert result.label == UNRESOLVED
        assert math.isnan(result.worsening)

    def test_improvement_is_ok(self):
        assert verdict(series(), [100.0, 100.5], [140.0, 140.5]).label == OK

    def test_lower_is_better_inverts_direction(self):
        lower = series(higher_is_better=False)
        assert verdict(lower, [100.0], [140.0]).label == REGRESSION
        assert verdict(lower, [100.0], [60.0]).label == OK


values = st.lists(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestAgreementWithCompare:
    @settings(max_examples=300, deadline=None)
    @given(
        better=st.sampled_from(["higher", "lower"]),
        bound=st.floats(min_value=0.01, max_value=1.0),
        a=values,
        b=values,
    )
    def test_same_label_as_e2e_compare(self, better, bound, a, b):
        metric = {"name": "m", "better": better, "bound": bound}
        ours = verdict(series(better == "higher", bound), a, b)
        assert ours.label == e2e_verdict(metric, a, b)[0]

    @given(a=values, factor=st.floats(min_value=0.5, max_value=1.5))
    @example(a=[100.0], factor=0.75)  # worsening exactly at the bound
    def test_same_label_near_the_bound(self, a, factor):
        # Scaled copies land on both sides of the bound, where float
        # rounding would expose any difference in the arithmetic.
        b = [v * factor for v in a]
        for better in ("higher", "lower"):
            metric = {"name": "m", "better": better, "bound": 0.25}
            ours = verdict(series(better == "higher"), a, b)
            assert ours.label == e2e_verdict(metric, a, b)[0]
