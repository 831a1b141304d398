"""Ablation: horizontal input scaling with concurrent event sources.

Section 3.2: "In order to enable parallelism and horizontal scaling of
input workload, we opt for concurrent streaming of disjunct streams by
different event sources."  The sweep replays 1–8 disjoint streams at a
fixed per-source rate into one platform (one :class:`TestHarness` over
the list of streams, offered ``n`` times the per-source rate) and
measures the aggregate processed rate: it scales with the source count until the platform's
service capacity saturates, after which extra sources only deepen the
backpressure.
"""

from __future__ import annotations

import pytest

from repro.core.harness import HarnessConfig, TestHarness
from repro.core.models import UniformRules
from repro.core.multistream import disjoint_streams
from repro.platforms.inmem import InMemoryPlatform

SOURCE_COUNTS = (1, 2, 4, 8)
PER_SOURCE_RATE = 2_000.0
# Platform capacity ~ 1 / service_time = 10k events/s: saturates at ~5 sources.
SERVICE_TIME = 100e-6


@pytest.fixture(scope="module")
def streams_by_count(scale):
    rounds = max(4_000, int(100_000 * scale))
    return {
        n: disjoint_streams(
            UniformRules,
            sources=n,
            rounds=rounds,
            seed=11,
            emit_phase_marker=False,
        )
        for n in SOURCE_COUNTS
    }


def _aggregate_rate(streams) -> tuple[float, int]:
    platform = InMemoryPlatform(service_time=SERVICE_TIME, queue_capacity=500)
    # The sources share the harness rate evenly.
    result = TestHarness(
        platform,
        streams,
        HarnessConfig(
            rate=len(streams) * PER_SOURCE_RATE, level=0, log_interval=0.5
        ),
    ).run()
    rate = (
        result.events_processed / result.duration if result.duration else 0.0
    )
    return rate, result.events_processed


def test_ablation_input_scaling(benchmark, streams_by_count):
    def run():
        return {
            n: _aggregate_rate(streams)
            for n, streams in streams_by_count.items()
        }

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("Ablation — aggregate throughput vs concurrent sources "
          f"(per-source rate {PER_SOURCE_RATE:.0f}/s, capacity 10k/s)")
    print(f"{'sources':>8} {'agg rate':>10} {'processed':>10}")
    for n, (rate, processed) in outcomes.items():
        print(f"{n:>8} {rate:>10.0f} {processed:>10}")

    benchmark.extra_info["rates"] = {
        str(n): round(rate) for n, (rate, __) in outcomes.items()
    }

    rates = {n: rate for n, (rate, __) in outcomes.items()}
    # Scaling region: 2 sources nearly double 1 source.
    assert rates[2] > 1.6 * rates[1]
    assert rates[4] > 2.8 * rates[1]
    # Saturation region: at 8 sources the offered load (16k/s) exceeds
    # the service capacity (10k/s), so per-source efficiency drops.
    assert rates[8] / 8 < 0.85 * rates[4] / 4
