"""A benchmark suite on top of the framework (the paper's future work).

Section 6: "Our long-term goal is to develop GraphTides into a
benchmark suite — similar to LDBC Graphalytics, but for stream-based
analytics."  This module provides that layer: a standardized matrix of
named workloads and platforms, executed with repetitions through the
test harness, aggregated per the section-4.5 methodology, and rendered
as a comparison report with CI95 verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.analysis import reflection_latency_profile
from repro.core.generator import StreamGenerator
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.methodology import compare_aggregates
from repro.core.metrics import Aggregate
from repro.core.shaping import with_periodic_markers
from repro.core.models import (
    BlockchainRules,
    SocialNetworkRules,
    UniformRules,
    WeaverTable3Rules,
)
from repro.core.stream import GraphStream
from repro.errors import MethodologyError
from repro.platforms.base import Platform

__all__ = [
    "WorkloadSpec",
    "STANDARD_WORKLOADS",
    "SuiteCell",
    "SuiteReport",
    "BenchmarkSuite",
]


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """A named, reproducible workload definition.

    ``build(seed)`` returns the stream for one repetition; distinct
    seeds give statistically independent streams of the same
    characteristics.  ``rate`` is the replay rate the suite drives the
    platform at.
    """

    name: str
    build: Callable[[int], GraphStream]
    rate: float
    description: str = ""


def _rules_workload(name, rules_factory, rounds, rate, description):
    def build(seed: int) -> GraphStream:
        return StreamGenerator(
            rules_factory(), rounds=rounds, seed=seed, emit_phase_marker=False
        ).generate()

    return WorkloadSpec(name=name, build=build, rate=rate, description=description)


#: The suite's standard palette, spanning the paper's workload axes:
#: uniform churn, social growth, Zipf-skewed updates, and micro-batches.
STANDARD_WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _rules_workload(
            "uniform-small", UniformRules, 2_000, 5_000,
            "mixed operations, uniform selections",
        ),
        _rules_workload(
            "uniform-medium", UniformRules, 10_000, 10_000,
            "mixed operations, uniform selections",
        ),
        _rules_workload(
            "social-growth", SocialNetworkRules, 6_000, 5_000,
            "preferential-attachment follows + activity updates",
        ),
        _rules_workload(
            "zipf-churn",
            lambda: WeaverTable3Rules(n=300, m0=15, m=4),
            5_000,
            5_000,
            "Table-3 mix with Zipf-degree selections",
        ),
        _rules_workload(
            "ledger-batches", BlockchainRules, 6_000, 8_000,
            "transaction micro-batches over a wallet graph",
        ),
    )
}


@dataclass(slots=True)
class SuiteCell:
    """Aggregated outcome of one (platform, workload) cell.

    ``result_latency`` aggregates per-watermark reflection latencies
    (section 4.3's result-latency metric) over all repetitions; it is
    ``None`` when no watermark was reflected (platform never caught up).
    """

    platform: str
    workload: str
    throughput: Aggregate
    cpu_load: Aggregate
    result_latency: Aggregate | None
    drained_runs: int
    repetitions: int

    @property
    def all_drained(self) -> bool:
        return self.drained_runs == self.repetitions


@dataclass(slots=True)
class SuiteReport:
    """All cells of a suite run plus rendering and comparison helpers."""

    cells: list[SuiteCell] = field(default_factory=list)
    repetitions: int = 0

    def cell(self, platform: str, workload: str) -> SuiteCell:
        for cell in self.cells:
            if cell.platform == platform and cell.workload == workload:
                return cell
        raise KeyError(f"no cell ({platform}, {workload})")

    def platforms(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.platform, None)
        return list(seen)

    def workloads(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.workload, None)
        return list(seen)

    def compare_platforms(self, a: str, b: str, workload: str) -> str:
        """CI95 throughput verdict between two platforms on a workload.

        Uses the confidence-interval overlap rule of section 4.5 on the
        cells' aggregated throughput.
        """
        return compare_aggregates(
            self.cell(a, workload).throughput, self.cell(b, workload).throughput
        ).verdict

    def render(self) -> str:
        """Human-readable comparison table."""
        lines = [
            f"GraphTides suite — {self.repetitions} repetitions per cell",
            f"{'platform':<14} {'workload':<16} {'throughput':>12} "
            f"{'CI95':>21} {'p95 lat':>9} {'cpu%':>6} {'ok':>4}",
        ]
        for cell in self.cells:
            ci = f"[{cell.throughput.ci_low:.0f}, {cell.throughput.ci_high:.0f}]"
            latency = (
                f"{cell.result_latency.p95:.3f}s"
                if cell.result_latency is not None
                else "n/a"
            )
            lines.append(
                f"{cell.platform:<14} {cell.workload:<16} "
                f"{cell.throughput.mean:>12.0f} {ci:>21} "
                f"{latency:>9} {cell.cpu_load.mean:>6.1f} "
                f"{'yes' if cell.all_drained else 'NO':>4}"
            )
        return "\n".join(lines)


class BenchmarkSuite:
    """Runs platforms against the standard workload palette.

    ``platform_factories`` maps a display name to a zero-argument
    factory (platforms are single-use: one fresh instance per run).
    """

    def __init__(
        self,
        platform_factories: dict[str, Callable[[], Platform]],
        workloads: Sequence[WorkloadSpec] | None = None,
        repetitions: int = 3,
        level: int = 0,
        log_interval: float = 0.5,
    ):
        if not platform_factories:
            raise MethodologyError("suite needs at least one platform")
        if repetitions < 2:
            raise MethodologyError("suite needs >= 2 repetitions for CIs")
        self.platform_factories = dict(platform_factories)
        if workloads is None:
            workloads = list(STANDARD_WORKLOADS.values())
        self.workloads = list(workloads)
        if not self.workloads:
            raise MethodologyError("suite needs at least one workload")
        self.repetitions = repetitions
        self.level = level
        self.log_interval = log_interval

    def run(self) -> SuiteReport:
        """Execute the full matrix and return the aggregated report."""
        report = SuiteReport(repetitions=self.repetitions)
        for workload in self.workloads:
            # One stream per repetition, shared across platforms so
            # every system is measured with the exact same input
            # (the benchmark property of section 2.3).  Periodic
            # watermarks enable the result-latency profile.
            streams = []
            for seed in range(self.repetitions):
                stream = workload.build(seed)
                graph_events = sum(1 for __ in stream.graph_events())
                every = max(1, graph_events // 10)
                streams.append(with_periodic_markers(stream, every=every))
            for platform_name, factory in self.platform_factories.items():
                throughputs: list[float] = []
                cpu_means: list[float] = []
                latencies: list[float] = []
                drained = 0
                for stream in streams:
                    platform = factory()
                    result = TestHarness(
                        platform,
                        stream,
                        HarnessConfig(
                            rate=workload.rate,
                            level=min(self.level, platform.evaluation_level),
                            log_interval=self.log_interval,
                        ),
                        query_probes={
                            "events_reflected": lambda p: float(
                                p.events_processed()
                            ),
                        },
                    ).run()
                    throughputs.append(
                        result.events_processed / result.duration
                        if result.duration
                        else 0.0
                    )
                    cpu_series = result.log.filter(metric="cpu_load")
                    values = [r.value for r in cpu_series]
                    cpu_means.append(
                        sum(values) / len(values) if values else 0.0
                    )
                    latencies.extend(
                        reflection_latency_profile(
                            result.log, "wm", "events_reflected"
                        )
                    )
                    drained += int(result.drained)
                report.cells.append(
                    SuiteCell(
                        platform=platform_name,
                        workload=workload.name,
                        throughput=Aggregate.of(throughputs),
                        cpu_load=Aggregate.of(cpu_means),
                        result_latency=(
                            Aggregate.of(latencies) if latencies else None
                        ),
                        drained_runs=drained,
                        repetitions=self.repetitions,
                    )
                )
        return report
