"""Perf-database record schema.

One :class:`PerfRecord` describes one e2e benchmark run: which
workload, on which commit and machine, under which config fingerprint,
and the run's end-to-end metrics.  Each :class:`MetricSeries` carries
the run's median, its unit, its direction and its regression bound, as
declared in ``BENCHMARK.json`` when the run was recorded.

Records are plain JSON dicts on disk (one per line in the store) and
versioned by ``SCHEMA_VERSION`` so future migrations stay explicit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import PerfDbError

__all__ = ["SCHEMA_VERSION", "MetricSeries", "PerfRecord"]

#: Version of the perfdb record layout.
SCHEMA_VERSION = 3


@dataclass(frozen=True, slots=True)
class MetricSeries:
    """One named metric of a run: samples, direction and bound."""

    name: str
    unit: str
    higher_is_better: bool
    bound: float
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise PerfDbError(f"metric {self.name!r} has no samples")

    @property
    def median(self) -> float:
        """Median of the samples."""
        return statistics.median(self.samples)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "bound": self.bound,
            "samples": list(self.samples),
        }

    @classmethod
    def from_json_dict(cls, name: str, payload: Mapping[str, Any]) -> "MetricSeries":
        return cls(
            name=name,
            unit=str(payload.get("unit", "")),
            higher_is_better=bool(payload.get("higher_is_better", True)),
            bound=float(payload["bound"]),
            samples=tuple(float(v) for v in payload.get("samples", ())),
        )


@dataclass(frozen=True, slots=True)
class PerfRecord:
    """One benchmark run keyed by commit, machine, and config."""

    benchmark: str
    git_commit: str | None
    git_dirty: bool | None
    recorded_at_utc: str
    machine: dict[str, Any]
    machine_id: str
    config_id: str
    smoke: bool
    source: str
    metrics: dict[str, MetricSeries] = field(default_factory=dict)

    @property
    def short_commit(self) -> str:
        """Abbreviated commit hash for log lines (``unknown`` if absent)."""
        return (self.git_commit or "unknown")[:12]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "git_commit": self.git_commit,
            "git_dirty": self.git_dirty,
            "recorded_at_utc": self.recorded_at_utc,
            "machine": dict(self.machine),
            "machine_id": self.machine_id,
            "config_id": self.config_id,
            "smoke": self.smoke,
            "source": self.source,
            "metrics": {
                name: series.to_json_dict()
                for name, series in sorted(self.metrics.items())
            },
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "PerfRecord":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise PerfDbError(
                f"unsupported perfdb record schema_version {version!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        for key in ("benchmark", "recorded_at_utc", "machine", "metrics"):
            if key not in payload:
                raise PerfDbError(f"perfdb record is missing {key!r}")
        metrics = {
            name: MetricSeries.from_json_dict(name, series)
            for name, series in payload["metrics"].items()
        }
        if not metrics:
            raise PerfDbError("perfdb record has no metrics")
        return cls(
            benchmark=str(payload["benchmark"]),
            git_commit=payload.get("git_commit"),
            git_dirty=payload.get("git_dirty"),
            recorded_at_utc=str(payload["recorded_at_utc"]),
            machine=dict(payload["machine"]),
            machine_id=str(payload.get("machine_id", "")),
            config_id=str(payload.get("config_id", "")),
            smoke=bool(payload.get("smoke", False)),
            source=str(payload.get("source", "")),
            metrics=metrics,
        )
