"""Shared e2e result-document builders for the perfdb suite.

The builders produce miniature but complete documents in the layout
``python -m benchmarks.e2e run --out DIR`` writes, so every test
exercises the real ingestion path instead of hand-assembling records.
Ingestion reads ``BENCHMARK.json`` from the working directory, so every
test here runs from the repository root.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Plausible medians per end-to-end metric.
BASE_VALUES = {
    "delivered_eps": 400_000.0,
    "lag_p50_ms": 50.0,
    "replayer_cpu_util": 1.0,
    "setup_s": 1.6,
    "peak_rss_mb": 42.0,
}


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def make_document(
    workload: str = "csv-events-pipe",
    seed: int = 1,
    commit: str = "a" * 40,
    seconds: float = 20.0,
    scale: float = 1.0,
    recorded_at: str = "2026-08-08T00:00:00+00:00",
) -> dict[str, Any]:
    """An untraced, clean e2e document; ``delivered_eps`` scaled by ``scale``.

    Each seed shifts every median by 1% so a set of seeds has a small,
    nonzero spread.
    """
    metrics = {}
    for name, base in BASE_VALUES.items():
        value = base * (1 + 0.01 * seed)
        if name == "delivered_eps":
            value *= scale
        metrics[name] = {"value": value, "q1": value * 0.95, "q3": value * 1.05, "n": 100}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": False,
        "correct": True,
        "attempted": 101,
        "failed": 0,
        "passes": {"setups": 3, "warmup": 1, "measured": 100, "traced": 0},
        "inputs": {"events": 25041, "graph_events": 25040, "digest": "d" * 64},
        "metrics": metrics,
        "extras": {},
        "problems": [],
        "machine": {
            "python": "3.11.7",
            "implementation": "CPython",
            "platform": "Linux-test",
            "cpu_count": 2,
        },
        "nproc": 2,
        "provenance": {
            "git_commit": commit,
            "git_dirty": False,
            "recorded_at_utc": recorded_at,
        },
        "baseline_eligible": True,
    }


def make_legacy_snapshot() -> dict[str, Any]:
    """The retired ``BENCH_*.json`` layout (schema 2), which ingestion refuses."""
    return {
        "benchmark": "pipeline",
        "schema_version": 2,
        "config": {"event_count": 1000},
        "machine": {"python": "3.11.7", "cpu_count": 1},
        "parse": {"fast_eps": 300_000.0},
        "smoke": False,
        "provenance": {
            "git_commit": "a" * 40,
            "git_dirty": False,
            "recorded_at_utc": "2026-08-08T00:00:00+00:00",
        },
    }


def degraded(document: dict, factor: float) -> dict:
    """A deep copy with ``delivered_eps`` value and quartiles scaled by ``factor``."""
    result = copy.deepcopy(document)
    stats = result["metrics"]["delivered_eps"]
    for key in ("value", "q1", "q3"):
        stats[key] *= factor
    return result


def commit_set(commit: str, day: int, scale: float = 1.0, **kwargs) -> list[dict]:
    """Seeds 1-3 of one workload at one commit."""
    return [
        make_document(
            seed=seed,
            commit=commit,
            scale=scale,
            recorded_at=f"2026-08-{day:02d}T00:00:0{seed}+00:00",
            **kwargs,
        )
        for seed in (1, 2, 3)
    ]
