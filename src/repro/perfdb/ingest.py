"""Turn e2e benchmark result documents into perf-database records.

The documents are the files ``python -m benchmarks.e2e run --out DIR``
writes, one per workload and seed.  Each becomes one
:class:`~repro.perfdb.schema.PerfRecord`: the benchmark is the
document's ``workload`` and the metrics are its ``end_to_end``
medians.  Unit, direction and bound of each metric come from
``BENCHMARK.json`` in the working directory, the file
``benchmarks/e2e/compare.py`` reads, so both comparators judge the same
numbers against the same bounds.

A document is refused when it comes from a dirty tree
(``baseline_eligible: false``), when it is a traced run, when a pass
failed or a check did not hold, and when it is not an e2e result
document at all (the old ``BENCH_*.json`` layout included).  A document
whose ``seconds`` is below ``run_seconds`` is a smoke run: it is
refused unless ``allow_smoke=True``, and even then the stored record
keeps ``smoke: true`` so it is never silently promoted to a baseline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import PerfDbError
from repro.perfdb.provenance import config_fingerprint, machine_fingerprint
from repro.perfdb.schema import MetricSeries, PerfRecord

__all__ = ["BENCHMARK_PATH", "record_from_snapshot", "load_snapshot"]

#: Repo-relative location of the benchmark declaration.
BENCHMARK_PATH = "BENCHMARK.json"

_E2E_KEYS = (
    "workload", "seed", "seconds", "trace", "correct", "attempted",
    "failed", "inputs", "metrics", "machine", "provenance",
    "baseline_eligible",
)


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read one JSON result document."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise PerfDbError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PerfDbError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise PerfDbError(f"{path} does not contain a JSON object")
    return payload


def _refusal(snapshot: Mapping[str, Any], declared: Mapping[str, Any]) -> str | None:
    """Why ``snapshot`` cannot be recorded, or ``None`` if it can."""
    missing = [key for key in _E2E_KEYS if key not in snapshot]
    if missing:
        return (
            f"is not an e2e result document (missing {', '.join(missing)}); "
            "record the files 'python -m benchmarks.e2e run --out DIR' writes"
        )
    if snapshot["trace"]:
        return "is a traced run; record untraced runs only"
    if snapshot["baseline_eligible"] is not True:
        return "was measured on a dirty or unknown tree (baseline_eligible: false)"
    if snapshot["failed"] > 0 or snapshot["correct"] is not True:
        return (
            f"is not a correct run ({snapshot['failed']}/"
            f"{snapshot['attempted']} passes failed, correct: "
            f"{snapshot['correct']})"
        )
    workloads = [workload["name"] for workload in declared["workloads"]]
    if snapshot["workload"] not in workloads:
        return f"has unknown workload {snapshot['workload']!r}; declared: {workloads}"
    absent = [
        metric["name"]
        for metric in declared["end_to_end"]
        if metric["name"] not in snapshot["metrics"]
    ]
    if absent:
        return f"lacks end-to-end metric(s) {', '.join(absent)}"
    if "recorded_at_utc" not in snapshot["provenance"]:
        return "has no provenance.recorded_at_utc"
    return None


def record_from_snapshot(
    snapshot: Mapping[str, Any],
    source: str = "",
    allow_smoke: bool = False,
) -> PerfRecord:
    """Build a :class:`PerfRecord` from one parsed e2e result document.

    Raises :class:`~repro.errors.PerfDbError`, naming ``source``, for
    every document the module docstring lists as refused, and for smoke
    runs unless ``allow_smoke``: a short run is noisier and measures a
    different config, so storing one as a baseline would poison every
    later comparison.
    """
    name = source or "<dict>"
    declared = load_snapshot(BENCHMARK_PATH)
    reason = _refusal(snapshot, declared)
    if reason is not None:
        raise PerfDbError(f"{name} {reason}")
    smoke = snapshot["seconds"] < declared["run_seconds"]
    if smoke and not allow_smoke:
        raise PerfDbError(
            f"{name} is a smoke run ({snapshot['seconds']:g} s < "
            f"{declared['run_seconds']:g} s); refusing to store it as a "
            "baseline (pass --allow-smoke to record it as an explicitly "
            "smoke-tagged, non-baseline record)"
        )
    provenance = snapshot["provenance"]
    machine = snapshot["machine"]
    metrics = {
        metric["name"]: MetricSeries(
            name=metric["name"],
            unit=metric["unit"],
            higher_is_better=metric["better"] == "higher",
            bound=float(metric["bound"]),
            samples=(float(snapshot["metrics"][metric["name"]]["value"]),),
        )
        for metric in declared["end_to_end"]
    }
    return PerfRecord(
        benchmark=snapshot["workload"],
        git_commit=provenance.get("git_commit"),
        git_dirty=provenance.get("git_dirty"),
        recorded_at_utc=provenance["recorded_at_utc"],
        machine=dict(machine),
        machine_id=machine_fingerprint(machine),
        config_id=config_fingerprint({
            "workload": snapshot["workload"],
            "seed": snapshot["seed"],
            "seconds": snapshot["seconds"],
            "inputs_digest": snapshot["inputs"].get("digest"),
        }),
        smoke=smoke,
        source=str(source),
        metrics=metrics,
    )
