"""Per-commit performance database of e2e benchmark runs.

GraphTides' methodology (paper section 4.5) only makes platform
comparisons meaningful when the harness side is measured and
reproducible; this package extends that discipline *across commits*:
every result document of ``python -m benchmarks.e2e run --out DIR`` is
ingested (:mod:`repro.perfdb.ingest`) with shared machine and git
provenance (:mod:`repro.perfdb.provenance`) into an append-only
per-commit record store (:mod:`repro.perfdb.store`), and the newest
commit's runs are compared with the previous commit's
(:mod:`repro.perfdb.diff`) by the rule of ``benchmarks/e2e/compare.py``
(:mod:`repro.perfdb.checks`).

Surfaced as ``graphtides perf record|diff|log`` and as the CI ``perf``
job: a regression beyond a metric's ``BENCHMARK.json`` bound blocks the
merge.
"""

from repro.perfdb.checks import CheckResult, verdict
from repro.perfdb.diff import DiffReport, diff_all, diff_benchmark
from repro.perfdb.ingest import load_snapshot, record_from_snapshot
from repro.perfdb.provenance import (
    config_fingerprint,
    git_provenance,
    machine_fingerprint,
    machine_info,
    snapshot_provenance,
)
from repro.perfdb.schema import SCHEMA_VERSION, MetricSeries, PerfRecord
from repro.perfdb.store import DEFAULT_DB_PATH, PerfDatabase

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_DB_PATH",
    "MetricSeries",
    "PerfRecord",
    "PerfDatabase",
    "CheckResult",
    "verdict",
    "DiffReport",
    "diff_all",
    "diff_benchmark",
    "load_snapshot",
    "record_from_snapshot",
    "machine_info",
    "machine_fingerprint",
    "git_provenance",
    "snapshot_provenance",
    "config_fingerprint",
]
