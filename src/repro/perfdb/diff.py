"""Set-vs-set comparison: the newest commit's runs against its baseline.

A *set* is every record of one benchmark (an e2e workload) at one
commit.  :func:`diff_benchmark` compares the newest commit's set with
the newest earlier commit's set, metric by metric, with
:func:`repro.perfdb.checks.verdict`, and folds the results into a
:class:`DiffReport` whose ``has_regression`` drives the CLI exit code
and the CI gate.

Comparability guard: when the two sets ran on different machines or
measured different configs (workload, seed, duration or inputs), their
absolute values are not commensurable — a ``regression`` then reads
``unresolved`` and the report says why, instead of blocking a merge on
an apples-to-oranges comparison.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import PerfDbError
from repro.perfdb.checks import UNRESOLVED, CheckResult, quartiles, verdict
from repro.perfdb.schema import PerfRecord
from repro.perfdb.store import PerfDatabase

__all__ = ["DiffReport", "diff_benchmark", "diff_all"]


@dataclass(slots=True)
class DiffReport:
    """All verdicts of one benchmark's target-set-vs-baseline-set diff."""

    benchmark: str
    baseline: list[PerfRecord]
    target: list[PerfRecord]
    results: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CheckResult]:
        return [r for r in self.results if r.is_regression]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)

    def render_lines(self) -> list[str]:
        """Human-readable report lines (one per metric)."""
        lines = [f"benchmark {self.benchmark}:"]
        if not self.target:
            lines.append("  no records; nothing to diff")
            return lines
        target = _describe(self.target)
        if not self.baseline:
            lines.append(
                f"  target {target} has no baseline; record runs of an "
                "earlier commit first"
            )
            return lines
        lines[0] = (
            f"benchmark {self.benchmark}: {_describe(self.baseline)} -> {target}"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        for result in self.results:
            cells = []
            for values in (result.baseline, result.target):
                median, q1, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            lines.append(
                f"  {result.metric:<18} {cells[0]:>30} -> {cells[1]:<30} "
                f"worse {result.worsening:+.3f}  spread {result.spread:.3f}  "
                f"bound {result.bound:.2f}  {result.label}"
            )
        unresolved = sum(r.label == UNRESOLVED for r in self.results)
        lines.append(
            f"  verdict: {'REGRESSION' if self.has_regression else 'ok'} "
            f"({len(self.regressions)} regression(s), {unresolved} unresolved)"
        )
        return lines


def _describe(records: list[PerfRecord]) -> str:
    return f"{records[0].short_commit} (n={len(records)})"


def _comparability_notes(
    baseline: list[PerfRecord], target: list[PerfRecord]
) -> list[str]:
    notes = []
    if {r.machine_id for r in baseline} != {r.machine_id for r in target}:
        notes.append(
            "baseline and target ran on different machines; "
            "regressions read 'unresolved'"
        )
    if {r.config_id for r in baseline} != {r.config_id for r in target}:
        notes.append(
            "baseline and target measured different workload configs; "
            "regressions read 'unresolved'"
        )
    return notes


def diff_benchmark(
    db: PerfDatabase, benchmark: str, include_smoke: bool = False
) -> DiffReport:
    """Diff the newest commit's set for ``benchmark`` against its baseline.

    Every metric present in all records of both sets is judged; smoke
    records act as diff endpoints only with ``include_smoke``.
    """
    sets = db.commit_sets(benchmark, include_smoke=include_smoke)
    if len(sets) < 2:
        return DiffReport(
            benchmark=benchmark, baseline=[], target=sets[-1] if sets else []
        )
    baseline, target = sets[-2], sets[-1]
    report = DiffReport(
        benchmark=benchmark,
        baseline=baseline,
        target=target,
        notes=_comparability_notes(baseline, target),
    )
    comparable = not report.notes
    names = [set(r.metrics) for r in baseline + target]
    shared = set.intersection(*names)
    missing = set.union(*names) - shared
    if missing:
        report.notes.append(
            f"metric(s) not in every record: {', '.join(sorted(missing))}"
        )
    for name in sorted(shared):
        result = verdict(
            target[-1].metrics[name],
            [r.metrics[name].median for r in baseline],
            [r.metrics[name].median for r in target],
        )
        if result.is_regression and not comparable:
            result = dataclasses.replace(result, label=UNRESOLVED)
        report.results.append(result)
    return report


def diff_all(db: PerfDatabase, include_smoke: bool = False) -> list[DiffReport]:
    """One report per benchmark present in the database."""
    names = db.benchmarks()
    if not names:
        raise PerfDbError(f"{db.path} holds no records")
    return [diff_benchmark(db, name, include_smoke) for name in names]
