"""End-to-end diffs: database in, verdict out."""

from __future__ import annotations

import pytest

from repro.errors import PerfDbError
from repro.perfdb.checks import REGRESSION, UNRESOLVED
from repro.perfdb.diff import diff_all, diff_benchmark
from repro.perfdb.ingest import record_from_snapshot
from repro.perfdb.store import PerfDatabase

from .conftest import commit_set, make_document


@pytest.fixture
def db(tmp_path) -> PerfDatabase:
    return PerfDatabase(tmp_path / "perfdb.jsonl")


def _append(db: PerfDatabase, documents: list[dict], **kwargs) -> None:
    for document in documents:
        db.append(record_from_snapshot(document, **kwargs))


def _label(report, metric: str) -> str:
    return next(r.label for r in report.results if r.metric == metric)


class TestDiffBenchmark:
    def test_identical_runs_report_ok(self, db):
        _append(db, commit_set("1" * 40, day=1))
        _append(db, commit_set("2" * 40, day=2))
        report = diff_benchmark(db, "csv-events-pipe")
        assert len(report.baseline) == len(report.target) == 3
        assert not report.has_regression
        assert {r.label for r in report.results} == {"ok"}
        assert any("verdict: ok" in line for line in report.render_lines())

    def test_thirty_percent_drop_is_a_regression(self, db):
        _append(db, commit_set("1" * 40, day=1))
        _append(db, commit_set("2" * 40, day=2, scale=0.7))
        report = diff_benchmark(db, "csv-events-pipe")
        assert report.has_regression
        assert [r.metric for r in report.regressions] == ["delivered_eps"]
        lines = report.render_lines()
        assert any("delivered_eps" in l and l.endswith(REGRESSION) for l in lines)
        assert any("verdict: REGRESSION" in line for line in lines)

    def test_baseline_is_the_newest_earlier_commit(self, db):
        _append(db, commit_set("1" * 40, day=1, scale=2.0))
        _append(db, commit_set("2" * 40, day=2))
        _append(db, commit_set("3" * 40, day=3))
        report = diff_benchmark(db, "csv-events-pipe")
        assert report.baseline[0].git_commit == "2" * 40
        assert report.target[0].git_commit == "3" * 40
        assert not report.has_regression

    def test_cross_machine_diff_is_downgraded(self, db):
        _append(db, commit_set("1" * 40, day=1))
        bad = commit_set("2" * 40, day=2, scale=0.7)
        for document in bad:
            document["machine"]["platform"] = "Darwin-other-box"
        _append(db, bad)
        report = diff_benchmark(db, "csv-events-pipe")
        assert not report.has_regression
        assert _label(report, "delivered_eps") == UNRESOLVED
        assert any("different machines" in note for note in report.notes)

    def test_cross_config_diff_is_downgraded(self, db):
        _append(db, commit_set("1" * 40, day=1))
        bad = commit_set("2" * 40, day=2, scale=0.7)
        for document in bad:
            document["inputs"]["digest"] = "e" * 64
        _append(db, bad)
        report = diff_benchmark(db, "csv-events-pipe")
        assert not report.has_regression
        assert _label(report, "delivered_eps") == UNRESOLVED
        assert any("different workload configs" in n for n in report.notes)

    def test_empty_benchmark_reports_nothing_to_diff(self, db):
        report = diff_benchmark(db, "csv-events-pipe")
        assert report.target == []
        assert not report.has_regression
        assert any("nothing to diff" in line for line in report.render_lines())

    def test_single_record_has_no_baseline(self, db):
        _append(db, commit_set("1" * 40, day=1))
        report = diff_benchmark(db, "csv-events-pipe")
        assert report.baseline == []
        assert len(report.target) == 3
        assert not report.has_regression
        assert any("no baseline" in line for line in report.render_lines())

    def test_smoke_target_needs_include_smoke(self, db):
        _append(db, commit_set("1" * 40, day=1))
        _append(db, commit_set("2" * 40, day=2, seconds=1.0), allow_smoke=True)
        default = diff_benchmark(db, "csv-events-pipe")
        assert default.baseline == []
        assert [r.smoke for r in default.target] == [False] * 3
        smoke = diff_benchmark(db, "csv-events-pipe", include_smoke=True)
        assert [r.smoke for r in smoke.target] == [True] * 3
        # A 1-s run measures another config than a 20-s one.
        assert any("different workload configs" in n for n in smoke.notes)

    def test_improvement_does_not_block(self, db):
        _append(db, commit_set("1" * 40, day=1))
        _append(db, commit_set("2" * 40, day=2, scale=1.5))
        report = diff_benchmark(db, "csv-events-pipe")
        assert not report.has_regression
        assert _label(report, "delivered_eps") == "ok"


class TestDiffAll:
    def test_empty_database_raises(self, db):
        with pytest.raises(PerfDbError, match="no records"):
            diff_all(db)

    def test_one_report_per_benchmark(self, db):
        _append(db, [make_document(workload="csv-events-pipe")])
        _append(db, [make_document(workload="sim-weaver")])
        reports = diff_all(db)
        assert [r.benchmark for r in reports] == ["csv-events-pipe", "sim-weaver"]
