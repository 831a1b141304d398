"""Record schema round trips and the append-only store."""

from __future__ import annotations

import json

import pytest

from repro.errors import PerfDbError
from repro.perfdb.ingest import record_from_snapshot
from repro.perfdb.schema import SCHEMA_VERSION, MetricSeries, PerfRecord
from repro.perfdb.store import PerfDatabase

from .conftest import make_document


def record(**kwargs) -> PerfRecord:
    return record_from_snapshot(make_document(**kwargs), allow_smoke=True)


class TestMetricSeries:
    def test_requires_samples(self):
        with pytest.raises(PerfDbError, match="no samples"):
            MetricSeries(
                name="m", unit="x", higher_is_better=True, bound=0.1, samples=()
            )

    def test_round_trip(self):
        series = MetricSeries(
            name="m", unit="events/s", higher_is_better=True, bound=0.25,
            samples=(1.0, 2.0),
        )
        rebuilt = MetricSeries.from_json_dict("m", series.to_json_dict())
        assert rebuilt == series

    def test_median_of_samples(self):
        series = MetricSeries(
            name="m", unit="x", higher_is_better=True, bound=0.1,
            samples=(2.0, 9.0, 4.0),
        )
        assert series.median == 4.0


class TestPerfRecordRoundTrip:
    def test_round_trip(self):
        original = record_from_snapshot(make_document(), source="s")
        rebuilt = PerfRecord.from_json_dict(
            json.loads(json.dumps(original.to_json_dict()))
        )
        assert rebuilt == original

    def test_rejects_wrong_schema_version(self):
        payload = record().to_json_dict()
        payload["schema_version"] = SCHEMA_VERSION - 1
        with pytest.raises(PerfDbError, match="schema_version"):
            PerfRecord.from_json_dict(payload)

    def test_rejects_missing_metrics(self):
        payload = record().to_json_dict()
        payload["metrics"] = {}
        with pytest.raises(PerfDbError, match="no metrics"):
            PerfRecord.from_json_dict(payload)


class TestPerfDatabase:
    def _db(self, tmp_path) -> PerfDatabase:
        return PerfDatabase(tmp_path / "perf" / "db.jsonl")

    def test_append_and_read_back(self, tmp_path):
        db = self._db(tmp_path)
        assert db.records() == []
        first = record()
        db.append(first)
        assert db.records() == [first]

    def test_append_only_preserves_order(self, tmp_path):
        db = self._db(tmp_path)
        db.append(record(commit="1" * 40, recorded_at="2026-08-01T00:00:00+00:00"))
        db.append(record(commit="2" * 40, recorded_at="2026-08-02T00:00:00+00:00"))
        commits = [r.git_commit for r in db.records()]
        assert commits == ["1" * 40, "2" * 40]
        # The file is line-per-record JSONL, so appending never rewrote
        # the first line.
        lines = db.path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["git_commit"] == "1" * 40

    def test_benchmark_filter(self, tmp_path):
        db = self._db(tmp_path)
        db.append(record(workload="csv-events-pipe"))
        db.append(record(workload="sim-weaver"))
        assert db.benchmarks() == ["csv-events-pipe", "sim-weaver"]
        assert len(db.records("sim-weaver")) == 1

    def test_smoke_records_never_become_baselines(self, tmp_path):
        db = self._db(tmp_path)
        full = record(commit="1" * 40)
        smoke = record(commit="2" * 40, seconds=1.0)
        db.append(full)
        db.append(smoke)
        assert db.commit_sets("csv-events-pipe") == [[full]]
        assert db.commit_sets("csv-events-pipe", include_smoke=True) == [
            [full],
            [smoke],
        ]

    def test_baseline_before_target(self, tmp_path):
        db = self._db(tmp_path)
        # Commit 1, then 2, then 1 again: commit 2's set is now the
        # baseline of commit 1's, which holds both of its records.
        first = record(commit="1" * 40, seed=1)
        second = record(commit="2" * 40, seed=1)
        third = record(commit="1" * 40, seed=2)
        for each in (first, second, third):
            db.append(each)
        assert db.commit_sets("csv-events-pipe") == [[second], [first, third]]
        assert db.commit_sets("sim-weaver") == []

    def test_records_of_one_commit_form_one_set(self, tmp_path):
        # Re-recording the same document joins its commit's set; an A/A
        # comparison needs the copy stamped with another commit.
        db = self._db(tmp_path)
        twin = record()
        db.append(twin)
        db.append(twin)
        assert db.commit_sets("csv-events-pipe") == [[twin, twin]]

    def test_corrupt_line_is_reported_with_location(self, tmp_path):
        db = self._db(tmp_path)
        db.append(record())
        with open(db.path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(PerfDbError, match=":2"):
            db.records()
