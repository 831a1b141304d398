"""e2e result documents into perf records: extraction and refusals."""

from __future__ import annotations

import pytest

from repro.errors import PerfDbError
from repro.perfdb.ingest import load_snapshot, record_from_snapshot

from .conftest import DECLARED, make_document, make_legacy_snapshot


class TestDocumentIngestion:
    def test_end_to_end_medians_extracted(self):
        document = make_document(workload="gtb-decode-shm")
        record = record_from_snapshot(document, source="r/gtb-decode-shm-seed1.json")
        assert record.benchmark == "gtb-decode-shm"
        assert record.source == "r/gtb-decode-shm-seed1.json"
        assert record.smoke is False
        delivered = record.metrics["delivered_eps"]
        assert delivered.samples == (document["metrics"]["delivered_eps"]["value"],)
        assert delivered.higher_is_better
        assert record.metrics["lag_p50_ms"].unit == "ms"

    def test_provenance_carried(self):
        record = record_from_snapshot(make_document())
        assert record.git_commit == "a" * 40
        assert record.git_dirty is False
        assert record.recorded_at_utc == "2026-08-08T00:00:00+00:00"
        assert record.machine["cpu_count"] == 2
        assert record.machine_id
        assert record.config_id

    def test_config_id_fingerprints_the_run_config(self):
        def config_id(**kwargs):
            return record_from_snapshot(make_document(**kwargs), allow_smoke=True).config_id

        base = config_id()
        assert config_id(commit="b" * 40, scale=0.5) == base
        assert config_id(seed=2) != base
        assert config_id(workload="paced-csv-tcp") != base
        assert config_id(seconds=1.0) != base
        document = make_document()
        document["inputs"]["digest"] = "e" * 64
        assert record_from_snapshot(document).config_id != base


class TestLockstep:
    def test_every_end_to_end_metric_becomes_a_record_metric(self):
        record = record_from_snapshot(make_document())
        declared = {metric["name"]: metric for metric in DECLARED["end_to_end"]}
        assert set(record.metrics) == set(declared)
        for name, metric in declared.items():
            series = record.metrics[name]
            assert series.unit == metric["unit"]
            assert series.higher_is_better == (metric["better"] == "higher")
            assert series.bound == metric["bound"]

    def test_every_declared_workload_is_accepted(self):
        for workload in DECLARED["workloads"]:
            record = record_from_snapshot(make_document(workload=workload["name"]))
            assert record.benchmark == workload["name"]


class TestIngestionGuards:
    def test_rejects_smoke_by_default(self):
        document = make_document(seconds=1.0)
        with pytest.raises(PerfDbError, match="a/x.json is a smoke run"):
            record_from_snapshot(document, source="a/x.json")

    def test_allow_smoke_keeps_the_tag(self):
        record = record_from_snapshot(make_document(seconds=1.0), allow_smoke=True)
        assert record.smoke is True

    def test_rejects_pre_v2_snapshots(self):
        snapshot = make_legacy_snapshot()
        del snapshot["schema_version"]
        with pytest.raises(PerfDbError, match="BENCH_old.json is not an e2e"):
            record_from_snapshot(snapshot, source="BENCH_old.json")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("baseline_eligible", False, "dirty"),
            ("trace", True, "traced"),
            ("failed", 1, "1/101 passes failed"),
            ("correct", False, "not a correct run"),
        ],
    )
    def test_rejects_unusable_runs(self, field, value, message):
        document = make_document()
        document[field] = value
        with pytest.raises(PerfDbError, match=f"r.json .*{message}"):
            record_from_snapshot(document, source="r.json", allow_smoke=True)

    def test_rejects_unknown_benchmark(self):
        document = make_document(workload="mystery")
        with pytest.raises(PerfDbError, match="unknown workload 'mystery'"):
            record_from_snapshot(document)

    def test_rejects_missing_metric(self):
        document = make_document()
        del document["metrics"]["setup_s"]
        with pytest.raises(PerfDbError, match="lacks end-to-end metric"):
            record_from_snapshot(document)

    def test_rejects_missing_timestamp(self):
        document = make_document()
        del document["provenance"]["recorded_at_utc"]
        with pytest.raises(PerfDbError, match="recorded_at_utc"):
            record_from_snapshot(document)

    def test_load_snapshot_errors(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(PerfDbError, match="cannot read"):
            load_snapshot(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(PerfDbError, match="not valid JSON"):
            load_snapshot(bad)
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(PerfDbError, match="JSON object"):
            load_snapshot(array)
