"""The ``graphtides perf`` command group: exit codes and output."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cli import main

from .conftest import ROOT, commit_set, degraded, make_document, make_legacy_snapshot


def write_snapshot(path, snapshot) -> str:
    path.write_text(json.dumps(snapshot) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def db_path(tmp_path) -> str:
    return str(tmp_path / "perfdb.jsonl")


class TestPerfRecord:
    def test_records_full_snapshot(self, tmp_path, db_path, capsys):
        snap = write_snapshot(tmp_path / "s.json", make_document())
        assert main(["perf", "record", snap, "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "recorded csv-events-pipe @ aaaaaaaa" in out

    def test_refuses_smoke_without_flag(self, tmp_path, db_path, capsys):
        snap = write_snapshot(tmp_path / "s.json", make_document(seconds=1.0))
        assert main(["perf", "record", snap, "--db", db_path]) == 2
        err = capsys.readouterr().err
        assert "smoke" in err
        assert "--allow-smoke" in err

    def test_allow_smoke_records_tagged(self, tmp_path, db_path, capsys):
        snap = write_snapshot(tmp_path / "s.json", make_document(seconds=1.0))
        assert main(
            ["perf", "record", snap, "--db", db_path, "--allow-smoke"]
        ) == 0
        assert "[smoke]" in capsys.readouterr().out

    def test_rejects_legacy_snapshot(self, tmp_path, db_path, capsys):
        legacy = make_legacy_snapshot()
        del legacy["schema_version"]
        del legacy["provenance"]
        snap = write_snapshot(tmp_path / "s.json", legacy)
        assert main(["perf", "record", snap, "--db", db_path]) == 2

    @pytest.mark.parametrize(
        "name, field, value, message",
        [
            ("dirty", "baseline_eligible", False, "dirty"),
            ("traced", "trace", True, "traced"),
            ("failed", "failed", 1, "passes failed"),
            ("smoke", "seconds", 1.0, "smoke run"),
            ("BENCH_old", "benchmark", "pipeline", "not an e2e"),
        ],
    )
    def test_refusal_names_the_file_and_writes_nothing(
        self, tmp_path, db_path, capsys, name, field, value, message
    ):
        if field == "benchmark":
            document = make_legacy_snapshot()
        else:
            document = make_document()
            document[field] = value
        good = write_snapshot(tmp_path / "good.json", make_document())
        snap = write_snapshot(tmp_path / f"{name}.json", document)
        # A refused file in the list refuses the whole batch.
        assert main(["perf", "record", good, snap, "--db", db_path]) == 2
        err = capsys.readouterr().err
        assert snap in err
        assert message in err
        assert not os.path.exists(db_path)


class TestPerfDiff:
    def _record_pair(self, tmp_path, db_path, second: list[dict]) -> None:
        paths = []
        for documents, tag in ((commit_set("1" * 40, day=1), "a"), (second, "b")):
            for document in documents:
                paths.append(write_snapshot(
                    tmp_path / f"{tag}{document['seed']}.json", document
                ))
        assert main(["perf", "record", *paths, "--db", db_path]) == 0

    def test_identical_runs_exit_zero(self, tmp_path, db_path, capsys):
        self._record_pair(tmp_path, db_path, commit_set("2" * 40, day=2))
        assert main(["perf", "diff", "--db", db_path]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, db_path, capsys):
        second = [degraded(d, 0.7) for d in commit_set("2" * 40, day=2)]
        self._record_pair(tmp_path, db_path, second)
        assert main(["perf", "diff", "--db", db_path]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert re.search(r"delivered_eps .* regression$", out, re.MULTILINE)

    def test_benchmark_filter(self, tmp_path, db_path, capsys):
        self._record_pair(tmp_path, db_path, commit_set("2" * 40, day=2))
        assert main(
            ["perf", "diff", "--db", db_path, "--benchmark", "csv-events-pipe"]
        ) == 0
        assert "benchmark csv-events-pipe" in capsys.readouterr().out

    def test_empty_database_is_an_error(self, db_path, capsys):
        assert main(["perf", "diff", "--db", db_path]) == 2
        assert "no records" in capsys.readouterr().err


class TestPerfLog:
    def test_empty_database_exits_one(self, db_path, capsys):
        assert main(["perf", "log", "--db", db_path]) == 1
        assert "no perf records" in capsys.readouterr().err

    def test_lists_records(self, tmp_path, db_path, capsys):
        snap = write_snapshot(tmp_path / "s.json", make_document())
        assert main(["perf", "record", snap, "--db", db_path]) == 0
        capsys.readouterr()
        assert main(["perf", "log", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "csv-events-pipe" in out
        assert "delivered_eps=404,000" in out
        assert "peak_rss_mb=42.42" in out

    def test_experiments_md_embeds_the_committed_log(self, capsys):
        # EXPERIMENTS.md quotes `graphtides perf log` over the committed
        # database verbatim; re-record both together.
        assert main(["perf", "log"]) == 0
        log = capsys.readouterr().out
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        embedded = re.search(
            r"<!-- perf log -->\n```text\n(.*?)```\n<!-- /perf log -->", text, re.DOTALL
        )
        assert embedded is not None, "EXPERIMENTS.md lost its perf log block"
        assert embedded.group(1) == log
