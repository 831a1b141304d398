"""Tests for the convert / shape / faults / suite CLI commands."""

import pytest

from repro.cli import main
from repro.core.events import PauseEvent, SpeedEvent
from repro.core.stream import GraphStream
from repro.graph.builders import build_graph


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.csv"
    main(["generate", "--rounds", "200", "--seed", "1", "-o", str(path)])
    return path


class TestConvert:
    def test_edge_list_conversion(self, tmp_path, capsys):
        edge_list = tmp_path / "graph.txt"
        edge_list.write_text("# comment\n1 2\n2 3\n3 1\n")
        output = tmp_path / "stream.csv"
        code = main(["convert", str(edge_list), "-o", str(output)])
        assert code == 0
        stream = GraphStream.read(output)
        graph, report = build_graph(stream)
        assert not report.failed
        assert graph.edge_count == 3
        assert "converted" in capsys.readouterr().out

    def test_shuffle_seed(self, tmp_path):
        edge_list = tmp_path / "graph.txt"
        edge_list.write_text("\n".join(f"{i} {i+1}" for i in range(30)))
        plain = tmp_path / "plain.csv"
        shuffled = tmp_path / "shuffled.csv"
        main(["convert", str(edge_list), "-o", str(plain)])
        main(["convert", str(edge_list), "--shuffle-seed", "7", "-o", str(shuffled)])
        assert plain.read_text() != shuffled.read_text()

    def test_stream_transcode_round_trip(self, stream_file, tmp_path, capsys):
        """``--to`` switches convert into stream-transcode mode; the
        CSV → binary → CSV loop is byte-identical (the CI gate)."""
        binary = tmp_path / "stream.gtb"
        back = tmp_path / "back.csv"
        assert main(["convert", str(stream_file), "--to", "binary",
                     "-o", str(binary)]) == 0
        assert binary.read_bytes()[:4] == b"GTB1"
        assert main(["convert", str(binary), "--to", "csv",
                     "-o", str(back)]) == 0
        assert stream_file.read_bytes().rstrip(b"\n") == (
            back.read_bytes().rstrip(b"\n")
        )
        out = capsys.readouterr().out
        assert "(binary)" in out and "(csv)" in out


class TestGenerateFormat:
    def test_binary_output_matches_csv(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        bin_path = tmp_path / "s.gtb"
        args = ["generate", "--rounds", "100", "--seed", "5"]
        assert main(args + ["-o", str(csv_path)]) == 0
        assert main(args + ["--format", "binary", "-o", str(bin_path)]) == 0
        assert bin_path.read_bytes()[:4] == b"GTB1"
        assert list(GraphStream.read(bin_path)) == list(
            GraphStream.read(csv_path)
        )


class TestShape:
    def test_burst(self, stream_file, tmp_path):
        output = tmp_path / "shaped.csv"
        code = main([
            "shape", str(stream_file), "-o", str(output),
            "--burst", "10", "50", "3.0",
        ])
        assert code == 0
        stream = GraphStream.read(output)
        speeds = [e.factor for e in stream if isinstance(e, SpeedEvent)]
        assert 3.0 in speeds and 1.0 in speeds

    def test_pause(self, stream_file, tmp_path):
        output = tmp_path / "shaped.csv"
        main(["shape", str(stream_file), "-o", str(output), "--pause", "20", "5"])
        stream = GraphStream.read(output)
        pauses = [e for e in stream if isinstance(e, PauseEvent)]
        assert any(p.seconds == 5 for p in pauses)

    def test_combined_shapes(self, stream_file, tmp_path):
        output = tmp_path / "shaped.csv"
        main([
            "shape", str(stream_file), "-o", str(output),
            "--ramp", "3", "1", "4", "--pause", "100", "2",
        ])
        stream = GraphStream.read(output)
        assert stream.statistics().control_events >= 4


class TestFaults:
    def test_drop(self, stream_file, tmp_path, capsys):
        output = tmp_path / "faulty.csv"
        code = main([
            "faults", str(stream_file), "-o", str(output), "--drop", "0.5",
        ])
        assert code == 0
        original = GraphStream.read(stream_file)
        faulty = GraphStream.read(output)
        assert len(list(faulty.graph_events())) < len(
            list(original.graph_events())
        )

    def test_duplicate_and_reorder(self, stream_file, tmp_path):
        output = tmp_path / "faulty.csv"
        main([
            "faults", str(stream_file), "-o", str(output),
            "--duplicate", "0.3", "--shuffle-window", "8", "--seed", "3",
        ])
        original = GraphStream.read(stream_file)
        faulty = GraphStream.read(output)
        assert len(list(faulty.graph_events())) > len(
            list(original.graph_events())
        )


class TestRunCommand:
    def test_run_prints_report(self, stream_file, capsys):
        code = main(["run", str(stream_file), "--platform", "inmem",
                     "--level", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events processed:" in out
        assert "marker timeline:" in out

    def test_run_with_bundle(self, stream_file, tmp_path, capsys):
        bundle_dir = tmp_path / "bundles"
        code = main([
            "run", str(stream_file), "--bundle", str(bundle_dir),
            "--experiment-id", "cli-test",
        ])
        assert code == 0
        from repro.core.popper import verify_bundle

        assert verify_bundle(bundle_dir / "cli-test") == []

    def test_run_all_platforms(self, stream_file):
        for platform in ("weaver-batched", "kineograph", "graphtau"):
            assert main(["run", str(stream_file), "--platform", platform]) == 0


class TestPlotCommand:
    @pytest.fixture
    def result_log(self, stream_file, tmp_path):
        bundle_dir = tmp_path / "bundles"
        main([
            "run", str(stream_file), "--level", "1",
            "--bundle", str(bundle_dir), "--experiment-id", "plot-test",
        ])
        return bundle_dir / "plot-test" / "result.jsonl"

    def test_list_metrics(self, result_log, capsys):
        code = main(["plot", str(result_log), "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingress_rate" in out
        assert "cpu_load" in out

    def test_plot_metric(self, result_log, capsys):
        code = main([
            "plot", str(result_log), "--metric", "ingress_rate",
            "--source", "replayer", "--height", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingress_rate @ replayer" in out
        assert "█" in out

    def test_requires_metric_or_list(self, result_log, capsys):
        assert main(["plot", str(result_log)]) == 2


class TestSuiteCommand:
    def test_suite_runs(self, capsys):
        code = main([
            "suite", "--platforms", "inmem", "--workloads", "uniform-small",
            "--repetitions", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "inmem" in out
        assert "uniform-small" in out

    def test_unknown_platform(self, capsys):
        code = main(["suite", "--platforms", "bogus"])
        assert code == 2

    def test_unknown_workload(self, capsys):
        code = main(["suite", "--platforms", "inmem", "--workloads", "bogus"])
        assert code == 2


class TestTraceCommands:
    def _load(self, path):
        import json

        return json.loads(path.read_text(encoding="utf-8"))

    def test_replay_trace_out_writes_a_valid_trace(
        self, stream_file, tmp_path, capsys
    ):
        from repro.core.tracing import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        code = main([
            "replay", str(stream_file), "--rate", "100000",
            "--batch-size", "32", "--trace-out", str(trace_path),
        ])
        assert code == 0
        payload = self._load(trace_path)
        assert validate_chrome_trace(payload) == []
        meta = payload["otherData"]
        assert meta["mode"] == "live"
        assert meta["sample_every"] == 1024  # Dapper-style default
        assert meta["accounting"]["closed"]
        err = capsys.readouterr().err
        assert "trace:" in err
        assert "accounting closed" in err

    def test_replay_trace_sample_override(self, stream_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "replay", str(stream_file), "--rate", "100000",
            "--trace-out", str(trace_path), "--trace-sample", "5",
        ])
        assert code == 0
        assert self._load(trace_path)["otherData"]["sample_every"] == 5

    def test_run_trace_out_writes_a_valid_trace(self, stream_file, tmp_path):
        from repro.core.tracing import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        code = main([
            "run", str(stream_file), "--platform", "inmem",
            "--level", "1", "--trace-out", str(trace_path),
        ])
        assert code == 0
        payload = self._load(trace_path)
        assert validate_chrome_trace(payload) == []
        meta = payload["otherData"]
        assert meta["mode"] == "simulated"
        assert meta["accounting"]["in_flight"] == 0
        assert meta["accounting"]["closed"]

    def test_trace_validate_accepts_an_exported_trace(
        self, stream_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        main([
            "run", str(stream_file), "--platform", "inmem",
            "--trace-out", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["trace", "--validate", str(trace_path)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_trace_validate_rejects_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_trace_validate_rejects_wrong_schema(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"foo": 1}', encoding="utf-8")
        assert main(["trace", "--validate", str(wrong)]) == 1
        assert "traceEvents" in capsys.readouterr().err

    def test_trace_convert_from_a_result_log(self, tmp_path, capsys):
        from repro.core.tracing import (
            TraceClock,
            Tracer,
            validate_chrome_trace,
        )

        tracer = Tracer(clock=TraceClock(origin=0.0))
        tracer.record_span("emitted", "replayer", 0.1, event_id=0)
        tracer.record_span("ingested", "inmem", 0.2, 0.05, event_id=0)
        log_path = tmp_path / "result.jsonl"
        tracer.result_log().write(log_path)
        out_path = tmp_path / "converted.json"
        assert main(["trace", str(log_path), "-o", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert validate_chrome_trace(self._load(out_path)) == []

    def test_trace_convert_requires_output(self, tmp_path, capsys):
        log_path = tmp_path / "result.jsonl"
        log_path.write_text("", encoding="utf-8")
        assert main(["trace", str(log_path)]) == 2
        assert "requires -o" in capsys.readouterr().err


class TestReplayScaleOut:
    """The replay command's --workers path (process-parallel replay)."""

    @pytest.fixture
    def small_stream(self, tmp_path):
        path = tmp_path / "small.csv"
        main(["generate", "--rounds", "40", "--seed", "3", "-o", str(path)])
        return path

    def test_sharded_tcp_replay_counts_all_events(
        self, small_stream, capsys
    ):
        from repro.core.connectors import TcpReceiver
        from repro.core.stream import GraphStream

        expected = len(list(GraphStream.read(small_stream).graph_events()))
        with TcpReceiver(max_connections=2) as receiver:
            code = main([
                "replay", str(small_stream),
                "--rate", "100000", "--workers", "2",
                "--transport", "tcp", "--port", str(receiver.port),
            ])
        assert code == 0
        assert receiver.counter.total == expected
        err = capsys.readouterr().err
        assert "shards: 2 workers (round-robin, events)" in err
        assert f"replayed {expected} events" in err

    def test_raw_emission_over_tcp(self, small_stream, capsys):
        from repro.core.connectors import TcpReceiver
        from repro.core.stream import GraphStream

        expected = len(list(GraphStream.read(small_stream).graph_events()))
        with TcpReceiver(max_connections=2) as receiver:
            code = main([
                "replay", str(small_stream),
                "--rate", "100000", "--workers", "2", "--emission", "raw",
                "--transport", "tcp", "--port", str(receiver.port),
            ])
        assert code == 0
        assert receiver.counter.total == expected
        assert "(round-robin, raw)" in capsys.readouterr().err

    def test_decode_emission_binary_format_over_tcp(
        self, small_stream, capsys
    ):
        from repro.core.connectors import TcpReceiver
        from repro.core.stream import GraphStream

        expected = len(list(GraphStream.read(small_stream).graph_events()))
        with TcpReceiver(max_connections=2) as receiver:
            code = main([
                "replay", str(small_stream),
                "--rate", "100000", "--workers", "2",
                "--emission", "decode", "--format", "binary",
                "--transport", "tcp", "--port", str(receiver.port),
            ])
        assert code == 0
        assert receiver.counter.total == expected
        assert "(round-robin, decode)" in capsys.readouterr().err

    def test_trace_out_rejected_with_workers(self, small_stream, tmp_path):
        code = main([
            "replay", str(small_stream), "--workers", "2",
            "--trace-out", str(tmp_path / "trace.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("emission", ["decode", "raw"])
    def test_one_worker_runs_the_requested_emission(
        self, small_stream, emission, capsys
    ):
        from repro.core.connectors import TcpReceiver

        expected = len(list(GraphStream.read(small_stream).graph_events()))
        with TcpReceiver() as receiver:
            code = main([
                "replay", str(small_stream), "--rate", "100000",
                "--emission", emission,
                "--transport", "tcp", "--port", str(receiver.port),
            ])
        assert code == 0
        assert receiver.counter.total == expected
        err = capsys.readouterr().err
        assert f"shards: 1 workers (round-robin, {emission})" in err

    def test_trace_out_refusal_names_the_emission(
        self, small_stream, tmp_path, capsys
    ):
        code = main([
            "replay", str(small_stream), "--emission", "raw",
            "--trace-out", str(tmp_path / "trace.json"),
        ])
        assert code == 2
        assert "--emission raw" in capsys.readouterr().err

    def test_auto_format_keeps_a_binary_source_binary(
        self, small_stream, tmp_path, capfdbinary
    ):
        binary = tmp_path / "small.gtb"
        assert main(["convert", str(small_stream), "--to", "binary",
                     "-o", str(binary)]) == 0
        capfdbinary.readouterr()
        assert main(["replay", str(binary), "--rate", "1000000"]) == 0
        assert capfdbinary.readouterr().out.startswith(b"GTB1")

    def test_per_worker_fault_breakdown_printed(self, small_stream, capsys):
        from repro.core.connectors import TcpReceiver

        with TcpReceiver(max_connections=2) as receiver:
            code = main([
                "replay", str(small_stream),
                "--rate", "100000", "--workers", "2",
                "--transport", "tcp", "--port", str(receiver.port),
                "--chaos-send-failure", "0.05", "--chaos-seed", "5",
                "--retry-attempts", "4",
            ])
        assert code == 0
        err = capsys.readouterr().err
        assert "faults:" in err
        assert "per worker #0" in err
