"""Tests for the graphtides command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.core.stream import GraphStream


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--model", "social", "--rounds", "100", "-o", "x.csv"]
        )
        assert args.model == "social"
        assert args.rounds == 100

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--model", "nope", "-o", "x"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3a"])
        assert args.figure == "fig3a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9z"])


class TestCommands:
    def test_generate_writes_stream(self, tmp_path, capsys):
        output = tmp_path / "stream.csv"
        code = main(
            ["generate", "--model", "uniform", "--rounds", "200", "-o", str(output)]
        )
        assert code == 0
        stream = GraphStream.read(output)
        assert len(stream) > 200
        assert "wrote" in capsys.readouterr().out

    def test_generate_deterministic_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--rounds", "100", "--seed", "5", "-o", str(a)])
        main(["generate", "--rounds", "100", "--seed", "5", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_inspect_reports_statistics(self, tmp_path, capsys):
        output = tmp_path / "stream.csv"
        main(["generate", "--model", "social", "--rounds", "150", "-o", str(output)])
        capsys.readouterr()
        code = main(["inspect", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "final graph:" in out

    def test_replay_stdout(self, tmp_path, capsys):
        output = tmp_path / "stream.csv"
        main(["generate", "--rounds", "50", "-o", str(output)])
        capsys.readouterr()
        code = main(["replay", str(output), "--rate", "100000"])
        assert code == 0
        captured = capsys.readouterr()
        assert "replayed" in captured.err
        assert "ADD_VERTEX" in captured.out

    def test_replay_summary_prints_the_pacing_margin(self, tmp_path, capsys):
        output = tmp_path / "stream.csv"
        main(["generate", "--rounds", "50", "-o", str(output)])
        capsys.readouterr()
        code = main(
            ["replay", str(output), "--rate", "20000", "--batch-size", "8"]
        )
        assert code == 0
        summary = capsys.readouterr().err
        found = re.search(r"pacing margin (\d+\.\d{3}) ms\)", summary)
        assert found, summary
        assert 0.05 <= float(found.group(1)) <= 1.0  # its floor and ceiling

    def test_experiment_fig3b_scaled(self, capsys):
        code = main(["experiment", "fig3b", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept-pace" in out

    def test_experiment_fig3c_scaled(self, capsys):
        code = main(["experiment", "fig3c", "--scale", "0.01"])
        assert code == 0
        assert "timestamper" in capsys.readouterr().out

    def test_experiment_fig3d_scaled(self, capsys):
        code = main(["experiment", "fig3d", "--scale", "0.03"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backlog drain" in out
        assert "rank error" in out
