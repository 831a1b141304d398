"""The per-pass oracle must fail on injected faults, without aborting."""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from benchmarks.e2e import oracle
from benchmarks.e2e.receiver import ReceiverProcess
from benchmarks.e2e.runner import _Run
from benchmarks.e2e.workloads import WORKLOADS, build_inputs
from repro.core.connectors import PipeSpec, Transport


@pytest.fixture
def receiver(tmp_path):
    fifo = tmp_path / "replay.fifo"
    os.mkfifo(fifo)
    process = ReceiverProcess(str(fifo))
    try:
        yield process
    finally:
        process.close()


def _run(name: str, directory, receiver) -> _Run:
    run = _Run(WORKLOADS[name], receiver)
    run.inputs = build_inputs(WORKLOADS[name], 5, directory)
    return run


def test_truncated_csv_stream_fails_the_pass(tmp_path, receiver):
    run = _run("csv-events-pipe", tmp_path, receiver)
    assert run.one_pass() is not None
    path = run.inputs["path"]
    with open(path, "rb") as handle:
        lines = handle.readlines()
    with open(path, "wb") as handle:
        handle.writelines(lines[:-300])
    assert run.one_pass() is None
    assert (run.attempted, run.failed) == (2, 1)
    assert "the stream holds" in run.problems[0]


def test_truncated_binary_stream_fails_the_pass(tmp_path, receiver):
    run = _run("gtb-decode-shm", tmp_path, receiver)
    assert run.one_pass() is not None
    path = run.inputs["path"]
    # Cut mid-stream: past the trailing frame index, into the frames.
    os.truncate(path, os.path.getsize(path) * 3 // 5)
    assert run.one_pass() is None
    assert run.failed == 1
    # The receiver child survives a failed pass: the run goes on.
    run.inputs = build_inputs(WORKLOADS["gtb-decode-shm"], 5, tmp_path)
    assert run.one_pass() is not None


class _DropSecondBatch(Transport):
    def __init__(self, inner: Transport):
        self._inner = inner
        self._batches = 0

    def send_many(self, lines) -> None:
        self._batches += 1
        if self._batches != 2:
            self._inner.send_many(lines)

    def close(self) -> None:
        self._inner.close()


def test_transport_dropping_a_batch_fails_the_pass(tmp_path, receiver, monkeypatch):
    run = _run("csv-events-pipe", tmp_path, receiver)
    build = PipeSpec.build
    monkeypatch.setattr(PipeSpec, "build", lambda spec: _DropSecondBatch(build(spec)))
    assert run.one_pass() is None
    assert "the stream holds" in run.problems[0]


def test_simulated_run_checks():
    good = SimpleNamespace(
        events_processed=10, rejected_attempts=3, duration=1.5, drained=True
    )
    assert oracle.check_sim(10, good) == []
    assert oracle.check_sim(11, good)
    assert oracle.check_sim(10, SimpleNamespace(**{**vars(good), "drained": False}))
    signature = oracle.sim_signature(good)
    assert oracle.check_repeat(signature, signature) == []
    assert oracle.check_repeat(signature, (10, 4, 1.5))
