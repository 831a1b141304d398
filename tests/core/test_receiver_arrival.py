"""Receivers count CSV lines as they arrive, not per 64 KiB read.

A pipe or TCP receiver reads whatever its fd holds and records the lines
read at most once per quantum (``connectors._RECORD_QUANTUM``), so a
small write is counted while its writer stays open, a flood is recorded
once per quantum, and a paced replay's receiver windows hold the paced
rate.  The binary frame wire keeps its per-frame counting.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import (
    _RECORD_QUANTUM,
    PipeReceiver,
    PipeSpec,
    PipeTransport,
    ShmReceiver,
    TcpReceiver,
    TcpSpec,
    _count_stream,
)
from repro.core.events import add_vertex
from repro.core.sharding import ShardedReplayer

LINE = b"ADD_VERTEX,1,\n"


class _Records:
    """A receiver counter that keeps every ``record(count)`` call."""

    def __init__(self) -> None:
        self.counts: list[int] = []
        self.total = 0

    def record(self, count: int = 1) -> None:
        self.counts.append(count)
        self.total += count


def _wait_for(receiver, total: int, timeout: float) -> float:
    """Seconds until ``receiver`` has counted ``total`` (or the timeout)."""
    started = time.monotonic()
    while receiver.counter.total < total:
        if time.monotonic() - started > timeout:
            break
        time.sleep(0.002)
    return time.monotonic() - started


class TestCountedOnArrival:
    def test_pipe_write_is_counted_while_the_writer_stays_open(self):
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        receiver.start()
        try:
            os.write(write_fd, LINE * 300)
            waited = _wait_for(receiver, 300, timeout=2.0)
            assert receiver.counter.total == 300
            assert waited < 0.2
        finally:
            os.close(write_fd)
            receiver.join(5.0)
            receiver.close()
        assert receiver.counter.total == 300

    def test_tcp_write_is_counted_while_the_writer_stays_open(self):
        with TcpReceiver() as receiver:
            with socket.create_connection((receiver.host, receiver.port)) as client:
                client.sendall(LINE * 300)
                waited = _wait_for(receiver, 300, timeout=2.0)
                assert receiver.counter.total == 300
                assert waited < 0.2
        assert receiver.counter.total == 300

    def test_split_lines_count_once_and_a_last_line_counts_at_eof(self):
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        receiver.start()
        try:
            for piece in (b"ADD_VERTEX,1", b",\nADD_VER", b"TEX,2,\nADD_VERTEX,3,"):
                os.write(write_fd, piece)
                time.sleep(0.02)
            _wait_for(receiver, 2, timeout=2.0)
            time.sleep(0.02)
            # The third line has no newline yet: it is not an event.
            assert receiver.counter.total == 2
        finally:
            os.close(write_fd)
            receiver.join(5.0)
            receiver.close()
        assert receiver.counter.total == 3

    def test_a_flood_is_recorded_at_most_once_per_quantum(self):
        read_fd, write_fd = os.pipe()
        block = b"\n" * (1 << 16)
        blocks = 600

        def flood() -> None:
            with os.fdopen(write_fd, "wb", buffering=0) as writer:
                for __ in range(blocks):
                    writer.write(block)

        records = _Records()
        writer = threading.Thread(target=flood)
        with os.fdopen(read_fd, "rb", buffering=1 << 16) as reader:
            writer.start()
            started = time.monotonic()
            _count_stream(reader, records.record)
            elapsed = time.monotonic() - started
        writer.join(5.0)
        assert records.total == blocks * len(block)
        assert len(records.counts) <= elapsed / _RECORD_QUANTUM + 2, (
            len(records.counts),
            elapsed,
        )

    def test_binary_wire_is_still_counted_per_frame(self):
        frames = [
            binfmt.encode_graph_frame([add_vertex(i) for i in range(n)])
            for n in (3, 256, 1, 40)
        ]
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        records = _Records()
        receiver.counter = records
        receiver.start()
        transport = PipeTransport(write_fd)
        try:
            for frame in frames:
                transport.send_frame(frame, binfmt.frame_info(frame)[1])
        finally:
            transport.close()
            receiver.join(5.0)
            receiver.close()
        assert records.counts == [3, 256, 1, 40]


def _paced_windows(tmp_path, transport: str) -> list[float]:
    """Receiver window rates of a 10k events/s replay in 0.25-s windows."""
    path = tmp_path / "stream.csv"
    codec.write_stream_file(path, [add_vertex(i) for i in range(20_000)])
    replay = dict(rate=10_000.0, workers=1, batch_size=25)
    if transport == "pipe":
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd, window_seconds=0.25)
        receiver.start()
        try:
            report = ShardedReplayer(str(path), PipeSpec(target=write_fd), **replay).run()
        finally:
            receiver.join(5.0)
            receiver.close()
    elif transport == "tcp":
        with TcpReceiver(window_seconds=0.25) as receiver:
            report = ShardedReplayer(
                str(path), TcpSpec(port=receiver.port), **replay
            ).run()
    else:
        with ShmReceiver(window_seconds=0.25) as receiver:
            report = ShardedReplayer(str(path), receiver.specs, **replay).run()
        assert receiver.error is None
    assert report.events_emitted == 20_000
    assert receiver.counter.total == 20_000
    return receiver.counter.rates()


@pytest.mark.parametrize("transport", ["pipe", "tcp", "shm"])
def test_paced_replay_windows_hold_the_rate(tmp_path, transport):
    """Every completed receiver window of a paced replay is within 5%
    of the paced rate: counts arrive with their batches, not in lumps
    of a 64 KiB read or a held-back write buffer."""
    rates = _paced_windows(tmp_path, transport)
    assert len(rates) >= 6, rates
    assert all(9_500 <= rate <= 10_500 for rate in rates), rates
