"""The paced loop flushes its transport before it sleeps.

Transports hold sends back to batch their writes (``ShmTransport`` 64
ring slots, ``PipeTransport``/``TcpTransport`` up to ``flush_every``
lines).  :meth:`Transport.flush` delivers what is held, the wrappers
forward it, and :class:`~repro.core.replayer.PacedLoop` calls it before
every real sleep, never before a spin, so a paced replay's events reach
the receiver with their batch while a flat-out replay keeps its write
pattern.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core import codec
from repro.core.connectors import (
    CallbackTransport,
    PipeTransport,
    ShmReceiver,
    TcpTransport,
    Transport,
)
from repro.core.events import add_vertex, pause
from repro.core.replayer import PacedLoop
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    RetryingTransport,
    RetryPolicy,
)
from repro.core.sharding import ShardedReplayer
from repro.core.tracing import Tracer, TracingTransport, shared_clock


class _Flushes(Transport):
    def __init__(self) -> None:
        self.flushes = 0

    def send_many(self, lines) -> None:
        pass

    def flush(self) -> None:
        self.flushes += 1


@pytest.mark.parametrize(
    "wrap",
    [
        lambda inner: TracingTransport(inner, Tracer()),
        lambda inner: ChaosTransport(inner, ChaosConfig(send_failure_probability=1.0)),
        lambda inner: RetryingTransport(inner, RetryPolicy(max_attempts=1)),
    ],
    ids=["tracing", "chaos", "retrying"],
)
def test_wrappers_forward_flush(wrap):
    inner = _Flushes()
    wrap(inner).flush()
    assert inner.flushes == 1


def test_the_base_transport_holds_nothing_back():
    received = []
    transport = CallbackTransport(received.append)
    transport.send_many(["a"])
    transport.flush()
    assert received == ["a"]


class TestPacedLoopFlushes:
    @staticmethod
    def _run(rate: float, batches: int) -> int:
        transport = _Flushes()
        loop = PacedLoop(rate, 1.0, shared_clock())
        loop.run([[None] * 20] * batches, len, transport.flush)
        assert loop.emitted == 20 * batches
        return transport.flushes

    def test_before_every_sleep(self):
        # A 20-event batch every 10 ms: each wait after the first is
        # far longer than the margin, so each is slept.
        assert self._run(2_000.0, 10) == 9

    def test_never_when_flat_out(self):
        assert self._run(1e12, 200) == 0

    def test_before_a_pause(self):
        transport = _Flushes()
        PacedLoop(1e12, 1.0, shared_clock()).run([pause(0.001)], len, transport.flush)
        assert transport.flushes == 1


def test_pipe_transport_flush_writes_held_lines():
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    transport = PipeTransport(write_fd, flush_every=512)
    try:
        transport.send_many(["a", "b"])
        with pytest.raises(BlockingIOError):
            os.read(read_fd, 100)
        transport.flush()
        assert os.read(read_fd, 100) == b"a\nb\n"
    finally:
        transport.close()
        os.close(read_fd)


def test_tcp_transport_flush_sends_held_lines():
    with socket.create_server(("127.0.0.1", 0)) as server:
        transport = TcpTransport("127.0.0.1", server.getsockname()[1])
        connection, __ = server.accept()
        with connection:
            connection.settimeout(0.1)
            try:
                transport.send_many(["a", "b"])
                with pytest.raises(socket.timeout):
                    connection.recv(100)
                transport.flush()
                connection.settimeout(5.0)
                assert connection.recv(100) == b"a\nb\n"
            finally:
                transport.close()


def test_paced_shm_replay_reaches_the_receiver_while_it_runs(tmp_path):
    """4,000 events at 2,000 events/s in batches of 32: without a flush
    before each sleep the ring sees nothing until 64 slots (2,048
    events, about a second) are held back."""
    path = tmp_path / "stream.csv"
    codec.write_stream_file(path, [add_vertex(i) for i in range(4_000)])
    with ShmReceiver() as receiver:
        replayer = ShardedReplayer(
            str(path), receiver.specs, rate=2_000.0, workers=1, batch_size=32
        )
        reports = []
        thread = threading.Thread(target=lambda: reports.append(replayer.run()))
        thread.start()
        time.sleep(0.6)
        counted = receiver.counter.total
        thread.join(10.0)
    assert receiver.error is None
    assert reports[0].events_emitted == 4_000
    assert receiver.counter.total == 4_000
    # About 1,200 events are due by 0.6 s.
    assert counted >= 600, counted
