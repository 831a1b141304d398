"""Transport equivalence and shared-memory lifecycle integration tests.

The three local transports (pipe, TCP, shared-memory ring) must be
*observationally identical*: for the same source stream, worker count
and batch size, the sharded replayer's report and the receiver's
independent count must agree across all of them — the shm fast path is
an optimization, never a semantic change.

The lifecycle half pins the ``/dev/shm`` guarantee: no segment survives
a normal shutdown, a crashed producer, or a chaos-failed replay.
"""

from __future__ import annotations

import os

import pytest

from repro.core import binfmt, codec, witness
from repro.core.connectors import (
    PipeReceiver,
    PipeSpec,
    ShmReceiver,
    TcpReceiver,
    TcpSpec,
)
from repro.core.events import add_edge, add_vertex, marker
from repro.core.sharding import ShardedReplayer

WORKERS = 2
RATE = 2_000_000


def _events(n: int = 600):
    out = []
    for i in range(n):
        out.append(add_vertex(i))
        if i:
            out.append(add_edge(i - 1, i))
    out.append(marker("eq-done"))
    return out


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("equivalence")
    events = _events()
    csv_path = tmp / "stream.csv"
    codec.write_stream_file(csv_path, events, format="csv")
    bin_path = tmp / "stream.gtb"
    binfmt.write_binary_stream(
        bin_path, events, witness_path=witness.witness_path(bin_path)
    )
    return {"csv": csv_path, "binary": bin_path}


def _replay(path, specs, batch_size):
    return ShardedReplayer(
        path,
        specs,
        rate=RATE,
        workers=WORKERS,
        emission="decode",
        batch_size=batch_size,
    ).run()


def _run_pipe(path, batch_size):
    pipes = [os.pipe() for __ in range(WORKERS)]
    receivers = [PipeReceiver(read_fd) for read_fd, __ in pipes]
    for receiver in receivers:
        receiver.start()
    try:
        report = _replay(
            path,
            [PipeSpec(target=write_fd) for __, write_fd in pipes],
            batch_size,
        )
    finally:
        for __, write_fd in pipes:
            try:
                os.close(write_fd)
            except OSError:
                pass
    for receiver in receivers:
        receiver.join(30.0)
        receiver.close()
    return report, sum(receiver.counter.total for receiver in receivers)


def _run_tcp(path, batch_size):
    with TcpReceiver(max_connections=WORKERS) as receiver:
        report = _replay(path, TcpSpec(port=receiver.port), batch_size)
    return report, receiver.counter.total


def _run_shm(path, batch_size):
    with ShmReceiver(max_producers=WORKERS) as receiver:
        report = _replay(path, receiver.specs, batch_size)
    if receiver.error is not None:
        raise receiver.error
    return report, receiver.counter.total


_RUNNERS = {"pipe": _run_pipe, "tcp": _run_tcp, "shm": _run_shm}


class TestTransportEquivalence:
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_identical_counts_across_transports(
        self, streams, fmt, batch_size
    ):
        path = streams[fmt]
        emitted = {}
        delivered = {}
        for transport, runner in _RUNNERS.items():
            report, total = runner(path, batch_size)
            emitted[transport] = report.events_emitted
            delivered[transport] = total
        assert len(set(emitted.values())) == 1, emitted
        assert len(set(delivered.values())) == 1, delivered
        # The replayer's own count and the receivers' independent count
        # must agree too — no transport may drop or duplicate.
        assert emitted["shm"] == delivered["shm"]


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


class TestShmLifecycle:
    def test_normal_shutdown_leaves_no_segment(self, streams):
        with ShmReceiver(max_producers=WORKERS) as receiver:
            names = [spec.name for spec in receiver.specs]
            assert all(_segment_exists(name) for name in names)
            _replay(streams["binary"], receiver.specs, 256)
        assert receiver.error is None
        assert not any(_segment_exists(name) for name in names)

    def test_crashed_producer_leaves_no_segment(self, streams):
        import multiprocessing

        def crash(spec):
            transport = spec.build()
            transport.send_frame(
                binfmt.encode_graph_frame([add_vertex(1)]), 1
            )
            transport.flush()
            os._exit(1)  # no EOF, no close: a hard producer crash

        ctx = multiprocessing.get_context("fork")
        with ShmReceiver(max_producers=1, drain_timeout=10.0) as receiver:
            name = receiver.specs[0].name
            child = ctx.Process(target=crash, args=(receiver.specs[0],))
            child.start()
            child.join(30.0)
            assert child.exitcode == 1
        assert not _segment_exists(name)

    def test_chaos_send_failures_leave_no_segment(self, streams):
        from repro.core.replayer import LiveReplayer
        from repro.core.resilience import ChaosConfig, ChaosTransport
        from repro.errors import GraphTidesError

        receiver = ShmReceiver(max_producers=1, drain_timeout=5.0)
        name = receiver.specs[0].name
        receiver.start()
        try:
            transport = ChaosTransport(
                receiver.specs[0].build(),
                ChaosConfig(send_failure_probability=1.0, seed=3),
            )
            with pytest.raises(GraphTidesError):
                LiveReplayer(
                    _events(50), transport, rate=RATE, batch_size=1
                ).run()
            transport.close()
        finally:
            receiver.close()
        assert not _segment_exists(name)

    def test_receiver_close_unblocks_stalled_producer(self):
        from repro.errors import ConnectorError

        receiver = ShmReceiver(max_producers=1, slots=16, arena_bytes=4096)
        # Never started: nothing drains, so a pushing producer fills the
        # tiny ring and blocks — close() must fail it fast, not stall.
        spec = receiver.specs[0]
        spec = type(spec)(name=spec.name, stall_timeout=30.0)
        transport = spec.build()
        name = receiver.specs[0].name
        import threading

        error = []

        def produce():
            try:
                for i in range(10_000):
                    transport.send_many([f"v,{i}"])
                transport.flush()
            except ConnectorError as exc:
                error.append(exc)

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        receiver.close()
        thread.join(15.0)
        assert not thread.is_alive()
        assert error, "producer should fail once the consumer closed"
        assert not _segment_exists(name)
