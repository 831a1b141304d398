"""Tsan-instrumented replay: the receiver's shared counters are race-free.

A replay reads its source on the emitting thread, so a replayer has no
second thread.  The threads that share state are the receiver's: a
:class:`ShardedReplayer` of two disjoint sources opens one TCP
connection per worker, and :class:`TcpReceiver` reads each on its own
thread, drawing ingest ids from ``_next_id`` and counting into one
:class:`WindowCounter`.
"""

from __future__ import annotations

import contextlib
import os
import time

import pytest

from repro.core import codec, events
from repro.core.connectors import PipeReceiver, TcpReceiver, TcpSpec
from repro.core.stream import GraphStream
from repro.core.sharding import ShardedReplayer
from repro.check.tsan import Monitor, instrument, watch_threads
from repro.errors import ReplayError

#: Receiver fields every connection's reader thread writes.
RECEIVER_FIELDS = ("_next_id",)

#: Counter fields every reader thread writes through ``record``.
COUNTER_FIELDS = ("total", "_current_start", "_current_count", "_windows")

EVENTS = 3000


def _write_stream(path, count=EVENTS, stream_format="csv", first=0):
    codec.write_stream_file(
        path,
        (events.add_vertex(i, f"s{i}") for i in range(first, first + count)),
        format=stream_format,
    )
    return path


def _write_sources(tmp_path, stream_format="csv", count=EVENTS // 2):
    """Two disjoint streams of ``count`` vertices, one per worker."""
    suffix = "gtb" if stream_format == "binary" else "csv"
    return [
        str(_write_stream(
            tmp_path / f"s{index}.{suffix}", count, stream_format, index * count
        ))
        for index in range(2)
    ]


def _instrumented_receiver(monitor, id_lock=None):
    """A 2-connection TCP receiver with its shared fields instrumented;
    ``id_lock`` replaces the id lock before its locks are wrapped."""
    receiver = TcpReceiver(max_connections=2)
    if id_lock is not None:
        receiver._id_lock = id_lock
    instrument(receiver, monitor, fields=RECEIVER_FIELDS)
    instrument(receiver.counter, monitor, fields=COUNTER_FIELDS)
    return receiver


def _replay(sources, receiver, **kwargs):
    with receiver:
        report = ShardedReplayer(
            sources,
            TcpSpec(port=receiver.port),
            rate=1e6,
            workers=2,
            batch_size=64,
            **kwargs,
        ).run()
    return report


def _writer_threads(monitor):
    """The threads that wrote an instrumented field."""
    return {access.thread for access in monitor.accesses if access.write}


def _assert_clean_file_replay(sources, monitor):
    receiver = _instrumented_receiver(monitor)
    report = _replay(sources, receiver)
    assert report.events_emitted == EVENTS
    assert receiver.counter.total == EVENTS
    # Both connections' reader threads touched the shared state.
    assert len(_writer_threads(monitor)) >= 2
    # Race-freedom is asserted by the fixture at teardown.


def test_clean_replay_is_race_free(tmp_path, tsan_monitor):
    _assert_clean_file_replay(_write_sources(tmp_path), tsan_monitor)


def test_binary_frame_replay_is_race_free(tmp_path, tsan_monitor):
    _assert_clean_file_replay(
        _write_sources(tmp_path, stream_format="binary"), tsan_monitor
    )


def test_iterable_source_replay_is_race_free(tsan_monitor):
    sources = [
        GraphStream([events.add_vertex(i) for i in range(start, start + 250)])
        for start in (0, 250)
    ]
    receiver = _instrumented_receiver(tsan_monitor)
    report = _replay(sources, receiver)
    assert report.events_emitted == 500
    assert receiver.counter.total == 500
    assert len(_writer_threads(tsan_monitor)) >= 2


def test_receiver_totals_are_read_after_a_join(tmp_path, tsan_monitor):
    """Both receivers join their reader threads on exit even when the
    readers have already finished, so a total read afterwards is
    ordered after every count."""
    stream = _write_stream(tmp_path / "s.csv", count=100)
    read, write = os.pipe()
    pipe = PipeReceiver(read)
    tcp = TcpReceiver()
    for receiver in (pipe, tcp):
        instrument(receiver.counter, tsan_monitor, fields=COUNTER_FIELDS)
    with pipe:
        with os.fdopen(write, "wb") as out:
            out.write(stream.read_bytes())
        time.sleep(0.2)  # the reader sees EOF and finishes first
    with tcp:
        ShardedReplayer(str(stream), TcpSpec(port=tcp.port), rate=1e6).run()
        time.sleep(0.2)
    assert pipe.counter.total == tcp.counter.total == 100


def test_reader_failure_handoff_is_race_free(tmp_path):
    """A worker refuses a bad line after both connections delivered
    events; the test thread reads the counts only after the receiver
    joined its readers, and the join edge orders those accesses."""
    # Each source's first 64 KiB block is sent before the bad line's
    # block is refused.
    pad = "x" * 64
    sources = []
    for index in range(2):
        lines = [f"ADD_VERTEX,{index * EVENTS + i},{pad}" for i in range(EVENTS)]
        lines.append("ADD_VERTEX,abc,")
        bad = tmp_path / f"bad-{index}.csv"
        bad.write_text("\n".join(lines) + "\n")
        sources.append(str(bad))
    monitor = Monitor()
    with watch_threads(monitor):
        receiver = _instrumented_receiver(monitor)
        with pytest.raises(ReplayError, match="stream source failed"):
            _replay(sources, receiver)
        assert 0 < receiver.counter.total <= 2 * EVENTS
    assert len(_writer_threads(monitor)) >= 2
    monitor.assert_race_free()


def test_unlocked_id_counter_is_reported(tmp_path):
    """The oracle can fail: with the id lock replaced by a no-op, the
    two reader threads' writes of ``_next_id`` are a race."""
    monitor = Monitor()
    with watch_threads(monitor):
        receiver = _instrumented_receiver(
            monitor, id_lock=contextlib.nullcontext()
        )
        _replay(_write_sources(tmp_path), receiver)
    races = monitor.races()
    assert races
    assert {race.field for race in races} == {"_next_id"}
