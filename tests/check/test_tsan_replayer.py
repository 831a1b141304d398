"""Tsan-instrumented replay: the reader/emitter hand-off is race-free.

A CSV file replayed onto a CSV wire is read inline on the emitting
thread, so the file sources here are GTB1: transcoding a binary file
to CSV lines keeps the reader thread and its hand-off queue.
"""

from __future__ import annotations

import pytest

from repro.core import binfmt, codec, events
from repro.core.connectors import CallbackTransport
from repro.core.replayer import LiveReplayer
from repro.check.tsan import Monitor, instrument, watch_threads
from repro.errors import ReplayError

#: Replayer fields the emitter thread reads while the reader runs.
REPLAYER_FIELDS = (
    "_base_rate",
    "_source",
    "_read_chunk",
    "reader_leaked",
)

#: Per-attempt reader fields both threads can touch.
READER_FIELDS = ("queue", "error")


def _write_stream(path, count=3000):
    codec.write_stream_file(
        path,
        (events.add_vertex(i, f"s{i}") for i in range(count)),
        format="binary",
    )
    return path


def _instrument_replay(replayer, monitor):
    """Instrument the replayer plus every reader it creates."""
    instrument(replayer, monitor, fields=REPLAYER_FIELDS)
    original = replayer._new_reader

    def make_reader():
        reader = original()
        instrument(reader, monitor, fields=READER_FIELDS)
        return reader

    replayer._new_reader = make_reader
    return replayer


def test_clean_replay_is_race_free(tmp_path, tsan_monitor):
    stream = _write_stream(tmp_path / "stream.gtb")
    received: list[str] = []
    replayer = LiveReplayer(
        stream,
        CallbackTransport(received.append),
        rate=1e6,
        batch_size=256,
    )
    _instrument_replay(replayer, tsan_monitor)
    report = replayer.run()
    assert report.events_emitted == 3000
    assert len(received) == 3000
    # Both threads actually touched the instrumented state.
    threads = {access.thread for access in tsan_monitor.accesses}
    assert len(threads) == 2
    # Race-freedom is asserted by the fixture at teardown.


def test_reader_failure_handoff_is_race_free(tmp_path):
    bad = tmp_path / "bad.gtb"
    bad.write_bytes(binfmt.MAGIC + b"\x01\x02\x03")  # truncated frame header
    monitor = Monitor()
    with watch_threads(monitor):
        replayer = LiveReplayer(
            bad,
            CallbackTransport(lambda line: None),
            rate=1e6,
        )
        _instrument_replay(replayer, monitor)
        with pytest.raises(ReplayError, match="stream source failed"):
            replayer.run()
    # The reader wrote its error field and run() read it after joining;
    # the join edge must order those accesses, so no race is reported.
    error_accesses = [
        access for access in monitor.accesses if access.field == "error"
    ]
    assert any(access.write for access in error_accesses)
    assert len({access.thread for access in error_accesses}) == 2
    monitor.assert_race_free()


def test_iterable_source_replay_is_race_free(tsan_monitor):
    source = [events.add_vertex(i) for i in range(500)]
    replayer = LiveReplayer(
        source,
        CallbackTransport(lambda line: None),
        rate=1e6,
        batch_size=64,
        read_chunk=50,
    )
    _instrument_replay(replayer, tsan_monitor)
    report = replayer.run()
    assert report.events_emitted == 500
