"""Pacing of every source read path through the sharded replayer.

Each case sends a CSV or binary wire from one of the three sources a
replay reads on its emitting thread: ``events``, an in-memory list;
``decode``, a file of the other format, parsed and re-encoded; and
``raw``, a file of the wire's own format, sent as stored bytes.  All
run on the same paced loop, so each must respect the target rate,
rescale it on ``SPEED``, stretch by a ``PAUSE``, record markers and
report per-window rates.  One in-process worker writing to
``/dev/null`` keeps the timing free of receiver effects.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import PipeSpec
from repro.core.events import add_vertex, marker, pause, speed
from repro.core.sharding import ShardedReplayer

RATE = 20_000.0
EVENTS = 3000
BATCH = 32

MODES = [
    pytest.param(source, fmt, id=f"{source}-{fmt}")
    for source in ("events", "decode", "raw")
    for fmt in ("csv", "binary")
]

_OTHER = {"csv": "binary", "binary": "csv"}


def _graph(count: int, first: int = 0):
    return [add_vertex(first + i) for i in range(count)]


def _write(tmp_path, fmt: str, events) -> str:
    if fmt == "binary":
        path = tmp_path / "stream.gtb"
        binfmt.write_binary_stream(path, events, batch_records=BATCH)
    else:
        path = tmp_path / "stream.csv"
        codec.write_stream_file(path, events)
    return str(path)


def _replay(
    tmp_path, source: str, fmt: str, events, window_seconds: float = 1.0
):
    """Replay ``events`` onto a ``fmt`` wire from a ``source`` of
    :data:`MODES`."""
    stored = {"events": None, "decode": _OTHER[fmt], "raw": fmt}[source]
    return ShardedReplayer(
        events if stored is None else _write(tmp_path, stored, events),
        PipeSpec(target=os.devnull),
        rate=RATE,
        workers=1,
        stream_format=fmt,
        window_seconds=window_seconds,
        batch_size=BATCH,
    ).run()


@pytest.mark.parametrize("source, fmt", MODES)
class TestPacedEmission:
    def test_rate_is_respected(self, tmp_path, source, fmt):
        report = _replay(tmp_path, source, fmt, _graph(EVENTS))
        assert report.events_emitted == EVENTS
        assert 0.75 * RATE <= report.mean_rate <= 1.25 * RATE

    def test_speed_event_rescales_the_rate(self, tmp_path, source, fmt):
        events = [speed(2.0), *_graph(EVENTS)]
        report = _replay(tmp_path, source, fmt, events)
        assert report.events_emitted == EVENTS
        assert 1.5 * RATE <= report.mean_rate <= 2.5 * RATE

    def test_pause_event_adds_its_duration(self, tmp_path, source, fmt):
        half = EVENTS // 2
        events = [*_graph(half), pause(0.2), *_graph(half, first=half)]
        report = _replay(tmp_path, source, fmt, events)
        paced = EVENTS / RATE
        assert report.events_emitted == EVENTS
        assert 0.2 + 0.75 * paced <= report.duration <= 0.2 + 3.0 * paced

    def test_markers_are_recorded(self, tmp_path, source, fmt):
        # A longer stream than the other cases: the first marker waits
        # for the source's first read, which must stay a small share of
        # the replay on a loaded host.
        half = 2 * EVENTS
        events = [
            marker("start"),
            *_graph(half),
            marker("middle"),
            *_graph(half, first=half),
            marker("end"),
        ]
        report = _replay(tmp_path, source, fmt, events)
        labels = [label for label, __ in report.marker_times]
        times = [at for __, at in report.marker_times]
        assert labels == ["start", "middle", "end"]
        assert times == sorted(times)
        assert times[0] < 0.25 * report.duration
        assert 0.25 * report.duration <= times[1] <= 0.75 * report.duration
        assert times[2] <= report.duration
        assert report.checkpoints == 3

    def test_window_rates_are_reported(self, tmp_path, source, fmt):
        report = _replay(
            tmp_path, source, fmt, _graph(EVENTS), window_seconds=0.03
        )
        assert len(report.window_rates) >= 2
        assert 0.5 * RATE <= statistics.median(report.window_rates) <= 2.0 * RATE
