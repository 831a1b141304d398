"""Tests for the live (wall-clock) replayer and its transports.

These exercise real threads, pipes and sockets; rates are kept modest
so the tests stay fast and robust on loaded CI machines.
"""

import os

import pytest

from repro.core.connectors import (
    CallbackTransport,
    PipeReceiver,
    PipeTransport,
    TcpReceiver,
    TcpTransport,
    WindowCounter,
)
from repro.core.events import add_vertex, marker, pause, speed
from repro.core.replayer import LiveReplayer
from repro.core.stream import GraphStream
from repro.errors import ConnectorError, ReplayError


def _events(n):
    return [add_vertex(i) for i in range(n)]


class TestCallbackReplay:
    def test_all_events_delivered(self):
        received = []
        replayer = LiveReplayer(
            GraphStream(_events(200)),
            CallbackTransport(received.append),
            rate=20_000,
        )
        report = replayer.run()
        assert report.events_emitted == 200
        assert len(received) == 200
        assert received[0] == "ADD_VERTEX,0,"

    def test_rate_is_respected(self):
        replayer = LiveReplayer(
            GraphStream(_events(500)), CallbackTransport(lambda l: None), rate=1000
        )
        report = replayer.run()
        assert report.mean_rate == pytest.approx(1000, rel=0.15)

    def test_speed_control_event(self):
        events = _events(200)
        stream = GraphStream(events[:100] + [speed(4.0)] + events[100:])
        replayer = LiveReplayer(
            stream, CallbackTransport(lambda l: None), rate=1000
        )
        report = replayer.run()
        # 100 @ 1000/s + 100 @ 4000/s = 0.125s total.
        assert report.duration == pytest.approx(0.125, rel=0.3)

    def test_pause_control_event(self):
        stream = GraphStream(_events(10) + [pause(0.3)] + _events(10)[0:0])
        replayer = LiveReplayer(
            stream, CallbackTransport(lambda l: None), rate=10_000
        )
        report = replayer.run()
        assert report.duration >= 0.3

    def test_marker_times_recorded(self):
        events = _events(100)
        stream = GraphStream(events[:50] + [marker("half")] + events[50:])
        replayer = LiveReplayer(
            stream, CallbackTransport(lambda l: None), rate=5000
        )
        report = replayer.run()
        assert len(report.marker_times) == 1
        label, at = report.marker_times[0]
        assert label == "half"
        assert at == pytest.approx(0.01, abs=0.05)

    def test_reader_error_surfaces(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ADD_VERTEX,1,\nNONSENSE\n")
        replayer = LiveReplayer(
            path, CallbackTransport(lambda l: None), rate=1000
        )
        with pytest.raises(ReplayError, match="stream source failed"):
            replayer.run()

    def test_file_source(self, tmp_path):
        path = tmp_path / "s.csv"
        GraphStream(_events(50)).write(path)
        received = []
        LiveReplayer(path, CallbackTransport(received.append), rate=50_000).run()
        assert len(received) == 50

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LiveReplayer(GraphStream(), CallbackTransport(lambda l: None), rate=0)

    def test_binary_source_file(self, tmp_path):
        # Format autodetection: a binary stream replays through the
        # same constructor with no flags.
        path = tmp_path / "s.gtb"
        GraphStream(_events(50)).write(path, format="binary")
        received = []
        LiveReplayer(path, CallbackTransport(received.append), rate=50_000).run()
        assert len(received) == 50
        assert received[0] == "ADD_VERTEX,0,"

    def test_binary_wire_format_through_default_transport(self):
        # A transport without a native send_frame (CallbackTransport)
        # gets the base-class fallback: frames decode back to CSV
        # lines, so downstream consumers are unaffected.
        received = []
        report = LiveReplayer(
            GraphStream(_events(100) + [marker("m")] + _events(100)),
            CallbackTransport(received.append),
            rate=1_000_000,
            wire_format="binary",
        ).run()
        assert report.events_emitted == 200
        assert len(received) == 200
        assert received[0] == "ADD_VERTEX,0,"
        assert [label for label, __ in report.marker_times] == ["m"]

    def test_invalid_wire_format(self):
        with pytest.raises(ValueError):
            LiveReplayer(
                GraphStream(),
                CallbackTransport(lambda l: None),
                rate=1,
                wire_format="morse",
            )


class TestPipeTransport:
    def test_round_trip(self):
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        receiver.start()
        replayer = LiveReplayer(
            GraphStream(_events(300)), PipeTransport(write_fd), rate=50_000
        )
        report = replayer.run()
        receiver.join(5.0)
        assert receiver.counter.total == 300
        assert report.events_emitted == 300

    def test_closed_transport_rejects_send(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.close()
        os.close(read_fd)
        with pytest.raises(ConnectorError):
            transport.send_many(["x"])

    def test_double_close_is_safe(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.close()
        transport.close()
        os.close(read_fd)


class TestTcpTransport:
    def test_round_trip(self):
        receiver = TcpReceiver()
        receiver.start()
        transport = TcpTransport(receiver.host, receiver.port)
        replayer = LiveReplayer(
            GraphStream(_events(300)), transport, rate=50_000
        )
        report = replayer.run()
        receiver.join(5.0)
        assert receiver.counter.total == 300

    def test_connection_refused(self):
        with pytest.raises(ConnectorError, match="cannot connect"):
            TcpTransport("127.0.0.1", 1)  # port 1: nothing listens

    def test_flush_every_validation(self):
        with pytest.raises(ValueError):
            PipeTransport(os.pipe()[1], flush_every=0)


class TestWindowCounter:
    def test_total(self):
        counter = WindowCounter(window_seconds=10)
        counter.record(5)
        counter.record(3)
        assert counter.total == 8

    def test_rates_empty_before_window_elapses(self):
        counter = WindowCounter(window_seconds=100)
        counter.record(1)
        assert counter.rates() == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowCounter(window_seconds=0)
