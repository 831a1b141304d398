"""Tests for the batched fast-path codec and the batched replayer.

The codec must be observationally equivalent to the legacy per-line
parser/serializer (which is retained in :mod:`repro.core.events` as the
benchmark baseline), and batching must not change replay semantics:
control events still take effect at their exact stream position.
"""

import threading
import time

import pytest

from repro.core import codec
from repro.core.connectors import (
    CallbackTransport,
    PipeTransport,
    TcpReceiver,
    TcpTransport,
    Transport,
)
from repro.core.events import (
    _legacy_format_event,
    _legacy_parse_line,
    add_edge,
    add_vertex,
    marker,
    pause,
    remove_edge,
    remove_vertex,
    speed,
    update_edge,
    update_vertex,
)
from repro.core.replayer import LiveReplayer
from repro.core.stream import GraphStream
from repro.errors import ConnectorError, ReplayError, StreamFormatError

ALL_NINE = [
    add_vertex(1, '{"name": "a", "tags": "x,y"}'),
    remove_vertex(2),
    update_vertex(3, "path\\to\\thing"),
    add_edge(4, 5, "w=1.5"),
    remove_edge(6, 7),
    update_edge(8, 9, "multi\nline\rstate"),
    marker("phase-1"),
    speed(2.5),
    pause(0.25),
]


class TestParseLinesEquivalence:
    """codec.parse_lines must agree with the legacy per-line parser."""

    def test_matches_legacy_on_mixed_stream(self):
        lines = codec.format_lines(ALL_NINE)
        expected = [_legacy_parse_line(line) for line in lines]
        assert codec.parse_lines(lines) == expected

    def test_trusted_matches_untrusted(self):
        lines = codec.format_lines(ALL_NINE * 20)
        assert codec.parse_lines(lines, trusted=True) == codec.parse_lines(
            lines, trusted=False
        )

    def test_parses_legacy_formatted_lines(self):
        lines = [_legacy_format_event(e) for e in ALL_NINE]
        assert codec.parse_lines(lines) == ALL_NINE

    def test_trailing_newlines_are_stripped(self):
        lines = [line + "\n" for line in codec.format_lines(ALL_NINE)]
        assert codec.parse_lines(lines) == ALL_NINE
        assert codec.parse_lines(
            [line + "\r\n" for line in codec.format_lines(ALL_NINE)]
        ) == ALL_NINE

    def test_skips_comments_and_blanks(self):
        lines = ["# header", "", "ADD_VERTEX,1,x", "   ", "REMOVE_VERTEX,1,"]
        assert codec.parse_lines(lines) == [
            add_vertex(1, "x"),
            remove_vertex(1),
        ]

    def test_error_carries_offset_line_number(self):
        with pytest.raises(StreamFormatError, match="line 12"):
            codec.parse_lines(
                ["ADD_VERTEX,1,", "NOPE,2,"], first_line_number=11
            )

    def test_whitespace_padded_fields(self):
        # The paper spells the format "COMMAND, ENTITY_ID, PAYLOAD".
        assert codec.parse_lines(["ADD_VERTEX , 1 ,x"]) == [add_vertex(1, "x")]
        assert codec.parse_lines(["SPEED, 2.0 ,"]) == [speed(2.0)]
        assert codec.parse_lines(["ADD_EDGE, 1-4 ,w"]) == [add_edge(1, 4, "w")]

    def test_marker_label_with_escaped_comma(self):
        # The legacy parser truncated labels at escaped commas; the
        # codec honours the escape on both the single-line and bulk
        # paths.
        event = marker("before,after")
        line = codec.format_event(event)
        assert codec.parse_line(line) == event
        assert codec.parse_lines([line]) == [event]

    def test_negative_edge_ids(self):
        for trusted in (False, True):
            assert codec.parse_lines(
                ["ADD_EDGE,-1-4,w", "REMOVE_EDGE,5--3,", "UPDATE_EDGE,-1--4,s"],
                trusted=trusted,
            ) == [
                add_edge(-1, 4, "w"),
                remove_edge(5, -3),
                update_edge(-1, -4, "s"),
            ]


class TestStreamFile:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "stream.csv"
        events = ALL_NINE * 100
        assert codec.write_stream_file(path, events) == len(events)
        assert codec.parse_stream_file(path) == events
        assert codec.parse_stream_file(path, trusted=True) == events

    def test_chunked_write(self, tmp_path):
        path = tmp_path / "stream.csv"
        events = ALL_NINE * 7
        codec.write_stream_file(path, events, chunk_events=5)
        assert codec.parse_stream_file(path) == events

    def test_write_accepts_lazy_iterable(self, tmp_path):
        path = tmp_path / "stream.csv"
        count = codec.write_stream_file(
            path, (add_vertex(i) for i in range(2500))
        )
        assert count == 2500
        assert len(codec.parse_stream_file(path)) == 2500

    def test_read_skips_comments_and_reports_line_numbers(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("# header\nADD_VERTEX,1,\nbroken line\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            codec.parse_stream_file(path)

    def test_line_numbers_across_blocks(self, tmp_path):
        # The malformed line sits beyond the first 64 KiB decode block,
        # so the reported number proves block accounting is correct.
        path = tmp_path / "big.csv"
        good = [f"ADD_VERTEX,{i},{'x' * 40}" for i in range(3000)]
        path.write_text("\n".join(good) + "\nNOPE,1,\n")
        with pytest.raises(StreamFormatError, match="line 3001"):
            codec.parse_stream_file(path)

    def test_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("ADD_VERTEX,1,\nADD_VERTEX,2,end")
        assert codec.parse_stream_file(path) == [
            add_vertex(1),
            add_vertex(2, "end"),
        ]

    def test_iter_parse_chunks_sizes_and_content(self, tmp_path):
        path = tmp_path / "stream.csv"
        events = [add_vertex(i) for i in range(1000)]
        codec.write_stream_file(path, events)
        chunks = list(codec.iter_parse_chunks(path, chunk_events=128))
        assert all(len(chunk) <= 128 for chunk in chunks)
        assert [e for chunk in chunks for e in chunk] == events

    def test_iter_parse_chunks_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(ValueError):
            list(codec.iter_parse_chunks(tmp_path / "x.csv", chunk_events=0))


class TestFormatEvents:
    def test_bulk_matches_legacy(self):
        expected = "".join(_legacy_format_event(e) + "\n" for e in ALL_NINE)
        assert codec.format_events(ALL_NINE) == expected

    def test_empty_batch(self):
        assert codec.format_events([]) == ""

    def test_rejects_unknown_event(self):
        with pytest.raises(TypeError):
            codec.format_event(object())


class TestSendMany:
    def test_callback_transport_preserves_order(self):
        received = []
        transport = CallbackTransport(received.append)
        transport.send_many(iter(["x", "y"]))
        assert received == ["x", "y"]

    def test_callback_transport_rejects_after_close(self):
        transport = CallbackTransport(lambda line: None)
        transport.close()
        with pytest.raises(ConnectorError):
            transport.send_many(["x"])

    def test_pipe_transport_single_buffered_write(self, tmp_path):
        path = tmp_path / "out.txt"
        with open(path, "w", encoding="utf-8") as sink:
            transport = PipeTransport(sink, flush_every=2)
            transport.send_many(["a", "b", "c"])
            transport.send_many([])
            transport.close()
        assert path.read_text() == "a\nb\nc\n"

    def test_pipe_transport_rejects_after_close(self, tmp_path):
        with open(tmp_path / "out.txt", "w", encoding="utf-8") as sink:
            transport = PipeTransport(sink)
            transport.close()
            with pytest.raises(ConnectorError):
                transport.send_many(["x"])

    def test_tcp_transport_batch_delivery(self):
        receiver = TcpReceiver()
        receiver.start()
        transport = TcpTransport(receiver.host, receiver.port)
        transport.send_many([f"ADD_VERTEX,{i}," for i in range(400)])
        transport.close()
        receiver.join(timeout=5.0)
        assert receiver.counter.total == 400


class _ExplodingTransport(Transport):
    """Raises on delivery; records whether it was closed."""

    def __init__(self, boom_after=0):
        self.closed = False
        self.sent = 0
        self._boom_after = boom_after

    def send_many(self, lines):
        self.sent += len(list(lines))
        if self.sent > self._boom_after:
            raise ConnectorError("injected transport failure")

    def close(self):
        self.closed = True


class TestBatchedReplayer:
    def test_batched_delivers_all_events_in_order(self):
        events = [add_vertex(i) for i in range(500)]
        received = []
        replayer = LiveReplayer(
            GraphStream(events),
            CallbackTransport(received.append),
            rate=200_000,
            batch_size=32,
        )
        report = replayer.run()
        assert report.events_emitted == 500
        assert received == codec.format_lines(events)

    def test_speed_takes_effect_at_exact_position(self):
        events = [add_vertex(i) for i in range(20)]
        stream = GraphStream(events[:10] + [speed(4.0)] + events[10:])
        replayer = LiveReplayer(
            stream,
            CallbackTransport(lambda line: None),
            rate=100,
            batch_size=4,
        )
        report = replayer.run()
        # 10 @ 100/s + 10 @ 400/s = 0.125 s, exactly as without batching
        # (a batch straddling the SPEED event is flushed first).
        assert report.events_emitted == 20
        assert report.duration == pytest.approx(0.125, rel=0.35)

    def test_pause_takes_effect_at_exact_position(self):
        events = [add_vertex(i) for i in range(10)]
        stream = GraphStream(events[:5] + [pause(0.1)] + events[5:])
        stamps = []
        replayer = LiveReplayer(
            stream,
            CallbackTransport(lambda line: stamps.append(time.perf_counter())),
            rate=5000,
            batch_size=4,
        )
        replayer.run()
        assert len(stamps) == 10
        # The gap sits between the 5th and 6th event even though the
        # batch boundary (4) does not align with the pause position.
        assert stamps[5] - stamps[4] >= 0.08
        assert max(stamps[4] - stamps[0], stamps[9] - stamps[5]) < 0.08

    def test_marker_times_close_to_unbatched(self):
        events = [add_vertex(i) for i in range(40)]
        stream = GraphStream(events + [marker("mid")] + events)

        def run(batch_size):
            replayer = LiveReplayer(
                stream,
                CallbackTransport(lambda line: None),
                rate=800,
                batch_size=batch_size,
            )
            return dict(replayer.run().marker_times)["mid"]

        unbatched = run(1)
        batched = run(8)
        assert unbatched == pytest.approx(40 / 800, rel=0.35)
        # Batching may defer the marker by at most one batch interval.
        assert abs(batched - unbatched) <= 8 / 800 + 0.03

    def test_batched_file_source(self, tmp_path):
        path = tmp_path / "stream.csv"
        events = [add_vertex(i) for i in range(300)]
        codec.write_stream_file(path, events)
        received = []
        replayer = LiveReplayer(
            str(path),
            CallbackTransport(received.append),
            rate=100_000,
            batch_size=64,
            read_chunk=50,
        )
        report = replayer.run()
        assert report.events_emitted == 300
        assert received == codec.format_lines(events)

    def test_report_rate_percentiles(self):
        replayer = LiveReplayer(
            GraphStream([add_vertex(i) for i in range(100)]),
            CallbackTransport(lambda line: None),
            rate=50_000,
        )
        report = replayer.run()
        # Shorter than one window: the percentiles collapse to the
        # whole-run rate.
        assert report.p5_rate == pytest.approx(report.mean_rate)
        assert report.median_rate == pytest.approx(report.mean_rate)
        assert report.p95_rate == pytest.approx(report.mean_rate)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            LiveReplayer(
                GraphStream(), CallbackTransport(lambda line: None), rate=1,
                batch_size=0,
            )


class TestReplayerCleanup:
    def test_transport_error_closes_transport_and_reader(self, tmp_path):
        path = tmp_path / "stream.csv"
        codec.write_stream_file(path, [add_vertex(i) for i in range(5000)])
        transport = _ExplodingTransport(boom_after=100)
        replayer = LiveReplayer(
            str(path), transport, rate=1_000_000, read_chunk=100
        )
        before = set(threading.enumerate())
        with pytest.raises(ConnectorError, match="injected"):
            replayer.run()
        assert transport.closed
        # The reader thread must not outlive the failed run.
        leaked = [
            t for t in threading.enumerate() if t not in before and t.is_alive()
        ]
        assert not leaked

    def test_send_error_propagates_over_close_error(self):
        class DoubleFault(_ExplodingTransport):
            def close(self):
                super().close()
                raise ConnectorError("close also failed")

        transport = DoubleFault(boom_after=0)
        replayer = LiveReplayer(
            GraphStream([add_vertex(1)]), transport, rate=1000
        )
        with pytest.raises(ConnectorError, match="injected"):
            replayer.run()
        assert transport.closed

    def test_reader_error_still_closes_transport(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ADD_VERTEX,1,\nNOPE,2,\n")
        transport = _ExplodingTransport(boom_after=10**9)
        replayer = LiveReplayer(str(path), transport, rate=1000)
        with pytest.raises(ReplayError, match="stream source failed"):
            replayer.run()
        assert transport.closed


class TestIterRawBatches:
    """Zero-copy raw runs must carry the exact file bytes and split at
    every control line."""

    def write(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_text(text)
        return path

    def collect(self, path, **kwargs):
        batches, events = [], []
        for item in codec.iter_raw_batches(path, **kwargs):
            if isinstance(item, codec.RawBatch):
                # Copy out: the view aliases the mmap being iterated.
                batches.append((bytes(item.data), item.count))
            else:
                events.append(item)
        return batches, events

    def test_round_trips_graph_bytes_and_parses_controls(self, tmp_path):
        stream = GraphStream(ALL_NINE)
        path = tmp_path / "raw.csv"
        stream.write(path)
        batches, events = self.collect(path)
        raw = b"".join(data for data, __ in batches)
        graph_lines = "".join(
            codec.format_event(e) + "\n"
            for e in ALL_NINE
            if e.type.is_graph_event
        ).encode()
        assert raw == graph_lines
        assert sum(count for __, count in batches) == 6
        assert events == [marker("phase-1"), speed(2.5), pause(0.25)]

    def test_control_lines_split_runs(self, tmp_path):
        path = self.write(
            tmp_path, "ADD_VERTEX,1,\nMARKER,m,\nADD_VERTEX,2,\n"
        )
        batches, events = self.collect(path)
        assert [count for __, count in batches] == [1, 1]
        assert [e.label for e in events] == ["m"]

    def test_batch_lines_caps_run_length(self, tmp_path):
        path = self.write(
            tmp_path, "".join(f"ADD_VERTEX,{i},\n" for i in range(10))
        )
        batches, __ = self.collect(path, batch_lines=4)
        assert [count for __, count in batches] == [4, 4, 2]

    def test_missing_final_newline_flagged(self, tmp_path):
        path = self.write(tmp_path, "ADD_VERTEX,1,\nADD_VERTEX,2,")
        last = None
        for item in codec.iter_raw_batches(path):
            last = item
        assert isinstance(last, codec.RawBatch)
        assert last.ends_with_newline is False
        assert bytes(last.data).endswith(b"ADD_VERTEX,2,")

    def test_missing_final_newline_counted_exactly_once(self, tmp_path):
        """Regression: the final partial line must be neither dropped
        nor double-counted — batch counts drive receiver-side event
        accounting, so an off-by-one here silently corrupts every
        downstream count."""
        path = self.write(tmp_path, "ADD_VERTEX,1,\nADD_VERTEX,2,")
        batches, __ = self.collect(path)
        assert sum(count for __, count in batches) == 2
        raw = b"".join(data for data, __ in batches)
        assert raw == b"ADD_VERTEX,1,\nADD_VERTEX,2,"

    def test_missing_final_newline_with_batch_cap(self, tmp_path):
        # The partial line must also count exactly once when it lands
        # alone in the last capped batch.
        path = self.write(
            tmp_path,
            "ADD_VERTEX,1,\nADD_VERTEX,2,\nADD_VERTEX,3,\nADD_VERTEX,4,",
        )
        batches, __ = self.collect(path, batch_lines=3)
        assert [count for __, count in batches] == [3, 1]
        assert batches[-1][0] == b"ADD_VERTEX,4,"

    def test_control_line_without_final_newline_parsed(self, tmp_path):
        path = self.write(tmp_path, "ADD_VERTEX,1,\nMARKER,end,")
        batches, events = self.collect(path)
        assert [count for __, count in batches] == [1]
        assert [e.label for e in events] == ["end"]

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = self.write(
            tmp_path, "# header\n\nADD_VERTEX,1,\n\n# mid\nADD_VERTEX,2,\n"
        )
        batches, events = self.collect(path)
        assert sum(count for __, count in batches) == 2
        assert events == []

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        assert self.collect(path) == ([], [])

    def test_rejects_nonpositive_batch_lines(self, tmp_path):
        path = self.write(tmp_path, "ADD_VERTEX,1,\n")
        with pytest.raises(ValueError):
            list(codec.iter_raw_batches(path, batch_lines=0))
