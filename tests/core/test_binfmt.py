"""Tests for the length-prefixed binary stream codec (``GTB1``).

The binary format is a first-class peer of CSV: everything the CSV
codec can represent must round-trip exactly (binary floats are IEEE
doubles on the wire), files must stay readable without their trailing
index (wire captures, truncated writes), and the zero-copy batch
iterator must be the frame-aligned analogue of
``codec.iter_raw_batches``.
"""

import io

import pytest

from repro.core import binfmt, codec
from repro.core.events import (
    Event,
    EventType,
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
from repro.errors import StreamFormatError

ALL_NINE = [
    add_vertex(1, '{"name": "a", "tags": "x,y"}'),
    remove_vertex(2),
    update_vertex(3, "path\\to\\thing"),
    add_edge(4, 5, "w=1.5"),
    remove_edge(6, 7),
    update_edge(8, 9, "multi\nline\rstate"),
    marker("phase,one"),
    speed(2.5),
    pause(0.25),
]


class TestRecordCodec:
    def test_all_nine_round_trip_exactly(self):
        for event in ALL_NINE:
            assert binfmt.decode_event(binfmt.encode_event(event)) == event

    def test_floats_are_exact(self):
        # CSV's %g formatting would truncate this; the binary wire
        # carries the IEEE double verbatim.
        original = speed(1.0000001234567)
        assert binfmt.decode_event(binfmt.encode_event(original)) == original

    def test_marker_label_needs_no_escaping(self):
        original = marker("a,b\\c\nd")
        record = binfmt.encode_event(original)
        assert b"a,b\\c\nd" in bytes(record)
        assert binfmt.decode_event(record) == original

    def test_negative_ids(self):
        original = add_edge(-5, -9, "")
        assert binfmt.decode_event(binfmt.encode_event(original)) == original

    def test_unknown_tag_rejected(self):
        record = bytearray(binfmt.encode_event(add_vertex(1)))
        record[0] = 200
        with pytest.raises(StreamFormatError, match="unknown binary record tag"):
            binfmt.decode_event(bytes(record))

    def test_truncated_record_rejected(self):
        record = binfmt.encode_event(add_vertex(1, "payload"))
        with pytest.raises(StreamFormatError, match="overruns"):
            binfmt.decode_event(record[:-2])


class TestFrames:
    def test_graph_frame_round_trip(self):
        graph = [e for e in ALL_NINE if e.type.is_graph_event]
        frame = binfmt.encode_graph_frame(graph)
        assert binfmt.frame_info(frame) == (binfmt.FRAME_GRAPH, len(graph))
        assert binfmt.decode_frame_events(frame) == graph

    def test_control_frame_round_trip(self):
        frame = binfmt.encode_control_frame(pause(0.5))
        assert binfmt.frame_info(frame) == (binfmt.FRAME_CONTROL, 1)
        assert binfmt.decode_frame_events(frame) == [pause(0.5)]

    def test_record_spans_reframe_verbatim(self):
        graph = [add_vertex(i, f"p{i}") for i in range(5)]
        frame = binfmt.encode_graph_frame(graph)
        records = [
            bytes(frame[start:end])
            for start, end in binfmt.iter_frame_record_spans(frame)
        ]
        assert binfmt.decode_frame_events(binfmt.frame_records(records)) == graph

    def test_count_mismatch_rejected(self):
        frame = bytearray(binfmt.encode_graph_frame([add_vertex(1)]))
        # Overstate the record count in the header.
        rebuilt = (
            binfmt._FRAME_HEADER.pack(
                binfmt.FRAME_GRAPH, 2, len(frame) - binfmt.FRAME_HEADER_SIZE
            )
            + bytes(frame[binfmt.FRAME_HEADER_SIZE :])
        )
        for walk in _frame_walks(100):
            with pytest.raises(StreamFormatError, match="promises 2") as info:
                walk(rebuilt)
            assert info.value.byte_offset == 101  # the count field

    def test_frame_level_refusals_name_the_header_field(self):
        frame = binfmt.encode_graph_frame([add_vertex(1)])
        for walk in _frame_walks(100):
            with pytest.raises(StreamFormatError, match="truncated") as info:
                walk(frame[:4])
            assert info.value.byte_offset == 100
            with pytest.raises(StreamFormatError, match="overruns") as info:
                walk(frame[:-1])
            assert info.value.byte_offset == 105  # the body-length field

    def test_decode_refusals_carry_the_frame_offset(self):
        record = binfmt._RECORD_HEADER.pack(200, 0)
        with pytest.raises(StreamFormatError, match="unknown") as info:
            binfmt.decode_frame_events(binfmt.frame_records([record]), 100)
        assert info.value.byte_offset == 100 + binfmt.FRAME_HEADER_SIZE


def _frame_walks(offset: int):
    """Every frame walk, each given the frame's file ``offset``."""
    return [
        lambda data: binfmt.scan_frame(data, offset),
        lambda data: list(binfmt.iter_frame_record_spans(data, offset)),
        lambda data: binfmt.decode_frame_events(data, offset),
    ]


class TestScanFrame:
    def test_counts_without_materialising(self):
        graph = [e for e in ALL_NINE if e.type.is_graph_event]
        frame = binfmt.encode_graph_frame(graph)
        assert binfmt.scan_frame(frame) == len(graph)
        assert binfmt.scan_frame(binfmt.encode_control_frame(speed(2.0))) == 1

    def test_unknown_tag_rejected(self):
        record = binfmt._RECORD_HEADER.pack(200, 0)
        frame = binfmt.frame_records([record])
        with pytest.raises(StreamFormatError, match="unknown binary record tag"):
            binfmt.scan_frame(frame)

    def test_record_overrun_rejected(self):
        # A record whose length prefix points past the frame body.
        record = binfmt._RECORD_HEADER.pack(
            binfmt._TAG_BY_TYPE[EventType.MARKER], 1000
        )
        frame = binfmt._FRAME_HEADER.pack(binfmt.FRAME_GRAPH, 1, len(record))
        with pytest.raises(StreamFormatError, match="overruns"):
            binfmt.scan_frame(frame + record)

    def test_truncated_header_rejected(self):
        frame = binfmt.encode_graph_frame([add_vertex(1)])
        with pytest.raises(StreamFormatError, match="truncated"):
            binfmt.scan_frame(frame[:3])

    def test_agrees_with_full_decode(self):
        frame = binfmt.encode_graph_frame(
            [add_vertex(i, f"p{i}") for i in range(300)]
        )
        assert binfmt.scan_frame(frame) == len(
            binfmt.decode_frame_events(frame)
        )


class TestStreamFiles:
    def test_write_then_parse(self, tmp_path):
        path = tmp_path / "s.gtb"
        assert binfmt.write_binary_stream(path, ALL_NINE) == len(ALL_NINE)
        assert codec.parse_stream_file(path) == ALL_NINE
        assert path.read_bytes().startswith(binfmt.MAGIC)

    def test_codec_autodetects(self, tmp_path):
        bin_path = tmp_path / "s.gtb"
        csv_path = tmp_path / "s.csv"
        binfmt.write_binary_stream(bin_path, ALL_NINE)
        codec.write_stream_file(csv_path, ALL_NINE)
        assert codec.detect_stream_format(bin_path) == "binary"
        assert codec.detect_stream_format(csv_path) == "csv"
        assert codec.parse_stream_file(bin_path) == ALL_NINE

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.gtb"
        assert binfmt.write_binary_stream(path, []) == 0
        assert codec.parse_stream_file(path) == []
        assert binfmt.read_frame_index(path) == []

    def test_frame_index_matches_frames(self, tmp_path):
        path = tmp_path / "s.gtb"
        binfmt.write_binary_stream(path, ALL_NINE * 3, batch_records=4)
        index = binfmt.read_frame_index(path)
        assert index is not None
        total = sum(count for __, count, __ in index)
        assert total == len(ALL_NINE) * 3
        # Every index entry points at a real frame header whose count
        # agrees with the entry.
        data = path.read_bytes()
        for offset, count, kind in index:
            assert binfmt.frame_info(data[offset:]) == (kind, count)

    def test_truncated_file_still_iterates(self, tmp_path):
        """Wire captures carry no footer: header jumping must recover
        every complete frame."""
        path = tmp_path / "s.gtb"
        binfmt.write_binary_stream(path, ALL_NINE, batch_records=2)
        cut = tmp_path / "cut.gtb"
        # Keep everything up to (and excluding) the trailing index.
        data = path.read_bytes()
        footer_start = data.rindex(binfmt.INDEX_MAGIC)
        cut.write_bytes(data[:footer_start])
        assert binfmt.read_frame_index(cut) is None
        assert codec.parse_stream_file(cut) == ALL_NINE

    def test_writer_control_events_split_frames(self):
        buffer = io.BytesIO()
        writer = binfmt.BinaryStreamWriter(buffer, batch_records=100)
        writer.extend(
            [add_vertex(1), add_vertex(2), marker("m"), add_vertex(3)]
        )
        writer.close()
        raw = buffer.getvalue()
        # Wire streams carry no trailing index; drop the footer.
        wire = io.BytesIO(raw[len(binfmt.MAGIC) : raw.rindex(binfmt.INDEX_MAGIC)])
        counts = list(binfmt.iter_wire_frame_counts(wire))
        # Frame boundaries: [2 graph] [1 control] [1 graph] — the
        # control event must not be reordered past pending records.
        assert counts == [2, 1, 1]
        assert writer.events_written == 4

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.gtb"
        path.write_bytes(b"not a binary stream")
        with pytest.raises(StreamFormatError, match="magic"):
            list(binfmt.iter_binary_batches(path))

    def test_rejects_nonpositive_batch_records(self, tmp_path):
        with pytest.raises(ValueError):
            binfmt.write_binary_stream(
                tmp_path / "s.gtb", ALL_NINE, batch_records=0
            )


class TestIterBinaryBatches:
    """The binary analogue of ``iter_raw_batches``: whole graph frames
    as zero-copy runs, control frames as parsed events."""

    def collect(self, path):
        batches, events = [], []
        for item in binfmt.iter_binary_batches(path):
            if isinstance(item, Event):
                events.append(item)
            else:
                batches.append((bytes(item.data), item.count))
        return batches, events

    def test_round_trips_graph_frames_and_parses_controls(self, tmp_path):
        path = tmp_path / "s.gtb"
        binfmt.write_binary_stream(path, ALL_NINE)
        batches, events = self.collect(path)
        assert sum(count for __, count in batches) == 6
        decoded = [
            event
            for data, __ in batches
            for event in binfmt.decode_frame_events(data)
        ]
        assert decoded == [e for e in ALL_NINE if e.type.is_graph_event]
        assert events == [marker("phase,one"), speed(2.5), pause(0.25)]

    def test_batch_records_caps_frame_length(self, tmp_path):
        path = tmp_path / "s.gtb"
        binfmt.write_binary_stream(
            path, [add_vertex(i) for i in range(10)], batch_records=4
        )
        batches, __ = self.collect(path)
        assert [count for __, count in batches] == [4, 4, 2]

    def test_frames_are_wire_ready(self, tmp_path):
        """A yielded batch is the complete frame: header + records, so
        transports forward it verbatim and receivers count from the
        header alone."""
        path = tmp_path / "s.gtb"
        binfmt.write_binary_stream(path, [add_vertex(1), add_vertex(2)])
        (batch,), __ = (lambda pair: pair)(self.collect(path))
        data, count = batch
        assert binfmt.frame_info(data) == (binfmt.FRAME_GRAPH, count)
        buffer = io.BytesIO(data)
        assert list(binfmt.iter_wire_frame_counts(buffer)) == [count]


class TestWireFrameCounts:
    def test_counts_all_frames(self):
        buffer = io.BytesIO()
        binfmt.write_binary_stream(buffer, ALL_NINE, batch_records=2)
        raw = buffer.getvalue()
        # Receivers consume the magic during autodetection, and wire
        # streams carry no trailing index.
        footer_start = raw.rindex(binfmt.INDEX_MAGIC)
        wire = io.BytesIO(raw[len(binfmt.MAGIC) : footer_start])
        counts = list(binfmt.iter_wire_frame_counts(wire))
        assert sum(counts) == len(ALL_NINE)

    def test_mid_frame_truncation_raises(self):
        frame = binfmt.encode_graph_frame([add_vertex(1, "payload")])
        wire = io.BytesIO(frame[:-3])
        with pytest.raises(StreamFormatError, match="truncated binary frame"):
            list(binfmt.iter_wire_frame_counts(wire))

    def test_clean_end_terminates(self):
        wire = io.BytesIO(b"")
        assert list(binfmt.iter_wire_frame_counts(wire)) == []


class TestConvertStream:
    def test_csv_to_binary_and_back(self, tmp_path):
        origin = tmp_path / "a.csv"
        middle = tmp_path / "b.gtb"
        final = tmp_path / "c.csv"
        codec.write_stream_file(origin, ALL_NINE)
        assert binfmt.convert_stream(origin, middle, "binary") == len(ALL_NINE)
        assert binfmt.convert_stream(middle, final, "csv") == len(ALL_NINE)
        assert origin.read_bytes() == final.read_bytes()

    def test_binary_to_binary_is_a_rebatch(self, tmp_path):
        a = tmp_path / "a.gtb"
        b = tmp_path / "b.gtb"
        binfmt.write_binary_stream(a, ALL_NINE, batch_records=2)
        assert binfmt.convert_stream(a, b, "binary") == len(ALL_NINE)
        assert codec.parse_stream_file(b) == ALL_NINE

    def test_unknown_target_format_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        codec.write_stream_file(path, ALL_NINE)
        with pytest.raises(ValueError, match="format"):
            binfmt.convert_stream(path, tmp_path / "b", "parquet")
