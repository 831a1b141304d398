"""Regression tests for the hardening fixes the fuzzer motivated.

Every case here leaked an untyped exception (``struct.error``,
``IndexError``, ``UnicodeDecodeError``) or silently lost data before
the hardening pass; each now must raise a typed
:class:`~repro.errors.StreamFormatError` carrying a byte offset, or
round-trip exactly.  The crash-class corpus entries are the on-disk
twins of these tests.
"""

import io
from pathlib import Path

import pytest

from repro.core import binfmt, codec
from repro.core.events import add_vertex, pause, speed
from repro.errors import GraphTidesError, ReplayError, StreamFormatError

REPO_CORPUS = Path(__file__).resolve().parents[2] / "corpus"


def _binary_bytes(events) -> bytes:
    buffer = io.BytesIO()
    binfmt.write_binary_stream(buffer, events)
    return buffer.getvalue()


def _parse_bytes(tmp_path, data: bytes, suffix: str):
    path = tmp_path / f"stream{suffix}"
    path.write_bytes(data)
    return codec.parse_stream_file(path)


def test_truncated_binary_record_raises_typed_error(tmp_path):
    data = _binary_bytes([add_vertex(i) for i in range(3)])
    with pytest.raises(StreamFormatError) as excinfo:
        _parse_bytes(tmp_path, data[: len(data) // 2], ".gtb")
    assert excinfo.value.byte_offset is not None


def test_every_truncation_point_raises_typed_error(tmp_path):
    """No cut point may leak an untyped exception from the frame walk."""
    data = _binary_bytes([add_vertex(1, "abc"), add_vertex(2)])
    for cut in range(1, len(data)):
        try:
            _parse_bytes(tmp_path, data[:cut], ".gtb")
        except GraphTidesError:
            pass  # typed refusal is the contract


def test_bad_utf8_binary_payload_raises_typed_error(tmp_path):
    data = _binary_bytes([add_vertex(1, "abc")]).replace(b"abc", b"a\xffc")
    with pytest.raises(StreamFormatError, match="malformed binary record"):
        _parse_bytes(tmp_path, data, ".gtb")


def test_non_utf8_csv_raises_typed_error_with_offset(tmp_path):
    with pytest.raises(StreamFormatError, match="byte offset"):
        _parse_bytes(tmp_path, b"ADD_VERTEX,1,\xff\xfe\n", ".csv")


def test_stream_format_error_byte_offset_attribute():
    error = StreamFormatError("bad frame", byte_offset=17)
    assert error.byte_offset == 17
    assert "byte offset 17" in str(error)
    # line_number still takes precedence for the CSV path.
    lined = StreamFormatError("bad line", line_number=3)
    assert lined.line_number == 3
    assert lined.byte_offset is None


@pytest.mark.parametrize(
    "value",
    [1.2345678901234567, 0.30000000000000004, 1e-9, 5e-324, 123456.78901234567],
)
def test_adversarial_float_controls_round_trip_exactly(tmp_path, value):
    events = [add_vertex(1), speed(value), pause(value), add_vertex(2)]
    csv_path = tmp_path / "a.csv"
    bin_path = tmp_path / "a.gtb"
    codec.write_stream_file(csv_path, events, format="csv")
    codec.write_stream_file(bin_path, events, format="binary")
    assert codec.parse_stream_file(csv_path) == events
    assert codec.parse_stream_file(bin_path) == events


def test_compact_float_spellings_are_preserved():
    # The shortest-round-trip fallback must not disturb historically
    # compact spellings.
    assert codec.format_event(speed(2.5)) == "SPEED,2.5,"
    assert codec.format_event(pause(0.0)) == "PAUSE,0,"


def test_sharded_replayer_reports_each_stalled_worker(tmp_path):
    from repro.core.connectors import PipeSpec
    from repro.core.sharding import ShardedReplayer

    sources = []
    for index in range(2):
        stream = tmp_path / f"stall-{index}.csv"
        lines = [f"ADD_VERTEX,{index * 8 + i}," for i in range(8)]
        lines.insert(4, "PAUSE,30,")
        stream.write_text("\n".join(lines) + "\n")
        sources.append(str(stream))
    replayer = ShardedReplayer(
        sources,
        PipeSpec(target=str(tmp_path / "sink.txt")),
        rate=1000.0,
        worker_timeout=2.0,
    )
    with pytest.raises(ReplayError) as excinfo:
        replayer.run()
    message = str(excinfo.value)
    assert "timed out after 2s" in message
    assert "worker 0" in message or "worker 1" in message

