"""Every file → events reader agrees, whatever the stream's format.

``GraphStream.read``, ``codec.parse_stream_file``, the flattened blocks
of ``codec.iter_parse_chunks`` and a ``binfmt.convert_stream`` round
trip all decode through ``iter_parse_chunks``.  Over CSV and GTB1
sources, clean or refused, each must give the same events, or the same
:class:`StreamFormatError` with the same line number or byte offset.
"""

import itertools
import shutil
from pathlib import Path

import pytest

from repro.core import binfmt, codec
from repro.core.events import (
    add_edge,
    add_vertex,
    marker,
    pause,
    remove_vertex,
    speed,
    update_edge,
)
from repro.core.stream import GraphStream
from repro.errors import StreamFormatError

CORPUS = Path(__file__).resolve().parents[2] / "corpus"

EVENTS = [
    add_vertex(1, '{"tags": "x,y"}'),
    remove_vertex(2),
    marker("phase,one"),
    add_edge(4, 5, "w=1.5"),
    update_edge(4, 5, "multi\nline\rstate"),
    speed(0.1),
    *[add_vertex(i, f"p{i}") for i in range(10, 40)],
    pause(0.25),
    add_vertex(99),
]


def _csv(tmp_path):
    path = tmp_path / "s.csv"
    codec.write_stream_file(path, EVENTS)
    return path


def _gtb(tmp_path):
    path = tmp_path / "s.gtb"
    binfmt.write_binary_stream(path, EVENTS, batch_records=4)
    return path


def _gtb_without_index(tmp_path):
    path = _gtb(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(binfmt.INDEX_MAGIC)])
    return path


def _csv_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    lines = codec.format_lines(EVENTS)
    lines[4] = "NOPE,1,"
    path.write_text("\n".join(lines) + "\n")
    return path


#: The third frame's offset: magic, a 2-record graph frame, the marker.
TRUNCATED_AT = (
    len(binfmt.MAGIC)
    + len(binfmt.encode_graph_frame(EVENTS[:2]))
    + len(binfmt.encode_control_frame(EVENTS[2]))
)


def _gtb_truncated_header(tmp_path):
    """A GTB1 file cut 3 bytes into its third frame's header: a graph
    frame and a marker frame before it are whole."""
    path = _gtb(tmp_path)
    index = binfmt.read_frame_index(path)
    assert index is not None and index[2][0] == TRUNCATED_AT
    path.write_bytes(path.read_bytes()[: TRUNCATED_AT + 3])
    return path


def _corpus(name):
    def copy(tmp_path):
        (source,) = (CORPUS / "crash" / name).glob("workload.*")
        return Path(shutil.copy(source, tmp_path / source.name))

    return copy


SOURCES = {
    "csv": _csv,
    "gtb": _gtb,
    "gtb-without-index": _gtb_without_index,
    "csv-bad-line": _csv_bad_line,
    "csv-non-utf8": _corpus("csv-non-utf8"),
    "gtb-truncated-header": _gtb_truncated_header,
    "binfmt-truncated-record": _corpus("binfmt-truncated-record"),
    "binary-bad-utf8-payload": _corpus("binary-bad-utf8-payload"),
}

#: Where a refused source is refused, when the test built the hazard:
#: ``(line number, byte offset)``.
REFUSED = {
    "csv-bad-line": (5, None),
    "csv-non-utf8": None,
    "gtb-truncated-header": (None, TRUNCATED_AT),
    "binfmt-truncated-record": None,
    "binary-bad-utf8-payload": None,
}


def _round_trip(path):
    """Convert to the other format and back, then parse."""
    source_format = codec.detect_stream_format(path)
    other = "csv" if source_format == "binary" else "binary"
    middle = path.parent / f"middle.{other}"
    final = path.parent / f"final.{source_format}"
    binfmt.convert_stream(path, middle, other)
    binfmt.convert_stream(middle, final, source_format)
    return codec.parse_stream_file(final)


READERS = {
    "GraphStream.read": lambda path: list(GraphStream.read(path)),
    "parse_stream_file": codec.parse_stream_file,
    "iter_parse_chunks": lambda path: list(
        itertools.chain.from_iterable(codec.iter_parse_chunks(path))
    ),
    "convert_stream": _round_trip,
}


def _outcome(reader, path):
    try:
        return "events", READERS[reader](path)
    except StreamFormatError as exc:
        return "refused", str(exc), exc.line_number, exc.byte_offset


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_reader_agrees(tmp_path, source, reader):
    reference, run = tmp_path / "reference", tmp_path / "run"
    reference.mkdir()
    run.mkdir()
    expected = _outcome("parse_stream_file", SOURCES[source](reference))
    assert _outcome(reader, SOURCES[source](run)) == expected
    if source not in REFUSED:
        assert expected == ("events", EVENTS)
        return
    assert expected[0] == "refused"
    line_number, byte_offset = expected[2:]
    assert (line_number is None) != (byte_offset is None)
    if REFUSED[source] is not None:
        assert (line_number, byte_offset) == REFUSED[source]


def test_controls_before_a_refused_frame_are_yielded(tmp_path):
    """The blocks stop at the refused frame, but every event before it
    comes out first, the marker that no graph frame followed too."""
    seen = []
    with pytest.raises(StreamFormatError, match="truncated binary frame header"):
        for block in codec.iter_parse_chunks(_gtb_truncated_header(tmp_path)):
            seen.append(block)
    assert seen == [EVENTS[:2], [EVENTS[2]]]
