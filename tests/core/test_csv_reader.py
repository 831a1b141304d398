"""The one CSV reader: line endings and file release on a parse error.

Every file entry point (``GraphStream.read``, ``codec.parse_stream_file``,
``codec.iter_parse_chunks``, ``codec.iter_raw_batches`` and the replayers
built on them) reads CSV through the same mmap block cutter, so they must
agree on where lines end, and a parse error must not keep the stream file
mapped or open.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core import codec
from repro.core.connectors import CallbackTransport, PipeSpec
from repro.core.events import (
    GraphEvent,
    add_edge,
    add_vertex,
    marker,
    update_vertex,
)
from repro.core.replayer import LiveReplayer
from repro.core.sharding import ShardedReplayer
from repro.core.stream import GraphStream
from repro.errors import ReplayError, StreamFormatError

EXPECTED = [
    add_vertex(1, "a"),
    add_vertex(2, "b"),
    marker("mid"),
    add_edge(1, 2, "w"),
    update_vertex(2, "c"),
]

#: The lines of EXPECTED plus a comment and a blank line, which every
#: reader must skip at the same line boundaries.
LINES = [
    "ADD_VERTEX,1,a",
    "# comment",
    "ADD_VERTEX,2,b",
    "",
    "MARKER,mid,",
    "ADD_EDGE,1-2,w",
    "UPDATE_VERTEX,2,c",
]

FAST = 1e6


def _write(tmp_path, ending):
    path = tmp_path / "stream.csv"
    path.write_bytes(ending.join(LINES).encode() + ending.encode())
    return path


def _via_live_replayer(path):
    received: list[str] = []
    LiveReplayer(
        path, CallbackTransport(received.append), rate=FAST, batch_size=4
    ).run()
    return codec.parse_lines(received)


def _via_sharded_replayer(path):
    out = path.parent / "out.csv"
    ShardedReplayer(
        str(path),
        PipeSpec(target=str(out)),
        rate=FAST,
        workers=1,
        emission="events",
    ).run()
    return codec.parse_stream_file(out)


READERS = {
    "GraphStream.read": lambda path: list(GraphStream.read(path)),
    "parse_stream_file": codec.parse_stream_file,
    "iter_parse_chunks": lambda path: [
        event for chunk in codec.iter_parse_chunks(path) for event in chunk
    ],
    "LiveReplayer": _via_live_replayer,
    "ShardedReplayer": _via_sharded_replayer,
}

#: Replayers act on markers instead of sending them.
WIRE_READERS = {"LiveReplayer", "ShardedReplayer"}


class TestLineEndings:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize(
        "ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"]
    )
    def test_every_reader_splits_lines_alike(self, tmp_path, reader, ending):
        expected = EXPECTED
        if reader in WIRE_READERS:
            expected = [e for e in EXPECTED if type(e) is GraphEvent]
        assert READERS[reader](_write(tmp_path, ending)) == expected

    @pytest.mark.parametrize(
        "ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"]
    )
    def test_error_line_number_counts_every_ending(self, tmp_path, ending):
        path = tmp_path / "bad.csv"
        path.write_bytes(ending.join(LINES + ["NOPE,1,"]).encode())
        for parse in (
            codec.parse_stream_file,
            lambda p: list(codec.iter_parse_chunks(p)),
        ):
            with pytest.raises(StreamFormatError, match="line 8"):
                parse(path)

    def test_mixed_endings_in_one_file(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(
            b"ADD_VERTEX,1,a\r\nADD_VERTEX,2,b\rMARKER,mid,\n"
            b"ADD_EDGE,1-2,w\r\rUPDATE_VERTEX,2,c"
        )
        assert codec.parse_stream_file(path) == EXPECTED


class TestNonUtf8Offset:
    def test_offset_is_absolute_past_the_first_block(self, tmp_path):
        line = b"ADD_VERTEX,1," + b"x" * 50 + b"\n"
        prefix = line * (2 * codec.BLOCK_SIZE // len(line) + 3)
        assert len(prefix) > codec.BLOCK_SIZE
        path = tmp_path / "late.csv"
        path.write_bytes(prefix + b"ADD_VERTEX,2,ab\xffcd\n" + line)
        offset = len(prefix) + len(b"ADD_VERTEX,2,ab")
        for parse in (
            codec.parse_stream_file,
            lambda p: list(codec.iter_parse_chunks(p)),
        ):
            with pytest.raises(StreamFormatError) as excinfo:
                parse(path)
            assert excinfo.value.byte_offset == offset


def _held(path) -> list[str]:
    """Where this process still maps or has open ``path``."""
    target = os.path.realpath(path)
    held = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        held += [
            "maps" for line in maps if line.rstrip("\n").endswith(target)
        ]
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == target:
                held.append(f"fd {fd}")
        except OSError:
            continue  # the fd of the listdir itself is gone already
    return held


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self"
)
class TestParseErrorReleasesFile:
    """The exception (and its traceback) outlives the parse; the
    stream file's mapping and fd must not."""

    @staticmethod
    def _bad_stream(tmp_path):
        path = tmp_path / "bad.csv"
        good = [f"ADD_VERTEX,{i},state-{i}" for i in range(40_000)]
        good[20_000] = "NOPE,1,"
        path.write_text("\n".join(good) + "\n")
        return path

    def test_parse_stream_file(self, tmp_path):
        path = self._bad_stream(tmp_path)
        with pytest.raises(StreamFormatError, match="line 20001") as excinfo:
            codec.parse_stream_file(path)
        assert excinfo.value.__traceback__ is not None
        assert _held(path) == []

    def test_iter_parse_chunks(self, tmp_path):
        path = self._bad_stream(tmp_path)
        with pytest.raises(StreamFormatError, match="line 20001") as excinfo:
            for __ in codec.iter_parse_chunks(path):
                pass
        assert excinfo.value.__traceback__ is not None
        assert _held(path) == []

    def test_live_replayer(self, tmp_path):
        path = self._bad_stream(tmp_path)
        replayer = LiveReplayer(
            path,
            CallbackTransport(lambda line: None),
            rate=FAST,
            batch_size=256,
        )
        with pytest.raises(ReplayError, match="stream source failed") as info:
            replayer.run()
        assert isinstance(info.value.__cause__, StreamFormatError)
        assert _held(path) == []
