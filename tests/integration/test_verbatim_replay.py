"""Verbatim file replay sends exactly what the stream holds.

A CSV file replayed onto a CSV wire goes out as its stored bytes when
its block matches the canonical line grammar, and through
``parse_lines`` + ``format_lines`` otherwise.  Every fixture below mixes
in one hazard the grammar must refuse (or accept) correctly; whatever
the path, the receiver's bytes must equal ``format(parse(line))`` for
each graph line — through ``LiveReplayer`` and through
``ShardedReplayer`` at 1 and 2 workers (one source each) and every byte
transport.  Every captured wire also folds into a graph exactly as its
source does (:func:`~repro.graph.graph.fold_events`).

A GTB1 file goes out as its stored frames, re-framed to at most
``batch_size`` records; the receiver's decoded records must be the
stream's graph events, with or without a witness sidecar.  A malformed
file of either format is refused with the same typed error on every
path, naming its line or byte offset in its own file, and a transport
failure resumes from the last marker.
"""

from __future__ import annotations

import collections
import os

from dataclasses import dataclass

import pytest

from repro.core import binfmt, codec, witness
from repro.core.connectors import (
    CallbackTransport,
    PipeSpec,
    Transport,
    TransportSpec,
)
from repro.core.events import GraphEvent, add_edge, add_vertex, marker, pause, speed
from repro.core.multistream import offset_stream
from repro.core.replayer import LiveReplayer
from repro.core.sharding import ShardedReplayer
from repro.core.stream import GraphStream
from repro.errors import ConnectorError, ReplayError, StreamFormatError
from repro.graph.graph import fold_events
from tests.integration.wire import CAPTURES, tcp_capture, wire_folds, wire_frames

FAST = 1e9

#: One canonical graph line per 28-33 bytes: 3000 lines fill a block.
CANONICAL = "".join(f"ADD_VERTEX,{i},payload-{i}\n" for i in range(3000))

FIXTURES: dict[str, bytes] = {
    "canonical": b"ADD_VERTEX,1,a\nADD_EDGE,-5--3,x\\,y\\\\z\\n\\r\nMARKER,m,\n"
    b"UPDATE_VERTEX,0,\nREMOVE_EDGE,0-0,p\n",
    "padded": b"ADD_VERTEX, 1, a\n ADD_VERTEX ,2,b\nADD_EDGE, 1-2 ,w\n",
    "crlf": b"ADD_VERTEX,1,a\r\nMARKER,m,\r\nADD_EDGE,1-2,w\r\n",
    "lone-cr": b"ADD_VERTEX,1,a\rADD_VERTEX,2,b\rMARKER,m,\rADD_EDGE,1-2,w\r",
    "unknown-escape": b"ADD_VERTEX,1,a\\xb\nADD_VERTEX,2,c\n",
    "trailing-backslash": b"UPDATE_VERTEX,1,ab\\\nADD_VERTEX,2,c\n",
    "raw-comma": b"ADD_VERTEX,1,a,b\nADD_VERTEX,2,c\n",
    "ids": b"ADD_VERTEX,007,a\nADD_VERTEX,+5,b\nADD_VERTEX,-0,c\n"
    b"ADD_VERTEX,1_000,d\nADD_EDGE,01-+2,e\n",
    "comments-and-blanks": b"  # indented\n#c\n\n   \nADD_VERTEX,1,a\n\n"
    b"SPEED,2,\nADD_VERTEX,2,b\n",
    "no-final-newline": b"ADD_VERTEX,1,a\nADD_VERTEX,2,b",
    # Three blocks: canonical, one with a padded and a CRLF line, canonical.
    "multi-block": (CANONICAL + "ADD_VERTEX, 7, pad\nADD_VERTEX,8,crlf\r\n"
                    + CANONICAL + CANONICAL).encode(),
}


#: Every hazard in one file (mixed line endings included).
ALL_HAZARDS = b"\n".join(
    FIXTURES[name] for name in sorted(FIXTURES) if name != "no-final-newline"
) + b"\n" + FIXTURES["no-final-newline"]


def _expected_lines(path) -> list[bytes]:
    """``format(parse(line))`` of every graph line, newline-terminated."""
    return [
        (codec.format_event(event) + "\n").encode()
        for event in codec.parse_stream_file(path)
        if type(event) is GraphEvent
    ]


def _write(tmp_path, name: str, data: bytes):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    return path


def _source_fold(path):
    """:func:`fold_events` of a stream file: the delivery reference."""
    return fold_events(codec.parse_stream_file(path))


# -- LiveReplayer ------------------------------------------------------------


class TestLiveReplayer:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_callback_lines_equal_reformatted_lines(self, tmp_path, name, batch_size):
        path = _write(tmp_path, name, FIXTURES[name])
        received: list[str] = []
        report = LiveReplayer(
            path, CallbackTransport(received.append), rate=FAST, batch_size=batch_size
        ).run()
        expected = _expected_lines(path)
        assert [(line + "\n").encode() for line in received] == expected
        assert report.events_emitted == len(expected)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    def test_wire_bytes_equal_reformatted_lines(self, tmp_path, name, transport):
        path = _write(tmp_path, name, FIXTURES[name])
        with CAPTURES[transport](tmp_path, 1) as (specs, captured):
            spec = specs[0] if isinstance(specs, list) else specs
            LiveReplayer(path, spec.build(), rate=FAST, batch_size=4).run()
        assert captured == [b"".join(_expected_lines(path))]

    def test_stored_bytes_forwarded_without_parse_or_format(
        self, tmp_path, monkeypatch
    ):
        """A canonical file never reaches the parse or format step."""
        path = _write(tmp_path, "canonical", FIXTURES["canonical"] + CANONICAL.encode())

        def refuse(*args, **kwargs):
            raise AssertionError("canonical lines were parsed or formatted")

        for name in ("parse_lines", "format_lines", "iter_parse_chunks"):
            monkeypatch.setattr(codec, name, refuse)
        received: list[str] = []
        LiveReplayer(path, CallbackTransport(received.append), rate=FAST, batch_size=64).run()
        assert len(received) == 3004


# -- ShardedReplayer ---------------------------------------------------------


def _sharded(sources, specs):
    return ShardedReplayer(
        [str(path) for path in sources], specs, rate=FAST, batch_size=4
    ).run()


class TestShardedReplayer:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    def test_one_worker_sends_reformatted_bytes(self, tmp_path, name, transport):
        path = _write(tmp_path, name, FIXTURES[name])
        with CAPTURES[transport](tmp_path, 1) as (specs, captured):
            report = _sharded([path], specs)
        expected = _expected_lines(path)
        assert captured == [b"".join(expected)]
        assert report.events_emitted == len(expected)
        assert wire_folds(captured, "csv") == [_source_fold(path)]

    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    def test_two_workers_send_the_reformatted_multiset(self, tmp_path, transport):
        # Each worker's reader must agree with the parse on lines and on
        # their canonical bytes, whichever source it replays.
        sources = [
            _write(tmp_path, "all", ALL_HAZARDS),
            _write(tmp_path, "multi", FIXTURES["multi-block"]),
        ]
        with CAPTURES[transport](tmp_path, 2) as (specs, captured):
            report = _sharded(sources, specs)
        expected = [b"".join(_expected_lines(path)) for path in sources]
        # A TCP capture keeps accept order, not worker order.
        assert sorted(captured) == sorted(expected)
        if transport != "tcp":
            assert captured == expected
        assert report.events_emitted == sum(
            len(_expected_lines(path)) for path in sources
        )
        assert sorted(wire_folds(captured, "csv")) == sorted(map(_source_fold, sources))


class TestLoneCarriageReturnSharding:
    """Lone-CR sources replay on the same line boundaries as ``\\n``
    sources, at every worker."""

    LINES = [f"ADD_VERTEX,{i},v{i}" for i in range(6)] + ["MARKER,mid,"] + [
        f"ADD_VERTEX,{i},v{i}" for i in range(6, 12)
    ]

    def _replay(self, tmp_path, ending: str):
        directory = tmp_path / ending.encode().hex()
        directory.mkdir()
        sources = []
        for index in range(2):
            path = directory / f"stream-{index}.csv"
            lines = [line.replace(",v", f",w{index}-") for line in self.LINES]
            path.write_bytes((ending.join(lines) + ending).encode())
            sources.append(str(path))
        outs = [directory / f"out-{index}.csv" for index in range(2)]
        report = ShardedReplayer(
            sources, [PipeSpec(target=str(out)) for out in outs], rate=FAST
        ).run()
        return report, [out.read_bytes() for out in outs]

    def test_events_and_marker_reach_both_shards(self, tmp_path):
        report, wires = self._replay(tmp_path, "\r")
        assert [shard.events_emitted for shard in report.shards] == [12, 12]
        assert [[label for label, __ in shard.marker_times] for shard in report.shards] == [
            ["mid"],
            ["mid"],
        ]
        assert wires == self._replay(tmp_path, "\n")[1]


# -- typed refusals ----------------------------------------------------------


class TestSourceErrors:
    """Malformed files fail exactly as the parse path failed: same byte
    offset or line number, same ``ReplayError`` wrapping."""

    def _replay(self, tmp_path, data: bytes):
        path = _write(tmp_path, "bad", data)
        with pytest.raises(ReplayError) as err:
            LiveReplayer(
                path, CallbackTransport(lambda line: None), rate=FAST, batch_size=256
            ).run()
        return err.value

    def test_bad_byte_past_the_first_block(self, tmp_path):
        data = CANONICAL.encode() + b"ADD_VERTEX,1,caf\xe9\n" + CANONICAL.encode()
        error = self._replay(tmp_path, data)
        assert str(error) == (
            "stream source failed: byte offset 84796: "
            "stream file is not valid UTF-8 (invalid continuation byte)"
        )
        assert isinstance(error.__cause__, StreamFormatError)
        assert error.__cause__.byte_offset == 84796

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"NOPE,1,", "unknown command 'NOPE'"),
            (
                b"SPEED,fast,",
                "bad SPEED factor: could not convert string to float: 'fast'",
            ),
        ],
    )
    def test_bad_line_in_block_three(self, tmp_path, line, message):
        data = (CANONICAL * 3).encode() + line + b"\n" + CANONICAL.encode()
        error = self._replay(tmp_path, data)
        assert str(error) == f"stream source failed: line 9001: {message}"
        assert error.__cause__.line_number == 9001

    def test_stored_byte_emission_refuses_a_bad_byte(self, tmp_path):
        path = _write(
            tmp_path, "bad", CANONICAL.encode() + b"ADD_VERTEX,1,caf\xe9\n"
        )
        with pytest.raises(ReplayError, match="stream source failed") as err:
            _sharded([path], PipeSpec(target=str(tmp_path / "out")))
        assert isinstance(err.value.__cause__, StreamFormatError)
        assert err.value.__cause__.byte_offset == 84796

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_refusal_keeps_its_type_across_workers(self, tmp_path, workers):
        """A bad line in the last source refuses with that file's own
        line number, and the failure names its worker."""
        good = _write(tmp_path, "good", CANONICAL.encode())
        lines = [f"ADD_VERTEX,{i},v" for i in range(4000)] + ["ADD_VERTEX,abc,x"]
        path = _write(tmp_path, "bad", "\n".join(lines * 2).encode() + b"\n")
        sources = [good, path][-workers:]
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(workers)]
        with pytest.raises(ReplayError, match="stream source failed") as err:
            _sharded(sources, outs)
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        assert str(cause) == "line 4001: vertex id 'abc' is not an integer"
        assert cause.line_number == 4001
        assert "line 4001: vertex id" in str(err.value)
        if workers == 2:
            assert "worker 1: ReplayError: stream source failed" in str(err.value)
            assert "worker 0" not in str(err.value)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sidecar", [False, True], ids=["walk", "witness"])
    def test_gtb_refusal_keeps_its_type_across_workers(
        self, tmp_path, workers, sidecar
    ):
        """A bad record in the last source refuses at that file's own
        byte offset, and the failure names its worker."""
        good = _write_gtb(tmp_path, sidecar, index=1)
        path, offset = _corrupt_gtb(tmp_path, sidecar)
        sources = [good, path][-workers:]
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(workers)]
        with pytest.raises(ReplayError, match="stream source failed") as err:
            _sharded(sources, outs)
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        assert cause.byte_offset == offset
        assert str(cause).startswith(f"byte offset {offset}: ")
        if workers == 2:
            assert f"worker 1: ReplayError: stream source failed: {cause}" in str(
                err.value
            )

    def test_transcoding_sends_what_the_stored_path_sends_before_a_refusal(
        self, tmp_path
    ):
        """A bad tag in the seventh 256-record frame of a 3,000-event
        GTB1 file: a CSV wire (the file decoded in 1,024-event chunks)
        gets the same 1,536 events before the refusal as a GTB1 wire
        (stored frames), and both name the same byte."""
        path = tmp_path / "stream.gtb"
        binfmt.write_binary_stream(
            path, [add_vertex(i) for i in range(3000)], batch_records=256
        )
        offset = _graph_frames(path)[6] + binfmt.FRAME_HEADER_SIZE
        data = bytearray(path.read_bytes())
        data[offset] = 200
        path.write_bytes(bytes(data))
        sent = {}
        for wire_format in ("csv", "binary"):
            out = tmp_path / f"out.{wire_format}"
            with pytest.raises(ReplayError, match="stream source failed") as err:
                ShardedReplayer(
                    str(path),
                    PipeSpec(target=str(out)),
                    rate=FAST,
                    stream_format=wire_format,
                    batch_size=64,
                ).run()
            assert err.value.__cause__.byte_offset == offset
            wire = out.read_bytes()
            sent[wire_format] = (
                sum(map(len, wire_frames(wire)))
                if wire_format == "binary"
                else len(wire.splitlines())
            )
        assert sent == {"csv": 1536, "binary": 1536}

    @pytest.mark.parametrize("batch_size", [4, 512], ids=["split", "whole"])
    def test_frame_count_refusal_has_the_witness_offset(self, tmp_path, batch_size):
        """A graph frame whose header claims one record fewer than it
        holds is refused at its count field: with the sidecar (bulk
        witness check), without it (per-frame walk, whether the frame
        is re-framed or sent whole), and transcoded to CSV (decoded
        inline by the replayer)."""
        path = _write_gtb(tmp_path, sidecar=True)
        count_field = _graph_frames(path)[2] + 1
        data = bytearray(path.read_bytes())
        data[count_field] -= 1
        path.write_bytes(bytes(data))
        offsets = []
        cases = [(True, "auto"), (False, "auto"), (False, "csv")]
        for sidecar, stream_format in cases:
            if not sidecar:
                witness.witness_path(path).unlink(missing_ok=True)
            with pytest.raises(ReplayError, match="stream source failed") as err:
                ShardedReplayer(
                    str(path),
                    PipeSpec(target=str(tmp_path / "out")),
                    rate=FAST,
                    workers=1,
                    stream_format=stream_format,
                    batch_size=batch_size,
                ).run()
            cause = err.value.__cause__
            assert isinstance(cause, StreamFormatError)
            assert "promises 299 record(s)" in str(cause)
            offsets.append(cause.byte_offset)
        assert offsets == [count_field] * 3


# -- GTB1 sources ------------------------------------------------------------


def _gtb_events():
    """Frames of 300 records (larger than every tested batch), markers,
    a SPEED and a PAUSE."""
    events = []
    for block in range(5):
        for i in range(150):
            vertex = block * 1000 + i
            events.append(add_vertex(vertex, f"s{vertex}"))
            events.append(add_edge(vertex, vertex + 1, "w,\\x"))
        events.append(marker(f"m{block}"))
        if block == 1:
            events.append(speed(2.0))
        if block == 2:
            events.append(pause(0.001))
    return events


def _write_gtb(tmp_path, sidecar: bool, index: int = 0):
    """Source ``index``: :func:`_gtb_events` with ids ``index * 100000``
    up, so the sources of one replay are disjoint streams."""
    path = tmp_path / f"stream-{index}.gtb"
    binfmt.write_binary_stream(
        path,
        offset_stream(GraphStream(_gtb_events()), index * 100_000),
        batch_records=300,
        witness_path=witness.witness_path(path) if sidecar else None,
    )
    return path


def _graph_frames(path) -> list[int]:
    """The file offset of each graph frame of a GTB1 file."""
    return [
        offset
        for offset, __, kind in binfmt.read_frame_index(path)
        if kind == binfmt.FRAME_GRAPH
    ]


def _corrupt_gtb(tmp_path, sidecar: bool):
    """A GTB1 file whose third graph frame's first record has an unknown
    tag; returns the path and that record's byte offset."""
    path = _write_gtb(tmp_path, sidecar)
    offset = _graph_frames(path)[2] + binfmt.FRAME_HEADER_SIZE
    data = bytearray(path.read_bytes())
    data[offset] = 200
    path.write_bytes(bytes(data))
    return path, offset


def _graph_multiset(events) -> collections.Counter:
    return collections.Counter(event for event in events if type(event) is GraphEvent)


class TestGtbReplay:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    @pytest.mark.parametrize("batch_size", [1, 32, 256])
    @pytest.mark.parametrize("sidecar", [False, True], ids=["walk", "witness"])
    def test_receiver_decodes_the_stream_graph_events(
        self, tmp_path, workers, transport, batch_size, sidecar
    ):
        sources = [_write_gtb(tmp_path, sidecar, index) for index in range(workers)]
        with CAPTURES[transport](tmp_path, workers) as (specs, captured):
            report = ShardedReplayer(
                [str(path) for path in sources],
                specs,
                rate=FAST,
                batch_size=batch_size,
            ).run()
        frames = [frame for wire in captured for frame in wire_frames(wire)]
        expected = _graph_multiset(
            event for path in sources for event in codec.parse_stream_file(path)
        )
        assert _graph_multiset(e for frame in frames for e in frame) == expected
        assert all(0 < len(frame) <= batch_size for frame in frames)
        assert report.events_emitted == sum(expected.values())
        assert sorted(wire_folds(captured, "binary")) == sorted(
            map(_source_fold, sources)
        )
        assert [label for label, __ in report.marker_times] == [
            f"m{block}" for block in range(5)
        ]

    @pytest.mark.parametrize("batch_size", [1, 32, 256])
    def test_corrupt_record_has_one_offset_with_and_without_a_sidecar(
        self, tmp_path, batch_size
    ):
        offsets = []
        for sidecar in (False, True):
            directory = tmp_path / str(sidecar)
            directory.mkdir()
            path, offset = _corrupt_gtb(directory, sidecar)
            with pytest.raises(ReplayError) as err:
                ShardedReplayer(
                    str(path),
                    PipeSpec(target=str(directory / "out")),
                    rate=FAST,
                    batch_size=batch_size,
                ).run()
            assert "unknown" in str(err.value.__cause__)
            offsets.append(err.value.__cause__.byte_offset)
        assert offsets == [offset, offset]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_connector_error_resumes_from_the_last_marker(
        self, tmp_path, workers, transport, batch_size
    ):
        sources = [
            str(_write_gtb(tmp_path, sidecar=True, index=index))
            for index in range(workers)
        ]
        fail_at = 384 // batch_size  # past the first marker of every source
        if transport == "pipe":
            captured: list[bytes] = []
            outs = [tmp_path / f"wire-{index}.out" for index in range(workers)]
            specs = [
                _FailOnceSpec(PipeSpec(target=str(out), append=True), fail_at)
                for out in outs
            ]
            report = ShardedReplayer(
                sources, specs, rate=FAST, batch_size=batch_size, max_resumes=1,
            ).run()
            captured.extend(out.read_bytes() for out in outs)
        else:
            with tcp_capture(tmp_path, workers, 2) as (spec, captured):
                report = ShardedReplayer(
                    sources, _FailOnceSpec(spec, fail_at), rate=FAST,
                    batch_size=batch_size, max_resumes=1,
                ).run()
        received = _graph_multiset(
            e for wire in captured for frame in wire_frames(wire) for e in frame
        )
        expected = _graph_multiset(
            event for path in sources for event in codec.parse_stream_file(path)
        )
        assert report.resumes == workers
        assert not expected - received
        assert sum((received - expected).values()) == report.redeliveries > 0
        assert report.events_emitted == sum(expected.values()) + report.redeliveries


#: Specs that already failed once, per process (a worker's resume
#: rebuilds its transport from the same spec).
_FAILED: set = set()


@dataclass(frozen=True)
class _FailOnceSpec(TransportSpec):
    """Builds ``inner``; the first transport built in a process raises
    :class:`ConnectorError` at its ``fail_at``-th send, before sending."""

    inner: TransportSpec
    fail_at: int

    def build(self):
        return _FailOnce(self.inner.build(), self)


class _FailOnce(Transport):
    def __init__(self, inner: Transport, spec: _FailOnceSpec):
        self._inner = inner
        self._key = (os.getpid(), spec)
        self._sends = 0
        self._fail_at = spec.fail_at

    def send_frame(self, frame, count: int) -> None:
        self._sends += 1
        if self._sends == self._fail_at and self._key not in _FAILED:
            _FAILED.add(self._key)
            raise ConnectorError("injected mid-stream failure")
        self._inner.send_frame(frame, count)

    def close(self) -> None:
        self._inner.close()
