"""Verbatim file replay sends exactly what the stream holds.

A CSV file replayed onto a CSV wire goes out as its stored bytes when
its block matches the canonical line grammar, and through
``parse_lines`` + ``format_lines`` otherwise.  Every fixture below mixes
in one hazard the grammar must refuse (or accept) correctly; whatever
the path, the receiver's bytes must equal ``format(parse(line))`` for
each graph line — through ``LiveReplayer`` and through
``ShardedReplayer`` at 1 and 2 workers and every byte transport.

A GTB1 file goes out as its stored frames, re-framed to at most
``batch_size`` records; the receiver's decoded records must be the
stream's graph events, with or without a witness sidecar.  A malformed
file of either format is refused with the same typed error on every
path, and a transport failure resumes from the last marker.
"""

from __future__ import annotations

import collections
import contextlib
import os
import socket
import threading
import time

from dataclasses import dataclass

import pytest

from repro.core import binfmt, codec, shm, witness
from repro.core.connectors import (
    CallbackTransport,
    PipeSpec,
    ShmSpec,
    TcpSpec,
    Transport,
    TransportSpec,
)
from repro.core.events import GraphEvent, add_edge, add_vertex, marker, pause, speed
from repro.core.replayer import LiveReplayer
from repro.core.sharding import ShardedReplayer, _entity_shard, write_shards
from repro.errors import ConnectorError, ReplayError, StreamFormatError

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


# -- byte-capturing receivers ------------------------------------------------


@contextlib.contextmanager
def _pipe_capture(tmp_path, workers):
    """PipeTransport into one file per worker."""
    outs = [tmp_path / f"wire-{index}.out" for index in range(workers)]
    captured: list[bytes] = []
    yield [PipeSpec(target=str(out)) for out in outs], captured
    captured.extend(out.read_bytes() for out in outs)


@contextlib.contextmanager
def _tcp_capture(tmp_path, workers, connections_per_worker=1):
    """A loopback server keeping each connection's bytes."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(30.0)
    buffers: list[bytearray] = []

    def read(connection, buffer):
        with connection:
            while chunk := connection.recv(1 << 16):
                buffer += chunk

    def serve():
        readers = []
        for __ in range(workers * connections_per_worker):
            connection, __ = server.accept()
            buffer = bytearray()
            buffers.append(buffer)
            reader = threading.Thread(target=read, args=(connection, buffer))
            reader.start()
            readers.append(reader)
        for reader in readers:
            reader.join(30.0)

    acceptor = threading.Thread(target=serve)
    acceptor.start()
    captured: list[bytes] = []
    try:
        yield TcpSpec(port=server.getsockname()[1]), captured
    finally:
        acceptor.join(30.0)
        server.close()
    captured.extend(bytes(buffer) for buffer in buffers)


@contextlib.contextmanager
def _shm_capture(tmp_path, workers):
    """One ring per worker, drained slot by slot into bytes."""
    rings = [shm.ShmRing.create(slots=256, arena_bytes=1 << 20) for __ in range(workers)]
    buffers = [bytearray() for __ in rings]

    def drain(ring, buffer):
        consumer = shm.RingConsumer(ring)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            slots = consumer.pop_available()
            for slot in slots:
                if slot.kind in (shm.SLOT_RAW, shm.SLOT_FRAME):
                    buffer += slot.payload
                if isinstance(slot.payload, memoryview):
                    slot.payload.release()
            consumer.advance()
            if consumer.finished:
                return
            if not slots:
                time.sleep(0.001)

    drainers = [
        threading.Thread(target=drain, args=(ring, buffer))
        for ring, buffer in zip(rings, buffers)
    ]
    for drainer in drainers:
        drainer.start()
    captured: list[bytes] = []
    try:
        yield [ShmSpec(name=ring.name) for ring in rings], captured
    finally:
        for drainer in drainers:
            drainer.join(30.0)
        for ring in rings:
            ring.close()
            ring.unlink()
    captured.extend(bytes(buffer) for buffer in buffers)


CAPTURES = {"pipe": _pipe_capture, "tcp": _tcp_capture, "shm": _shm_capture}


def _lines(wire: bytes) -> list[bytes]:
    return wire.splitlines(keepends=True)


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


def _sharded(path, specs, workers):
    return ShardedReplayer(
        str(path),
        specs,
        rate=FAST,
        workers=workers,
        batch_size=4,
    ).run()


class TestShardedReplayer:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    def test_one_worker_sends_reformatted_bytes(self, tmp_path, name, transport):
        path = _write(tmp_path, name, FIXTURES[name])
        with CAPTURES[transport](tmp_path, 1) as (specs, captured):
            report = _sharded(path, specs, 1)
        expected = _expected_lines(path)
        assert captured == [b"".join(expected)]
        assert report.events_emitted == len(expected)

    @pytest.mark.parametrize("transport", sorted(CAPTURES))
    def test_two_workers_send_the_reformatted_multiset(self, tmp_path, transport):
        # The partitioner and both workers' readers must agree on lines
        # and on their canonical bytes.
        path = _write(tmp_path, "all", ALL_HAZARDS)
        with CAPTURES[transport](tmp_path, 2) as (specs, captured):
            report = _sharded(path, specs, 2)
        expected = _expected_lines(path)
        wire_lines = [line for wire in captured for line in _lines(wire)]
        assert collections.Counter(wire_lines) == collections.Counter(expected)
        assert report.events_emitted == len(expected)
        assert all(wire.endswith(b"\n") for wire in captured if wire)


@pytest.mark.parametrize("shard_by", ["round-robin", "hash"])
def test_partition_places_every_graph_line_once(tmp_path, shard_by):
    """Padded and indented graph lines go to one shard, like canonical
    ones; only control lines are replicated."""
    path = _write(tmp_path, "all", ALL_HAZARDS)
    plan = write_shards(str(path), 3, tmp_path / "shards", shard_by=shard_by)
    source = codec.parse_stream_file(path)
    graph = [event for event in source if type(event) is GraphEvent]
    shards = [codec.parse_stream_file(shard) for shard in plan.paths]
    placed = [event for shard in shards for event in shard if type(event) is GraphEvent]
    assert collections.Counter(placed) == collections.Counter(graph)
    assert plan.control_events == len(source) - len(graph)
    if shard_by == "hash":
        for index, shard in enumerate(shards):
            assert all(
                _entity_shard(event.entity, 3) == index
                for event in shard
                if type(event) is GraphEvent
            )


class TestLoneCarriageReturnSharding:
    """Lone-CR files shard on the same line boundaries as ``\\n`` files."""

    LINES = [f"ADD_VERTEX,{i},v{i}" for i in range(6)] + ["MARKER,mid,"] + [
        f"ADD_VERTEX,{i},v{i}" for i in range(6, 12)
    ]

    def _replay(self, tmp_path, ending: str):
        directory = tmp_path / ending.encode().hex()
        directory.mkdir()
        path = directory / "stream.csv"
        path.write_bytes((ending.join(self.LINES) + ending).encode())
        outs = [directory / f"out-{index}.csv" for index in range(2)]
        replayer = ShardedReplayer(
            str(path),
            [PipeSpec(target=str(out)) for out in outs],
            rate=FAST,
            workers=2,
        )
        report = replayer.run()
        return replayer.plan, report, [out.read_bytes() for out in outs]

    def test_events_and_marker_reach_both_shards(self, tmp_path):
        plan, report, wires = self._replay(tmp_path, "\r")
        assert plan.graph_events == (6, 6)
        assert plan.control_events == 1
        assert [shard.events_emitted for shard in report.shards] == [6, 6]
        assert [[label for label, __ in shard.marker_times] for shard in report.shards] == [
            ["mid"],
            ["mid"],
        ]
        assert wires == self._replay(tmp_path, "\n")[2]


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
            _sharded(path, PipeSpec(target=str(tmp_path / "out")), 1)
        assert isinstance(err.value.__cause__, StreamFormatError)
        assert err.value.__cause__.byte_offset == 84796

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_refusal_keeps_its_type_across_workers(self, tmp_path, workers):
        lines = [f"ADD_VERTEX,{i},v" for i in range(4000)] + ["ADD_VERTEX,abc,x"]
        path = _write(tmp_path, "bad", "\n".join(lines * 2).encode() + b"\n")
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(workers)]
        with pytest.raises(ReplayError, match="stream source failed") as err:
            _sharded(path, outs, workers)
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        assert str(cause) == "line 4001: vertex id 'abc' is not an integer"
        # At 2 workers the bad line is line 2001 of shard-0.csv: the
        # refusal names its line in the source all the same.
        assert cause.line_number == 4001
        assert "line 4001: vertex id" in str(err.value)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sidecar", [False, True], ids=["walk", "witness"])
    def test_gtb_refusal_keeps_its_type_across_workers(
        self, tmp_path, workers, sidecar
    ):
        path, offset = _corrupt_gtb(tmp_path, sidecar)
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(workers)]
        with pytest.raises(ReplayError, match="stream source failed") as err:
            _sharded(path, outs, workers)
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        # At 2 workers the record sits elsewhere in its shard file: the
        # refusal names its offset in the source all the same.
        assert cause.byte_offset == offset
        assert str(cause).startswith(f"byte offset {offset}: ")
        assert "shard-" not in str(cause)

    def test_hash_sharded_refusal_names_its_source_line(self, tmp_path):
        """Under entity-hash sharding, with control lines copied to every
        shard, a worker's refusal still names the source line."""
        lines = [f"ADD_VERTEX,{i},v" for i in range(2000)] + ["MARKER,half"]
        lines += [f"ADD_VERTEX,{i},v" for i in range(2000, 4000)]
        lines += ["ADD_EDGE,7-x,w"] + [f"ADD_VERTEX,{i},v" for i in range(4000, 4100)]
        path = _write(tmp_path, "bad", "\n".join(lines).encode() + b"\n")
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(3)]
        with pytest.raises(ReplayError, match="stream source failed") as err:
            ShardedReplayer(
                str(path), outs, rate=FAST, workers=3, shard_by="hash"
            ).run()
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        assert cause.line_number == 4002
        assert str(cause).startswith("line 4002: edge id '7-x'")

    def test_hash_sharding_refuses_a_bad_tag_at_its_source_offset(self, tmp_path):
        """The partitioner's own entity peek refuses an unknown tag at
        the record's offset in the file, not in its frame."""
        path, offset = _corrupt_gtb(tmp_path, sidecar=False)
        outs = [PipeSpec(target=str(tmp_path / f"out-{i}")) for i in range(3)]
        with pytest.raises((ReplayError, StreamFormatError)) as err:
            ShardedReplayer(
                str(path), outs, rate=FAST, workers=3, shard_by="hash"
            ).run()
        refusal = err.value
        if isinstance(refusal, ReplayError):
            refusal = refusal.__cause__
        assert refusal.byte_offset == offset
        assert str(refusal) == (
            f"byte offset {offset}: record tag 200 is not a graph event"
        )

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


def _write_gtb(tmp_path, sidecar: bool):
    path = tmp_path / "stream.gtb"
    binfmt.write_binary_stream(
        path,
        _gtb_events(),
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


def _wire_frames(wire: bytes) -> list[list]:
    """Every GTB1 frame on a captured wire, decoded (each connection's
    stream magic is skipped)."""
    frames = []
    position = 0
    while position < len(wire):
        if wire.startswith(binfmt.MAGIC, position):
            position += len(binfmt.MAGIC)
            continue
        __, __, body = binfmt._FRAME_HEADER.unpack_from(wire, position)
        end = position + binfmt.FRAME_HEADER_SIZE + body
        frames.append(binfmt.decode_frame_events(wire[position:end]))
        position = end
    return frames


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
        path = _write_gtb(tmp_path, sidecar)
        with CAPTURES[transport](tmp_path, workers) as (specs, captured):
            report = ShardedReplayer(
                str(path), specs, rate=FAST, workers=workers, batch_size=batch_size
            ).run()
        frames = [frame for wire in captured for frame in _wire_frames(wire)]
        expected = _graph_multiset(_gtb_events())
        assert _graph_multiset(e for frame in frames for e in frame) == expected
        assert all(0 < len(frame) <= batch_size for frame in frames)
        assert report.events_emitted == sum(expected.values())
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
        path = _write_gtb(tmp_path, sidecar=True)
        fail_at = 384 // batch_size  # past the first marker of every shard
        if transport == "pipe":
            captured: list[bytes] = []
            outs = [tmp_path / f"wire-{index}.out" for index in range(workers)]
            specs = [
                _FailOnceSpec(PipeSpec(target=str(out), append=True), fail_at)
                for out in outs
            ]
            report = ShardedReplayer(
                str(path), specs, rate=FAST, workers=workers,
                batch_size=batch_size, max_resumes=1,
            ).run()
            captured.extend(out.read_bytes() for out in outs)
        else:
            with _tcp_capture(tmp_path, workers, 2) as (spec, captured):
                report = ShardedReplayer(
                    str(path), _FailOnceSpec(spec, fail_at), rate=FAST,
                    workers=workers, batch_size=batch_size, max_resumes=1,
                ).run()
        received = _graph_multiset(
            e for wire in captured for frame in _wire_frames(wire) for e in frame
        )
        expected = _graph_multiset(_gtb_events())
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
