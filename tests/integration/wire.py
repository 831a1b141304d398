"""Byte-capturing receivers and wire decoders for replay tests.

Each capture is a context manager over ``(tmp_path, workers)`` that
yields ``(specs, captured)``: the transport spec(s) to hand to a
replayer, and a list that holds every connection's (or worker's) bytes
once the block exits.  Pipe and shm captures keep worker order; a TCP
capture keeps accept order.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

from repro.core import binfmt, codec, shm
from repro.core.connectors import PipeSpec, ShmSpec, TcpSpec
from repro.core.events import Event
from repro.graph.graph import fold_events


@contextlib.contextmanager
def pipe_capture(tmp_path, workers):
    """PipeTransport into one file per worker."""
    outs = [tmp_path / f"wire-{index}.out" for index in range(workers)]
    captured: list[bytes] = []
    yield [PipeSpec(target=str(out)) for out in outs], captured
    captured.extend(out.read_bytes() for out in outs)


@contextlib.contextmanager
def tcp_capture(tmp_path, workers, connections_per_worker=1):
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
def shm_capture(tmp_path, workers):
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


CAPTURES = {"pipe": pipe_capture, "tcp": tcp_capture, "shm": shm_capture}


def wire_frames(wire: bytes) -> list[list]:
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


def wire_events(wire: bytes, fmt: str) -> list[Event]:
    """The events on a captured ``fmt`` (``"csv"`` or ``"binary"``)
    wire, in arrival order."""
    if fmt == "binary":
        return [event for frame in wire_frames(wire) for event in frame]
    return codec.parse_lines(wire.decode("utf-8").splitlines())


def wire_folds(wires: list[bytes], fmt: str) -> list[tuple[int, str]]:
    """:func:`~repro.graph.graph.fold_events` of each captured wire."""
    return [fold_events(wire_events(wire, fmt)) for wire in wires]
