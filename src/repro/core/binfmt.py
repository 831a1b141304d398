"""Length-prefixed binary graph stream format (peer of the CSV format).

The CSV format of :mod:`repro.core.events` is the paper's interchange
representation; it is also the replay engine's parse bottleneck — the
scale-out benchmark shows parsed-events emission saturating an order of
magnitude below zero-copy byte emission, entirely on string splitting
and integer parsing.  This module defines a binary encoding designed
for cheap machine decoding (SProBench-style HPC stream framing): fixed
``struct``-packed fields, one-byte :class:`~repro.core.events.EventType`
tags, and explicit length prefixes so a reader slices records and
frames without ever scanning content for separators.

Wire layout (all integers little-endian)::

    file    :=  magic frame* [index]
    magic   :=  "GTB1"                                   (4 bytes)
    frame   :=  kind:u8  count:u32  body_len:u32  body   (9-byte header)
                kind 0: graph frame  — body is `count` graph records
                kind 1: control frame — body is 1 MARKER/SPEED/PAUSE record
    record  :=  tag:u8  body_len:u32  body               (5-byte header)
                vertex body:  id:i64, payload utf-8
                edge   body:  source:i64, target:i64, payload utf-8
                MARKER body:  label utf-8 (verbatim — no escaping)
                SPEED  body:  factor:f64
                PAUSE  body:  seconds:f64
    index   :=  "GTBI" n:u32 (offset:u64 count:u32 kind:u8)*n
                index_offset:u64 "GTBE"                  (trailing)

Frames are the mmap-able batch index of the stream: every frame header
carries its extent, so :func:`iter_binary_batches` jumps header to
header and hands each graph frame to the transport as one zero-copy
:class:`~repro.core.codec.RawBatch` — the binary analogue of the CSV
newline-run scanner, without the newline scan.  The trailing index
summarises the frame table for O(1) counting and random access; files
cut off mid-stream (or written through a raw pipe, which never sees the
footer) remain fully readable by header jumping.

Payloads and marker labels are raw UTF-8 — the CSV escaping rules
(``\\,``, ``\\n``, ...) do not exist here, so any string round-trips
byte-exactly.  SPEED/PAUSE values are IEEE doubles, exact where CSV's
``%g`` rendering rounds.

``_TAG_BY_TYPE`` is a hand-maintained literal on purpose: the wire
format must stay stable even if the enum is ever reordered.  The
``SCHEMA004`` check rule verifies it stays in lockstep with
:class:`~repro.core.events.EventType` and the CSV dispatch tables.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.codec import RawBatch
    from repro.core.tracing import Tracer

from repro.core.events import (
    EdgeId,
    Event,
    EventType,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
)
from repro.errors import StreamFormatError

__all__ = [
    "MAGIC",
    "FRAME_GRAPH",
    "FRAME_CONTROL",
    "detect_format",
    "encode_event",
    "decode_event",
    "encode_graph_frame",
    "encode_control_frame",
    "decode_frame_events",
    "scan_frame",
    "iter_frame_record_spans",
    "frame_info",
    "BinaryStreamWriter",
    "write_binary_stream",
    "iter_binary_batches",
    "iter_wire_frame_counts",
    "iter_parse_binary_chunks",
    "parse_binary_stream",
    "read_frame_index",
    "convert_stream",
]

#: First bytes of every binary stream file.
MAGIC = b"GTB1"
#: Leads the trailing frame index.
INDEX_MAGIC = b"GTBI"
#: Last four bytes of an indexed file.
END_MAGIC = b"GTBE"

#: Frame kinds.
FRAME_GRAPH = 0
FRAME_CONTROL = 1

_FRAME_HEADER = struct.Struct("<BII")  # kind, record count, body length
_RECORD_HEADER = struct.Struct("<BI")  # tag, body length
_I64 = struct.Struct("<q")
_I64_PAIR = struct.Struct("<qq")
_F64 = struct.Struct("<d")
_INDEX_ENTRY = struct.Struct("<QIB")  # frame offset, record count, kind
_INDEX_COUNT = struct.Struct("<I")
_INDEX_OFFSET = struct.Struct("<Q")

FRAME_HEADER_SIZE = _FRAME_HEADER.size
RECORD_HEADER_SIZE = _RECORD_HEADER.size
#: Positions of the record-count and body-length fields in a frame
#: header.  A frame-level refusal names the field that is wrong, at the
#: byte offset :func:`repro.core.witness.verify_stream` reports for it.
_COUNT_FIELD = 1
_BODY_FIELD = 5

#: Wire tag per event type.  A hand-maintained literal (not derived from
#: enum order) so the on-disk format survives enum refactors; SCHEMA004
#: checks it stays a bijection with ``EventType``.
_TAG_BY_TYPE: dict[EventType, int] = {
    EventType.ADD_VERTEX: 1,
    EventType.REMOVE_VERTEX: 2,
    EventType.UPDATE_VERTEX: 3,
    EventType.ADD_EDGE: 4,
    EventType.REMOVE_EDGE: 5,
    EventType.UPDATE_EDGE: 6,
    EventType.MARKER: 7,
    EventType.SPEED: 8,
    EventType.PAUSE: 9,
}

_TYPE_BY_TAG: dict[int, EventType] = {
    tag: event_type for event_type, tag in _TAG_BY_TYPE.items()
}


def detect_format(path: str | Path) -> str:
    """``"binary"`` when ``path`` starts with the stream magic, else
    ``"csv"``.

    Only the first four bytes are read; an empty or short file is CSV
    (the CSV reader handles empty files as empty streams).
    """
    with open(path, "rb") as handle:
        return "binary" if handle.read(len(MAGIC)) == MAGIC else "csv"


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------


def _encode_graph(event: GraphEvent) -> bytes:
    tag = _TAG_BY_TYPE[event.event_type]
    payload = event.payload.encode("utf-8")
    entity = event.entity
    if type(entity) is EdgeId:
        body = _I64_PAIR.pack(entity.source, entity.target) + payload
    else:
        body = _I64.pack(entity) + payload
    return _RECORD_HEADER.pack(tag, len(body)) + body


def _encode_marker(event: MarkerEvent) -> bytes:
    body = event.label.encode("utf-8")
    return _RECORD_HEADER.pack(_TAG_BY_TYPE[EventType.MARKER], len(body)) + body


def _encode_speed(event: SpeedEvent) -> bytes:
    return _RECORD_HEADER.pack(_TAG_BY_TYPE[EventType.SPEED], 8) + _F64.pack(
        event.factor
    )


def _encode_pause(event: PauseEvent) -> bytes:
    return _RECORD_HEADER.pack(_TAG_BY_TYPE[EventType.PAUSE], 8) + _F64.pack(
        event.seconds
    )


_ENCODERS: dict[type, Callable[[Event], bytes]] = {
    GraphEvent: _encode_graph,
    MarkerEvent: _encode_marker,
    SpeedEvent: _encode_speed,
    PauseEvent: _encode_pause,
}


def encode_event(event: Event) -> bytes:
    """Serialize one event as a binary record (header + body)."""
    encoder = _ENCODERS.get(type(event))
    if encoder is not None:
        return encoder(event)
    for event_class, candidate in _ENCODERS.items():
        if isinstance(event, event_class):
            return candidate(event)
    raise TypeError(f"cannot serialize {type(event).__name__}")


# ---------------------------------------------------------------------------
# Record decoding
# ---------------------------------------------------------------------------

_NEW_GRAPH_EVENT = GraphEvent.__new__
_NEW_EDGE_ID = EdgeId.__new__
_SET = object.__setattr__


def _vertex_decoder(event_type: EventType):
    unpack_id = _I64.unpack_from

    def decode(
        buf,
        start: int,
        end: int,
        new=_NEW_GRAPH_EVENT,
        cls=GraphEvent,
        set_attr=_SET,
    ) -> GraphEvent:
        event = new(cls)
        set_attr(event, "event_type", event_type)
        set_attr(event, "entity", unpack_id(buf, start)[0])
        set_attr(event, "payload", str(buf[start + 8 : end], "utf-8"))
        return event

    return decode


def _edge_decoder(event_type: EventType):
    unpack_pair = _I64_PAIR.unpack_from

    def decode(
        buf,
        start: int,
        end: int,
        new=_NEW_GRAPH_EVENT,
        cls=GraphEvent,
        set_attr=_SET,
        new_edge=_NEW_EDGE_ID,
        edge_cls=EdgeId,
    ) -> GraphEvent:
        source, target = unpack_pair(buf, start)
        edge = new_edge(edge_cls)
        set_attr(edge, "source", source)
        set_attr(edge, "target", target)
        event = new(cls)
        set_attr(event, "event_type", event_type)
        set_attr(event, "entity", edge)
        set_attr(event, "payload", str(buf[start + 16 : end], "utf-8"))
        return event

    return decode


def _marker_decoder(buf, start: int, end: int) -> MarkerEvent:
    return MarkerEvent(str(buf[start:end], "utf-8"))


def _speed_decoder(buf, start: int, end: int) -> SpeedEvent:
    return SpeedEvent(_F64.unpack_from(buf, start)[0])


def _pause_decoder(buf, start: int, end: int) -> PauseEvent:
    return PauseEvent(_F64.unpack_from(buf, start)[0])


def _build_decoders() -> dict[int, Callable]:
    table: dict[int, Callable] = {}
    for event_type, tag in _TAG_BY_TYPE.items():
        if event_type.is_vertex_event:
            table[tag] = _vertex_decoder(event_type)
        elif event_type.is_edge_event:
            table[tag] = _edge_decoder(event_type)
    table[_TAG_BY_TYPE[EventType.MARKER]] = _marker_decoder
    table[_TAG_BY_TYPE[EventType.SPEED]] = _speed_decoder
    table[_TAG_BY_TYPE[EventType.PAUSE]] = _pause_decoder
    return table


_DECODERS: dict[int, Callable] = _build_decoders()
_KNOWN_TAGS: frozenset[int] = frozenset(_DECODERS)


def decode_event(record: bytes | memoryview, offset: int = 0) -> Event:
    """Decode one binary record starting at ``offset``."""
    try:
        tag, body_len = _RECORD_HEADER.unpack_from(record, offset)
    except struct.error:
        raise StreamFormatError(
            "truncated binary record header", byte_offset=offset
        ) from None
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise StreamFormatError(
            f"unknown binary record tag {tag}", byte_offset=offset
        )
    start = offset + RECORD_HEADER_SIZE
    end = start + body_len
    if end > len(record):
        raise StreamFormatError(
            f"binary record overruns its buffer ({end} > {len(record)})",
            byte_offset=offset,
        )
    try:
        return decoder(record, start, end)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise StreamFormatError(
            f"malformed binary record: {exc}", byte_offset=offset
        ) from None


def encode_graph_frame(events: Iterable[GraphEvent]) -> bytes:
    """Pack graph events into one graph frame (header + records)."""
    encode = _encode_graph
    records = [encode(event) for event in events]
    body = b"".join(records)
    return _FRAME_HEADER.pack(FRAME_GRAPH, len(records), len(body)) + body


def encode_control_frame(event: Event) -> bytes:
    """Pack one MARKER/SPEED/PAUSE event into a control frame."""
    record = encode_event(event)
    return _FRAME_HEADER.pack(FRAME_CONTROL, 1, len(record)) + record


def frame_records(records: list[bytes], kind: int = FRAME_GRAPH) -> bytes:
    """Frame already-encoded records verbatim (the re-framing path:
    records sliced from a stored frame are reframed without decoding)."""
    body = b"".join(records)
    return _FRAME_HEADER.pack(kind, len(records), len(body)) + body


def frame_info(frame: bytes | memoryview) -> tuple[int, int]:
    """(kind, record count) of a frame byte run (header included)."""
    try:
        kind, count, __ = _FRAME_HEADER.unpack_from(frame, 0)
    except struct.error:
        raise StreamFormatError(
            "truncated binary frame header", byte_offset=0
        ) from None
    return kind, count


def _frame_bounds(frame: bytes | memoryview, offset: int) -> tuple[int, int]:
    """``(record count, end of body)`` of the frame ``frame`` starts
    with; ``offset`` is the frame's file position, so a refusal names
    the header byte (truncated header) or field (body overrun) at fault.
    """
    try:
        __, count, body_len = _FRAME_HEADER.unpack_from(frame, 0)
    except struct.error:
        raise StreamFormatError(
            "truncated binary frame header", byte_offset=offset
        ) from None
    end_of_body = FRAME_HEADER_SIZE + body_len
    if end_of_body > len(frame):
        raise StreamFormatError(
            f"binary frame overruns its buffer ({end_of_body} > {len(frame)})",
            byte_offset=offset + _BODY_FIELD,
        )
    return count, end_of_body


def _count_mismatch(count: int, seen: int, offset: int) -> StreamFormatError:
    """The refusal of a frame whose header count disagrees with its
    record walk, at the count field of the frame at ``offset``."""
    return StreamFormatError(
        f"binary frame header promises {count} record(s), body holds {seen}",
        byte_offset=offset + _COUNT_FIELD,
    )


def iter_frame_record_spans(
    frame: bytes | memoryview, offset: int = 0
) -> Iterator[tuple[int, int]]:
    """Yield the ``(start, end)`` byte span of each record in a frame.

    Spans include the record header, so ``frame[start:end]`` is the
    record's complete wire bytes, which re-framing copies without
    decoding them.  ``offset`` is
    added to the byte offset a refusal reports (the frame's position
    in its file).
    """
    count, end_of_body = _frame_bounds(frame, offset)
    unpack_record = _RECORD_HEADER.unpack_from
    position = FRAME_HEADER_SIZE
    seen = 0
    while position < end_of_body:
        try:
            __, body = unpack_record(frame, position)
        except struct.error:
            raise StreamFormatError(
                "truncated binary record header", byte_offset=offset + position
            ) from None
        end = position + RECORD_HEADER_SIZE + body
        if end > end_of_body:
            raise StreamFormatError(
                f"binary record overruns its frame ({end} > {end_of_body})",
                byte_offset=offset + position,
            )
        yield position, end
        position = end
        seen += 1
    if seen != count:
        raise _count_mismatch(count, seen, offset)


# hot-path
def decode_frame_events(
    frame: bytes | memoryview, offset: int = 0
) -> list[Event]:
    """Decode every record of one frame (header included) into events.

    The parse loop of every GTB1 reader that needs events (a reader
    thread transcoding a replay, a line-only transport's
    ``send_frame``): per record one ``Struct.unpack_from`` for the
    header, one for the entity, and one UTF-8 payload construction —
    no string splitting, no integer parsing.  ``offset`` is added to
    the byte offset a refusal reports (the frame's position in its
    file, as for :func:`scan_frame`).
    """
    count, end_of_body = _frame_bounds(frame, offset)
    events: list[Event] = []
    append = events.append
    decoders = _DECODERS
    unpack_record = _RECORD_HEADER.unpack_from
    header_size = RECORD_HEADER_SIZE
    position = FRAME_HEADER_SIZE
    while position < end_of_body:
        try:
            tag, body = unpack_record(frame, position)
        except struct.error:
            raise StreamFormatError(
                "truncated binary record header",
                byte_offset=offset + position,
            ) from None
        start = position + header_size
        position = start + body
        decoder = decoders.get(tag)
        if decoder is None:
            raise StreamFormatError(
                f"unknown binary record tag {tag}",
                byte_offset=offset + start - header_size,
            )
        if position > end_of_body:
            raise StreamFormatError(
                f"binary record overruns its frame ({position} > {end_of_body})",
                byte_offset=offset + start - header_size,
            )
        try:
            append(decoder(frame, start, position))
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            raise StreamFormatError(
                f"malformed binary record: {exc}",
                byte_offset=offset + start - header_size,
            ) from None
    if len(events) != count:
        raise _count_mismatch(count, len(events), offset)
    return events


def scan_frame(frame: bytes | memoryview, offset: int = 0) -> int:
    """Validate one frame's record structure and return its record count.

    Walks every record header — tag known, length prefix inside the
    frame body, body count matching the frame header — without
    materialising event objects.  This is how a file replay counts a
    GTB1 frame when its file has no witness sidecar: each record is
    proven well-formed and counted (the length prefixes make that a
    fixed-cost header walk, where CSV needs a charwise
    split-and-parse), then the frame bytes go out verbatim.  ``offset``
    is added to the byte offset a refusal reports (see
    :class:`~repro.core.codec.RawBatch`).  Consumers that need the
    payloads call :func:`decode_frame_events` instead.
    """
    count, end_of_body = _frame_bounds(frame, offset)
    known_tags = _KNOWN_TAGS
    unpack_record = _RECORD_HEADER.unpack_from
    header_size = RECORD_HEADER_SIZE
    position = FRAME_HEADER_SIZE
    seen = 0
    try:
        while position < end_of_body:
            tag, body = unpack_record(frame, position)
            if tag not in known_tags:
                raise StreamFormatError(
                    f"unknown binary record tag {tag}",
                    byte_offset=offset + position,
                )
            position += header_size + body
            seen += 1
    except struct.error:
        raise StreamFormatError(
            "truncated binary record header", byte_offset=offset + position
        ) from None
    if position > end_of_body:
        raise StreamFormatError(
            f"binary record overruns its frame ({position} > {end_of_body})",
            byte_offset=offset + position,
        )
    if seen != count:
        raise _count_mismatch(count, seen, offset)
    return seen


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class BinaryStreamWriter:
    """Streaming binary stream writer: magic, frames, trailing index.

    Graph events accumulate into graph frames of at most
    ``batch_records`` records; control events flush the pending graph
    frame first (frames never mix kinds, and stream order is
    preserved), then land in their own single-record control frame.

    Usable as a context manager; :meth:`close` writes the trailing
    frame index.  ``events_written`` counts every record framed so far.

    With ``witness_path`` the writer also records a structural witness
    sidecar (per-frame kind/count/body, per-record body length — see
    :mod:`repro.core.witness`): the facts it already computes while
    framing, captured so a replay of the file can bulk-verify it
    instead of re-walking every record header.
    """

    def __init__(
        self,
        target: str | Path | BinaryIO,
        batch_records: int = 256,
        witness_path: str | Path | None = None,
    ):
        if batch_records <= 0:
            raise ValueError(
                f"batch_records must be positive, got {batch_records}"
            )
        if isinstance(target, (str, Path)):
            self._file: BinaryIO = open(target, "wb", buffering=1 << 16)
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self._batch_records = batch_records
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._index: list[tuple[int, int, int]] = []
        self._offset = len(MAGIC)
        self._closed = False
        self.events_written = 0
        self._witness_path = witness_path
        self._frame_bodies: list[int] = []
        self._record_lens: list[int] = []
        self._file.write(MAGIC)

    def _write_frame(self, frame: bytes, count: int, kind: int) -> None:
        self._index.append((self._offset, count, kind))
        if self._witness_path is not None:
            self._frame_bodies.append(len(frame) - FRAME_HEADER_SIZE)
        self._file.write(frame)
        self._offset += len(frame)
        self.events_written += count

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        records = self._pending
        body = b"".join(records)
        frame = (
            _FRAME_HEADER.pack(FRAME_GRAPH, len(records), len(body)) + body
        )
        self._write_frame(frame, len(records), FRAME_GRAPH)
        self._pending = []
        self._pending_bytes = 0

    def add(self, event: Event) -> None:
        """Append one event (graph events batch; control events frame)."""
        if type(event) is GraphEvent or isinstance(event, GraphEvent):
            record = _encode_graph(event)
            self._pending.append(record)
            self._pending_bytes += len(record)
            if self._witness_path is not None:
                self._record_lens.append(len(record) - RECORD_HEADER_SIZE)
            if len(self._pending) >= self._batch_records:
                self._flush_pending()
        else:
            self._flush_pending()
            frame = encode_control_frame(event)
            if self._witness_path is not None:
                self._record_lens.append(
                    len(frame) - FRAME_HEADER_SIZE - RECORD_HEADER_SIZE
                )
            self._write_frame(frame, 1, FRAME_CONTROL)

    def extend(self, events: Iterable[Event]) -> None:
        for event in events:
            self.add(event)

    def close(self) -> None:
        """Flush pending records and append the trailing frame index."""
        if self._closed:
            return
        self._closed = True
        self._flush_pending()
        parts = [INDEX_MAGIC, _INDEX_COUNT.pack(len(self._index))]
        parts.extend(
            _INDEX_ENTRY.pack(offset, count, kind)
            for offset, count, kind in self._index
        )
        parts.append(_INDEX_OFFSET.pack(self._offset))
        parts.append(END_MAGIC)
        trailer = b"".join(parts)
        self._file.write(trailer)
        self._file.flush()
        if self._owns:
            self._file.close()
        if self._witness_path is not None:
            from repro.core import witness

            Path(self._witness_path).write_bytes(
                witness.dump_witness(
                    [count for __, count, __ in self._index],
                    self._frame_bodies,
                    bytes(kind for __, __, kind in self._index),
                    self._record_lens,
                    self._offset + len(trailer),
                )
            )

    def __enter__(self) -> "BinaryStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_binary_stream(
    path: str | Path | BinaryIO,
    events: Iterable[Event],
    *,
    batch_records: int = 256,
    witness_path: "str | Path | None" = None,
) -> int:
    """Write events to a binary stream file; returns the event count.

    Works with lazy iterables, so arbitrarily long generators stream to
    disk without materialising.  ``witness_path`` records the
    :mod:`repro.core.witness` structural sidecar alongside, letting
    replayers skip the per-frame integrity scan.
    """
    writer = BinaryStreamWriter(
        path, batch_records=batch_records, witness_path=witness_path
    )
    with writer:
        writer.extend(events)
    # Read after close(): the final partial graph frame flushes there.
    return writer.events_written


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _open_binary_view(path: str | Path):
    """(mmap, size) of a binary stream file after the magic check."""
    import mmap as mmap_module

    with open(path, "rb") as handle:
        try:
            mapped = mmap_module.mmap(
                handle.fileno(), 0, access=mmap_module.ACCESS_READ
            )
        except ValueError:
            raise StreamFormatError(f"{path}: empty binary stream file") from None
    try:
        if mapped[: len(MAGIC)] != MAGIC:
            raise StreamFormatError(
                f"{path}: missing binary stream magic ({len(mapped)} byte(s))"
            )
    except BaseException:
        mapped.close()
        raise
    return mapped


def read_frame_index(path: str | Path) -> list[tuple[int, int, int]] | None:
    """The trailing ``(offset, count, kind)`` frame index, or ``None``.

    ``None`` means the file carries no (valid) trailing index — e.g. it
    was cut off mid-stream or captured from a wire that never sends the
    footer; such files remain readable by frame-header jumping.
    """
    mapped = _open_binary_view(path)
    try:
        size = len(mapped)
        tail = _INDEX_OFFSET.size + len(END_MAGIC)
        if size < tail or mapped[size - len(END_MAGIC) :] != END_MAGIC:
            return None
        (index_offset,) = _INDEX_OFFSET.unpack_from(
            mapped, size - tail
        )
        if (
            index_offset + len(INDEX_MAGIC) + _INDEX_COUNT.size > size
            or mapped[index_offset : index_offset + len(INDEX_MAGIC)]
            != INDEX_MAGIC
        ):
            return None
        (count,) = _INDEX_COUNT.unpack_from(
            mapped, index_offset + len(INDEX_MAGIC)
        )
        entries_start = index_offset + len(INDEX_MAGIC) + _INDEX_COUNT.size
        if entries_start + count * _INDEX_ENTRY.size > size - tail:
            return None
        return [
            _INDEX_ENTRY.unpack_from(mapped, entries_start + i * _INDEX_ENTRY.size)
            for i in range(count)
        ]
    finally:
        mapped.close()


def _frames_end(mapped) -> int:
    """Offset where the frame region ends (the index, or EOF)."""
    size = len(mapped)
    tail = _INDEX_OFFSET.size + len(END_MAGIC)
    if size >= tail and mapped[size - len(END_MAGIC) :] == END_MAGIC:
        (index_offset,) = _INDEX_OFFSET.unpack_from(mapped, size - tail)
        if (
            index_offset <= size - tail
            and mapped[index_offset : index_offset + len(INDEX_MAGIC)]
            == INDEX_MAGIC
        ):
            return index_offset
    return size


def _split_frame(
    frame: memoryview, offset: int, batch_records: int
) -> Iterator["RawBatch"]:
    """Re-frame a graph frame into frames of at most ``batch_records``
    records, from its record spans (the records are copied; each new
    frame's ``offset`` still maps its records to the file)."""
    from repro.core.codec import RawBatch

    spans = list(iter_frame_record_spans(frame, offset))
    for first in range(0, len(spans), batch_records):
        run = spans[first : first + batch_records]
        data = frame_records([bytes(frame[start:end]) for start, end in run])
        yield RawBatch(
            memoryview(data),
            len(run),
            True,
            offset + run[0][0] - FRAME_HEADER_SIZE,
        )


# hot-path
def iter_binary_batches(
    path: str | Path, batch_records: int | None = None
) -> Iterator["RawBatch | Event"]:
    """Yield zero-copy graph-frame :class:`RawBatch` runs and parsed
    control events — the binary analogue of
    :func:`repro.core.codec.iter_raw_batches`.

    Graph frames come back as :class:`memoryview` slices of the file's
    mmap covering the *whole* frame (header included), so a transport
    can put them on the wire verbatim and a frame-aware receiver can
    count records from the headers alone.  A frame of more than
    ``batch_records`` records (when given) is re-framed into frames of
    at most that many.  Each batch's ``offset`` is its frame's file
    position.  Control frames are decoded into their :class:`Event`
    objects.  The iterator jumps frame header to frame header — no
    content scanning.
    """
    from repro.core.codec import RawBatch

    if batch_records is None:
        batch_records = 1 << 32  # above any u32 frame count

    mapped = _open_binary_view(path)
    view = memoryview(mapped)
    try:
        end = _frames_end(mapped)
        position = len(MAGIC)
        while position < end:
            # A truncated trailing index (no valid footer) starts with
            # INDEX_MAGIC where a frame header would be: stop cleanly.
            if mapped[position : position + len(INDEX_MAGIC)] == INDEX_MAGIC:
                break
            try:
                kind, count, body_len = _FRAME_HEADER.unpack_from(
                    mapped, position
                )
            except struct.error:
                raise StreamFormatError(
                    "truncated binary frame header",
                    byte_offset=position,
                ) from None
            frame_end = position + FRAME_HEADER_SIZE + body_len
            if frame_end > end:
                raise StreamFormatError(
                    f"binary frame overruns the file "
                    f"({frame_end} > {end})",
                    byte_offset=position,
                )
            if kind == FRAME_GRAPH:
                if count <= batch_records:
                    yield RawBatch(view[position:frame_end], count, True, position)
                else:
                    yield from _split_frame(
                        view[position:frame_end], position, batch_records
                    )
            elif kind == FRAME_CONTROL:
                yield decode_event(view, position + FRAME_HEADER_SIZE)
            else:
                raise StreamFormatError(
                    f"unknown binary frame kind {kind}",
                    byte_offset=position,
                )
            position = frame_end
    finally:
        view.release()
        try:
            mapped.close()
        except BufferError:
            # A consumer still holds the last frame's view; the mapping
            # closes when that view is garbage-collected.
            pass


def iter_wire_frame_counts(file) -> Iterator[int]:
    """Yield each frame's record count from a binary wire stream.

    ``file`` is a readable binary file object positioned just *after*
    the stream magic (receivers consume the magic while autodetecting
    the format).  Frame bodies are read and discarded — receivers only
    count.  A stream that ends cleanly on a frame boundary terminates
    the iterator; one cut off mid-frame raises
    :class:`StreamFormatError`.
    """
    read = file.read
    header_size = FRAME_HEADER_SIZE
    unpack = _FRAME_HEADER.unpack
    while True:
        header = read(header_size)
        if not header:
            return
        while len(header) < header_size:
            more = read(header_size - len(header))
            if not more:
                raise StreamFormatError("truncated binary frame header on wire")
            header += more
        kind, count, body_len = unpack(header)
        if kind not in (FRAME_GRAPH, FRAME_CONTROL):
            raise StreamFormatError(f"unknown binary frame kind {kind}")
        remaining = body_len
        while remaining:
            chunk = read(min(remaining, 1 << 16))
            if not chunk:
                raise StreamFormatError("truncated binary frame body on wire")
            remaining -= len(chunk)
        yield count


def iter_parse_binary_chunks(
    path: str | Path,
    *,
    chunk_events: int = 1024,
    tracer: "Tracer | None" = None,
) -> Iterator[list[Event]]:
    """Yield chunks (lists) of decoded events from a binary stream file.

    The binary sibling of :func:`repro.core.codec.iter_parse_chunks`,
    through which the replayer reads a GTB1 file it transcodes to CSV.
    A refused frame raises once the events decoded before it are
    yielded.  With a tracer, each decoded frame gets a sampled ``decoded`` span.
    """
    if chunk_events <= 0:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    pending: list[Event] = []
    decoded = 0
    try:
        for item in iter_binary_batches(path):
            if isinstance(item, Event):
                pending.append(item)
            elif tracer is None:
                pending.extend(decode_frame_events(item.data, item.offset))
            else:
                decode_start = tracer.clock.now()
                events = decode_frame_events(item.data, item.offset)
                if events and tracer.sample_batch(decoded, len(events)):
                    tracer.record_span(
                        "decoded",
                        "reader",
                        decode_start,
                        tracer.clock.now() - decode_start,
                        event_id=decoded,
                        count=len(events),
                    )
                decoded += len(events)
                pending.extend(events)
            while len(pending) >= chunk_events:
                yield pending[:chunk_events]
                del pending[:chunk_events]
    except Exception:
        # The events decoded before a refused frame go out first, as
        # from a stored-frame replay of the same file.
        if pending:
            yield pending
        raise
    if pending:
        yield pending


def parse_binary_stream(path: str | Path) -> list[Event]:
    """Decode a whole binary stream file into a list of events."""
    events: list[Event] = []
    for chunk in iter_parse_binary_chunks(path, chunk_events=4096):
        events.extend(chunk)
    return events


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def convert_stream(
    source: str | Path,
    destination: str | Path,
    to_format: str,
    *,
    batch_records: int = 256,
) -> int:
    """Convert a stream file between CSV and binary, streaming.

    ``to_format`` is ``"csv"`` or ``"binary"``; the source format is
    autodetected, so both directions (and format-preserving copies,
    which normalise framing) go through the same call.  Events stream
    through in chunks — neither side is ever fully materialised.
    Returns the number of events converted.
    """
    from repro.core import codec

    if to_format not in ("csv", "binary"):
        raise ValueError(
            f"unknown target format {to_format!r}; expected 'csv' or 'binary'"
        )
    chunks = codec.iter_parse_chunks(source, chunk_events=4096)
    written = 0
    if to_format == "binary":
        writer = BinaryStreamWriter(destination, batch_records=batch_records)
        with writer:
            for chunk in chunks:
                writer.extend(chunk)
        written = writer.events_written
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            for chunk in chunks:
                handle.write(codec.format_events(chunk))
                written += len(chunk)
    return written


def stream_summary(path: str | Path) -> dict[str, int]:
    """Cheap event counts from the trailing frame index (O(frames)).

    Falls back to frame-header jumping when the index is missing.
    Returns ``{"graph_events": ..., "control_events": ..., "frames": ...}``.
    """
    index = read_frame_index(path)
    if index is None:
        index = []
        for item in iter_binary_batches(path):
            if isinstance(item, Event):
                index.append((0, 1, FRAME_CONTROL))
            else:
                index.append((0, item.count, FRAME_GRAPH))
    graph = sum(count for __, count, kind in index if kind == FRAME_GRAPH)
    control = sum(count for __, count, kind in index if kind == FRAME_CONTROL)
    return {
        "graph_events": graph,
        "control_events": control,
        "frames": len(index),
    }
