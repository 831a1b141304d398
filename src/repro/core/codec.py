"""Batched fast-path codec for the CSV graph stream format.

The event model in :mod:`repro.core.events` pays per-event costs that
dominate high-rate replays: an ``EventType(...)`` enum construction per
line, a character-by-character payload unescape even for clean
payloads, frozen-dataclass construction with ``__post_init__``
isinstance checks, and one Python function call per event.  This
module provides the bulk fast path used by :class:`GraphStream` file
I/O and the batched :class:`LiveReplayer`:

* a precomputed per-command dispatch table (one dict lookup per line
  instead of an enum constructor plus ``try``/``except``);
* chunked file decoding — files are mapped and decoded in ~64 KiB
  blocks split once on ``\n``, instead of line-by-line iteration;
* escape handling that only scans payloads actually containing a
  backslash / separator;
* event construction via ``object.__new__``, skipping
  ``__post_init__``: the handlers build an ``int`` vertex id or an
  :class:`EdgeId` by construction, which is all that check verifies;
* bulk formatting (``format_events``) that joins a whole batch into a
  single string for one buffered write;
* verbatim replay (``iter_raw_batches``): a block whose lines match the
  canonical line grammar — the exact spelling ``format_event`` writes —
  is forwarded as stored bytes, with no parse and no format at all.

``events.parse_line`` / ``events.format_event`` remain the public
single-event API; they are thin wrappers over this module, so every
caller observes identical semantics (including error messages and
:class:`StreamFormatError` line numbers).
"""

from __future__ import annotations

import functools
import gc
import itertools
import mmap
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
    "parse_line",
    "parse_lines",
    "parse_stream_file",
    "iter_parse_chunks",
    "iter_raw_batches",
    "RawBatch",
    "format_event",
    "format_lines",
    "format_events",
    "write_stream_file",
    "detect_stream_format",
]

#: File block size for chunked decoding (satisfies one syscall ≈ many lines).
BLOCK_SIZE = 1 << 16
#: Events formatted per buffered write of a CSV stream file.
_WRITE_CHUNK = 4096


def detect_stream_format(path: str | Path) -> str:
    """``"binary"`` or ``"csv"``, decided by the file's magic bytes.

    Every file-reading entry point in this module autodetects via this
    helper, so callers can hand either format to ``parse_stream_file``,
    ``iter_parse_chunks`` or ``iter_raw_batches`` unchanged.
    """
    from repro.core import binfmt

    return binfmt.detect_format(path)

# ---------------------------------------------------------------------------
# Escaping
# ---------------------------------------------------------------------------

_ESCAPE_RE = re.compile(r"[\\,\n\r]")


def _escape(text: str) -> str:
    """Escape separators/newlines; no-op (no copy) for clean payloads.

    The replace chain runs at C speed; escaping the backslash first
    keeps the later escapes unambiguous.
    """
    if _ESCAPE_RE.search(text) is None:
        return text
    return (
        text.replace("\\", "\\\\")
        .replace(",", "\\,")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unescape_part(part: str) -> str:
    return part.replace("\\,", ",").replace("\\n", "\n").replace("\\r", "\r")


def _unescape_scan(text: str) -> str:
    # Splitting on the escaped backslash first isolates literal
    # backslashes, so the remaining single-character escapes can be
    # resolved with unambiguous C-level replaces; unknown escape
    # sequences (e.g. ``\x``) are preserved verbatim, matching a
    # left-to-right scan.
    parts = text.split("\\\\")
    if len(parts) == 1:
        return _unescape_part(text)
    return "\\".join(_unescape_part(part) for part in parts)


def _unescape(text: str) -> str:
    """Undo :func:`_escape`; the common clean case is a single C scan."""
    if "\\" not in text:
        return text
    return _unescape_scan(text)


def _split_unescaped_comma(text: str) -> tuple[str, str]:
    """Split ``text`` at the first comma not preceded by an odd number of
    backslashes (i.e. the first *unescaped* field separator)."""
    search = 0
    while True:
        comma = text.find(",", search)
        if comma == -1:
            return text, ""
        backslashes = 0
        j = comma - 1
        while j >= 0 and text[j] == "\\":
            backslashes += 1
            j -= 1
        if backslashes % 2 == 0:
            return text[:comma], text[comma + 1 :]
        search = comma + 1


# ---------------------------------------------------------------------------
# Parsing: per-command dispatch tables
# ---------------------------------------------------------------------------

_NEW_GRAPH_EVENT = GraphEvent.__new__
_NEW_EDGE_ID = EdgeId.__new__
_SET = object.__setattr__


def _parse_edge_text(text: str) -> EdgeId:
    # The separator search starts at index 1 so a leading minus sign of a
    # negative source id is never mistaken for the separator.
    sep = text.find("-", 1)
    if sep == -1:
        raise StreamFormatError(f"edge id {text!r} has no '-' separator")
    try:
        return EdgeId(int(text[:sep]), int(text[sep + 1 :]))
    except ValueError:
        raise StreamFormatError(
            f"edge id {text!r} does not contain two integer vertex ids"
        ) from None


def _vertex_handler(event_type: EventType) -> Callable[[list[str]], GraphEvent]:
    # Handlers receive the ``line.split(",", 2)`` parts; a short list
    # (missing field) raises IndexError, which the caller routes to the
    # careful slow path for exact error reporting.
    unescape = _unescape_scan

    def handle(
        parts: list[str],
        new=_NEW_GRAPH_EVENT,
        cls=GraphEvent,
        set_attr=_SET,
    ) -> GraphEvent:
        payload = parts[2]
        event = new(cls)
        set_attr(event, "event_type", event_type)
        set_attr(event, "entity", int(parts[1]))
        set_attr(
            event,
            "payload",
            payload if "\\" not in payload else unescape(payload),
        )
        return event

    return handle


def _edge_handler(event_type: EventType) -> Callable[[list[str]], GraphEvent]:
    unescape = _unescape_scan

    def handle(
        parts: list[str],
        new=_NEW_GRAPH_EVENT,
        cls=GraphEvent,
        set_attr=_SET,
        new_edge=_NEW_EDGE_ID,
        edge_cls=EdgeId,
    ) -> GraphEvent:
        payload = parts[2]
        entity_text = parts[1]
        sep = entity_text.find("-", 1)
        if sep == -1:
            raise StreamFormatError(
                f"edge id {entity_text!r} has no '-' separator"
            )
        edge = new_edge(edge_cls)
        set_attr(edge, "source", int(entity_text[:sep]))
        set_attr(edge, "target", int(entity_text[sep + 1 :]))
        event = new(cls)
        set_attr(event, "event_type", event_type)
        set_attr(event, "entity", edge)
        set_attr(
            event,
            "payload",
            payload if "\\" not in payload else unescape(payload),
        )
        return event

    return handle


def _rejoin_rest(parts: list[str]) -> str:
    """Reassemble everything after the command field (lossless: the
    split removed exactly the commas re-added here)."""
    return ",".join(parts[1:])


def _marker_handler(parts: list[str]) -> MarkerEvent:
    # Labels are preserved verbatim (no whitespace stripping); the field
    # separator must honour escaped commas inside the label, so the
    # eager split is undone before scanning for the real separator.
    label, __ = _split_unescaped_comma(_rejoin_rest(parts))
    return MarkerEvent(_unescape(label))


def _speed_handler(parts: list[str]) -> SpeedEvent:
    return SpeedEvent(float(parts[1]))


def _pause_handler(parts: list[str]) -> PauseEvent:
    return PauseEvent(float(parts[1]))


def _build_dispatch() -> dict[str, Callable[[list[str]], Event]]:
    table: dict[str, Callable[[list[str]], Event]] = {}
    for event_type in EventType:
        if event_type.is_vertex_event:
            table[event_type.value] = _vertex_handler(event_type)
        elif event_type.is_edge_event:
            table[event_type.value] = _edge_handler(event_type)
    table[EventType.MARKER.value] = _marker_handler
    table[EventType.SPEED.value] = _speed_handler
    table[EventType.PAUSE.value] = _pause_handler
    return table


_DISPATCH = _build_dispatch()


def _parse_line_slow(
    line: str, line_number: int | None, skip_comments: bool
) -> Event | None:
    """Whitespace-tolerant fallback parser with precise error messages.

    Returns ``None`` for blank/comment lines when ``skip_comments`` is
    set; raises :class:`StreamFormatError` otherwise.  Handles the
    paper's spaced spelling (``COMMAND, ENTITY_ID, PAYLOAD``) by
    stripping whitespace around the command and entity fields; payloads
    and marker labels stay verbatim so arbitrary user states survive
    the round trip.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        if skip_comments:
            return None
        if not stripped:
            raise StreamFormatError("empty line", line_number)
        raise StreamFormatError(f"unknown command {stripped!r}", line_number)

    line = line.rstrip("\n\r")
    command, sep, rest = line.partition(",")
    if not sep:
        raise StreamFormatError(
            f"no fields after command {command.strip()!r}", line_number
        )
    command = command.strip()
    try:
        event_type = EventType(command)
    except ValueError:
        raise StreamFormatError(f"unknown command {command!r}", line_number) from None

    if event_type is EventType.MARKER:
        label, __ = _split_unescaped_comma(rest)
        return MarkerEvent(_unescape(label))

    entity_text, __, payload = rest.partition(",")
    entity_text = entity_text.strip()
    if event_type is EventType.SPEED:
        try:
            return SpeedEvent(float(entity_text))
        except ValueError as exc:
            raise StreamFormatError(f"bad SPEED factor: {exc}", line_number) from None
    if event_type is EventType.PAUSE:
        try:
            return PauseEvent(float(entity_text))
        except ValueError as exc:
            raise StreamFormatError(
                f"bad PAUSE duration: {exc}", line_number
            ) from None

    payload = _unescape(payload)
    if event_type.is_vertex_event:
        try:
            vertex_id = int(entity_text)
        except ValueError:
            raise StreamFormatError(
                f"vertex id {entity_text!r} is not an integer", line_number
            ) from None
        return GraphEvent(event_type, vertex_id, payload)

    try:
        edge_id = _parse_edge_text(entity_text)
    except StreamFormatError as exc:
        raise StreamFormatError(str(exc), line_number) from None
    return GraphEvent(event_type, edge_id, payload)


def parse_line(line: str, line_number: int | None = None) -> Event:
    """Parse one CSV stream line into an :class:`Event`.

    Drop-in replacement for the legacy ``events.parse_line``; raises
    :class:`StreamFormatError` on malformed input.
    """
    if line and line[-1] in "\r\n":
        line = line.rstrip("\r\n")
    parts = line.split(",", 2)
    handler = _DISPATCH.get(parts[0])
    if handler is not None:
        try:
            return handler(parts)
        except (ValueError, IndexError, StreamFormatError):
            pass
    event = _parse_line_slow(line, line_number, skip_comments=False)
    assert event is not None
    return event


def parse_lines(
    lines: Iterable[str],
    *,
    skip_comments: bool = True,
    first_line_number: int = 1,
) -> list[Event]:
    """Parse an iterable of CSV lines into a list of events (the bulk
    fast path).

    Blank lines and ``#`` comments are skipped when ``skip_comments``
    is set (the :meth:`GraphStream.read` semantics); otherwise they
    raise.  Error messages carry 1-based line numbers offset by
    ``first_line_number``.
    """
    events: list[Event] = []
    append = events.append
    dispatch = _DISPATCH
    index = 0
    # Parsing creates no reference cycles, but every retained event is a
    # GC-tracked container: generational collections scanning the growing
    # result list cost ~35% of bulk parse time.  Pausing the collector
    # for the duration of the batch is safe (memory is bounded by the
    # input) and is only possible because this is a batch API.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for index, line in enumerate(lines, start=first_line_number):
            if line and line[-1] in "\r\n":
                line = line.rstrip("\r\n")
            parts = line.split(",", 2)
            handler = dispatch.get(parts[0])
            if handler is not None:
                try:
                    append(handler(parts))
                    continue
                except (ValueError, IndexError, StreamFormatError):
                    pass
            # Slow path: whitespace-padded fields, trailing '\r', blanks,
            # comments, and malformed lines (for exact error reporting).
            event = _parse_line_slow(line, index, skip_comments)
            if event is not None:
                append(event)
    finally:
        if gc_was_enabled:
            gc.enable()
    return events


def _open_stream_mmap(path: str | Path) -> mmap.mmap | None:
    """Map a stream file read-only; ``None`` for an empty file.

    The fd is closed immediately (the mapping keeps its own reference),
    so callers only manage the mapping's lifetime.
    """
    with open(path, "rb") as handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            return None


def _iter_blocks(mapped: mmap.mmap) -> Iterator[tuple[bytes, str]]:
    """Yield ``(block, text)`` for ~64 KiB blocks of a mapping.

    The one block cutter of every CSV file reader: each block ends on a
    ``\\n`` (a line longer than the block extends it to its end), so a
    multi-byte UTF-8 sequence never straddles two blocks; a file with
    no ``\\n`` at all is one block.  ``text`` is the block decoded as
    UTF-8; a non-UTF-8 byte raises :class:`StreamFormatError` with its
    absolute byte offset.
    """
    size = len(mapped)
    position = 0
    while position < size:
        end = min(position + BLOCK_SIZE, size)
        if end < size:
            newline = mapped.rfind(b"\n", position, end)
            if newline == -1:
                # A line longer than the block: extend to its end.
                newline = mapped.find(b"\n", end)
            end = size if newline == -1 else newline + 1
        block = mapped[position:end]
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StreamFormatError(
                f"stream file is not valid UTF-8 ({exc.reason})",
                byte_offset=position + exc.start,
            ) from None
        yield block, text
        position = end


def _split_lines(text: str) -> list[str]:
    """A block's newline-free lines, split as universal newlines do.

    A block holding any ``\\r`` has its ``\\r\\n`` and lone ``\\r``
    endings rewritten to ``\\n`` first, so line boundaries (and line
    numbers) match universal-newline text mode exactly.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and not lines[-1]:
        lines.pop()
    return lines


# -- the canonical line grammar ------------------------------------------------
#
# A graph line is canonical when it is spelled exactly as ``format_event``
# writes it: no padding, integer ids without a sign on zero or leading
# zeros, and a payload whose backslashes all start one of the four
# escapes ``_escape`` produces.  Such a line satisfies
# ``format_event(parse_line(line)) == line``, so its stored bytes are the
# bytes the parse → format path would send.
_INT = rb"(?:0|-?[1-9][0-9]*)"
_PAYLOAD = rb"[^\\,\n\r]*(?:\\[\\,nr][^\\,\n\r]*)*"
_GRAPH_LINE = (
    rb"(?:ADD|REMOVE|UPDATE)_(?:VERTEX," + _INT + rb"|EDGE," + _INT
    + rb"-" + _INT + rb")," + _PAYLOAD
)
#: Control lines are parsed, not forwarded: any spelling may pass here.
_OTHER_LINE = rb"(?:MARKER|SPEED|PAUSE),[^\n\r]*|#[^\n\r]*"
_LINE_END = rb"(?:\n|\Z)"


@functools.lru_cache(maxsize=32)
def _canonical_step(batch_lines: int) -> re.Pattern[bytes]:
    """One step of the canonical-block walk: a run of up to
    ``batch_lines`` graph lines (group 1), or one control line, comment
    or empty line.  A block is canonical exactly when consecutive steps
    cover it; no pattern matches a ``\\r`` or a non-canonical graph
    line."""
    return re.compile(
        rb"((?:" + _GRAPH_LINE + _LINE_END + rb"){1,%d})|(?:" % batch_lines
        + _OTHER_LINE + rb")" + _LINE_END + rb"|\n"
    )


def _canonical_steps(
    block: bytes, step: re.Pattern[bytes]
) -> list[re.Match[bytes]] | None:
    """The step matches covering ``block``, or None if it is not canonical."""
    matches = []
    match = step.match
    position = 0
    size = len(block)
    while position < size:
        found = match(block, position)
        if found is None:
            return None
        matches.append(found)
        position = found.end()
    return matches


class RawBatch:
    """A run of consecutive graph-event lines, as wire bytes.

    ``data`` is a :class:`memoryview` of the exact bytes of ``count``
    newline-separated lines: a slice of the block read from a CSV file
    (or of a binary file's mapping, for a GTB1 frame), never copied
    through Python strings.  ``ends_with_newline`` is False only for a
    final line at EOF without one; emitters must then append the
    terminator themselves.  ``offset`` maps a GTB1 frame's record bytes
    back to the file: ``data[i]`` of a record is file byte
    ``offset + i`` (0 for CSV runs).

    Consume (send) each batch before advancing the iterator that
    produced it.
    """

    __slots__ = ("data", "count", "ends_with_newline", "offset")

    def __init__(
        self,
        data: memoryview,
        count: int,
        ends_with_newline: bool,
        offset: int = 0,
    ):
        self.data = data
        self.count = count
        self.ends_with_newline = ends_with_newline
        self.offset = offset

    def __repr__(self) -> str:
        return f"RawBatch({self.count} lines, {len(self.data)} bytes)"


def _reformatted_batches(
    lines: list[str], first_line_number: int, batch_lines: int
) -> Iterator[RawBatch | Event]:
    """A non-canonical block's items: parse it with :func:`parse_lines`,
    then format each run of up to ``batch_lines`` graph events back
    into canonical lines with :func:`format_events`."""

    def formatted(events: list[Event]) -> RawBatch:
        data = format_events(events).encode("utf-8")
        return RawBatch(memoryview(data), len(events), True)

    pending: list[Event] = []
    for event in parse_lines(
        lines, skip_comments=True, first_line_number=first_line_number
    ):
        if type(event) is GraphEvent:
            pending.append(event)
            if len(pending) < batch_lines:
                continue
        if pending:
            yield formatted(pending)
            pending = []
        if type(event) is not GraphEvent:
            yield event
    if pending:
        yield formatted(pending)


# hot-path
def iter_raw_batches(
    path: str | Path, *, batch_lines: int = 256
) -> Iterator[RawBatch | Event]:
    """Yield validated :class:`RawBatch` runs and parsed control events.

    The reader of every verbatim file replay: runs of at most
    ``batch_lines`` graph-event lines come back as wire bytes a
    transport can send as they are, while ``MARKER``/``SPEED``/``PAUSE``
    lines — which steer the replay instead of travelling over it — are
    parsed into their :class:`Event` objects and end the current run.
    Blank lines and ``#`` comments are skipped.

    Each :func:`_iter_blocks` block is decoded as UTF-8 and walked with
    the canonical line grammar.  A canonical block's runs are zero-copy
    views of its stored bytes; any other block (padded fields, CRLF or
    lone-CR endings, unknown escapes, a malformed line) is parsed with
    :func:`parse_lines` and its runs re-formatted with
    :func:`format_events`.  Either way the bytes are exactly what the
    parse → format path sends, and a malformed line raises the same
    :class:`StreamFormatError`, line number included.

    Binary stream files (magic-byte autodetected) yield graph frames of
    at most ``batch_lines`` records through
    :func:`repro.core.binfmt.iter_binary_batches`: a stored frame that
    fits goes out whole, a larger one is re-framed.
    """
    if batch_lines <= 0:
        raise ValueError(f"batch_lines must be positive, got {batch_lines}")
    if detect_stream_format(path) == "binary":
        from repro.core import binfmt

        yield from binfmt.iter_binary_batches(path, batch_records=batch_lines)
        return
    # A block holds at most one line per byte of BLOCK_SIZE (a longer
    # block is a single long line), so larger caps cut the same runs.
    step = _canonical_step(min(batch_lines, BLOCK_SIZE))
    line_number = 1
    mapped = _open_stream_mmap(path)
    if mapped is None:
        return
    try:
        for block, text in _iter_blocks(mapped):
            matches = _canonical_steps(block, step)
            if matches is None:
                lines = _split_lines(text)
                yield from _reformatted_batches(lines, line_number, batch_lines)
                line_number += len(lines)
                continue
            view = memoryview(block)
            for found in matches:
                start, end = found.span()
                if found.lastindex:
                    count = block.count(b"\n", start, end)
                    if block[end - 1] == 0x0A:
                        yield RawBatch(view[start:end], count, True)
                    else:  # the final line at EOF has no newline
                        yield RawBatch(view[start:end], count + 1, False)
                elif block[start] not in b"\n#":
                    yield parse_line(
                        block[start:end].decode("utf-8"),
                        line_number + block.count(b"\n", 0, start),
                    )
            line_number += block.count(b"\n")
    finally:
        mapped.close()


def parse_stream_file(path: str | Path) -> list[Event]:
    """Parse a whole stream file of either format: the events of every
    :func:`iter_parse_chunks` block, refusals included."""
    events: list[Event] = []
    for block in iter_parse_chunks(path):
        events.extend(block)
    return events


# hot-path
def iter_parse_chunks(
    path: str | Path, *, tracer: "Tracer | None" = None
) -> Iterator[list[Event]]:
    """Yield a stream file's events, one list per decoded block.

    The one decoder of stream files, for both formats (magic-byte
    autodetected): :func:`parse_stream_file` (and so
    ``GraphStream.read``), :func:`repro.core.binfmt.convert_stream` and
    a transcoding replay all read through it.  A CSV block is one
    :func:`_iter_blocks` block run through :func:`parse_lines`; a GTB1
    block is one graph frame of
    :func:`repro.core.binfmt.iter_binary_batches`, after the control
    events that precede it.  A refused block raises once the events
    before it are yielded.  With a :class:`~repro.core.tracing.Tracer`,
    each block gets a sampled ``decoded`` span (stamped on the tracer's
    clock) so the read side of the pipeline is visible in exported
    traces.
    """
    decoded = 0

    def decode(parse: Callable[..., list[Event]], *args, **kwargs) -> list[Event]:
        nonlocal decoded
        start = 0.0 if tracer is None else tracer.clock.now()
        events = parse(*args, **kwargs)
        if tracer is not None and tracer.sample_batch(decoded, len(events)):
            tracer.record_span(
                "decoded",
                "reader",
                start,
                tracer.clock.now() - start,
                event_id=decoded,
                count=len(events),
            )
        decoded += len(events)
        return events

    if detect_stream_format(path) == "binary":
        from repro.core import binfmt

        controls: list[Event] = []
        try:
            for item in binfmt.iter_binary_batches(path):
                if isinstance(item, Event):
                    controls.append(item)
                    continue
                events = decode(
                    binfmt.decode_frame_events, item.data, item.offset
                )
                if controls:
                    events[:0] = controls
                    controls = []
                if events:
                    yield events
        except Exception:
            # The control events before a refused frame go out first.
            if controls:
                yield controls
            raise
        if controls:
            yield controls
        return
    mapped = _open_stream_mmap(path)
    if mapped is None:
        return
    line_number = 1
    try:
        for __, text in _iter_blocks(mapped):
            lines = _split_lines(text)
            events = decode(parse_lines, lines, first_line_number=line_number)
            line_number += len(lines)
            if events:
                yield events
    finally:
        mapped.close()


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def _format_graph(event: GraphEvent) -> str:
    entity = event.entity
    if type(entity) is EdgeId:
        entity_text = f"{entity.source}-{entity.target}"
    else:
        entity_text = str(entity)
    # ``_value_`` is the enum member's plain instance attribute; the
    # public ``.value`` descriptor costs a Python-level property call
    # per event on this hot path.
    return f"{event.event_type._value_},{entity_text},{_escape(event.payload)}"


def _format_marker(event: MarkerEvent) -> str:
    return f"MARKER,{_escape(event.label)},"


def _format_float(value: float) -> str:
    """Shortest decimal text that parses back to exactly ``value``.

    ``%g`` keeps the historical compact spelling (``1``, ``2.5``,
    ``1e+06``) for the values it can represent exactly; anything it
    would truncate falls back to ``repr``, whose shortest-round-trip
    guarantee makes CSV↔binary conversion lossless for every float.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _format_speed(event: SpeedEvent) -> str:
    return f"SPEED,{_format_float(event.factor)},"


def _format_pause(event: PauseEvent) -> str:
    return f"PAUSE,{_format_float(event.seconds)},"


_FORMATTERS: dict[type, Callable[[Event], str]] = {
    GraphEvent: _format_graph,
    MarkerEvent: _format_marker,
    SpeedEvent: _format_speed,
    PauseEvent: _format_pause,
}


def format_event(event: Event) -> str:
    """Serialize an event as one CSV stream line (without newline)."""
    formatter = _FORMATTERS.get(type(event))
    if formatter is not None:
        return formatter(event)
    # Subclasses of the concrete event types still serialize.
    for event_class, candidate in _FORMATTERS.items():
        if isinstance(event, event_class):
            return candidate(event)
    raise TypeError(f"cannot serialize {type(event).__name__}")


def format_lines(events: Iterable[Event]) -> list[str]:
    """Serialize events to a list of CSV lines (without newlines).

    The bulk fast path: the dominant :class:`GraphEvent` case is
    inlined so a batch costs no per-event dispatch call.
    """
    lines: list[str] = []
    append = lines.append
    search = _ESCAPE_RE.search
    escape = _escape
    graph_event = GraphEvent
    edge_id = EdgeId
    for event in events:
        if type(event) is graph_event:
            payload = event.payload
            if search(payload) is not None:
                payload = escape(payload)
            entity = event.entity
            if type(entity) is edge_id:
                append(
                    f"{event.event_type._value_},"
                    f"{entity.source}-{entity.target},{payload}"
                )
            else:
                append(f"{event.event_type._value_},{entity},{payload}")
        else:
            append(format_event(event))
    return lines


def format_events(events: Iterable[Event]) -> str:
    """Serialize a batch of events into one newline-terminated string.

    The bulk formatter: the result is suitable for a single buffered
    ``write`` — empty input yields an empty string.
    """
    lines = format_lines(events)
    if not lines:
        return ""
    lines.append("")  # trailing newline via the final join separator
    return "\n".join(lines)


def write_stream_file(
    path: str | Path,
    events: Iterable[Event],
    *,
    format: str = "csv",
) -> int:
    """Write events to a stream file with chunked bulk writes.

    The one writer of stream files.  ``format`` selects the
    representation: ``"csv"`` (the default, one line per event, written
    :data:`_WRITE_CHUNK` events at a time) or ``"binary"`` (the
    length-prefixed frame format of :mod:`repro.core.binfmt`).  Returns
    the number of events written.  Works with lazy iterables, so
    callers can stream arbitrarily long generators to disk without
    materialising them.
    """
    if format == "binary":
        from repro.core import binfmt

        return binfmt.write_binary_stream(path, events)
    if format != "csv":
        raise ValueError(f"unknown stream format {format!r}")
    written = 0
    events = iter(events)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        while chunk := list(itertools.islice(events, _WRITE_CHUNK)):
            handle.write(format_events(chunk))
            written += len(chunk)
    return written
