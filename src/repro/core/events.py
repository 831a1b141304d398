"""Event model and the plain-CSV graph stream format (paper section 4.2).

A graph stream is a plain comma-separated value file with one event per
line::

    COMMAND, ENTITY_ID, PAYLOAD

Graph-changing events add or remove a vertex/edge or update its state.
Vertices are identified by a unique id; edges are identified by
concatenating source and destination ids separated by a dash
(``"3-4"`` is the edge from vertex ``3`` to vertex ``4``).  States are
user-defined strings (e.g. stringified JSON).

Beyond the six graph-changing commands, a stream may contain *marker*
events that flag specific points in the stream for later time
correlation, and *control* events which change the replayer's behaviour
at runtime: ``SPEED`` multiplies the base replay rate by a factor
(``1`` restores the initially configured rate) and ``PAUSE`` suspends
emission for a given number of seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import StreamFormatError

__all__ = [
    "EventType",
    "Event",
    "GraphEvent",
    "MarkerEvent",
    "SpeedEvent",
    "PauseEvent",
    "EdgeId",
    "parse_edge_id",
    "format_edge_id",
    "parse_line",
    "format_event",
    "add_vertex",
    "remove_vertex",
    "update_vertex",
    "add_edge",
    "remove_edge",
    "update_edge",
    "marker",
    "speed",
    "pause",
]


class EventType(enum.Enum):
    """Commands that may appear in a graph stream.

    The six graph-changing operations come straight from the paper's
    system model (section 3.1); ``MARKER``, ``SPEED`` and ``PAUSE`` are
    the marker/control events of section 4.2.
    """

    ADD_VERTEX = "ADD_VERTEX"
    REMOVE_VERTEX = "REMOVE_VERTEX"
    UPDATE_VERTEX = "UPDATE_VERTEX"
    ADD_EDGE = "ADD_EDGE"
    REMOVE_EDGE = "REMOVE_EDGE"
    UPDATE_EDGE = "UPDATE_EDGE"
    MARKER = "MARKER"
    SPEED = "SPEED"
    PAUSE = "PAUSE"

    @property
    def is_graph_event(self) -> bool:
        """True for the six operations that change the graph."""
        return self in _GRAPH_EVENT_TYPES

    @property
    def is_topology_event(self) -> bool:
        """True for operations that add or remove vertices/edges."""
        return self in _TOPOLOGY_EVENT_TYPES

    @property
    def is_state_event(self) -> bool:
        """True for operations that only update vertex/edge state."""
        return self in (EventType.UPDATE_VERTEX, EventType.UPDATE_EDGE)

    @property
    def is_vertex_event(self) -> bool:
        return self in (
            EventType.ADD_VERTEX,
            EventType.REMOVE_VERTEX,
            EventType.UPDATE_VERTEX,
        )

    @property
    def is_edge_event(self) -> bool:
        return self in (
            EventType.ADD_EDGE,
            EventType.REMOVE_EDGE,
            EventType.UPDATE_EDGE,
        )

    @property
    def is_control_event(self) -> bool:
        """True for events that steer the replayer rather than the graph."""
        return self in (EventType.SPEED, EventType.PAUSE)


_GRAPH_EVENT_TYPES = frozenset(
    {
        EventType.ADD_VERTEX,
        EventType.REMOVE_VERTEX,
        EventType.UPDATE_VERTEX,
        EventType.ADD_EDGE,
        EventType.REMOVE_EDGE,
        EventType.UPDATE_EDGE,
    }
)

_TOPOLOGY_EVENT_TYPES = frozenset(
    {
        EventType.ADD_VERTEX,
        EventType.REMOVE_VERTEX,
        EventType.ADD_EDGE,
        EventType.REMOVE_EDGE,
    }
)


@dataclass(frozen=True, slots=True)
class EdgeId:
    """A directed edge identifier: source and destination vertex ids."""

    source: int
    target: int

    def __str__(self) -> str:
        return f"{self.source}-{self.target}"

    def reversed(self) -> "EdgeId":
        """The edge id with source and target swapped."""
        return EdgeId(self.target, self.source)

    def as_tuple(self) -> tuple[int, int]:
        return (self.source, self.target)


def parse_edge_id(text: str) -> EdgeId:
    """Parse a ``"src-dst"`` edge identifier.

    The parse is sign-aware — negative vertex ids such as ``"-1-4"``
    (the edge from vertex ``-1`` to vertex ``4``) are accepted, and
    optional whitespace around either id is tolerated.  Raises
    :class:`StreamFormatError` when the identifier is malformed.
    """
    text = text.strip()
    # Search from index 1 so a leading minus sign of a negative source
    # id is never mistaken for the separator.
    sep = text.find("-", 1)
    if sep == -1:
        raise StreamFormatError(f"edge id {text!r} has no '-' separator")
    try:
        return EdgeId(int(text[:sep]), int(text[sep + 1 :]))
    except ValueError:
        raise StreamFormatError(
            f"edge id {text!r} does not contain two integer vertex ids"
        ) from None


def format_edge_id(source: int, target: int) -> str:
    """Format an edge identifier as ``"src-dst"``."""
    return f"{source}-{target}"


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for every entry in a graph stream."""

    @property
    def type(self) -> EventType:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class GraphEvent(Event):
    """One of the six graph-changing operations.

    ``entity`` is an ``int`` vertex id for vertex operations and an
    :class:`EdgeId` for edge operations.  ``payload`` carries the new
    state for add/update operations (a user-defined string) and is
    empty for removals.
    """

    event_type: EventType
    entity: int | EdgeId
    payload: str = ""

    def __post_init__(self) -> None:
        if not self.event_type.is_graph_event:
            raise ValueError(f"{self.event_type} is not a graph-changing event")
        if self.event_type.is_vertex_event and not isinstance(self.entity, int):
            raise ValueError(
                f"{self.event_type.value} requires an int vertex id, "
                f"got {type(self.entity).__name__}"
            )
        if self.event_type.is_edge_event and not isinstance(self.entity, EdgeId):
            raise ValueError(
                f"{self.event_type.value} requires an EdgeId, "
                f"got {type(self.entity).__name__}"
            )

    @property
    def type(self) -> EventType:
        return self.event_type

    @property
    def vertex_id(self) -> int:
        """The vertex id for vertex events (raises otherwise)."""
        if not isinstance(self.entity, int):
            raise TypeError(f"{self.event_type.value} event has no vertex id")
        return self.entity

    @property
    def edge_id(self) -> EdgeId:
        """The edge id for edge events (raises otherwise)."""
        if not isinstance(self.entity, EdgeId):
            raise TypeError(f"{self.event_type.value} event has no edge id")
        return self.entity


@dataclass(frozen=True, slots=True)
class MarkerEvent(Event):
    """Flags a specific point in the stream for later time correlation."""

    label: str

    @property
    def type(self) -> EventType:
        return EventType.MARKER


@dataclass(frozen=True, slots=True)
class SpeedEvent(Event):
    """Changes the replayer speed: factor 1 is the initially set rate."""

    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"speed factor must be positive, got {self.factor}")

    @property
    def type(self) -> EventType:
        return EventType.SPEED


@dataclass(frozen=True, slots=True)
class PauseEvent(Event):
    """Pauses the replayer for a given number of seconds."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"pause duration must be >= 0, got {self.seconds}")

    @property
    def type(self) -> EventType:
        return EventType.PAUSE


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def add_vertex(vertex_id: int, state: str = "") -> GraphEvent:
    """An ``ADD_VERTEX`` event creating ``vertex_id`` with initial state."""
    return GraphEvent(EventType.ADD_VERTEX, vertex_id, state)


def remove_vertex(vertex_id: int) -> GraphEvent:
    """A ``REMOVE_VERTEX`` event deleting ``vertex_id``."""
    return GraphEvent(EventType.REMOVE_VERTEX, vertex_id)


def update_vertex(vertex_id: int, state: str) -> GraphEvent:
    """An ``UPDATE_VERTEX`` event replacing the state of ``vertex_id``."""
    return GraphEvent(EventType.UPDATE_VERTEX, vertex_id, state)


def add_edge(source: int, target: int, state: str = "") -> GraphEvent:
    """An ``ADD_EDGE`` event creating the edge ``source -> target``."""
    return GraphEvent(EventType.ADD_EDGE, EdgeId(source, target), state)


def remove_edge(source: int, target: int) -> GraphEvent:
    """A ``REMOVE_EDGE`` event deleting the edge ``source -> target``."""
    return GraphEvent(EventType.REMOVE_EDGE, EdgeId(source, target))


def update_edge(source: int, target: int, state: str) -> GraphEvent:
    """An ``UPDATE_EDGE`` event replacing the state of ``source -> target``."""
    return GraphEvent(EventType.UPDATE_EDGE, EdgeId(source, target), state)


def marker(label: str) -> MarkerEvent:
    """A marker event with the given correlation label."""
    return MarkerEvent(label)


def speed(factor: float) -> SpeedEvent:
    """A control event that sets the replay speed-up ``factor``."""
    return SpeedEvent(factor)


def pause(seconds: float) -> PauseEvent:
    """A control event that pauses the replayer for ``seconds``."""
    return PauseEvent(seconds)


# ---------------------------------------------------------------------------
# CSV (de)serialization
# ---------------------------------------------------------------------------

_PAYLOAD_ESCAPES = {"\\": "\\\\", ",": "\\,", "\n": "\\n", "\r": "\\r"}
_PAYLOAD_UNESCAPES = {"\\": "\\", ",": ",", "n": "\n", "r": "\r"}


def _escape_payload(payload: str) -> str:
    """Escape separators/newlines so a payload survives the CSV line format."""
    if not any(ch in payload for ch in _PAYLOAD_ESCAPES):
        return payload
    return "".join(_PAYLOAD_ESCAPES.get(ch, ch) for ch in payload)


def _unescape_payload(payload: str) -> str:
    out: list[str] = []
    it = iter(range(len(payload)))
    i = 0
    while i < len(payload):
        ch = payload[i]
        if ch == "\\" and i + 1 < len(payload):
            nxt = payload[i + 1]
            if nxt in _PAYLOAD_UNESCAPES:
                out.append(_PAYLOAD_UNESCAPES[nxt])
                i += 2
                continue
        out.append(ch)
        i += 1
    del it
    return "".join(out)


def format_event(event: Event) -> str:
    """Serialize an event as one CSV stream line (without newline).

    Thin wrapper over :func:`repro.core.codec.format_event`; use
    :func:`repro.core.codec.format_events` to serialize whole batches.
    """
    return _codec.format_event(event)


def parse_line(line: str, line_number: int | None = None) -> Event:
    """Parse one CSV stream line into an :class:`Event`.

    Thin wrapper over :func:`repro.core.codec.parse_line`; use
    :func:`repro.core.codec.parse_lines` to parse whole batches.
    Raises :class:`StreamFormatError` on malformed input.  Payloads may
    contain escaped commas (``\\,``); only the first two unescaped
    commas separate the three fields.
    """
    return _codec.parse_line(line, line_number)


def _legacy_format_event(event: Event) -> str:
    """Pre-codec per-event serializer.

    Retained only as the oracle of the codec equivalence and property
    tests; new code should use
    :func:`format_event` / :func:`repro.core.codec.format_events`.
    """
    if isinstance(event, GraphEvent):
        entity = str(event.entity)
        return f"{event.event_type.value},{entity},{_escape_payload(event.payload)}"
    if isinstance(event, MarkerEvent):
        return f"MARKER,{_escape_payload(event.label)},"
    if isinstance(event, SpeedEvent):
        return f"SPEED,{event.factor:g},"
    if isinstance(event, PauseEvent):
        return f"PAUSE,{event.seconds:g},"
    raise TypeError(f"cannot serialize {type(event).__name__}")


def _legacy_parse_line(line: str, line_number: int | None = None) -> Event:
    """Pre-codec per-line parser.

    Retained only as the oracle of the codec equivalence and property
    tests; new code should use
    :func:`parse_line` / :func:`repro.core.codec.parse_lines`.
    """
    line = line.rstrip("\n\r")
    if not line:
        raise StreamFormatError("empty line", line_number)

    command, sep, rest = line.partition(",")
    if not sep:
        raise StreamFormatError(f"no fields after command {command!r}", line_number)
    command = command.strip()
    try:
        event_type = EventType(command)
    except ValueError:
        raise StreamFormatError(f"unknown command {command!r}", line_number) from None

    entity_text, __, payload = rest.partition(",")

    if event_type is EventType.MARKER:
        # Marker labels are preserved verbatim (no whitespace stripping)
        # so arbitrary labels survive the round trip.
        return MarkerEvent(_unescape_payload(entity_text))
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
            raise StreamFormatError(f"bad PAUSE duration: {exc}", line_number) from None

    payload = _unescape_payload(payload)
    if event_type.is_vertex_event:
        try:
            vertex_id = int(entity_text)
        except ValueError:
            raise StreamFormatError(
                f"vertex id {entity_text!r} is not an integer", line_number
            ) from None
        return GraphEvent(event_type, vertex_id, payload)

    try:
        edge_id = parse_edge_id(entity_text)
    except StreamFormatError as exc:
        raise StreamFormatError(str(exc), line_number) from None
    return GraphEvent(event_type, edge_id, payload)


# Imported last: the codec depends on the event classes defined above,
# while the parse_line/format_event wrappers delegate to the codec.
# The module-object binding (rather than from-imports of functions)
# keeps the circular import safe from either entry path.
from repro.core import codec as _codec  # noqa: E402
