"""Graph stream container, file I/O and workload characterisation.

A :class:`GraphStream` is an ordered sequence of events (graph-changing,
marker, and control events) that can be persisted to / loaded from the
plain CSV format of section 4.2.  The module also computes the stream
properties of section 4.4.1 — event mix, topology-change direction and
type ratios, state-change type ratios, and windowed temporal
distributions — which together characterise the load a stream induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core import codec
from repro.core.events import (
    Event,
    EventType,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
)
__all__ = ["GraphStream", "StreamStatistics", "WindowStatistics"]

#: Conventional marker label separating bootstrap phase from evaluation phase.
BOOTSTRAP_END_MARKER = "bootstrap-end"


@dataclass(frozen=True, slots=True)
class WindowStatistics:
    """Event counts within one window of a stream (temporal distribution)."""

    start_index: int
    end_index: int
    topology_events: int
    state_events: int
    add_events: int
    remove_events: int

    @property
    def total_events(self) -> int:
        return self.topology_events + self.state_events


@dataclass(frozen=True, slots=True)
class StreamStatistics:
    """Aggregate workload properties of a stream (section 4.4.1).

    Ratios are in ``[0, 1]`` and are ``nan`` when their denominator is
    zero (e.g. the add/remove direction ratio of a stream without
    topology changes).
    """

    total_events: int
    graph_events: int
    marker_events: int
    control_events: int
    topology_events: int
    state_events: int
    vertex_events: int
    edge_events: int
    add_events: int
    remove_events: int
    counts_by_type: dict[EventType, int]

    @property
    def event_mix(self) -> float:
        """Ratio of topology-changing events among graph events."""
        if not self.graph_events:
            return math.nan
        return self.topology_events / self.graph_events

    @property
    def direction_ratio(self) -> float:
        """Ratio of add operations among topology-changing events."""
        denominator = self.add_events + self.remove_events
        if not denominator:
            return math.nan
        return self.add_events / denominator

    @property
    def vertex_ratio(self) -> float:
        """Ratio of vertex operations among graph events."""
        if not self.graph_events:
            return math.nan
        return self.vertex_events / self.graph_events


class GraphStream:
    """An ordered, replayable sequence of stream events.

    The container is list-like (indexing, slicing, iteration, length)
    and adds stream-specific helpers: file (de)serialisation, phase
    splitting at the bootstrap marker, and workload statistics.
    """

    def __init__(self, events: Iterable[Event] = ()):
        self._events: list[Event] = list(events)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GraphStream(self._events[index])
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphStream):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:
        return f"GraphStream({len(self._events)} events)"

    def append(self, event: Event) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    @property
    def events(self) -> Sequence[Event]:
        """Read-only view of the underlying event list."""
        return tuple(self._events)

    # -- derived views ---------------------------------------------------------

    def graph_events(self) -> Iterator[GraphEvent]:
        """Iterate over only the graph-changing events."""
        return (e for e in self._events if isinstance(e, GraphEvent))

    def markers(self) -> list[tuple[int, MarkerEvent]]:
        """All marker events with their stream indices."""
        return [
            (i, e) for i, e in enumerate(self._events) if isinstance(e, MarkerEvent)
        ]

    def marker_index(self, label: str) -> int:
        """Stream index of the first marker with ``label``.

        Raises :class:`ValueError` when no such marker exists.
        """
        for i, event in enumerate(self._events):
            if isinstance(event, MarkerEvent) and event.label == label:
                return i
        raise ValueError(f"no marker labelled {label!r} in stream")

    def split_phases(
        self, marker_label: str = BOOTSTRAP_END_MARKER
    ) -> tuple["GraphStream", "GraphStream"]:
        """Split into (bootstrap, evaluation) sub-streams at a marker.

        Follows section 4.1: the stream is typically divided in two
        parts by a marker (and usually a pause event); the first phase
        bootstraps the initial graph, the second is the main evaluation
        phase.  The marker itself ends the bootstrap phase; an
        immediately following pause event is also assigned to the
        bootstrap phase.
        """
        index = self.marker_index(marker_label)
        split = index + 1
        if split < len(self._events) and isinstance(self._events[split], PauseEvent):
            split += 1
        return GraphStream(self._events[:split]), GraphStream(self._events[split:])

    # -- statistics ---------------------------------------------------------

    def statistics(self) -> StreamStatistics:
        """Aggregate workload statistics over the whole stream."""
        counts: dict[EventType, int] = {t: 0 for t in EventType}
        for event in self._events:
            counts[event.type] += 1

        graph_total = sum(counts[t] for t in EventType if t.is_graph_event)
        topology = sum(counts[t] for t in EventType if t.is_topology_event)
        vertex = sum(counts[t] for t in EventType if t.is_vertex_event)
        edge = sum(counts[t] for t in EventType if t.is_edge_event)
        adds = counts[EventType.ADD_VERTEX] + counts[EventType.ADD_EDGE]
        removes = counts[EventType.REMOVE_VERTEX] + counts[EventType.REMOVE_EDGE]
        state = counts[EventType.UPDATE_VERTEX] + counts[EventType.UPDATE_EDGE]

        return StreamStatistics(
            total_events=len(self._events),
            graph_events=graph_total,
            marker_events=counts[EventType.MARKER],
            control_events=counts[EventType.SPEED] + counts[EventType.PAUSE],
            topology_events=topology,
            state_events=state,
            vertex_events=vertex,
            edge_events=edge,
            add_events=adds,
            remove_events=removes,
            counts_by_type=counts,
        )

    def windowed_statistics(self, window: int) -> list[WindowStatistics]:
        """Temporal distribution: per-window event counts.

        ``window`` is the number of stream entries per window; the last
        window may be shorter.  Raises :class:`ValueError` for
        non-positive windows.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        result: list[WindowStatistics] = []
        for start in range(0, len(self._events), window):
            chunk = self._events[start : start + window]
            topology = state = adds = removes = 0
            for event in chunk:
                event_type = event.type
                if event_type.is_topology_event:
                    topology += 1
                    if event_type in (EventType.ADD_VERTEX, EventType.ADD_EDGE):
                        adds += 1
                    else:
                        removes += 1
                elif event_type.is_state_event:
                    state += 1
            result.append(
                WindowStatistics(
                    start_index=start,
                    end_index=start + len(chunk),
                    topology_events=topology,
                    state_events=state,
                    add_events=adds,
                    remove_events=removes,
                )
            )
        return result

    # -- file I/O ----------------------------------------------------------

    def write(self, path: str | Path, *, format: str = "csv") -> None:
        """Write the stream to a stream file (CSV or binary).

        ``format="csv"`` writes one event per line via the codec's bulk
        formatter (one buffered write per chunk); ``format="binary"``
        writes the length-prefixed GTB1 frame format with a trailing
        batch index.
        """
        codec.write_stream_file(path, self._events, format=format)

    @classmethod
    def read(cls, path: str | Path) -> "GraphStream":
        """Load a stream from a CSV (or GTB1 binary) stream file.

        Blank lines and lines starting with ``#`` are skipped; any other
        malformed line raises :class:`StreamFormatError` with its line
        number.  ``\n``, ``\r\n`` and lone ``\r`` all end a line.  The
        file is decoded in ~64 KiB blocks through
        :func:`repro.core.codec.parse_stream_file`, the same parse the
        replayer's reader uses.
        """
        return cls(codec.parse_stream_file(path))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "GraphStream":
        """Parse a stream from an iterable of CSV lines (skips blanks)."""
        return cls(codec.parse_lines(lines, skip_comments=True))

    def to_lines(self) -> list[str]:
        """Serialize each event to its CSV line (without newlines)."""
        return codec.format_lines(self._events)
