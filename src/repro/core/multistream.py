"""Concurrent streaming from multiple event sources (paper section 3.2).

"A single, ordered input stream emitted by multiple event sources
requires constant coordination ...  As a result, a stream is only
allowed to have a single event source in our model.  In order to enable
parallelism and horizontal scaling of input workload, we opt for
concurrent streaming of disjunct streams by different event sources;
multiple independent graphs are provided and changed concurrently."

This module implements that scaling pattern: :func:`offset_stream`
relabels a stream's vertex ids into a disjoint id range,
:func:`disjoint_streams` builds N independent streams from the same
rules.  N workers replay N such streams, one each, at ``rate / N``:
:class:`~repro.core.harness.TestHarness` takes the list of streams
(one simulated replayer per stream), and
:class:`~repro.core.sharding.ShardedReplayer` the list of stream files
(one worker process per file), which ``graphtides generate -o A B ...``
writes.
"""

from __future__ import annotations

from repro.core.events import EdgeId, Event, GraphEvent
from repro.core.generator import StreamGenerator
from repro.core.stream import GraphStream

__all__ = ["offset_stream", "disjoint_streams", "DEFAULT_ID_STRIDE"]

#: Default id distance between sources; far above any realistic stream.
DEFAULT_ID_STRIDE = 10_000_000


def offset_stream(stream: GraphStream, offset: int) -> GraphStream:
    """Relabel every vertex id in ``stream`` by ``+offset``.

    Markers and control events pass through unchanged.  Raises
    :class:`ValueError` for negative offsets (id collisions otherwise).
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if offset == 0:
        return GraphStream(list(stream))
    relabeled: list[Event] = []
    for event in stream:
        if isinstance(event, GraphEvent):
            if event.event_type.is_vertex_event:
                entity: int | EdgeId = event.vertex_id + offset
            else:
                edge = event.edge_id
                entity = EdgeId(edge.source + offset, edge.target + offset)
            relabeled.append(
                GraphEvent(event.event_type, entity, event.payload)
            )
        else:
            relabeled.append(event)
    return GraphStream(relabeled)


def disjoint_streams(
    rules_factory,
    sources: int,
    rounds: int,
    seed: int = 0,
    id_stride: int = DEFAULT_ID_STRIDE,
    emit_phase_marker: bool = True,
) -> list[GraphStream]:
    """N independent streams over disjoint vertex-id ranges.

    Each source gets its own :class:`GeneratorRules` instance (from
    ``rules_factory``), its own derived seed ``seed + i * 7919``, and
    the id range ``[i * id_stride, (i+1) * id_stride)``.  Source 0 is
    the stream a single generator with ``seed`` writes.
    """
    if sources <= 0:
        raise ValueError(f"sources must be positive, got {sources}")
    if id_stride <= 0:
        raise ValueError(f"id_stride must be positive, got {id_stride}")
    streams = []
    for index in range(sources):
        generator = StreamGenerator(
            rules_factory(),
            rounds=rounds,
            seed=seed + index * 7919,
            emit_phase_marker=emit_phase_marker,
        )
        streams.append(offset_stream(generator.generate(), index * id_stride))
    return streams
