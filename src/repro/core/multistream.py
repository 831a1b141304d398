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
rules, and :class:`MultiReplayHarness` replays them concurrently into
one platform from N simulated replayer instances, through the
single-stream :class:`~repro.core.harness.TestHarness` run loop.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

from repro.core.events import EdgeId, Event, GraphEvent
from repro.core.generator import StreamGenerator
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.stream import GraphStream
from repro.platforms.base import Platform

__all__ = ["offset_stream", "disjoint_streams", "MultiReplayHarness"]

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
    ``rules_factory``), its own derived seed, and the id range
    ``[i * id_stride, (i+1) * id_stride)``.
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
            seed=seed * 7919 + index,
            emit_phase_marker=emit_phase_marker,
        )
        streams.append(offset_stream(generator.generate(), index * id_stride))
    return streams


class MultiReplayHarness(TestHarness):
    """Replays several disjoint streams concurrently into one platform.

    A :class:`TestHarness` whose replayers are one per stream (source
    names ``replayer-0`` ... ``replayer-N-1``), each at ``config.rate``,
    so the aggregate offered load is ``N * rate`` — the horizontal
    input scaling of section 3.2.  Everything else (levels, probes,
    fault schedules, tracing, drain) is the single-stream harness's.
    """

    def __init__(
        self,
        platform: Platform,
        streams: list[GraphStream],
        config: HarnessConfig,
        **probes: Any,
    ):
        if not streams:
            raise ValueError("need at least one stream")
        if config.replay_workers > 1:
            raise ValueError(
                "replay_workers shards one stream; disjoint sources are "
                f"already parallel, got replay_workers={config.replay_workers}"
            )
        # ``stream`` is the whole offered workload; replay uses ``streams``.
        super().__init__(
            platform, GraphStream(chain.from_iterable(streams)), config, **probes
        )
        self.streams = streams

    def _sources(self) -> list[tuple[GraphStream, float, str]]:
        return [
            (stream, self.config.rate, f"replayer-{index}")
            for index, stream in enumerate(self.streams)
        ]
