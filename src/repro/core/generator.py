"""Round-based graph stream generator (paper sections 4.1, 5.1, Listing 1).

Graph stream generation is conceptually divided in two phases:
(i) bootstrapping an initial graph, and (ii) continuously modifying the
resulting graph.  The generator works in a configurable number of
rounds; in each round a user-defined function selects the event type
and an appropriate target vertex/edge, and user callbacks may modify
the state of the target.  A ``constraint`` callback can veto individual
events before they are emitted.

:class:`GeneratorRules` mirrors the user API of Listing 1::

    bootstrapGlobalContext :: () : object
    bootstrapGraph :: (graph, globalContext) : void
    nextEventType :: (globalContext) : EventType
    vertexSelect :: (eventType, globalContext) : number
    edgeSelect :: (eventType, globalContext) : [number, number]
    insertVertex / insertEdge / updateVertex / updateEdge :: ... : object
    removeVertex / removeEdge :: ... : boolean
    constraint :: (event, globalContext) : boolean

The Python spelling is snake_case and the callbacks receive the live
:class:`~repro.graph.graph.StreamGraph` mirror via the context, so
selection functions can rank by degree etc.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.events import (
    EventType,
    GraphEvent,
    add_edge,
    add_vertex,
    marker,
    pause,
    remove_edge,
    remove_vertex,
    update_edge,
    update_vertex,
)
from repro.core.stream import BOOTSTRAP_END_MARKER, GraphStream
from repro.errors import GeneratorError, GraphOperationError
from repro.graph.graph import StreamGraph

__all__ = ["GeneratorContext", "GeneratorRules", "StreamGenerator"]


@dataclass
class GeneratorContext:
    """Mutable state shared across generator callbacks.

    ``graph`` is the generator's own mirror of the graph defined by the
    events emitted so far — user callbacks may inspect it (degrees,
    existence checks) but must not mutate it.  ``rng`` is the seeded
    random source all rules should draw from so streams are
    reproducible.  ``user`` carries the object returned by
    ``bootstrap_global_context``.

    ``vertex_pool`` and ``edge_pool`` are incrementally maintained
    lists of the live vertices/edges (kept in sync by the engine), so
    selection rules can draw uniform random entities in O(1) instead of
    materialising ``list(graph.vertices())`` per round — the difference
    between quadratic and linear stream generation at paper scale.

    :meth:`vertex_by_in_degree_rank` reads ``vertex_pool`` in in-degree
    order without sorting it.  Its index keeps one bucket per in-degree,
    each a sorted list of pool positions, so ties go by pool position,
    exactly as in a stable ``sorted(vertex_pool, key=graph.in_degree,
    reverse=True)``.  The index is built on first use; from then on the
    engine updates it per event, and rules that never ask for it pay
    nothing.
    """

    graph: StreamGraph
    rng: random.Random
    round_number: int = 0
    next_vertex_id: int = 0
    user: object | None = None
    vertex_pool: list[int] = field(default_factory=list)
    edge_pool: list = field(default_factory=list)
    _vertex_index: dict[int, int] = field(default_factory=dict)
    _edge_index: dict = field(default_factory=dict)
    #: In-degree -> sorted pool positions; ``None`` until first used.
    _rank_buckets: dict[int, list[int]] | None = None
    #: The bucket keys, ascending.
    _rank_degrees: list[int] = field(default_factory=list)
    #: Pool position -> the in-degree it is filed under.
    _rank_degree_at: list[int] = field(default_factory=list)

    def fresh_vertex_id(self) -> int:
        """Allocate the next unused vertex id."""
        vertex_id = self.next_vertex_id
        self.next_vertex_id += 1
        return vertex_id

    def random_vertex(self) -> int:
        """Uniformly random live vertex.  Raises GeneratorError if none."""
        if not self.vertex_pool:
            raise GeneratorError("no vertices to select from")
        return self.vertex_pool[self.rng.randrange(len(self.vertex_pool))]

    def random_edge(self):
        """Uniformly random live edge.  Raises GeneratorError if none."""
        if not self.edge_pool:
            raise GeneratorError("no edges to select from")
        return self.edge_pool[self.rng.randrange(len(self.edge_pool))]

    def sample_vertices(self, k: int) -> list[int]:
        """``k`` vertices drawn uniformly with replacement."""
        if not self.vertex_pool:
            raise GeneratorError("no vertices to select from")
        pool = self.vertex_pool
        return [pool[self.rng.randrange(len(pool))] for __ in range(k)]

    def vertex_by_in_degree_rank(self, rank: int) -> int:
        """The live vertex at 0-based ``rank`` of ``vertex_pool`` ranked
        by in-degree, highest first and ties by pool position: what
        ``sorted(vertex_pool, key=graph.in_degree, reverse=True)[rank]``
        returns.  Raises :class:`IndexError` outside the pool."""
        buckets = self._rank_buckets
        if buckets is None:
            buckets = self._build_rank_index()
        if rank >= 0:
            for degree in reversed(self._rank_degrees):
                positions = buckets[degree]
                if rank < len(positions):
                    return self.vertex_pool[positions[rank]]
                rank -= len(positions)
        raise IndexError("in-degree rank out of range")

    # -- pool maintenance (engine-internal) --------------------------------

    def _pool_add_vertex(self, vertex: int) -> None:
        position = len(self.vertex_pool)
        self._vertex_index[vertex] = position
        self.vertex_pool.append(vertex)
        if self._rank_buckets is not None:
            degree = self.graph.in_degree(vertex)
            self._rank_degree_at.append(degree)
            self._rank_file(position, degree)

    def _pool_remove_vertex(self, vertex: int) -> None:
        index = self._vertex_index.pop(vertex)
        last = self.vertex_pool.pop()
        if self._rank_buckets is not None:
            # Swap-remove: the last position's vertex moves into ``index``.
            degree_at = self._rank_degree_at
            self._rank_unfile(index, degree_at[index])
            moved = degree_at.pop()
            if last != vertex:
                self._rank_unfile(len(degree_at), moved)
                self._rank_file(index, moved)
                degree_at[index] = moved
        if last != vertex:
            self.vertex_pool[index] = last
            self._vertex_index[last] = index

    def _pool_add_edge(self, edge) -> None:
        self._edge_index[edge] = len(self.edge_pool)
        self.edge_pool.append(edge)

    def _pool_remove_edge(self, edge) -> None:
        index = self._edge_index.pop(edge)
        last = self.edge_pool.pop()
        if last != edge:
            self.edge_pool[index] = last
            self._edge_index[last] = index

    def _build_rank_index(self) -> dict[int, list[int]]:
        in_degree = self.graph.in_degree
        self._rank_degree_at = [in_degree(vertex) for vertex in self.vertex_pool]
        buckets: dict[int, list[int]] = {}
        for position, degree in enumerate(self._rank_degree_at):
            buckets.setdefault(degree, []).append(position)
        self._rank_buckets = buckets
        self._rank_degrees = sorted(buckets)
        return buckets

    def _rank_refresh(self, vertex: int) -> None:
        """Refile ``vertex`` after its in-degree changed."""
        position = self._vertex_index[vertex]
        old = self._rank_degree_at[position]
        new = self.graph.in_degree(vertex)
        if new != old:
            self._rank_unfile(position, old)
            self._rank_file(position, new)
            self._rank_degree_at[position] = new

    def _rank_file(self, position: int, degree: int) -> None:
        assert self._rank_buckets is not None
        positions = self._rank_buckets.get(degree)
        if positions is None:
            self._rank_buckets[degree] = [position]
            bisect.insort(self._rank_degrees, degree)
        else:
            bisect.insort(positions, position)

    def _rank_unfile(self, position: int, degree: int) -> None:
        assert self._rank_buckets is not None
        positions = self._rank_buckets[degree]
        del positions[bisect.bisect_left(positions, position)]
        if not positions:
            del self._rank_buckets[degree]
            degrees = self._rank_degrees
            del degrees[bisect.bisect_left(degrees, degree)]


class GeneratorRules:
    """Base class for user-defined generation rules (Listing 1).

    Subclasses override the selection and state callbacks.  The default
    implementation generates uniform random behaviour: it adds a vertex
    when asked for any vertex-creating event, picks uniform random
    targets, produces empty states, and accepts every removal and
    constraint check.
    """

    def bootstrap_global_context(self, context: GeneratorContext) -> object | None:
        """Create the user context object (``bootstrapGlobalContext``)."""
        return None

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        """Yield events that build the initial graph (``bootstrapGraph``)."""
        return iter(())

    def next_event_type(self, context: GeneratorContext) -> EventType:
        """Choose the event type of this round (``nextEventType``)."""
        return EventType.ADD_VERTEX

    def vertex_select(
        self, event_type: EventType, context: GeneratorContext
    ) -> int:
        """Choose the target vertex for a vertex event (``vertexSelect``).

        For ``ADD_VERTEX`` return a *new* id (``context.fresh_vertex_id()``);
        for update/remove return an existing id.
        """
        if event_type is EventType.ADD_VERTEX:
            return context.fresh_vertex_id()
        return context.random_vertex()

    def edge_select(
        self, event_type: EventType, context: GeneratorContext
    ) -> tuple[int, int]:
        """Choose the (source, target) pair for an edge event (``edgeSelect``)."""
        graph = context.graph
        if event_type is EventType.ADD_EDGE:
            if len(context.vertex_pool) < 2:
                raise GeneratorError("need at least two vertices to add an edge")
            for __ in range(100):
                source = context.random_vertex()
                target = context.random_vertex()
                if source != target and not graph.has_edge(source, target):
                    return source, target
            raise GeneratorError("could not find a free (source, target) pair")
        edge = context.random_edge()
        return edge.source, edge.target

    def insert_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        """Initial state for a new vertex (``insertVertex``)."""
        return ""

    def insert_edge(
        self, source: int, target: int, context: GeneratorContext
    ) -> str:
        """Initial state for a new edge (``insertEdge``)."""
        return ""

    def update_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        """New state for a vertex update (``updateVertex``)."""
        return ""

    def update_edge(
        self, source: int, target: int, context: GeneratorContext
    ) -> str:
        """New state for an edge update (``updateEdge``)."""
        return ""

    def remove_vertex(self, vertex_id: int, context: GeneratorContext) -> bool:
        """Whether to proceed with a vertex removal (``removeVertex``)."""
        return True

    def remove_edge(
        self, source: int, target: int, context: GeneratorContext
    ) -> bool:
        """Whether to proceed with an edge removal (``removeEdge``)."""
        return True

    def constraint(self, event: GraphEvent, context: GeneratorContext) -> bool:
        """Final veto over an assembled event (``constraint``)."""
        return True


@dataclass
class StreamGenerator:
    """Two-phase, round-based stream generator engine.

    ``rounds`` is the number of evolution rounds after bootstrap; each
    round emits at most one event (rounds vetoed by rules or failing
    repeatedly are skipped, counted in ``skipped_rounds``).  With
    ``emit_phase_marker=True`` a ``bootstrap-end`` marker and a pause
    event separate the two phases, matching section 4.1.
    """

    rules: GeneratorRules
    rounds: int
    seed: int = 0
    emit_phase_marker: bool = True
    phase_pause_seconds: float = 1.0
    max_round_retries: int = 25
    skipped_rounds: int = field(default=0, init=False)

    def generate(self) -> GraphStream:
        """Run bootstrap + evolution and return the full stream."""
        return GraphStream(self.iter_events())

    def write(self, path) -> int:
        """Generate directly into a stream file; returns the event count.

        Events go through :func:`repro.core.codec.write_stream_file` as
        they are produced, so arbitrarily long streams reach disk
        without materialising a :class:`GraphStream` in memory first.
        """
        from repro.core import codec

        return codec.write_stream_file(path, self.iter_events())

    def iter_events(self):
        """Yield stream events lazily (bootstrap, marker, evolution)."""
        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(self.seed))
        context.user = self.rules.bootstrap_global_context(context)
        self.skipped_rounds = 0

        for event in self.rules.bootstrap_graph(context):
            self._mirror(event, context)
            yield event

        if self.emit_phase_marker:
            yield marker(BOOTSTRAP_END_MARKER)
            if self.phase_pause_seconds > 0:
                yield pause(self.phase_pause_seconds)

        for round_number in range(self.rounds):
            context.round_number = round_number
            event = self._generate_round(context)
            if event is None:
                self.skipped_rounds += 1
                continue
            self._mirror(event, context)
            yield event

    # -- internals -----------------------------------------------------------

    def _generate_round(self, context: GeneratorContext) -> GraphEvent | None:
        for __ in range(self.max_round_retries):
            try:
                event = self._assemble_event(context)
            except GeneratorError:
                continue
            if event is None:
                continue
            if not self.rules.constraint(event, context):
                continue
            return event
        return None

    def _assemble_event(self, context: GeneratorContext) -> GraphEvent | None:
        rules = self.rules
        event_type = rules.next_event_type(context)
        if not event_type.is_graph_event:
            raise GeneratorError(f"rules returned non-graph event type {event_type}")

        if event_type.is_vertex_event:
            vertex_id = rules.vertex_select(event_type, context)
            if event_type is EventType.ADD_VERTEX:
                if context.graph.has_vertex(vertex_id):
                    raise GeneratorError(f"vertex {vertex_id} already exists")
                context.next_vertex_id = max(context.next_vertex_id, vertex_id + 1)
                return add_vertex(vertex_id, rules.insert_vertex(vertex_id, context))
            if not context.graph.has_vertex(vertex_id):
                raise GeneratorError(f"vertex {vertex_id} does not exist")
            if event_type is EventType.UPDATE_VERTEX:
                return update_vertex(
                    vertex_id, rules.update_vertex(vertex_id, context)
                )
            if not rules.remove_vertex(vertex_id, context):
                return None
            return remove_vertex(vertex_id)

        source, target = rules.edge_select(event_type, context)
        if event_type is EventType.ADD_EDGE:
            if source == target:
                raise GeneratorError("self loops are not allowed")
            if context.graph.has_edge(source, target):
                raise GeneratorError(f"edge {source}-{target} already exists")
            if not (
                context.graph.has_vertex(source) and context.graph.has_vertex(target)
            ):
                raise GeneratorError("edge endpoints must exist")
            return add_edge(source, target, rules.insert_edge(source, target, context))
        if not context.graph.has_edge(source, target):
            raise GeneratorError(f"edge {source}-{target} does not exist")
        if event_type is EventType.UPDATE_EDGE:
            return update_edge(
                source, target, rules.update_edge(source, target, context)
            )
        if not rules.remove_edge(source, target, context):
            return None
        return remove_edge(source, target)

    def _mirror(self, event: GraphEvent, context: GeneratorContext) -> None:
        try:
            delta = context.graph.apply(event)
        except GraphOperationError as error:  # pragma: no cover - defensive
            raise GeneratorError(
                f"generator produced inconsistent event {event}: {error}"
            ) from error
        event_type = event.event_type
        ranked = context._rank_buckets is not None
        if event_type is EventType.ADD_VERTEX:
            context.next_vertex_id = max(
                context.next_vertex_id, event.vertex_id + 1
            )
            context._pool_add_vertex(event.vertex_id)
        elif event_type is EventType.REMOVE_VERTEX:
            vertex = event.vertex_id
            context._pool_remove_vertex(vertex)
            for edge in delta.removed_edges:
                context._pool_remove_edge(edge)
                if ranked and edge.source == vertex:
                    context._rank_refresh(edge.target)
        elif event_type is EventType.ADD_EDGE:
            context._pool_add_edge(event.edge_id)
            if ranked:
                context._rank_refresh(event.edge_id.target)
        elif event_type is EventType.REMOVE_EDGE:
            context._pool_remove_edge(event.edge_id)
            if ranked:
                context._rank_refresh(event.edge_id.target)
