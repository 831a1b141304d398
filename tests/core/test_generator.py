"""Unit tests for the round-based stream generator engine (Listing 1 API)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    EventType,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    add_edge,
    add_vertex,
    remove_edge,
    remove_vertex,
    update_vertex,
)
from repro.core.generator import GeneratorContext, GeneratorRules, StreamGenerator
from repro.core.stream import BOOTSTRAP_END_MARKER
from repro.graph.builders import build_graph
from repro.graph.graph import StreamGraph


class AddOnlyRules(GeneratorRules):
    """Adds a vertex every round; bootstraps two seed vertices."""

    def bootstrap_graph(self, context):
        from repro.core.events import add_vertex

        yield add_vertex(context.fresh_vertex_id())
        yield add_vertex(context.fresh_vertex_id())


class AlternatingRules(GeneratorRules):
    """Alternates vertex adds and edge adds."""

    def bootstrap_graph(self, context):
        from repro.core.events import add_vertex

        for __ in range(3):
            yield add_vertex(context.fresh_vertex_id())

    def next_event_type(self, context):
        if context.round_number % 2 == 0:
            return EventType.ADD_VERTEX
        return EventType.ADD_EDGE


class VetoingRules(AddOnlyRules):
    """Constraint rejects every event."""

    def constraint(self, event, context):
        return False


class StatefulRules(AddOnlyRules):
    """Uses the global context object across callbacks."""

    def bootstrap_global_context(self, context):
        return {"created": 0}

    def insert_vertex(self, vertex_id, context):
        context.user["created"] += 1
        return f"n{context.user['created']}"


class TestStreamGenerator:
    def test_round_count(self):
        stream = StreamGenerator(AddOnlyRules(), rounds=10, seed=0).generate()
        graph_events = [e for e in stream if isinstance(e, GraphEvent)]
        assert len(graph_events) == 12  # 2 bootstrap + 10 rounds

    def test_phase_marker_and_pause(self):
        stream = StreamGenerator(AddOnlyRules(), rounds=1, seed=0).generate()
        markers = [e for e in stream if isinstance(e, MarkerEvent)]
        pauses = [e for e in stream if isinstance(e, PauseEvent)]
        assert len(markers) == 1
        assert markers[0].label == BOOTSTRAP_END_MARKER
        assert len(pauses) == 1

    def test_phase_marker_disabled(self):
        stream = StreamGenerator(
            AddOnlyRules(), rounds=1, seed=0, emit_phase_marker=False
        ).generate()
        assert not [e for e in stream if isinstance(e, MarkerEvent)]

    def test_zero_pause_omitted(self):
        stream = StreamGenerator(
            AddOnlyRules(), rounds=1, seed=0, phase_pause_seconds=0
        ).generate()
        assert not [e for e in stream if isinstance(e, PauseEvent)]

    def test_stream_is_consistent(self):
        stream = StreamGenerator(AlternatingRules(), rounds=50, seed=2).generate()
        __, report = build_graph(stream)
        assert not report.failed

    def test_deterministic_per_seed(self):
        a = StreamGenerator(AlternatingRules(), rounds=40, seed=9).generate()
        b = StreamGenerator(AlternatingRules(), rounds=40, seed=9).generate()
        assert a == b

    def test_seeds_differ(self):
        a = StreamGenerator(AlternatingRules(), rounds=40, seed=1).generate()
        b = StreamGenerator(AlternatingRules(), rounds=40, seed=2).generate()
        assert a != b

    def test_vetoed_rounds_are_skipped(self):
        generator = StreamGenerator(VetoingRules(), rounds=5, seed=0)
        stream = generator.generate()
        graph_events = [e for e in stream if isinstance(e, GraphEvent)]
        assert len(graph_events) == 2  # bootstrap only
        assert generator.skipped_rounds == 5

    def test_user_context_flows_through(self):
        stream = StreamGenerator(StatefulRules(), rounds=3, seed=0).generate()
        payloads = [
            e.payload
            for e in stream
            if isinstance(e, GraphEvent)
            and e.event_type is EventType.ADD_VERTEX
            and e.payload
        ]
        assert payloads == ["n1", "n2", "n3"]

    def test_lazy_iteration(self):
        generator = StreamGenerator(AddOnlyRules(), rounds=1000, seed=0)
        iterator = generator.iter_events()
        first = next(iterator)
        assert isinstance(first, GraphEvent)

    def test_default_rules_add_vertices(self):
        stream = StreamGenerator(GeneratorRules(), rounds=5, seed=0).generate()
        graph, __ = build_graph(stream)
        assert graph.vertex_count == 5


class TestGeneratorContext:
    def test_fresh_vertex_ids_are_unique(self):
        from repro.graph.graph import StreamGraph
        import random

        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(0))
        ids = [context.fresh_vertex_id() for __ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_add_vertex_advances_id_counter(self):
        # A rule returning an explicit high id must not cause collisions
        # for later fresh ids.
        class HighIdRules(GeneratorRules):
            def vertex_select(self, event_type, context):
                if event_type is EventType.ADD_VERTEX:
                    if context.round_number == 0:
                        return 100
                    return context.fresh_vertex_id()
                return super().vertex_select(event_type, context)

        stream = StreamGenerator(
            HighIdRules(), rounds=3, seed=0, emit_phase_marker=False
        ).generate()
        graph, report = build_graph(stream)
        assert not report.failed
        assert graph.has_vertex(100)
        assert graph.vertex_count == 3


def stable_in_degree_order(context):
    return sorted(context.vertex_pool, key=context.graph.in_degree, reverse=True)


def in_degree_ranks(context):
    return [
        context.vertex_by_in_degree_rank(rank)
        for rank in range(len(context.vertex_pool))
    ]


#: Operations for the index property, weighted towards edge adds so a
#: few vertices reach distinct and tied in-degrees.
OPERATIONS = st.sampled_from(
    ["add_vertex"] * 2
    + ["add_edge"] * 5
    + ["remove_edge"] * 2
    + ["remove_vertex", "update_vertex"]
)


class TestInDegreeRankIndex:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ranks_equal_a_stable_sort_after_every_event(self, data):
        """Adds, removals (cascading, swap-removing a pool entry) and
        updates keep every rank equal to a stable sort of the pool,
        whether the index was built at the start or mid-stream."""
        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(0))
        engine = StreamGenerator(GeneratorRules(), rounds=0)
        operations = data.draw(st.lists(OPERATIONS, max_size=80))
        build_at = data.draw(st.integers(0, len(operations)))
        for step, operation in enumerate(operations + [None]):
            if step == build_at:
                context._build_rank_index()
            if context._rank_buckets is not None:
                assert in_degree_ranks(context) == stable_in_degree_order(context)
            if operation is None:
                break
            pool = context.vertex_pool
            pick = st.integers(0, max(len(pool) - 1, 0))
            if operation == "add_vertex" or not pool:
                event = add_vertex(context.fresh_vertex_id())
            elif operation == "remove_vertex":
                event = remove_vertex(pool[data.draw(pick)])
            elif operation == "update_vertex":
                event = update_vertex(pool[data.draw(pick)], "x")
            elif operation == "remove_edge" and context.edge_pool:
                edge = context.edge_pool[
                    data.draw(st.integers(0, len(context.edge_pool) - 1))
                ]
                event = remove_edge(edge.source, edge.target)
            else:
                source, target = pool[data.draw(pick)], pool[data.draw(pick)]
                if source == target or context.graph.has_edge(source, target):
                    continue
                event = add_edge(source, target)
            engine._mirror(event, context)

    def test_ties_go_by_pool_position_not_vertex_id(self):
        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(0))
        engine = StreamGenerator(GeneratorRules(), rounds=0)
        for event in (
            add_vertex(0), add_vertex(1), add_vertex(2), add_vertex(3),
            add_edge(0, 3), remove_vertex(0),  # 3 moves into position 0
        ):
            engine._mirror(event, context)
        assert context.vertex_pool == [3, 1, 2]
        assert in_degree_ranks(context) == [3, 1, 2]

    def test_rank_outside_the_pool_raises(self):
        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(0))
        StreamGenerator(GeneratorRules(), rounds=0)._mirror(add_vertex(7), context)
        assert context.vertex_by_in_degree_rank(0) == 7
        for rank in (1, -1):
            with pytest.raises(IndexError):
                context.vertex_by_in_degree_rank(rank)

    def test_built_only_on_first_use(self):
        context = GeneratorContext(graph=StreamGraph(), rng=random.Random(0))
        engine = StreamGenerator(GeneratorRules(), rounds=0)
        for event in (add_vertex(0), add_vertex(1), add_edge(0, 1)):
            engine._mirror(event, context)
        assert context._rank_buckets is None
        assert context.vertex_by_in_degree_rank(0) == 1
        assert context._rank_buckets == {0: [0], 1: [1]}
