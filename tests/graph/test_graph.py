"""Unit tests for StreamGraph: the six operations and their preconditions."""

import pytest

from repro.core.events import (
    EdgeId,
    add_edge,
    add_vertex,
    remove_edge,
    remove_vertex,
    update_edge,
    update_vertex,
)
from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.graph.graph import StreamGraph, fold_events


@pytest.fixture
def path_graph() -> StreamGraph:
    """0 -> 1 -> 2 with states."""
    graph = StreamGraph()
    for v in range(3):
        graph.add_vertex(v, f"v{v}")
    graph.add_edge(0, 1, "e01")
    graph.add_edge(1, 2, "e12")
    return graph


class TestVertexOperations:
    def test_add_vertex(self):
        graph = StreamGraph()
        graph.add_vertex(1, "state")
        assert graph.has_vertex(1)
        assert graph.vertex_state(1) == "state"
        assert graph.vertex_count == 1

    def test_add_duplicate_vertex_raises(self, path_graph):
        with pytest.raises(VertexExistsError):
            path_graph.add_vertex(0)

    def test_remove_vertex(self, path_graph):
        path_graph.remove_vertex(2)
        assert not path_graph.has_vertex(2)
        assert path_graph.vertex_count == 2

    def test_remove_missing_vertex_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.remove_vertex(99)

    def test_remove_vertex_cascades_edges(self, path_graph):
        removed = path_graph.remove_vertex(1)
        assert set(removed) == {EdgeId(1, 2), EdgeId(0, 1)}
        assert path_graph.edge_count == 0
        assert path_graph.out_degree(0) == 0
        assert path_graph.in_degree(2) == 0

    def test_update_vertex(self, path_graph):
        path_graph.update_vertex(0, "new")
        assert path_graph.vertex_state(0) == "new"

    def test_update_missing_vertex_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.update_vertex(99, "x")


class TestEdgeOperations:
    def test_add_edge(self, path_graph):
        path_graph.add_edge(2, 0, "loop-back")
        assert path_graph.has_edge(2, 0)
        assert path_graph.edge_state(2, 0) == "loop-back"

    def test_edges_are_directed(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(1, 0)

    def test_self_loop_rejected(self, path_graph):
        with pytest.raises(SelfLoopError):
            path_graph.add_edge(1, 1)

    def test_duplicate_edge_rejected(self, path_graph):
        with pytest.raises(EdgeExistsError):
            path_graph.add_edge(0, 1)

    def test_edge_with_missing_source_rejected(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.add_edge(99, 0)

    def test_edge_with_missing_target_rejected(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.add_edge(0, 99)

    def test_remove_edge(self, path_graph):
        path_graph.remove_edge(0, 1)
        assert not path_graph.has_edge(0, 1)
        assert path_graph.edge_count == 1

    def test_remove_missing_edge_raises(self, path_graph):
        with pytest.raises(EdgeNotFoundError):
            path_graph.remove_edge(2, 0)

    def test_update_edge(self, path_graph):
        path_graph.update_edge(0, 1, "updated")
        assert path_graph.edge_state(0, 1) == "updated"

    def test_update_missing_edge_raises(self, path_graph):
        with pytest.raises(EdgeNotFoundError):
            path_graph.update_edge(2, 0, "x")

    def test_reverse_edge_is_distinct(self, path_graph):
        path_graph.add_edge(1, 0, "reverse")
        assert path_graph.edge_state(0, 1) == "e01"
        assert path_graph.edge_state(1, 0) == "reverse"


class TestAccessors:
    def test_degrees(self, path_graph):
        assert path_graph.out_degree(0) == 1
        assert path_graph.in_degree(0) == 0
        assert path_graph.degree(1) == 2

    def test_degree_of_missing_vertex_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.degree(99)

    def test_successors_predecessors(self, path_graph):
        assert path_graph.successors(1) == frozenset({2})
        assert path_graph.predecessors(1) == frozenset({0})
        assert path_graph.neighbors(1) == frozenset({0, 2})

    def test_successors_of_missing_vertex_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.successors(99)

    def test_vertex_state_missing_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.vertex_state(99)

    def test_edge_state_missing_raises(self, path_graph):
        with pytest.raises(EdgeNotFoundError):
            path_graph.edge_state(2, 0)

    def test_iteration_order_is_insertion_order(self):
        graph = StreamGraph()
        for v in (5, 3, 9):
            graph.add_vertex(v)
        assert list(graph.vertices()) == [5, 3, 9]


class TestApply:
    def test_apply_dispatches_all_types(self, tiny_stream):
        graph = StreamGraph()
        for event in tiny_stream.graph_events():
            graph.apply(event)
        assert graph.vertex_count == 4
        assert graph.edge_count == 3
        assert graph.vertex_state(0) == "a2"

    def test_apply_remove_vertex_reports_cascade(self, path_graph):
        delta = path_graph.apply(remove_vertex(1))
        assert set(delta.removed_edges) == {EdgeId(0, 1), EdgeId(1, 2)}

    def test_apply_simple_event_has_empty_cascade(self):
        graph = StreamGraph()
        delta = graph.apply(add_vertex(0))
        assert delta.removed_edges == ()


class TestApplyErrorParity:
    """``apply`` and the public methods share one body per operation, so
    a refused event raises exactly what the method call raises."""

    @pytest.mark.parametrize(
        ("event", "method", "args"),
        [
            (add_edge(0, 0), "add_edge", (0, 0)),
            (add_edge(9, 1), "add_edge", (9, 1)),
            (add_edge(0, 9), "add_edge", (0, 9)),
            (add_edge(0, 1), "add_edge", (0, 1)),
            (remove_edge(2, 0), "remove_edge", (2, 0)),
            (update_edge(2, 0, "x"), "update_edge", (2, 0, "x")),
            (remove_vertex(9), "remove_vertex", (9,)),
            (update_vertex(9, "x"), "update_vertex", (9, "x")),
            (add_vertex(0), "add_vertex", (0,)),
        ],
        ids=[
            "self-loop",
            "missing-source",
            "missing-target",
            "duplicate-edge",
            "remove-missing-edge",
            "update-missing-edge",
            "remove-missing-vertex",
            "update-missing-vertex",
            "duplicate-vertex",
        ],
    )
    def test_same_error_as_public_method(self, path_graph, event, method, args):
        via_apply = path_graph.copy()
        via_method = path_graph.copy()
        with pytest.raises(Exception) as applied:
            via_apply.apply(event)
        with pytest.raises(Exception) as called:
            getattr(via_method, method)(*args)
        assert type(applied.value) is type(called.value)
        assert str(applied.value) == str(called.value)
        assert via_apply == via_method == path_graph

    def test_stored_key_equals_edge_id(self):
        graph = StreamGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        graph.apply(add_edge(0, 1, "e"))
        (stored,) = graph.edges()
        assert type(stored) is EdgeId
        assert stored == EdgeId(0, 1)
        assert hash(stored) == hash(EdgeId(0, 1))
        assert graph.has_edge(0, 1)
        assert graph.edge_state(0, 1) == "e"

    def test_cascade_order_unchanged(self):
        graph = StreamGraph()
        for vertex in range(5):
            graph.add_vertex(vertex)
        for source, target in [(1, 3), (4, 1), (1, 2), (0, 1), (2, 3)]:
            graph.apply(add_edge(source, target))
        delta = graph.apply(remove_vertex(1))
        assert delta.removed_edges == (
            EdgeId(1, 2),
            EdgeId(1, 3),
            EdgeId(0, 1),
            EdgeId(4, 1),
        )
        assert list(graph.edges()) == [EdgeId(2, 3)]


class TestCopyAndEquality:
    def test_copy_is_independent(self, path_graph):
        clone = path_graph.copy()
        clone.add_vertex(99)
        clone.remove_edge(0, 1)
        assert not path_graph.has_vertex(99)
        assert path_graph.has_edge(0, 1)

    def test_equality_by_content(self, path_graph):
        assert path_graph == path_graph.copy()

    def test_inequality_on_state_difference(self, path_graph):
        clone = path_graph.copy()
        clone.update_vertex(0, "different")
        assert path_graph != clone

    def test_repr(self, path_graph):
        assert "vertices=3" in repr(path_graph)
        assert "edges=2" in repr(path_graph)


class TestFoldEvents:
    """The delivery oracle: an arrival order folded into a graph."""

    SOURCE = [
        add_vertex(1, "a"),
        add_vertex(2, "b"),
        add_edge(1, 2, "w"),
        update_vertex(2, "c"),
    ]

    def test_source_order_folds_cleanly(self):
        refused, digest = fold_events(self.SOURCE)
        assert refused == 0
        assert digest == fold_events(list(self.SOURCE))[1]

    def test_edge_before_its_endpoint_is_refused(self):
        """The oracle can fail: moving the edge ahead of its target
        vertex refuses one apply and leaves another graph, although the
        multiset and the count are the source's."""
        reordered = [self.SOURCE[0], self.SOURCE[2], self.SOURCE[1], self.SOURCE[3]]
        refused, digest = fold_events(reordered)
        assert sorted(map(repr, reordered)) == sorted(map(repr, self.SOURCE))
        assert refused == 1
        assert digest != fold_events(self.SOURCE)[1]

    def test_digest_covers_states(self):
        changed = self.SOURCE[:-1] + [update_vertex(2, "d")]
        assert fold_events(changed)[0] == 0
        assert fold_events(changed)[1] != fold_events(self.SOURCE)[1]

    def test_control_events_are_skipped(self):
        from repro.core.events import marker, speed

        mixed = [marker("m"), *self.SOURCE[:2], speed(2.0), *self.SOURCE[2:]]
        assert fold_events(mixed) == fold_events(self.SOURCE)
