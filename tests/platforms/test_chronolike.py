"""Unit tests for the simulated Chronograph-style platform."""

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.base import rank_error
from repro.core.events import add_edge, add_vertex
from repro.core.generator import StreamGenerator
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.models import UniformRules
from repro.graph.builders import build_graph
from repro.platforms.chronolike import ChronoLikePlatform
from repro.sim.kernel import Simulation


def _attached(**kwargs):
    sim = Simulation()
    platform = ChronoLikePlatform(**kwargs)
    platform.attach(sim)
    return sim, platform


class TestPartitioning:
    def test_owner_assignment(self):
        __, platform = _attached(worker_count=4)
        assert platform.owner_of(0) == 0
        assert platform.owner_of(5) == 1
        assert platform.owner_of(7) == 3

    def test_update_routed_to_owner(self):
        sim, platform = _attached(worker_count=4)
        platform.ingest(add_vertex(2))
        sim.run()
        assert platform.internal_probe("worker_update_ops") == [0, 0, 1, 0]

    def test_edge_events_route_to_source_owner(self):
        sim, platform = _attached(worker_count=4)
        platform.ingest(add_vertex(1))
        platform.ingest(add_vertex(2))
        platform.ingest(add_edge(1, 2))
        sim.run()
        updates = platform.internal_probe("worker_update_ops")
        assert updates[1] == 2  # vertex 1 add + edge 1->2


class TestProcessingModel:
    def test_never_backpressures(self):
        sim, platform = _attached()
        for i in range(1000):
            assert platform.ingest(add_vertex(i))

    def test_backlog_drains(self):
        sim, platform = _attached()
        for i in range(100):
            platform.ingest(add_vertex(i))
        for i in range(99):
            platform.ingest(add_edge(i, i + 1))
        assert not platform.is_idle
        sim.run()
        assert platform.is_idle
        assert platform.is_drained

    def test_compute_messages_generated_by_topology_changes(self):
        sim, platform = _attached()
        platform.ingest(add_vertex(0))
        platform.ingest(add_vertex(1))
        platform.ingest(add_edge(0, 1))
        sim.run()
        compute_ops = sum(platform.internal_probe("worker_compute_ops"))
        assert compute_ops > 0

    def test_queue_lengths_observable(self):
        sim, platform = _attached(worker_count=2)
        for i in range(50):
            platform.ingest(add_vertex(i))
        lengths = platform.internal_probe("queue_lengths")
        assert len(lengths) == 2
        assert sum(lengths) > 0


class TestOnlineRank:
    def test_rank_approaches_exact_after_drain(self):
        stream = StreamGenerator(
            UniformRules(), rounds=400, seed=3, emit_phase_marker=False
        ).generate()
        sim, platform = _attached(rank_threshold=1e-7)
        for event in stream.graph_events():
            platform.ingest(event)
        sim.run()
        graph, __ = build_graph(stream)
        exact = PageRank().compute(graph)
        top = sorted(exact, key=lambda v: -exact[v])[:10]
        error = rank_error(
            platform.query("rank"), {v: exact[v] for v in top}
        )
        assert error < 0.05

    def test_top_influencers_ordered(self):
        sim, platform = _attached()
        for i in range(5):
            platform.ingest(add_vertex(i))
        # Everyone points at vertex 0.
        for i in range(1, 5):
            platform.ingest(add_edge(i, 0))
        sim.run()
        top = platform.query("top_influencers", k=3)
        assert top[0] == 0

    def test_queries_after_run(self):
        stream = StreamGenerator(UniformRules(), rounds=300, seed=3).generate()
        platform = ChronoLikePlatform()
        TestHarness(platform, stream, HarnessConfig(rate=2000)).run()
        assert platform.query("vertex_count") == len(platform.query("rank")) > 0
        assert sum(platform.query("rank").values()) == pytest.approx(1.0)

    def test_rank_query_normalised(self):
        sim, platform = _attached()
        for i in range(10):
            platform.ingest(add_vertex(i))
        sim.run()
        ranks = platform.query("rank")
        assert sum(ranks.values()) == pytest.approx(1.0)


class TestProbes:
    def test_native_metrics(self):
        sim, platform = _attached()
        platform.ingest(add_vertex(0))
        sim.run()
        metrics = platform.native_metrics()
        assert metrics["internal_ops"] >= 1.0
        assert metrics["queued_messages"] == 0.0

    def test_internal_probe_graph(self):
        sim, platform = _attached()
        platform.ingest(add_vertex(0))
        sim.run()
        graph = platform.internal_probe("graph")
        assert graph.has_vertex(0)

    def test_pending_compute_probe(self):
        sim, platform = _attached()
        platform.ingest(add_vertex(0))
        assert platform.internal_probe("pending_compute") >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChronoLikePlatform(worker_count=0)
        with pytest.raises(ValueError):
            ChronoLikePlatform(update_service=-1)

    def test_query_counts(self):
        sim, platform = _attached()
        platform.ingest(add_vertex(0))
        platform.ingest(add_vertex(1))
        platform.ingest(add_edge(0, 1))
        sim.run()
        assert platform.query("vertex_count") == 2
        assert platform.query("edge_count") == 1
