"""Tests for concurrent multi-source streaming (section 3.2)."""

import pytest

from repro.core.events import GraphEvent, MarkerEvent, add_vertex
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.models import UniformRules
from repro.core.multistream import disjoint_streams, offset_stream
from repro.core.stream import GraphStream
from repro.errors import GraphTidesError
from repro.graph.builders import build_graph
from repro.platforms.base import FaultSchedule, ProcessFault
from repro.platforms.inmem import InMemoryPlatform


class TestOffsetStream:
    def test_vertex_ids_shifted(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 100)
        graph, report = build_graph(shifted)
        assert not report.failed
        assert set(graph.vertices()) == {100, 101, 102, 103}

    def test_edges_shifted(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 100)
        graph, __ = build_graph(shifted)
        assert graph.has_edge(100, 101)

    def test_non_graph_events_untouched(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 100)
        markers = [e for e in shifted if isinstance(e, MarkerEvent)]
        assert markers == [e for e in tiny_stream if isinstance(e, MarkerEvent)]

    def test_zero_offset_identity(self, tiny_stream):
        assert offset_stream(tiny_stream, 0) == tiny_stream

    def test_negative_offset_rejected(self, tiny_stream):
        with pytest.raises(ValueError):
            offset_stream(tiny_stream, -1)

    def test_payloads_preserved(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 5)
        originals = [e for e in tiny_stream if isinstance(e, GraphEvent)]
        shifted_events = [e for e in shifted if isinstance(e, GraphEvent)]
        for a, b in zip(originals, shifted_events):
            assert a.payload == b.payload


class TestDisjointStreams:
    def test_id_ranges_are_disjoint(self):
        streams = disjoint_streams(
            UniformRules, sources=3, rounds=200, seed=1, id_stride=1000
        )
        vertex_sets = []
        for stream in streams:
            graph, report = build_graph(stream)
            assert not report.failed
            vertex_sets.append(set(graph.vertices()))
        assert not (vertex_sets[0] & vertex_sets[1])
        assert not (vertex_sets[1] & vertex_sets[2])

    def test_sources_get_distinct_seeds(self):
        streams = disjoint_streams(
            UniformRules, sources=2, rounds=200, seed=1, id_stride=100_000
        )
        normalised = [offset_stream(s, 0).to_lines() for s in streams]
        # Relabelled back-to-back comparison: contents differ beyond ids.
        lengths = [len(s) for s in streams]
        assert lengths[0] != lengths[1] or normalised[0] != normalised[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            disjoint_streams(UniformRules, sources=0, rounds=10)
        with pytest.raises(ValueError):
            disjoint_streams(UniformRules, sources=1, rounds=10, id_stride=0)


class TestSourceListHarness:
    """:class:`TestHarness` over a list of disjoint streams: one
    simulated replayer per stream, sharing ``config.rate``."""

    def test_concurrent_replay_processes_everything(self):
        streams = disjoint_streams(UniformRules, sources=3, rounds=300, seed=2)
        platform = InMemoryPlatform()
        result = TestHarness(
            platform, streams, HarnessConfig(rate=3000, level=1)
        ).run()
        assert result.drained
        expected = sum(len(list(s.graph_events())) for s in streams)
        assert result.events_processed == expected
        assert result.events_emitted == expected

    def test_aggregate_rate_scales_with_sources(self):
        def run(sources):
            streams = disjoint_streams(
                UniformRules, sources=sources, rounds=400, seed=3
            )
            platform = InMemoryPlatform(service_time=0.0)
            result = TestHarness(
                platform, streams, HarnessConfig(rate=1000 * sources, level=0)
            ).run()
            assert result.events_emitted_per_source and all(
                emitted > 0 for emitted in result.events_emitted_per_source
            )
            return result.events_emitted / result.duration

        # Three sources at the same per-source rate offer roughly three
        # times the load of one (durations are pause-dominated equally).
        assert run(3) > 2 * run(1)

    def test_sources_share_the_rate(self):
        """Two sources at rate 2R replay each source as one source at R."""
        streams = disjoint_streams(UniformRules, sources=2, rounds=200, seed=3)
        pair = TestHarness(
            InMemoryPlatform(service_time=0.0),
            streams,
            HarnessConfig(rate=2000, level=0),
        ).run()
        alone = TestHarness(
            InMemoryPlatform(service_time=0.0),
            streams[0],
            HarnessConfig(rate=1000, level=0),
        ).run()
        assert pair.events_emitted_per_source[0] == alone.events_emitted
        first = [
            r.value
            for r in pair.log.filter(metric="ingress_rate", source="replayer-0")
        ]
        assert first == [
            r.value for r in alone.log.filter(metric="ingress_rate", source="replayer")
        ]

    def test_per_source_records_in_log(self):
        streams = disjoint_streams(UniformRules, sources=2, rounds=200, seed=4)
        result = TestHarness(
            InMemoryPlatform(), streams, HarnessConfig(rate=2000, level=0)
        ).run()
        sources = result.log.filter(metric="ingress_rate").sources()
        assert "replayer-0" in sources
        assert "replayer-1" in sources

    def test_platform_graph_has_disjoint_components(self):
        streams = disjoint_streams(
            UniformRules, sources=2, rounds=200, seed=5, id_stride=100_000
        )
        platform = InMemoryPlatform()
        TestHarness(
            platform, streams, HarnessConfig(rate=10_000, level=0)
        ).run()
        low = [v for v in platform.graph.vertices() if v < 100_000]
        high = [v for v in platform.graph.vertices() if v >= 100_000]
        assert low and high
        for edge in platform.graph.edges():
            assert (edge.source < 100_000) == (edge.target < 100_000)

    def test_needs_streams(self):
        with pytest.raises(ValueError):
            TestHarness(
                InMemoryPlatform(), [], HarnessConfig(rate=100, level=0)
            )

    def test_level_capped(self):
        from repro.platforms.weaverlike import WeaverLikePlatform

        streams = disjoint_streams(UniformRules, sources=1, rounds=50)
        with pytest.raises(GraphTidesError, match="level"):
            TestHarness(
                WeaverLikePlatform(), streams, HarnessConfig(rate=100, level=1)
            )

    def test_fault_schedule_applies_to_disjoint_sources(self):
        from repro.platforms.weaverlike import WeaverLikePlatform

        base = GraphStream([add_vertex(i) for i in range(1500)])
        streams = [base, offset_stream(base, 10_000)]
        schedule = FaultSchedule(
            faults=(ProcessFault(process="shard", at=1.0, duration=1.0),)
        )
        result = TestHarness(
            WeaverLikePlatform(),
            streams,
            HarnessConfig(
                rate=1500, level=0, log_interval=0.1, fault_schedule=schedule
            ),
        ).run()
        assert result.events_processed == 3000
        fault_records = result.log.filter(metric="fault")
        assert [r.tags["action"] for r in fault_records] == ["crash", "restore"]
        assert len(result.recoveries) == 1


class TestOffsetCollisions:
    """Why disjoint_streams validates its stride: offsets smaller than
    the id range of a stream leave the relabelled streams colliding."""

    def _vertex_ids(self, stream) -> set:
        graph, report = build_graph(stream)
        assert not report.failed
        return set(graph.vertices())

    def test_small_offset_collides(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 1)
        overlap = self._vertex_ids(tiny_stream) & self._vertex_ids(shifted)
        assert overlap, "insufficient stride must collide"

    def test_sufficient_offset_is_collision_free(self, tiny_stream):
        shifted = offset_stream(tiny_stream, 100)
        assert not self._vertex_ids(tiny_stream) & self._vertex_ids(shifted)


class TestRecordMerging:
    def test_merged_log_is_chronological_across_sources(self):
        streams = disjoint_streams(UniformRules, sources=2, rounds=200, seed=6)
        result = TestHarness(
            InMemoryPlatform(), streams, HarnessConfig(rate=2000, level=1)
        ).run()
        timestamps = [record.timestamp for record in result.log]
        assert timestamps == sorted(timestamps)
        sources = set(result.log.sources())
        # Replayer records and platform-probe records land in one log.
        assert {"replayer-0", "replayer-1"} <= sources
        assert any(source.startswith("inmem") for source in sources)

    def test_markers_from_every_source_survive_the_merge(self):
        streams = disjoint_streams(UniformRules, sources=3, rounds=200, seed=7)
        result = TestHarness(
            InMemoryPlatform(), streams, HarnessConfig(rate=3000, level=0)
        ).run()
        marker_sources = {
            record.source
            for record in result.log
            if record.kind == "marker"
        }
        assert marker_sources == {"replayer-0", "replayer-1", "replayer-2"}


class TestMultiStreamTracing:
    def _run(self, sources=2, **config):
        streams = disjoint_streams(
            UniformRules, sources=sources, rounds=200, seed=8
        )
        return TestHarness(
            InMemoryPlatform(),
            streams,
            HarnessConfig(rate=1000 * sources, level=1, trace=True, **config),
        ).run()

    def test_traced_run_exposes_a_tracer_with_closed_accounting(self):
        result = self._run()
        assert result.tracer is not None
        accounting = result.tracer.accounting()
        assert accounting["emitted"] == result.events_emitted
        assert accounting["in_flight"] == 0
        assert accounting["closed"]

    def test_span_categories_disambiguate_the_sources(self):
        result = self._run()
        emit_sources = {r.source for r in result.log.spans("emitted")}
        assert emit_sources == {"replayer-0", "replayer-1"}
        per_source = result.events_emitted_per_source
        for index, emitted in enumerate(per_source):
            spans = result.log.spans("emitted", category=f"replayer-{index}")
            assert len(spans) == emitted  # stride 1: one span per event

    def test_counters_aggregate_across_sources_under_sampling(self):
        result = self._run(sources=3, trace_sample_every=11)
        assert result.tracer.counts["emitted"] == result.events_emitted
        assert len(result.log.spans("emitted")) < result.events_emitted

    def test_untraced_run_has_no_tracer(self):
        streams = disjoint_streams(UniformRules, sources=2, rounds=100, seed=9)
        result = TestHarness(
            InMemoryPlatform(), streams, HarnessConfig(rate=2000, level=0)
        ).run()
        assert result.tracer is None
