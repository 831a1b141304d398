"""Integration tests for the test harness (Figure 2 wiring)."""

import gc

import pytest

from repro.core.events import add_vertex, marker
from repro.core.generator import StreamGenerator
from repro.core.harness import HarnessConfig, InternalProbeSpec, TestHarness
from repro.core.models import UniformRules, WeaverTable3Rules
from repro.core.multistream import offset_stream
from repro.core.stream import GraphStream
from repro.errors import GraphTidesError
from repro.graph.builders import build_graph
from repro.platforms.chronolike import ChronoLikePlatform
from repro.platforms.inmem import InMemoryPlatform
from repro.platforms.kineolike import KineoLikePlatform
from repro.platforms.programs import DegreeGossipProgram
from repro.platforms.taulike import TauLikePlatform
from repro.platforms.vertexcentric import VertexCentricPlatform
from repro.platforms.weaverlike import WeaverLikePlatform


@pytest.fixture
def stream() -> GraphStream:
    return StreamGenerator(UniformRules(), rounds=500, seed=11).generate()


class TestConfigValidation:
    def test_rate_positive(self):
        with pytest.raises(ValueError):
            HarnessConfig(rate=0)

    def test_level_range(self):
        with pytest.raises(ValueError):
            HarnessConfig(rate=100, level=3)

    def test_level_capped_by_platform(self, stream):
        with pytest.raises(GraphTidesError, match="level"):
            TestHarness(WeaverLikePlatform(), stream, HarnessConfig(rate=100, level=1))

    def test_internal_probes_require_level2(self, stream):
        with pytest.raises(GraphTidesError, match="level 2"):
            TestHarness(
                ChronoLikePlatform(),
                stream,
                HarnessConfig(rate=100, level=1),
                internal_probes=[InternalProbeSpec("queue_lengths", "queue_length")],
            )


class TestRunLifecycle:
    def test_processes_whole_stream(self, stream):
        harness = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=0)
        )
        result = harness.run()
        graph_events = len(list(stream.graph_events()))
        assert result.events_emitted == graph_events
        assert result.events_processed == graph_events
        assert result.drained

    def test_flushes_partial_weaver_batch(self, stream):
        platform = WeaverLikePlatform(batch_size=7)
        harness = TestHarness(platform, stream, HarnessConfig(rate=1000, level=0))
        result = harness.run()
        assert result.events_processed == result.events_emitted
        assert result.drained

    def test_waits_for_chrono_backlog(self, stream):
        platform = ChronoLikePlatform()
        harness = TestHarness(platform, stream, HarnessConfig(rate=5000, level=0))
        result = harness.run()
        assert result.drained
        assert platform.is_idle

    def test_max_duration_bounds_undrainable_run(self, stream):
        # Absurdly slow platform: the harness must give up at the
        # horizon rather than simulating (and retrying) forever.
        platform = InMemoryPlatform(service_time=100.0, queue_capacity=10)
        config = HarnessConfig(
            rate=1000, level=0, drain_grace=5.0, max_duration=10.0
        )
        result = TestHarness(platform, stream, config).run()
        assert not result.drained
        assert result.events_emitted < len(list(stream.graph_events()))

    def test_max_duration_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(rate=100, max_duration=0)

    def test_mean_throughput(self, stream):
        result = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=0)
        ).run()
        assert result.mean_throughput > 0


class TestCollectedMetrics:
    def test_level0_collects_cpu_and_markers(self, stream):
        result = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=0)
        ).run()
        assert "cpu_load" in result.log.metrics()
        assert "ingress_rate" in result.log.metrics()
        labels = [r.tags["label"] for r in result.log.markers()]
        assert "replay-finished" in labels

    def test_level0_omits_native_metrics(self, stream):
        result = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=0)
        ).run()
        assert "events_processed" not in result.log.metrics()

    def test_level1_collects_native_metrics(self, stream):
        result = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=1)
        ).run()
        assert "queue_length" in result.log.metrics()

    def test_level2_internal_probes(self, stream):
        result = TestHarness(
            ChronoLikePlatform(worker_count=2),
            stream,
            HarnessConfig(rate=2000, level=2),
            internal_probes=[
                InternalProbeSpec(
                    "queue_lengths",
                    "queue_length",
                    extract=lambda q: [
                        (f"worker-{i}", float(v)) for i, v in enumerate(q)
                    ],
                )
            ],
        ).run()
        sources = result.log.filter(metric="queue_length").sources()
        assert "chronograph-worker-0" in sources
        assert "chronograph-worker-1" in sources

    def test_query_probes_recorded_as_results(self, stream):
        result = TestHarness(
            InMemoryPlatform(),
            stream,
            HarnessConfig(rate=1000, level=0),
            query_probes={"vertex_count": lambda p: p.query("vertex_count")},
        ).run()
        records = result.log.filter(metric="vertex_count", kind="result")
        assert len(records) > 0
        values = [r.value for r in records]
        assert values == sorted(values)  # monotone growth for this workload

    def test_object_probes_captured(self, stream):
        result = TestHarness(
            InMemoryPlatform(),
            stream,
            HarnessConfig(rate=1000, level=0),
            object_probes={"snapshot_size": lambda p: p.query("vertex_count")},
        ).run()
        samples = result.object_series["snapshot_size"]
        assert samples
        assert all(isinstance(t, float) for t, __ in samples)

    def test_log_is_chronologically_sorted(self, stream):
        result = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=1000, level=1)
        ).run()
        timestamps = [r.timestamp for r in result.log]
        assert timestamps == sorted(timestamps)


class TestMarkerCorrelation:
    def test_marker_to_result_latency(self):
        events = [add_vertex(i) for i in range(100)]
        stream = GraphStream(events[:50] + [marker("half")] + events[50:])
        result = TestHarness(
            InMemoryPlatform(service_time=0.001),
            stream,
            HarnessConfig(rate=100, level=0, log_interval=0.1),
            query_probes={"vertex_count": lambda p: p.query("vertex_count")},
        ).run()
        from repro.core.analysis import result_reflection_latency

        latency = result_reflection_latency(
            result.log, "half", "vertex_count", lambda v: v >= 50
        )
        assert 0 <= latency < 1.0


class TestShardedHarnessRuns:
    """A list of N disjoint streams runs N parallel simulated replayers
    sharing the rate; totals must match the single-replayer runs."""

    def test_processes_whole_stream_with_workers(self, stream):
        streams = [offset_stream(stream, 1_000_000 * i) for i in range(3)]
        result = TestHarness(
            InMemoryPlatform(),
            streams,
            HarnessConfig(rate=6000, level=0),
        ).run()
        graph_events = len(list(stream.graph_events()))
        assert result.events_emitted_per_source == [graph_events] * 3
        assert result.events_processed == 3 * graph_events
        assert result.drained

    def test_final_graph_matches_single_worker(self):
        # Each source keeps its own order, so no pause has to hold
        # dependent events apart: the platform builds each source's
        # graph as a single replayer does.
        from repro.core.events import add_edge

        events = [add_vertex(i) for i in range(20)]
        events += [add_edge(i, (i + 7) % 20) for i in range(20)]
        stream = GraphStream(events)

        single_platform = InMemoryPlatform()
        TestHarness(
            single_platform, stream, HarnessConfig(rate=2000, level=0)
        ).run()
        streams = [offset_stream(stream, 1000 * i) for i in range(4)]
        sharded_platform = InMemoryPlatform()
        TestHarness(
            sharded_platform, streams, HarnessConfig(rate=8000, level=0)
        ).run()
        assert single_platform.graph.vertex_count == 20
        assert single_platform.graph.edge_count == 20
        expected, report = build_graph(
            GraphStream([event for each in streams for event in each])
        )
        assert not report.failed
        assert sharded_platform.graph == expected
        assert expected.edge_count == 4 * 20

    def test_log_records_per_worker_sources(self, stream):
        result = TestHarness(
            InMemoryPlatform(),
            [stream, offset_stream(stream, 1_000_000)],
            HarnessConfig(rate=2000, level=0),
        ).run()
        sources = {record.source for record in result.log.records}
        assert {"replayer-0", "replayer-1"} <= sources
        assert "replayer" not in sources

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="at least one stream"):
            TestHarness(InMemoryPlatform(), [], HarnessConfig(rate=100))


@pytest.fixture(scope="module")
def weaver_stream() -> GraphStream:
    return StreamGenerator(
        WeaverTable3Rules(n=300, m0=20, m=5), rounds=2000, seed=1
    ).generate()


PLATFORM_MODELS = {
    "inmem": InMemoryPlatform,
    "weaver": lambda: WeaverLikePlatform(batch_size=10),
    "chronolike": ChronoLikePlatform,
    "kineolike": KineoLikePlatform,
    "taulike": TauLikePlatform,
    "vertex-centric": lambda: VertexCentricPlatform(DegreeGossipProgram()),
}


def _single_run(make_platform):
    def run(stream: GraphStream) -> None:
        TestHarness(make_platform(), stream, HarnessConfig(rate=20_000)).run()

    return run


def _multi_run(stream: GraphStream) -> None:
    streams = [stream, offset_stream(stream, 1_000_000)]
    TestHarness(
        WeaverLikePlatform(batch_size=10), streams, HarnessConfig(rate=20_000)
    ).run()


class TestRunsFreedByRefcount:
    """A finished run must not leave reference cycles behind.

    A cycle through the platform keeps its whole graph, the simulation
    and the probes alive until a full collection happens to run, which
    both inflates memory and makes later runs pay for the collection.
    """

    @pytest.mark.parametrize(
        "run",
        [_single_run(make) for make in PLATFORM_MODELS.values()] + [_multi_run],
        ids=[*PLATFORM_MODELS, "multi-replay"],
    )
    def test_no_cyclic_garbage(self, run, weaver_stream):
        was_enabled = gc.isenabled()
        debug_flags = gc.get_debug()
        saved_garbage = list(gc.garbage)
        gc.collect()
        gc.disable()
        try:
            run(weaver_stream)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sorted(
                {
                    f"{type(obj).__module__}.{type(obj).__qualname__}"
                    for obj in gc.garbage
                    if type(obj).__module__.startswith("repro.")
                }
            )
        finally:
            gc.set_debug(debug_flags)
            gc.garbage[:] = saved_garbage
            if was_enabled:
                gc.enable()
        assert leaked == []


class TestExactSchedule:
    """Pins one small run's schedule bit for bit.

    The figures must not move when the kernel or replayer is made
    faster, so every value here is compared with ``==``.
    """

    def test_weaver_run(self, weaver_stream):
        result = TestHarness(
            WeaverLikePlatform(batch_size=10),
            weaver_stream,
            HarnessConfig(rate=20_000, level=0),
        ).run()
        assert (
            result.events_processed,
            result.rejected_attempts,
            result.duration,
        ) == (3720, 37, 2.0)
        replayer = [
            (record.metric, record.timestamp, record.value)
            for record in result.log.records
            if record.source == "replayer"
        ]
        assert replayer == [
            ("marker", 0.0989999999999987, 1720.0),
            ("ingress_rate", 1.0, 1720.0),
            ("marker", 1.223000000000207, 3720.0),
            ("ingress_rate", 2.0, 2000.0),
        ]
