"""Tests for the process-parallel replay of disjoint streams.

N workers replay N disjoint sources, one each: every worker's wire must
be what a single-process replay of its source sends, in the source's
order (the graph-state fold of each wire equals its source's); merged
reports must sum to the single-process counts; and every cross-process
configuration object must pickle (so ``spawn`` platforms work).
"""

import collections
import gc
import multiprocessing
import pickle
import sys
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import (
    PipeSpec,
    PipeTransport,
    ShmSpec,
    TcpReceiver,
    TcpSpec,
    TransportSpec,
)
from repro.core.events import (
    GraphEvent,
    add_edge,
    add_vertex,
    marker,
    remove_vertex,
    speed,
    update_vertex,
)
from repro.core.replayer import LiveReplayer, ReplayReport
from repro.core.multistream import offset_stream
from repro.core.sharding import (
    ShardedReplayer,
    WorkerConfig,
    _worker_main,
    merge_replay_reports,
)
from repro.core.resilience import ChaosConfig, RetryPolicy
from repro.core.stream import GraphStream
from repro.graph.graph import fold_events
from repro.errors import (
    DeliveryExhaustedError,
    EvaluationLevelError,
    ReplayError,
    StreamFormatError,
    TransientTransportError,
)

FAST = 1_000_000  # replay rate far above these tiny streams' needs


def mixed_stream() -> GraphStream:
    """Markers at start, middle and end; all control kinds; 40 graph
    events with ids chosen to skew a hash partition."""
    events = [marker("start")]
    for i in range(10):
        events.append(add_vertex(i))
    for i in range(10):
        events.append(add_edge(i, (i + 1) % 10, f"w={i}"))
    events.append(speed(2.0))
    events.append(marker("mid"))
    for i in range(10):
        events.append(update_vertex(i, f"s{i}"))
    for i in range(10):
        events.append(remove_vertex(i))
    events.append(marker("end"))
    return GraphStream(events)


def graph_multiset(events) -> collections.Counter:
    return collections.Counter(
        codec.format_event(e) for e in events if isinstance(e, GraphEvent)
    )


def disjoint_sources(tmp_path, workers, fmt="csv") -> list[str]:
    """``workers`` copies of :func:`mixed_stream`, 1000 ids apart."""
    suffix = "gtb" if fmt == "binary" else "csv"
    paths = []
    for index in range(workers):
        path = tmp_path / f"source-{index}.{suffix}"
        offset_stream(mixed_stream(), 1000 * index).write(path, format=fmt)
        paths.append(str(path))
    return paths


def assert_wires_fold_to_sources(sources, wires):
    """Worker ``i``'s wire applies to a graph as source ``i`` does."""
    assert len(wires) == len(sources)
    for source, wire in zip(sources, wires):
        folded = fold_events(wire)
        assert folded == fold_events(codec.parse_stream_file(source))
        assert folded[0] == 0


class TestMergeReplayReports:
    def make(self, **overrides) -> ReplayReport:
        values = dict(
            events_emitted=10,
            duration=2.0,
            window_rates=(5.0, 5.0),
            marker_times=(("m", 1.0),),
            retries=1,
            redeliveries=2,
            breaker_openings=0,
            chaos_faults=3,
            resumes=1,
            checkpoints=1,
            started_at=100.0,
        )
        values.update(overrides)
        return ReplayReport(**values)

    def test_counts_sum(self):
        merged = merge_replay_reports([self.make(), self.make()])
        assert merged.events_emitted == 20
        assert merged.retries == 2
        assert merged.redeliveries == 4
        assert merged.chaos_faults == 6
        assert merged.resumes == 2

    def test_checkpoints_and_duration_take_max(self):
        merged = merge_replay_reports(
            [self.make(checkpoints=2, duration=1.0), self.make(duration=3.5)]
        )
        assert merged.checkpoints == 2
        assert merged.duration == 3.5

    def test_window_rates_sum_positionwise_with_missing_as_zero(self):
        merged = merge_replay_reports(
            [
                self.make(window_rates=(100.0, 50.0, 25.0)),
                self.make(window_rates=(100.0,)),
            ]
        )
        assert merged.window_rates == (200.0, 50.0, 25.0)

    def test_marker_times_take_slowest_shard(self):
        merged = merge_replay_reports(
            [
                self.make(marker_times=(("m", 1.0), ("n", 2.0))),
                self.make(marker_times=(("m", 1.5),)),
            ]
        )
        assert merged.marker_times == (("m", 1.5), ("n", 2.0))

    def test_started_at_is_earliest(self):
        merged = merge_replay_reports(
            [self.make(started_at=10.0), self.make(started_at=9.0)]
        )
        assert merged.started_at == 9.0

    def test_pacing_margin_is_the_largest_shard_margin(self):
        merged = merge_replay_reports(
            [self.make(pacing_margin_s=1e-4), self.make(pacing_margin_s=3e-4)]
        )
        assert merged.pacing_margin_s == 3e-4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_replay_reports([])


class TestPicklableConfigs:
    """Everything that crosses the process boundary must pickle."""

    @pytest.mark.parametrize(
        "value",
        [
            PipeSpec(target="/tmp/out.csv", flush_every=8),
            PipeSpec(target="-"),
            TcpSpec(host="127.0.0.1", port=4242),
            RetryPolicy(max_attempts=3, base_delay=0.02),
            ChaosConfig(send_failure_probability=0.1, seed=7),
            ShmSpec(name="ring0"),
            WorkerConfig(
                index=1,
                source="source-1.gtb",
                wire_format="binary",
                rate=500.0,
                transport_spec=TcpSpec(port=9),
                trace=(8, 12.5),
                chaos_config=ChaosConfig(seed=3),
                retry_policy=RetryPolicy(max_attempts=2),
            ),
            ReplayReport(
                events_emitted=5,
                duration=1.0,
                window_rates=(5.0,),
                marker_times=(("m", 0.5),),
            ),
        ],
    )
    def test_round_trips(self, value):
        assert pickle.loads(pickle.dumps(value)) == value

    def test_spec_builds_after_round_trip(self, tmp_path):
        spec = pickle.loads(
            pickle.dumps(PipeSpec(target=str(tmp_path / "out.csv")))
        )
        transport = spec.build()
        transport.send_many(["A,V,1", "A,V,2"])
        transport.close()
        assert (tmp_path / "out.csv").read_text() == "A,V,1\nA,V,2\n"


class TestShardedReplayer:
    def test_single_worker_runs_in_process(self, tmp_path):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        out = tmp_path / "out.csv"
        report = ShardedReplayer(
            str(source), PipeSpec(target=str(out)), rate=FAST, workers=1
        ).run()
        assert report.workers == 1
        assert report.events_emitted == 40
        assert report.checkpoints == 3
        assert [label for label, __ in report.marker_times] == [
            "start", "mid", "end",
        ]

    def test_refused_argument_closes_the_transport(self, tmp_path, monkeypatch):
        """One worker builds its transport before the replayer checks
        its arguments; a refused argument must still close it, or the
        pipe's file leaks (a ResourceWarning, raised here as an error
        from the file's finaliser)."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        spec = PipeSpec(target=str(tmp_path / "leak.out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError, match="batch_size"):
                ShardedReplayer([add_vertex(1)], spec, rate=10, batch_size=0).run()
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []

    @pytest.mark.parametrize("emission", ["events", "raw"])
    def test_sharded_equals_single_process_multiset(self, tmp_path, emission):
        """Each worker sends exactly what a single-process replay of
        its source sends, in the same order."""
        sources = disjoint_sources(tmp_path, 3)
        singles = []
        single_emitted = 0
        for index, source in enumerate(sources):
            single_out = tmp_path / f"single-{index}.csv"
            single_emitted += LiveReplayer(
                source,
                PipeSpec(target=str(single_out)).build(),
                rate=FAST,
                batch_size=16,
            ).run().events_emitted
            singles.append(single_out.read_text())

        outs = [tmp_path / f"worker-out-{i}.csv" for i in range(3)]
        sharded = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            emission=emission,
        ).run()

        assert [out.read_text() for out in outs] == singles
        assert_wires_fold_to_sources(
            sources, [codec.parse_stream_file(out) for out in outs]
        )
        # Merged counts sum to the single-process counts.
        assert sharded.events_emitted == single_emitted == 120
        assert [s.events_emitted for s in sharded.shards] == [40, 40, 40]

    def test_over_loopback_tcp(self, tmp_path):
        sources = disjoint_sources(tmp_path, 2)
        receiver = TcpReceiver(max_connections=2)
        receiver.start()
        try:
            report = ShardedReplayer(
                sources,
                TcpSpec(port=receiver.port),
                rate=FAST,
                workers=2,
            ).run()
        finally:
            receiver.close()
        assert report.events_emitted == 80
        assert receiver.counter.total == 80
        assert len(report.shards) == 2

    def test_empty_shards_replay_to_empty_reports(self, tmp_path):
        """An empty source gives its worker an empty report."""
        sources = []
        for index in range(4):
            path = tmp_path / f"s{index}.csv"
            GraphStream([add_vertex(index)] if index < 2 else []).write(path)
            sources.append(str(path))
        outs = [tmp_path / f"o{i}.csv" for i in range(4)]
        report = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
        ).run()
        assert report.events_emitted == 2
        assert [s.events_emitted for s in report.shards] == [1, 1, 0, 0]

    def test_worker_failure_collects_errors(self, tmp_path):
        # Port 1 is unbound: every worker fails to connect.
        replayer = ShardedReplayer(
            disjoint_sources(tmp_path, 2), TcpSpec(port=1), rate=FAST
        )
        with pytest.raises(ReplayError, match="worker"):
            replayer.run()

    def test_rejects_bad_arguments(self, tmp_path):
        spec = PipeSpec(target="-")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=0)
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, workers=0)
        with pytest.raises(ValueError, match="each worker replays one source"):
            ShardedReplayer("s.csv", spec, rate=1, workers=2)
        with pytest.raises(ValueError, match="each worker replays one source"):
            ShardedReplayer(["a.csv", "b.csv"], spec, rate=1, workers=1)
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, emission="laser")
        with pytest.raises(ValueError):
            ShardedReplayer(["a.csv", "b.csv"], [spec], rate=1)

    def test_in_memory_stream_source(self, tmp_path):
        out = tmp_path / "out.csv"
        report = ShardedReplayer(
            mixed_stream(), PipeSpec(target=str(out)), rate=FAST, workers=1
        ).run()
        assert report.events_emitted == 40

    def test_csv_decode_runs_follow_batch_size(self, tmp_path, monkeypatch):
        source = tmp_path / "stream.csv"
        GraphStream([add_vertex(i) for i in range(30)]).write(source)
        counts = []
        send_raw = PipeTransport.send_raw

        def spy(transport, data, count):
            counts.append(count)
            send_raw(transport, data, count)

        monkeypatch.setattr(PipeTransport, "send_raw", spy)
        report = ShardedReplayer(
            str(source),
            PipeSpec(target=str(tmp_path / "out.csv")),
            rate=FAST,
            workers=1,
            emission="decode",
            batch_size=4,
        ).run()
        assert report.events_emitted == sum(counts) == 30
        assert max(counts) == 4


def decode_wire_capture(data: bytes):
    """Decode a binary wire capture (magic + frames, no index)."""
    assert data.startswith(binfmt.MAGIC)
    events, position = [], len(binfmt.MAGIC)
    while position < len(data):
        __, __, body_len = binfmt._FRAME_HEADER.unpack_from(data, position)
        frame_end = position + binfmt.FRAME_HEADER_SIZE + body_len
        events.extend(binfmt.decode_frame_events(data[position:frame_end]))
        position = frame_end
    return events


class TestFormatAwareSharding:
    """Every source-format/wire-format pairing keeps each worker's
    source on its wire."""

    @pytest.mark.parametrize("stream_format", ["auto", "csv"])
    def test_decode_emission_matches_events_output(
        self, tmp_path, stream_format
    ):
        sources = disjoint_sources(tmp_path, 3)
        events_outs = [tmp_path / f"ev-{i}.csv" for i in range(3)]
        decode_outs = [tmp_path / f"de-{i}.csv" for i in range(3)]
        ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in events_outs],
            rate=FAST,
            workers=3,
            emission="events",
        ).run()
        report = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in decode_outs],
            rate=FAST,
            workers=3,
            emission="decode",
            stream_format=stream_format,
        ).run()
        assert [o.read_text() for o in decode_outs] == [
            o.read_text() for o in events_outs
        ]
        assert report.events_emitted == 120

    def test_binary_source_decode_emission_emits_frames(self, tmp_path):
        sources = disjoint_sources(tmp_path, 2, fmt="binary")
        outs = [tmp_path / f"o{i}.gtb" for i in range(2)]
        report = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=2,
            emission="decode",
        ).run()
        assert report.events_emitted == 80
        assert_wires_fold_to_sources(
            sources, [decode_wire_capture(out.read_bytes()) for out in outs]
        )

    def test_binary_source_over_loopback_tcp(self, tmp_path):
        sources = disjoint_sources(tmp_path, 2, fmt="binary")
        receiver = TcpReceiver(max_connections=2)
        receiver.start()
        try:
            report = ShardedReplayer(
                sources,
                TcpSpec(port=receiver.port),
                rate=FAST,
                workers=2,
                emission="decode",
            ).run()
        finally:
            receiver.close()
        assert report.events_emitted == 80
        assert receiver.counter.total == 80

    def test_csv_source_transcoded_to_binary_wire(self, tmp_path):
        """``stream_format="binary"`` on CSV sources: each worker
        transcodes its source and sends GTB1 frames."""
        sources = disjoint_sources(tmp_path, 2)
        outs = [tmp_path / f"o{i}.gtb" for i in range(2)]
        report = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            emission="decode",
            stream_format="binary",
        ).run()
        assert report.events_emitted == 80
        assert_wires_fold_to_sources(
            sources, [decode_wire_capture(out.read_bytes()) for out in outs]
        )

    def test_rejects_bad_format_arguments(self, tmp_path):
        spec = PipeSpec(target="-")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, stream_format="xml")


class TestSpawnWorkers:
    """Workers must start under the spawn method (no fork available)."""

    def test_spawn_sharded_replay(self, tmp_path):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        sources = disjoint_sources(tmp_path, 2)
        outs = [tmp_path / f"o{i}.csv" for i in range(2)]
        report = ShardedReplayer(
            sources,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=2,
            start_method="spawn",
        ).run()
        assert report.events_emitted == 80
        assert_wires_fold_to_sources(
            sources, [codec.parse_stream_file(out) for out in outs]
        )


@dataclass(frozen=True)
class _FailingSpec(TransportSpec):
    """A spec whose build raises ``error`` inside the worker."""

    error: BaseException

    def build(self):
        raise self.error


@pytest.mark.parametrize(
    "error, fields",
    [
        (StreamFormatError("bad", byte_offset=12), {"byte_offset": 12}),
        (StreamFormatError("bad", 3), {"line_number": 3}),
        (
            TransientTransportError("cut", delivered=2, unacknowledged=5),
            {"delivered": 2, "unacknowledged": 5},
        ),
        (DeliveryExhaustedError("gave up", attempts=4), {"attempts": 4}),
    ],
)
def test_typed_errors_keep_their_fields_through_pickle(error, fields):
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    assert vars(clone) == vars(error)
    assert {name: getattr(clone, name) for name in fields} == fields


class TestWorkerErrors:
    def test_typed_error_crosses_the_process_boundary(self, tmp_path):
        specs = [
            _FailingSpec(StreamFormatError("corrupt", byte_offset=offset))
            for offset in (3, 7)
        ]
        replayer = ShardedReplayer(
            disjoint_sources(tmp_path, 2), specs, rate=FAST, workers=2
        )
        with pytest.raises(ReplayError) as err:
            replayer.run()
        assert str(err.value) == (
            "sharded replay failed: "
            "worker 0: StreamFormatError: byte offset 3: corrupt; "
            "worker 1: StreamFormatError: byte offset 7: corrupt"
        )
        cause = err.value.__cause__
        assert isinstance(cause, StreamFormatError)
        assert cause.byte_offset == 3

    def test_error_that_cannot_cross_arrives_as_its_text(self, tmp_path):
        error = EvaluationLevelError(2, 1)  # does not unpickle
        specs = [_FailingSpec(error), PipeSpec(target=str(tmp_path / "o.csv"))]
        replayer = ShardedReplayer(
            disjoint_sources(tmp_path, 2), specs, rate=FAST, workers=2
        )
        with pytest.raises(ReplayError) as err:
            replayer.run()
        cause = err.value.__cause__
        assert type(cause) is ReplayError
        assert str(cause) == f"EvaluationLevelError: {error}"
        assert f"worker 0: EvaluationLevelError: {error}" in str(err.value)


class _RecordingBarrier:
    def __init__(self):
        self.calls = []

    def wait(self, timeout=None):
        self.calls.append("wait")

    def abort(self):
        self.calls.append("abort")


class TestWorkerStartBarrier:
    """A worker aborts the start barrier only while its siblings may
    still wait at it: after the start, an abort broke a sibling that
    had not yet woken from its wait, and that sibling's
    ``BrokenBarrierError`` could stand in for the real refusal."""

    def test_failure_before_the_start_aborts(self):
        barrier, results = _RecordingBarrier(), []
        config = WorkerConfig(index=0, source=[add_vertex(1)], rate=FAST)
        _worker_main(config, barrier, SimpleNamespace(put=results.append))
        assert barrier.calls == ["abort"]  # no transport spec to build
        assert results[0][2] is not None

    def test_failure_after_the_start_leaves_the_barrier(self, tmp_path):
        barrier, results = _RecordingBarrier(), []
        config = WorkerConfig(
            index=0,
            source=str(tmp_path / "missing.csv"),
            rate=FAST,
            transport_spec=PipeSpec(target=str(tmp_path / "out.csv")),
        )
        _worker_main(config, barrier, SimpleNamespace(put=results.append))
        assert barrier.calls == ["wait"]
        message, __ = results[0][2]
        assert message.startswith("ReplayError: stream source failed")


def test_retried_raw_runs_reach_the_byte_verb(tmp_path, monkeypatch):
    """With a retry wrapper in the chain, CSV raw emission still hands
    stored bytes to ``send_raw``; nothing is decoded into lines."""
    source = tmp_path / "stream.csv"
    mixed_stream().write(source)
    calls = []
    send_raw = PipeTransport.send_raw
    send_many = PipeTransport.send_many

    def spy_raw(self, data, count):
        calls.append("send_raw")
        send_raw(self, data, count)

    def spy_many(self, lines):
        calls.append("send_many")
        send_many(self, lines)

    monkeypatch.setattr(PipeTransport, "send_raw", spy_raw)
    monkeypatch.setattr(PipeTransport, "send_many", spy_many)
    out = tmp_path / "out.csv"
    report = ShardedReplayer(
        str(source),
        PipeSpec(target=str(out)),
        rate=FAST,
        workers=1,
        emission="raw",
        batch_size=8,
        retry_policy=RetryPolicy(max_attempts=3),
    ).run()
    assert report.events_emitted == 40
    assert len(out.read_text().splitlines()) == 40
    assert calls and set(calls) == {"send_raw"}
