"""Tests for the process-parallel sharded replay engine.

Partitioning must preserve the graph-event multiset and replicate
control events exactly once per shard; the sharded replayer must
deliver the same event multiset as a single-process replay; merged
reports must sum to the single-process counts; and every cross-process
configuration object must pickle (so ``spawn`` platforms work).
"""

import collections
import multiprocessing
import pickle
from dataclasses import dataclass

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import (
    PipeSpec,
    PipeTransport,
    TcpReceiver,
    TcpSpec,
    TransportSpec,
)
from repro.core.events import (
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
    add_edge,
    add_vertex,
    marker,
    remove_vertex,
    speed,
    update_vertex,
)
from repro.core.replayer import LiveReplayer, ReplayReport
from repro.core.sharding import (
    ShardedReplayer,
    ShardPlan,
    WorkerConfig,
    merge_replay_reports,
    partition_stream,
    write_shards,
)
from repro.core.resilience import ChaosConfig, RetryPolicy
from repro.core.stream import GraphStream
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


class TestPartitionStream:
    def test_graph_multiset_preserved(self):
        stream = mixed_stream()
        for shard_by in ("round-robin", "hash"):
            shards = partition_stream(stream, 3, shard_by)
            merged = collections.Counter()
            for shard in shards:
                merged += graph_multiset(shard)
            assert merged == graph_multiset(stream)

    def test_control_events_reach_every_shard_exactly_once(self):
        shards = partition_stream(mixed_stream(), 4)
        for shard in shards:
            labels = [e.label for e in shard if isinstance(e, MarkerEvent)]
            assert labels == ["start", "mid", "end"]
            speeds = [e.factor for e in shard if isinstance(e, SpeedEvent)]
            assert speeds == [2.0]

    def test_stream_shorter_than_worker_count_yields_empty_shards(self):
        shards = partition_stream(GraphStream([add_vertex(7)]), 5)
        sizes = [len(shard) for shard in shards]
        assert sizes == [1, 0, 0, 0, 0]

    def test_marker_at_start_and_end_replicated(self):
        stream = GraphStream([marker("first"), add_vertex(1), marker("last")])
        for shard in partition_stream(stream, 3):
            events = list(shard)
            assert isinstance(events[0], MarkerEvent)
            assert events[0].label == "first"
            assert isinstance(events[-1], MarkerEvent)
            assert events[-1].label == "last"

    def test_marker_only_stream(self):
        shards = partition_stream(GraphStream([marker("m")]), 2)
        for shard in shards:
            assert [e.label for e in shard] == ["m"]

    def test_round_robin_balances_exactly(self):
        shards = partition_stream(mixed_stream(), 4, "round-robin")
        counts = [sum(graph_multiset(s).values()) for s in shards]
        assert counts == [10, 10, 10, 10]

    def test_hash_is_deterministic_and_entity_sticky(self):
        stream = mixed_stream()
        first = partition_stream(stream, 3, "hash")
        second = partition_stream(stream, 3, "hash")
        assert [list(a) for a in first] == [list(b) for b in second]
        # A vertex's events always land on the shard of its id.
        for index, shard in enumerate(first):
            for event in shard:
                if isinstance(event, GraphEvent) and not event.type.is_edge_event:
                    assert event.entity % 3 == index

    def test_single_worker_is_identity(self):
        stream = mixed_stream()
        (shard,) = partition_stream(stream, 1)
        assert list(shard) == list(stream)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition_stream(mixed_stream(), 0)
        with pytest.raises(ValueError):
            partition_stream(mixed_stream(), 2, "modulo")

    def test_graphstream_partition_method(self):
        shards = mixed_stream().partition(2)
        assert len(shards) == 2
        assert all(isinstance(s, GraphStream) for s in shards)


class TestWriteShards:
    def test_plan_counts_and_files(self, tmp_path):
        plan = write_shards(mixed_stream(), 3, tmp_path)
        assert plan.workers == 3
        assert len(plan.paths) == 3
        assert plan.total_graph_events == 40
        assert plan.control_events == 4  # 3 markers + 1 speed
        for path in plan.paths:
            assert (tmp_path / path).exists() or codec.parse_stream_file(path)

    def test_from_file_source(self, tmp_path):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        plan = write_shards(source, 2, tmp_path)
        merged = collections.Counter()
        for path in plan.paths:
            merged += graph_multiset(codec.parse_stream_file(path))
        assert merged == graph_multiset(mixed_stream())

    def test_empty_shard_files_written(self, tmp_path):
        plan = write_shards(GraphStream([add_vertex(1)]), 3, tmp_path)
        assert plan.graph_events == (1, 0, 0)
        for path in plan.paths[1:]:
            assert codec.parse_stream_file(path) == []

    def test_partial_open_failure_closes_earlier_shards(
        self, tmp_path, monkeypatch
    ):
        """If opening shard k fails, shards 0..k-1 must not leak."""
        import builtins

        from repro.core.sharding import _write_shards_csv_bytes

        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        opened = []
        real_open = builtins.open

        def failing_open(path, *args, **kwargs):
            if str(path).endswith("shard-1.csv"):
                raise OSError("disk full")
            handle = real_open(path, *args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError):
            _write_shards_csv_bytes(source, 3, tmp_path, "round-robin")
        assert opened, "shard-0 should have been opened before the failure"
        assert all(handle.closed for handle in opened)


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
            ShardPlan(
                workers=2,
                shard_by="hash",
                paths=("a.csv", "b.csv"),
                graph_events=(3, 4),
                control_events=2,
            ),
            WorkerConfig(
                index=1,
                path="shard-1.csv",
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

    @pytest.mark.parametrize("emission", ["events", "raw"])
    def test_sharded_equals_single_process_multiset(self, tmp_path, emission):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)

        single_out = tmp_path / "single.csv"
        single = LiveReplayer(
            str(source),
            PipeSpec(target=str(single_out)).build(),
            rate=FAST,
            batch_size=16,
        ).run()

        outs = [tmp_path / f"shard-out-{i}.csv" for i in range(3)]
        sharded = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=3,
            emission=emission,
        ).run()

        single_lines = collections.Counter(
            line
            for line in single_out.read_text().splitlines()
            if line
        )
        sharded_lines = collections.Counter(
            line
            for out in outs
            for line in out.read_text().splitlines()
            if line
        )
        assert sharded_lines == single_lines
        # Merged counts sum to the single-process counts.
        assert sharded.events_emitted == single.events_emitted
        assert sum(s.events_emitted for s in sharded.shards) == (
            single.events_emitted
        )

    def test_over_loopback_tcp(self, tmp_path):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        receiver = TcpReceiver(max_connections=2)
        receiver.start()
        try:
            report = ShardedReplayer(
                str(source),
                TcpSpec(port=receiver.port),
                rate=FAST,
                workers=2,
            ).run()
        finally:
            receiver.close()
        assert report.events_emitted == 40
        assert receiver.counter.total == 40
        assert len(report.shards) == 2

    def test_empty_shards_replay_to_empty_reports(self, tmp_path):
        source = tmp_path / "stream.csv"
        GraphStream([add_vertex(1), add_vertex(2)]).write(source)
        outs = [tmp_path / f"o{i}.csv" for i in range(4)]
        report = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=4,
        ).run()
        assert report.events_emitted == 2
        assert sorted(s.events_emitted for s in report.shards) == [0, 0, 1, 1]

    def test_worker_failure_collects_errors(self, tmp_path):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        # Port 1 is unbound: every worker fails to connect.
        replayer = ShardedReplayer(
            str(source), TcpSpec(port=1), rate=FAST, workers=2
        )
        with pytest.raises(ReplayError, match="worker"):
            replayer.run()

    def test_plan_exposed_after_run(self, tmp_path):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        outs = [tmp_path / f"o{i}.csv" for i in range(2)]
        replayer = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=2,
            shard_by="hash",
        )
        replayer.run()
        assert replayer.plan is not None
        assert replayer.plan.shard_by == "hash"
        assert replayer.plan.total_graph_events == 40

    @pytest.mark.parametrize("corruption", ["gtb1-tag", "control-line"])
    def test_partitioner_refusal_reads_as_at_one_worker(
        self, tmp_path, corruption
    ):
        """A file the parent's partitioner refuses at 3 workers (its
        entity peek or its control-line parse) fails with the same
        ReplayError type, message position and typed cause as at 1
        worker."""
        graph = [add_vertex(i) for i in range(100)]
        if corruption == "gtb1-tag":
            path = tmp_path / "stream.gtb"
            binfmt.write_binary_stream(path, graph, batch_records=32)
            frames = [
                offset
                for offset, __, kind in binfmt.read_frame_index(path)
                if kind == binfmt.FRAME_GRAPH
            ]
            data = bytearray(path.read_bytes())
            data[frames[2] + binfmt.FRAME_HEADER_SIZE] = 200
            path.write_bytes(bytes(data))
        else:
            path = tmp_path / "stream.csv"
            lines = codec.format_lines(graph)
            lines.insert(60, "SPEED,fast")
            path.write_text("\n".join(lines) + "\n")
        errors = []
        for workers in (1, 3):
            outs = [
                PipeSpec(target=str(tmp_path / f"out-{workers}-{i}"))
                for i in range(workers)
            ]
            with pytest.raises(ReplayError) as err:
                ShardedReplayer(
                    str(path), outs, rate=FAST, workers=workers, shard_by="hash"
                ).run()
            errors.append(err.value)
        one, three = errors
        assert type(three) is ReplayError
        # "stream source failed: line N: ..." or "...: byte offset N: ..."
        assert str(three).split(": ")[:2] == str(one).split(": ")[:2]
        assert str(one).startswith("stream source failed: ")
        assert type(one.__cause__) is type(three.__cause__) is StreamFormatError
        assert three.__cause__.byte_offset == one.__cause__.byte_offset
        assert three.__cause__.line_number == one.__cause__.line_number

    def test_rejects_bad_arguments(self, tmp_path):
        spec = PipeSpec(target="-")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=0)
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, workers=0)
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, shard_by="nope")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, emission="laser")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", [spec], rate=1, workers=2)

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
    """The binary format and decode-in-worker emission must preserve
    replay semantics across every source-format/wire-format pairing."""

    @pytest.mark.parametrize("stream_format", ["auto", "csv"])
    def test_decode_emission_matches_events_output(
        self, tmp_path, stream_format
    ):
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        events_outs = [tmp_path / f"ev-{i}.csv" for i in range(3)]
        decode_outs = [tmp_path / f"de-{i}.csv" for i in range(3)]
        ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in events_outs],
            rate=FAST,
            workers=3,
            emission="events",
        ).run()
        report = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in decode_outs],
            rate=FAST,
            workers=3,
            emission="decode",
            stream_format=stream_format,
        ).run()
        events_lines = collections.Counter(
            line
            for out in events_outs
            for line in out.read_text().splitlines()
            if line
        )
        decode_lines = collections.Counter(
            line
            for out in decode_outs
            for line in out.read_text().splitlines()
            if line
        )
        assert decode_lines == events_lines
        assert report.events_emitted == 40

    def test_binary_source_decode_emission_emits_frames(self, tmp_path):
        source = tmp_path / "stream.gtb"
        mixed_stream().write(source, format="binary")
        outs = [tmp_path / f"o{i}.gtb" for i in range(2)]
        report = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=2,
            emission="decode",
        ).run()
        assert report.events_emitted == 40
        received = [
            event
            for out in outs
            for event in decode_wire_capture(out.read_bytes())
        ]
        assert graph_multiset(received) == graph_multiset(
            mixed_stream().events
        )

    def test_binary_source_over_loopback_tcp(self, tmp_path):
        source = tmp_path / "stream.gtb"
        mixed_stream().write(source, format="binary")
        receiver = TcpReceiver(max_connections=2)
        receiver.start()
        try:
            report = ShardedReplayer(
                str(source),
                TcpSpec(port=receiver.port),
                rate=FAST,
                workers=2,
                emission="decode",
            ).run()
        finally:
            receiver.close()
        assert report.events_emitted == 40
        assert receiver.counter.total == 40

    def test_csv_source_transcoded_to_binary_wire(self, tmp_path):
        """``stream_format="binary"`` on a CSV source: shards are
        written (and delivered) in the binary format."""
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        receiver = TcpReceiver(max_connections=2)
        receiver.start()
        try:
            replayer = ShardedReplayer(
                str(source),
                TcpSpec(port=receiver.port),
                rate=FAST,
                workers=2,
                emission="decode",
                stream_format="binary",
            )
            report = replayer.run()
        finally:
            receiver.close()
        assert report.events_emitted == 40
        assert receiver.counter.total == 40
        assert all(
            path.endswith(".gtb") for path in replayer.plan.paths
        )

    @pytest.mark.parametrize("shard_by", ["round-robin", "hash"])
    def test_write_shards_binary_preserves_multiset(self, tmp_path, shard_by):
        source = tmp_path / "stream.gtb"
        mixed_stream().write(source, format="binary")
        plan = write_shards(
            str(source), 3, tmp_path / "shards", shard_by=shard_by
        )
        shards = [codec.parse_stream_file(path) for path in plan.paths]
        merged = [event for shard in shards for event in shard]
        assert graph_multiset(merged) == graph_multiset(
            mixed_stream().events
        )
        # Control events replicate to every shard, in stream order.
        for shard in shards:
            controls = [
                e for e in shard if not isinstance(e, GraphEvent)
            ]
            assert [type(e) for e in controls] == [
                MarkerEvent, SpeedEvent, MarkerEvent, MarkerEvent,
            ]

    def test_write_shards_cross_format(self, tmp_path):
        """CSV source, binary shards (and the reverse) via
        ``stream_format``."""
        csv_source = tmp_path / "stream.csv"
        mixed_stream().write(csv_source)
        plan = write_shards(
            str(csv_source), 2, tmp_path / "to-bin", stream_format="binary"
        )
        assert all(path.endswith(".gtb") for path in plan.paths)
        bin_source = tmp_path / "stream.gtb"
        mixed_stream().write(bin_source, format="binary")
        plan = write_shards(
            str(bin_source), 2, tmp_path / "to-csv", stream_format="csv"
        )
        assert all(path.endswith(".csv") for path in plan.paths)
        merged = [
            event
            for path in plan.paths
            for event in codec.parse_stream_file(path)
        ]
        assert graph_multiset(merged) == graph_multiset(
            mixed_stream().events
        )

    def test_rejects_bad_format_arguments(self, tmp_path):
        spec = PipeSpec(target="-")
        with pytest.raises(ValueError):
            ShardedReplayer("s.csv", spec, rate=1, stream_format="xml")
        with pytest.raises(ValueError):
            write_shards(
                mixed_stream().events, 2, tmp_path, stream_format="xml"
            )


class TestSpawnWorkers:
    """Workers must start under the spawn method (no fork available)."""

    def test_spawn_sharded_replay(self, tmp_path):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        outs = [tmp_path / f"o{i}.csv" for i in range(2)]
        report = ShardedReplayer(
            str(source),
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=2,
            start_method="spawn",
        ).run()
        assert report.events_emitted == 40
        merged = collections.Counter(
            line
            for out in outs
            for line in out.read_text().splitlines()
            if line
        )
        assert merged == graph_multiset(mixed_stream())


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
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        specs = [
            _FailingSpec(StreamFormatError("corrupt", byte_offset=offset))
            for offset in (3, 7)
        ]
        replayer = ShardedReplayer(str(source), specs, rate=FAST, workers=2)
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
        source = tmp_path / "stream.csv"
        mixed_stream().write(source)
        error = EvaluationLevelError(2, 1)  # does not unpickle
        specs = [_FailingSpec(error), PipeSpec(target=str(tmp_path / "o.csv"))]
        replayer = ShardedReplayer(str(source), specs, rate=FAST, workers=2)
        with pytest.raises(ReplayError) as err:
            replayer.run()
        cause = err.value.__cause__
        assert type(cause) is ReplayError
        assert str(cause) == f"EvaluationLevelError: {error}"
        assert f"worker 0: EvaluationLevelError: {error}" in str(err.value)


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
