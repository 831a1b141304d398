"""Replayer failure paths: transport errors, source errors, checkpoint
resume (at-least-once counts for every kind of source), and no thread
outliving a failed run."""

from __future__ import annotations

import collections
import itertools
import threading
import time

import pytest

from repro.check.tsan import Monitor, instrument, watch_threads
from repro.core import codec
from repro.core.connectors import (
    CallbackTransport,
    PipeSpec,
    TcpReceiver,
    TcpSpec,
    Transport,
)
from repro.core.events import add_vertex, marker, speed
from repro.core.replayer import LiveReplayer, PacedLoop, ReplayCheckpoint
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    RetryPolicy,
    RetryingTransport,
)
from repro.core.sharding import ShardedReplayer, WorkerConfig, replay_shard
from repro.core.stream import GraphStream
from repro.core.tracing import shared_clock
from repro.errors import ConnectorError, ReplayError, TransientTransportError

pytestmark = pytest.mark.chaos


@pytest.fixture
def tsan_monitor():
    """Thread sanitizer with start/join tracking; race-free at teardown."""
    monitor = Monitor()
    with watch_threads(monitor):
        yield monitor
    monitor.assert_race_free()


def _events(n):
    return [add_vertex(i) for i in range(n)]


def _marked_stream(total=300, every=50):
    """``total`` vertices with a marker after every ``every`` of them."""
    items = []
    for i in range(total):
        items.append(add_vertex(i))
        if (i + 1) % every == 0:
            items.append(marker(f"m{(i + 1) // every}"))
    return items


class FlakyTransport(Transport):
    """Fails specific send_many calls; otherwise delivers to a list."""

    def __init__(self, fail_on=(), error=ConnectorError):
        self.lines: list[str] = []
        self.calls = 0
        self.closed = False
        self._fail_on = set(fail_on)
        self._error = error

    def send_many(self, lines):
        self.calls += 1
        if self.calls in self._fail_on:
            raise self._error(f"injected failure on call {self.calls}")
        self.lines.extend(lines)

    def close(self):
        self.closed = True


class TestTransportFailure:
    def test_error_propagates_and_closes_transport(self):
        transport = FlakyTransport(fail_on={3})
        replayer = LiveReplayer(
            _events(100), transport, rate=1e6, batch_size=10
        )
        with pytest.raises(ConnectorError, match="call 3"):
            replayer.run()
        assert transport.closed

    def test_mid_batch_failure_zero_loss_via_retrying_transport(self):
        """Acceptance: a transport raising mid-batch loses nothing when
        wrapped in a RetryingTransport."""
        inner = FlakyTransport(
            fail_on={2, 5, 9}, error=TransientTransportError
        )
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=4, base_delay=0.0)
        )
        replayer = LiveReplayer(
            _events(200), transport, rate=1e6, batch_size=16
        )
        report = replayer.run()
        assert report.events_emitted == 200
        assert len(inner.lines) == 200
        assert report.retries == 3
        assert report.redeliveries == 0

    def test_no_reader_thread_leaked_after_failure(self):
        before = set(threading.enumerate())
        transport = FlakyTransport(fail_on={1})
        replayer = LiveReplayer(_events(5000), transport, rate=1e6)
        with pytest.raises(ConnectorError):
            replayer.run()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                t for t in threading.enumerate()
                if t not in before and t.is_alive()
            ]
            if not leaked:
                break
            time.sleep(0.01)
        assert leaked == []

    def test_reader_error_and_transport_error_same_run(self):
        """The transport dies first; the source's own error, further on,
        must not mask the ConnectorError (and nothing may hang)."""

        def bad_source():
            for i in range(100):
                yield add_vertex(i)
            raise RuntimeError("source exploded")

        transport = FlakyTransport(fail_on={1})
        replayer = LiveReplayer(
            bad_source(), transport, rate=1e6, batch_size=10
        )
        with pytest.raises(ConnectorError, match="call 1"):
            replayer.run()
        assert transport.closed

    def test_tsan_on_retrying_transport_wrapped_replay(
        self, tmp_path, tsan_monitor
    ):
        """Runtime sanitizer over the full resilience chain: two workers
        replay through chaos faults and retries over TCP into one
        receiver, whose reader threads share its id and window
        counters."""
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for index, path in enumerate(paths):
            codec.write_stream_file(
                path, [add_vertex(index * 500 + i) for i in range(500)]
            )
        receiver = TcpReceiver(max_connections=2)
        instrument(receiver, tsan_monitor, fields=("_next_id",))
        instrument(
            receiver.counter, tsan_monitor, fields=("total", "_current_count")
        )
        with receiver:
            report = ShardedReplayer(
                [str(path) for path in paths],
                TcpSpec(port=receiver.port),
                rate=1e6,
                batch_size=32,
                chaos_config=ChaosConfig(send_failure_probability=0.1, seed=11),
                retry_policy=RetryPolicy(max_attempts=10, base_delay=0.0),
            ).run()
        assert report.events_emitted == 1000
        assert receiver.counter.total == 1000
        assert report.chaos_faults > 0
        writers = {access.thread for access in tsan_monitor.accesses if access.write}
        assert len(writers) >= 2
        # Race-freedom asserted by the fixture at teardown.


class TestCheckpointResume:
    def test_resume_completes_with_zero_loss(self):
        inner = FlakyTransport(error=ConnectorError)
        calls = {"n": 0}

        class DieOnce(Transport):
            def send_many(self, lines):
                calls["n"] += 1
                if calls["n"] == 10:
                    raise ConnectorError("connection lost")
                inner.send_many(lines)

            def close(self):
                inner.close()

        stream = _marked_stream(total=300, every=50)
        replayer = LiveReplayer(
            stream, DieOnce(), rate=1e6, batch_size=8, max_resumes=1
        )
        report = replayer.run()
        assert report.resumes == 1
        assert report.checkpoints >= 6
        # Every event delivered at least once.
        delivered = {line for line in inner.lines}
        expected = {f"ADD_VERTEX,{i}," for i in range(300)}
        assert expected <= delivered
        # Re-emissions after the rewind are counted as redeliveries.
        assert report.events_emitted == 300 + report.redeliveries
        assert len(inner.lines) == report.events_emitted

    def test_resume_restores_speed_and_redelivers_after_marker(self):
        """The resumed attempt starts at the SPEED factor in effect at
        the checkpoint, not the one the failed attempt ended on, and
        only events emitted after the marker count as redeliveries."""

        class TimedTransport(FlakyTransport):
            def __init__(self, fail_on):
                super().__init__(fail_on=fail_on)
                self.times: list[float] = []

            def send_many(self, lines):
                super().send_many(lines)
                self.times.append(time.perf_counter())

        stream = (
            [speed(2.0)]
            + _events(50)
            + [marker("m1")]
            + [add_vertex(i) for i in range(50, 90)]
            + [speed(4.0)]
            + [add_vertex(i) for i in range(90, 110)]
        )
        # Batches of 10: calls 1-5 precede the marker, 6-9 follow it,
        # 10 and 11 follow SPEED 4; call 11 fails.  The resumed attempt
        # re-sends events 50-109 in six calls.
        transport = TimedTransport(fail_on={11})
        report = LiveReplayer(
            stream, transport, rate=500.0, batch_size=10, max_resumes=1
        ).run()
        assert report.resumes == 1
        assert report.redeliveries == 50
        assert report.events_emitted == 160 == len(transport.lines)
        assert [label for label, __ in report.marker_times] == ["m1"]
        resumed = transport.times[-6:]
        # Four batches of 10 at 2x (1000 events/s) before SPEED 4:
        # 40 ms; 20 ms if the resume kept 4x, 80 ms at the base rate.
        assert 0.03 <= resumed[4] - resumed[0] < 0.07

    def test_resume_budget_exhausted_reraises(self):
        transport = FlakyTransport(fail_on={2, 4})
        stream = _marked_stream(total=100, every=10)
        replayer = LiveReplayer(
            stream, transport, rate=1e6, batch_size=8, max_resumes=1
        )
        with pytest.raises(ConnectorError):
            replayer.run()
        assert transport.closed

    def test_non_resumable_source_reraises_immediately(self):
        transport = FlakyTransport(fail_on={1})
        replayer = LiveReplayer(
            iter(_events(100)), transport, rate=1e6, max_resumes=5
        )
        with pytest.raises(ConnectorError):
            replayer.run()

    def test_transport_factory_rebuilds_per_resume(self):
        transports: list[FlakyTransport] = []

        def factory():
            transport = FlakyTransport()
            transports.append(transport)
            return transport

        first = FlakyTransport(fail_on={3})
        transports.append(first)
        stream = _marked_stream(total=120, every=20)
        replayer = LiveReplayer(
            stream,
            first,
            rate=1e6,
            batch_size=8,
            max_resumes=2,
            transport_factory=factory,
        )
        report = replayer.run()
        assert report.resumes == 1
        assert len(transports) == 2
        assert first.closed  # the dead transport was closed on resume
        total = sum(len(t.lines) for t in transports)
        assert total == report.events_emitted

    def test_markers_rolled_back_on_resume(self):
        """A marker recorded after the checkpoint in a failed attempt
        must not appear twice in the final report."""
        transport = FlakyTransport(fail_on={9})
        stream = _marked_stream(total=120, every=20)
        replayer = LiveReplayer(
            stream, transport, rate=1e6, batch_size=8, max_resumes=1
        )
        report = replayer.run()
        labels = [label for label, __ in report.marker_times]
        assert labels == sorted(set(labels), key=labels.index)
        assert len(labels) == len(set(labels)) == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="max_resumes"):
            LiveReplayer(
                _events(1), CallbackTransport(lambda l: None), rate=1.0,
                max_resumes=-1,
            )
        with pytest.raises(ValueError, match="resume_delay"):
            LiveReplayer(
                _events(1), CallbackTransport(lambda l: None), rate=1.0,
                resume_delay=-0.1,
            )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_resumed_report_counts_every_chain(self, seed):
        """Two attempts per send cannot ride out resets and partial
        batches, so the replay resumes on a new chain each time retries
        run out.  The report sums every chain's counters, and counts as
        redelivered the prefix a given-up batch had already delivered:
        the receiver sees each event plus exactly the redeliveries."""
        received: list[str] = []
        chains: list[tuple[ChaosTransport, RetryingTransport]] = []
        chaos_seeds = itertools.count(seed * 1000)

        def build():
            chaos = ChaosTransport(
                CallbackTransport(received.append),
                ChaosConfig(
                    reset_probability=0.1,
                    partial_batch_probability=0.05,
                    seed=next(chaos_seeds),
                ),
            )
            retrying = RetryingTransport(
                chaos, RetryPolicy(max_attempts=2, base_delay=0.0)
            )
            chains.append((chaos, retrying))
            return retrying

        report = LiveReplayer(
            _marked_stream(total=2000, every=50),
            build(),
            rate=1e7,
            batch_size=8,
            max_resumes=50,
            transport_factory=build,
        ).run()
        assert report.resumes > 0
        assert len(chains) == report.resumes + 1
        assert len(received) == 2000 + report.redeliveries
        assert report.retries == sum(r.stats.retries for __, r in chains)
        assert report.chaos_faults == sum(
            chaos.stats.total_faults for chaos, __ in chains
        )


    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "fault",
        [
            ChaosConfig(reset_probability=0.02),
            ChaosConfig(partial_batch_probability=0.05),
        ],
        ids=["reset", "partial"],
    )
    def test_chaos_only_resume_counts_the_failed_batch(self, fault, seed):
        """With no retrier in the chain, a reset or a partial batch
        escapes to the replayer, and the resume sends the failed batch
        again: what of it had arrived counts as redelivered."""
        received: list[str] = []
        chaos_seeds = itertools.count(seed * 1000)

        def build():
            config = ChaosConfig(
                reset_probability=fault.reset_probability,
                partial_batch_probability=fault.partial_batch_probability,
                seed=next(chaos_seeds),
            )
            return ChaosTransport(CallbackTransport(received.append), config)

        report = LiveReplayer(
            _marked_stream(total=2000, every=50),
            build(),
            rate=1e7,
            batch_size=8,
            max_resumes=100,
            transport_factory=build,
        ).run()
        assert report.resumes > 0
        assert len(received) == 2000 + report.redeliveries

    def test_rebuilt_chain_draws_new_faults(self, tmp_path):
        """A worker's rebuilt chain seeds its chaos and retry jitter
        from (seed, rebuild), so a resume from the only marker does not
        meet the fault that exhausted the chain before it."""
        out = tmp_path / "out.csv"
        config = WorkerConfig(
            index=0,
            source=[marker("start"), *_events(400)],
            rate=1e7,
            batch_size=8,
            transport_spec=PipeSpec(target=str(out), append=True),
            chaos_config=ChaosConfig(
                reset_probability=0.05, partial_batch_probability=0.05, seed=7
            ),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            max_resumes=8,
        )
        report = replay_shard(config, config.build_transport())
        assert report.resumes > 0
        lines = out.read_text().splitlines()
        assert len(lines) == 400 + report.redeliveries
        assert set(lines) == {f"ADD_VERTEX,{i}," for i in range(400)}


class TestInlineSources:
    """In-memory and transcoded sources are read on the emitting thread."""

    # Markers after events 100, 200 and 300.  At batch_size 1 call 120
    # fails with events 0-118 sent; at 64 (batches 64 + 36 between
    # markers) call 4 fails with events 0-163 sent.  Either way the
    # resume re-sends events 100-299 from the checkpoint at m1.
    @pytest.mark.parametrize(
        "batch_size, fail_on, redelivered", [(1, 120, 19), (64, 4, 64)]
    )
    @pytest.mark.parametrize("source", ["memory", "gtb1-file"])
    def test_resume_counts(
        self, tmp_path, source, batch_size, fail_on, redelivered
    ):
        stream = _marked_stream(total=300, every=100)
        if source == "gtb1-file":
            path = tmp_path / "stream.gtb"
            codec.write_stream_file(path, stream, format="binary")
            stream = str(path)
        transport = FlakyTransport(fail_on={fail_on})
        report = LiveReplayer(
            stream, transport, rate=1e6, batch_size=batch_size, max_resumes=1
        ).run()
        assert report.resumes == 1
        assert report.redeliveries == redelivered
        assert report.events_emitted == 300 + redelivered
        expected = collections.Counter(f"ADD_VERTEX,{i}," for i in range(300))
        expected.update(f"ADD_VERTEX,{i}," for i in range(100, 100 + redelivered))
        assert collections.Counter(transport.lines) == expected

    def test_generator_failure_after_n_events(self):
        def source():
            yield from _events(100)
            raise RuntimeError("source exploded")

        transport = FlakyTransport()
        replayer = LiveReplayer(source(), transport, rate=1e6, batch_size=8)
        with pytest.raises(ReplayError, match="stream source failed") as err:
            replayer.run()
        assert transport.lines == [f"ADD_VERTEX,{i}," for i in range(100)]
        assert isinstance(err.value.__cause__, RuntimeError)
        assert transport.closed

    def test_non_event_item_is_refused(self):
        transport = FlakyTransport()
        replayer = LiveReplayer(
            _events(3) + ["ADD_VERTEX,9,"], transport, rate=1e6
        )
        with pytest.raises(ReplayError, match="cannot replay str"):
            replayer.run()
        assert len(transport.lines) == 3
        assert transport.closed


class TestCheckpointState:
    def test_loop_tracks_the_speed_factor(self):
        """Checkpoints take the SPEED factor in effect from the loop."""
        loop = PacedLoop(2000.0, 1.0, shared_clock())
        for factor in (0.5, 1.0, 4.0):
            loop.run([speed(factor)], lambda batch: 0)
            assert loop.speed == factor

    def test_checkpoint_fields(self):
        checkpoint = ReplayCheckpoint(
            label="m1", position=51, emitted=50, speed_factor=2.0,
            marker_count=1,
        )
        assert checkpoint.label == "m1"
        assert checkpoint.position == 51


class TestEndToEndChaosReplay:
    def test_one_percent_send_failures_zero_loss(self):
        """Acceptance criterion: a replay through a ChaosTransport with
        1% send failures completes via RetryingTransport with zero
        events lost, and the counters account for every retry."""
        received: list[str] = []
        chaos = ChaosTransport(
            CallbackTransport(received.append),
            ChaosConfig(send_failure_probability=0.01, seed=42),
        )
        transport = RetryingTransport(
            chaos, RetryPolicy(max_attempts=8, base_delay=0.0)
        )
        events = _events(5000)
        replayer = LiveReplayer(
            events, transport, rate=1e6, batch_size=32, max_resumes=2
        )
        report = replayer.run()
        expected = {f"ADD_VERTEX,{i}," for i in range(5000)}
        assert expected <= set(received)
        # Zero loss, with the surplus fully explained by redeliveries.
        assert len(received) == 5000 + report.redeliveries
        assert report.chaos_faults > 0
        assert report.retries == chaos.stats.send_failures
        assert report.resumes == 0
