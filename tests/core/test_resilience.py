"""Runtime resilience layer: chaos injection, retries, circuit breaking."""

from __future__ import annotations

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import CallbackTransport, Transport
from repro.core.events import add_vertex
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    CircuitBreaker,
    FaultCounters,
    RetryPolicy,
    RetryingTransport,
    collect_fault_counters,
)
from repro.core.tracing import Tracer, TracingTransport
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    DeliveryExhaustedError,
    TransientTransportError,
)

pytestmark = pytest.mark.chaos


class RecordingTransport(Transport):
    """Collects every delivered line; scriptable failures per call."""

    def __init__(self, failures=()):
        self.lines: list[str] = []
        self.calls = 0
        self.closed = False
        self._failures = list(failures)

    def send_many(self, lines):
        self.calls += 1
        if self._failures:
            exc = self._failures.pop(0)
            if exc is not None:
                lines = list(lines)
                if isinstance(exc, TransientTransportError):
                    self.lines.extend(lines[: exc.delivered])
                    if exc.unacknowledged:
                        self.lines.extend(lines[: exc.unacknowledged])
                raise exc
        self.lines.extend(lines)

    def close(self):
        self.closed = True


class TestChaosConfig:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="send_failure_probability"):
            ChaosConfig(send_failure_probability=1.5)
        with pytest.raises(ValueError, match="reset_probability"):
            ChaosConfig(reset_probability=-0.1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency_seconds"):
            ChaosConfig(latency_seconds=-1.0)

    def test_is_noop(self):
        assert ChaosConfig().is_noop
        assert not ChaosConfig(send_failure_probability=0.1).is_noop


class TestChaosTransport:
    def test_clean_config_delivers_everything(self):
        inner = RecordingTransport()
        chaos = ChaosTransport(inner, ChaosConfig(seed=7))
        chaos.send_many(["a"])
        chaos.send_many(["b", "c"])
        assert inner.lines == ["a", "b", "c"]
        assert chaos.stats.total_faults == 0
        assert [kind for __, kind in chaos.trace] == ["ok", "ok"]

    def test_send_failure_delivers_nothing(self):
        inner = RecordingTransport()
        chaos = ChaosTransport(
            inner, ChaosConfig(send_failure_probability=1.0, seed=1)
        )
        with pytest.raises(TransientTransportError) as err:
            chaos.send_many(["a", "b"])
        assert err.value.delivered == 0
        assert err.value.unacknowledged == 0
        assert inner.lines == []
        assert chaos.stats.send_failures == 1

    def test_reset_delivers_but_reports_unacknowledged(self):
        inner = RecordingTransport()
        chaos = ChaosTransport(inner, ChaosConfig(reset_probability=1.0, seed=1))
        with pytest.raises(TransientTransportError) as err:
            chaos.send_many(["a", "b", "c"])
        assert err.value.unacknowledged == 3
        assert inner.lines == ["a", "b", "c"]
        assert chaos.stats.resets == 1

    def test_partial_batch_reports_delivered_prefix(self):
        inner = RecordingTransport()
        chaos = ChaosTransport(
            inner, ChaosConfig(partial_batch_probability=1.0, seed=3)
        )
        with pytest.raises(TransientTransportError) as err:
            chaos.send_many([f"l{i}" for i in range(10)])
        assert inner.lines == [f"l{i}" for i in range(err.value.delivered)]
        assert 0 <= err.value.delivered < 10
        assert chaos.stats.partial_batches == 1

    def test_partial_never_fires_on_single_line(self):
        inner = RecordingTransport()
        chaos = ChaosTransport(
            inner, ChaosConfig(partial_batch_probability=1.0, seed=3)
        )
        for i in range(20):
            chaos.send_many([f"l{i}"])
        assert chaos.stats.partial_batches == 0
        assert len(inner.lines) == 20

    def test_latency_injection_sleeps(self):
        sleeps: list[float] = []
        inner = RecordingTransport()
        chaos = ChaosTransport(
            inner,
            ChaosConfig(latency_probability=1.0, latency_seconds=0.25, seed=5),
            sleep=sleeps.append,
        )
        chaos.send_many(["a"])
        assert sleeps == [0.25]
        assert inner.lines == ["a"]
        assert chaos.stats.latency_injections == 1
        # Latency is not a delivery fault.
        assert chaos.stats.total_faults == 0

    def test_close_propagates(self):
        inner = RecordingTransport()
        ChaosTransport(inner, ChaosConfig()).close()
        assert inner.closed


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_exponential_growth_capped(self):
        import random

        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        import random

        policy = RetryPolicy(base_delay=0.1, jitter=0.5, max_delay=10.0)
        rng = random.Random(42)
        for attempt in range(1, 20):
            raw = min(10.0, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * raw <= policy.delay(attempt, rng) <= 1.5 * raw


class TestRetryingTransport:
    def test_success_passes_through(self):
        inner = RecordingTransport()
        transport = RetryingTransport(inner, RetryPolicy(max_attempts=3))
        transport.send_many(["a"])
        assert inner.lines == ["a"]
        assert transport.stats.retries == 0

    def test_retries_transient_failures(self):
        inner = RecordingTransport(failures=[TransientTransportError("boom")])
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        transport.send_many(["a", "b"])
        assert inner.lines == ["a", "b"]
        assert transport.stats.retries == 1
        assert transport.stats.attempts == 2

    def test_partial_batch_resumes_from_delivered_prefix(self):
        inner = RecordingTransport(
            failures=[TransientTransportError("partial", delivered=2)]
        )
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        transport.send_many(["a", "b", "c", "d"])
        # No line delivered twice: the retry resumed at the cut point.
        assert inner.lines == ["a", "b", "c", "d"]
        assert transport.stats.redelivered_lines == 0

    def test_reset_redelivers_unacknowledged_lines(self):
        inner = RecordingTransport(
            failures=[TransientTransportError("reset", unacknowledged=2)]
        )
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        transport.send_many(["a", "b"])
        # At-least-once: the unacknowledged batch went through twice.
        assert inner.lines == ["a", "b", "a", "b"]
        assert transport.stats.redelivered_lines == 2

    def test_attempt_exhaustion_raises(self):
        inner = RecordingTransport(
            failures=[TransientTransportError("boom")] * 5
        )
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        with pytest.raises(DeliveryExhaustedError) as err:
            transport.send_many(["a"])
        assert err.value.attempts == 3
        assert transport.stats.exhausted == 1

    @pytest.mark.parametrize(
        "breaker, error",
        [
            (None, DeliveryExhaustedError),
            (CircuitBreaker(failure_threshold=1, recovery_time=1e9), CircuitOpenError),
        ],
    )
    def test_given_up_unit_counts_its_delivered_prefix(self, breaker, error):
        """The caller resends a given-up unit whole, so the prefix that
        already reached the inner transport is a redelivery."""
        inner = RecordingTransport(
            failures=[TransientTransportError("partial", delivered=2)] * 2
        )
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=2, base_delay=0.0), breaker=breaker
        )
        with pytest.raises(error):
            transport.send_many(["a", "b", "c", "d", "e"])
        assert inner.lines == (["a", "b"] if breaker else ["a", "b", "c", "d"])
        assert transport.stats.redelivered_lines == len(inner.lines)

    def test_deadline_exhaustion_raises(self):
        clock = [0.0]

        def advance(_):
            clock[0] += 10.0

        inner = RecordingTransport(
            failures=[TransientTransportError("boom")] * 5
        )
        transport = RetryingTransport(
            inner,
            RetryPolicy(max_attempts=100, base_delay=0.0, deadline=5.0),
            sleep=advance,
            clock=lambda: clock[0],
        )
        with pytest.raises(DeliveryExhaustedError, match="deadline"):
            transport.send_many(["a"])

    def test_non_transient_errors_propagate_immediately(self):
        inner = RecordingTransport(failures=[ConnectorError("closed")])
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=5, base_delay=0.0)
        )
        with pytest.raises(ConnectorError, match="closed"):
            transport.send_many(["a"])
        assert inner.calls == 1

    def test_zero_loss_through_heavy_chaos(self):
        """Acceptance shape: chaotic path, retrying delivery, no loss."""
        received: list[str] = []
        chaos = ChaosTransport(
            CallbackTransport(received.append),
            ChaosConfig(
                send_failure_probability=0.05,
                reset_probability=0.01,
                partial_batch_probability=0.02,
                seed=123,
            ),
        )
        transport = RetryingTransport(
            chaos, RetryPolicy(max_attempts=10, base_delay=0.0)
        )
        sent = [f"line-{i}" for i in range(2000)]
        for i in range(0, len(sent), 25):
            transport.send_many(sent[i : i + 25])
        assert set(sent) <= set(received)
        # The surplus is exactly the redelivered lines.
        assert len(received) == len(sent) + transport.stats.redelivered_lines
        assert chaos.stats.total_faults > 0


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=-1.0)

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=lambda: 0.0)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.openings == 1
        assert not breaker.allow()

    def test_half_open_probe_then_close(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 6.0
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_time=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.openings == 2

    def test_open_circuit_rejects_without_touching_inner(self):
        inner = RecordingTransport(
            failures=[TransientTransportError("boom")] * 2
        )
        breaker = CircuitBreaker(failure_threshold=2, recovery_time=1e9)
        transport = RetryingTransport(
            inner,
            RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker=breaker,
        )
        with pytest.raises(DeliveryExhaustedError):
            transport.send_many(["a"])
        calls_before = inner.calls
        with pytest.raises(CircuitOpenError):
            transport.send_many(["b"])
        assert inner.calls == calls_before
        assert transport.stats.breaker_rejections == 1


class TestFaultCounters:
    def test_plain_transport_contributes_zeros(self):
        assert collect_fault_counters(RecordingTransport()) == FaultCounters()
        assert collect_fault_counters(None) == FaultCounters()

    def test_chain_is_summed(self):
        chaos = ChaosTransport(
            RecordingTransport(),
            ChaosConfig(send_failure_probability=1.0, seed=1),
        )
        breaker = CircuitBreaker(failure_threshold=100)
        transport = RetryingTransport(
            chaos, RetryPolicy(max_attempts=3, base_delay=0.0), breaker=breaker
        )
        with pytest.raises(DeliveryExhaustedError):
            transport.send_many(["a"])
        counters = collect_fault_counters(transport)
        assert counters.chaos_faults == 3
        assert counters.retries == 2
        assert counters.delivery_attempts == 3
        assert counters.breaker_openings == 0


class TestOneDeliveryPath:
    """Every verb runs through the same routine of each wrapper."""

    @pytest.mark.parametrize("verb", ["send_many", "send_raw", "send_frame"])
    def test_every_record_arrives_and_the_surplus_is_redeliveries(self, verb):
        received: list[str] = []
        chaos = ChaosTransport(
            CallbackTransport(received.append),
            ChaosConfig(
                send_failure_probability=0.1,
                reset_probability=0.05,
                partial_batch_probability=0.1,
                seed=11,
            ),
        )
        transport = TracingTransport(
            RetryingTransport(
                chaos,
                RetryPolicy(max_attempts=20, base_delay=0.0),
                sleep=lambda _: None,
            ),
            Tracer(sample_every=1),
        )
        events = [add_vertex(i) for i in range(1200)]
        for start in range(0, len(events), 20):
            batch = events[start : start + 20]
            lines = codec.format_lines(batch)
            if verb == "send_many":
                transport.send_many(lines)
            elif verb == "send_raw":
                data = ("\n".join(lines) + "\n").encode()
                transport.send_raw(data, len(lines))
            else:
                transport.send_frame(binfmt.encode_graph_frame(batch), len(batch))
        expected = codec.format_lines(events)
        assert set(received) == set(expected)
        duplicates = len(received) - len(expected)
        assert duplicates == collect_fault_counters(transport).redeliveries
        assert duplicates > 0
        stats = chaos.stats
        assert stats.resets and stats.send_failures and stats.partial_batches
