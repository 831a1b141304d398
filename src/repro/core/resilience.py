"""Runtime resilience layer: chaos injection, retries, circuit breaking.

The a-priori fault injectors (:mod:`repro.core.faults`) derive a faulty
*stream* before replay; this module injects faults into the *live
pipeline* while it runs, and provides the delivery machinery that lets
a replay survive them:

* :class:`ChaosTransport` — wraps any
  :class:`~repro.core.connectors.Transport` and injects runtime faults
  (failed sends, connection resets, partial-batch writes, added
  latency).  All draws come from one seeded RNG in a fixed per-operation
  order, so two runs with the same seed inject byte-identical fault
  sequences (the determinism contract of paper section 5).
* :class:`RetryPolicy` / :class:`RetryingTransport` — exponential
  backoff with seeded jitter, attempt and deadline caps, resuming
  partial batches where the failure reported how much was delivered and
  resending (redelivering) unacknowledged lines.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, so a dead system under test degrades the run (fail fast,
  checkpoint, resume) instead of wedging it in endless retries.

The replayer reads the counters back through
:func:`collect_fault_counters`, which walks a wrapper chain and sums
what it finds into one :class:`FaultCounters` snapshot for the
:class:`~repro.core.replayer.ReplayReport`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.connectors import Transport, WrappingTransport
from repro.core.faults import _validated_probability
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    DeliveryExhaustedError,
    TransientTransportError,
)

__all__ = [
    "ChaosConfig",
    "ChaosStats",
    "ChaosTransport",
    "RetryPolicy",
    "DeliveryStats",
    "RetryingTransport",
    "CircuitBreaker",
    "FaultCounters",
    "collect_fault_counters",
    "build_transport_chain",
]


# -- chaos injection ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Seeded runtime fault mix for one :class:`ChaosTransport`.

    Probabilities are per *send operation* (one batch through any
    verb).  Fault kinds, checked in a fixed order:

    * ``reset_probability`` — the whole batch is written but the
      connection "resets" before acknowledgement: the retrier must
      resend it (at-least-once redelivery);
    * ``send_failure_probability`` — the send fails before anything is
      written (clean retry, exactly-once);
    * ``partial_batch_probability`` — only a prefix of a line batch is
      written (nothing of a raw run or frame, which are atomic); the
      error reports how much, so the retrier resumes after it;
    * ``latency_probability`` — the send succeeds but is delayed by
      ``latency_seconds``.
    """

    send_failure_probability: float = 0.0
    reset_probability: float = 0.0
    partial_batch_probability: float = 0.0
    latency_probability: float = 0.0
    latency_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _validated_probability("send_failure_probability", self.send_failure_probability)
        _validated_probability("reset_probability", self.reset_probability)
        _validated_probability("partial_batch_probability", self.partial_batch_probability)
        _validated_probability("latency_probability", self.latency_probability)
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")

    @property
    def is_noop(self) -> bool:
        return (
            self.send_failure_probability == 0.0
            and self.reset_probability == 0.0
            and self.partial_batch_probability == 0.0
            and self.latency_probability == 0.0
        )


@dataclass(slots=True)
class ChaosStats:
    """Counters of the faults one :class:`ChaosTransport` injected."""

    operations: int = 0
    send_failures: int = 0
    resets: int = 0
    partial_batches: int = 0
    latency_injections: int = 0

    @property
    def total_faults(self) -> int:
        return self.send_failures + self.resets + self.partial_batches


class ChaosTransport(WrappingTransport):
    """Injects seeded runtime faults around an inner transport.

    Every operation draws the same fixed number of random values
    (one per fault kind plus one cut-point), so the injected fault
    sequence is a pure function of ``config.seed`` and the operation
    index — independent of batch contents and timing.  The sequence is
    recorded in :attr:`trace` as ``(operation_index, fault_kind)``
    pairs for determinism tests and post-run analysis.
    """

    def __init__(self, inner: Transport, config: ChaosConfig, sleep: Callable[[float], None] = time.sleep):
        super().__init__(inner)
        self.config = config
        self._rng = random.Random(config.seed)
        self._sleep = sleep
        self.stats = ChaosStats()
        self.trace: list[tuple[int, str]] = []

    def _draw(self) -> tuple[float, float, float, float, float]:
        rng = self._rng
        # Fixed draw count per operation keeps the sequence aligned
        # across runs regardless of which faults actually fire.
        return (rng.random(), rng.random(), rng.random(), rng.random(), rng.random())

    def _next_fault(self, batch_len: int) -> tuple[str, int]:
        """Decide this operation's fault: ``(kind, cut_point)``."""
        config = self.config
        reset, failure, partial, latency, cut = self._draw()
        operation = self.stats.operations
        self.stats.operations += 1
        if reset < config.reset_probability:
            self.stats.resets += 1
            self.trace.append((operation, "reset"))
            return "reset", 0
        if failure < config.send_failure_probability:
            self.stats.send_failures += 1
            self.trace.append((operation, "send_failure"))
            return "send_failure", 0
        if batch_len > 1 and partial < config.partial_batch_probability:
            self.stats.partial_batches += 1
            self.trace.append((operation, "partial"))
            return "partial", int(cut * (batch_len - 1))
        if latency < config.latency_probability:
            self.stats.latency_injections += 1
            self.trace.append((operation, "latency"))
            return "latency", 0
        self.trace.append((operation, "ok"))
        return "ok", 0

    def _deliver(self, send: Callable, payload, count: int) -> None:
        """Run one operation's fault through ``send``, the inner verb.

        A list of lines is divisible: a "partial" fault delivers a
        prefix and reports it.  Raw runs and frames are atomic units, so
        "partial" delivers nothing and the retrier resends the whole
        unit — the at-least-once contract with a coarser unit.
        """
        kind, cut = self._next_fault(count)
        if kind == "send_failure":
            raise TransientTransportError("injected send failure")
        if kind == "partial":
            if type(payload) is not list:
                cut = 0
            elif cut:
                send(payload[:cut], cut)
            raise TransientTransportError(
                f"injected partial batch failure ({cut}/{count} delivered)",
                delivered=cut,
            )
        if kind == "latency":
            self._sleep(self.config.latency_seconds)
        send(payload, count)
        if kind == "reset":
            # Delivered but never acknowledged: the retrier will resend.
            raise TransientTransportError(
                "injected connection reset (batch unacknowledged)",
                unacknowledged=count,
            )


# -- retry / backoff ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and hard caps.

    ``max_attempts`` bounds tries per operation (1 = no retries);
    ``deadline`` bounds the total wall-clock time spent on one
    operation including backoff sleeps.  Jitter is drawn from a seeded
    RNG so retry timing is reproducible run-to-run.
    """

    max_attempts: int = 5
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    deadline: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive or None")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


@dataclass(slots=True)
class DeliveryStats:
    """Counters of one :class:`RetryingTransport`'s delivery work."""

    operations: int = 0
    attempts: int = 0
    retries: int = 0
    redelivered_lines: int = 0
    breaker_rejections: int = 0
    exhausted: int = 0


class CircuitBreaker:
    """Closed → open → half-open failure containment.

    After ``failure_threshold`` consecutive failures the breaker opens:
    :meth:`allow` refuses deliveries for ``recovery_time`` seconds,
    then lets probe attempts through (half-open).  A probe success
    closes the breaker; a probe failure reopens it.  ``clock`` is
    injectable so tests need not sleep through recovery windows.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold <= 0:
            raise ValueError(f"failure_threshold must be positive, got {failure_threshold}")
        if recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.openings = 0

    @property
    def state(self) -> str:
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self) -> bool:
        """May a delivery be attempted right now?"""
        if self._state == self.OPEN:
            if self._clock() - self._opened_at >= self.recovery_time:
                self._state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state == self.HALF_OPEN:
            self._trip()
        elif self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self.openings += 1


class RetryingTransport(WrappingTransport):
    """Retries transient failures of an inner transport.

    Only :class:`~repro.errors.TransientTransportError` is retried —
    other :class:`~repro.errors.ConnectorError`\\ s (closed transport,
    broken pipe) propagate immediately.  Partial-batch failures resume
    from the reported delivered prefix; unacknowledged lines are resent
    and counted as redeliveries (at-least-once).  With a breaker
    attached, an open circuit raises
    :class:`~repro.errors.CircuitOpenError` without touching the inner
    transport.  A unit given up on is resent whole by the caller's
    resume, so its delivered prefix is counted as redelivered too.
    """

    def __init__(
        self,
        inner: Transport,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(inner)
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(self.policy.seed)
        self.stats = DeliveryStats()

    def _deliver(self, send: Callable, payload, count: int) -> None:
        """Retry one unit through ``send``, the inner verb.

        A list of lines resumes after the delivered prefix a failure
        reports; raw runs and frames are atomic, so every retry resends
        the whole unit.
        """
        policy = self.policy
        breaker = self.breaker
        stats = self.stats
        stats.operations += 1
        started = self._clock()
        lines = type(payload) is list
        offset = 0
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                stats.breaker_rejections += 1
                stats.redelivered_lines += offset
                raise CircuitOpenError(
                    f"circuit open after {breaker.openings} opening(s); "
                    f"{count - offset} record(s) undelivered"
                )
            attempt += 1
            stats.attempts += 1
            try:
                send(payload[offset:] if offset else payload, count - offset)
            except TransientTransportError as exc:
                if lines:
                    offset += exc.delivered
                stats.redelivered_lines += exc.unacknowledged
                if breaker is not None:
                    breaker.record_failure()
                out_of_attempts = attempt >= policy.max_attempts
                out_of_time = (
                    policy.deadline is not None
                    and self._clock() - started >= policy.deadline
                )
                if out_of_attempts or out_of_time:
                    stats.exhausted += 1
                    stats.redelivered_lines += offset
                    reason = "attempts" if out_of_attempts else "deadline"
                    raise DeliveryExhaustedError(
                        f"gave up after {attempt} attempt(s) ({reason} "
                        f"exhausted): {exc}",
                        attempts=attempt,
                    ) from exc
                stats.retries += 1
                self._sleep(policy.delay(attempt, self._rng))
            else:
                if breaker is not None:
                    breaker.record_success()
                return


# -- counter collection ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultCounters:
    """Aggregated fault/recovery counters from a transport chain."""

    retries: int = 0
    redeliveries: int = 0
    breaker_openings: int = 0
    chaos_faults: int = 0
    delivery_attempts: int = 0

    def merged(self, other: "FaultCounters") -> "FaultCounters":
        return FaultCounters(
            retries=self.retries + other.retries,
            redeliveries=self.redeliveries + other.redeliveries,
            breaker_openings=self.breaker_openings + other.breaker_openings,
            chaos_faults=self.chaos_faults + other.chaos_faults,
            delivery_attempts=self.delivery_attempts + other.delivery_attempts,
        )


def collect_fault_counters(transport: Transport | None) -> FaultCounters:
    """Sum resilience counters along a transport wrapper chain.

    Walks the :attr:`~repro.core.connectors.WrappingTransport.inner`
    links (``RetryingTransport`` around ``ChaosTransport`` around a base
    transport, in any order/depth) and aggregates whatever stats it
    finds; plain transports contribute zeros, so callers can use this
    unconditionally.
    """
    counters = FaultCounters()
    current = transport
    while isinstance(current, WrappingTransport):
        if isinstance(current, RetryingTransport):
            stats = current.stats
            breaker = current.breaker
            counters = counters.merged(
                FaultCounters(
                    retries=stats.retries,
                    redeliveries=stats.redelivered_lines,
                    breaker_openings=breaker.openings if breaker else 0,
                    delivery_attempts=stats.attempts,
                )
            )
        elif isinstance(current, ChaosTransport):
            counters = counters.merged(
                FaultCounters(chaos_faults=current.stats.total_faults)
            )
        current = current.inner
    return counters


# -- chain composition -------------------------------------------------------


def build_transport_chain(
    base: Transport,
    chaos_config: ChaosConfig | None = None,
    retry_policy: RetryPolicy | None = None,
    breaker_threshold: int = 0,
    breaker_recovery: float = 1.0,
) -> Transport:
    """Compose the standard delivery chain: base -> chaos -> retrying.

    The single place the wrapper order is defined, shared by the CLI
    and the sharded replayer's worker processes (which rebuild the
    chain from picklable configs after the fork/spawn).  No-op configs
    add no wrapper: a ``chaos_config`` whose probabilities are all zero
    and a missing ``retry_policy`` with ``breaker_threshold == 0``
    return ``base`` unchanged.
    """
    transport = base
    if chaos_config is not None and not chaos_config.is_noop:
        transport = ChaosTransport(transport, chaos_config)
    if retry_policy is not None or breaker_threshold > 0:
        breaker = None
        if breaker_threshold > 0:
            breaker = CircuitBreaker(
                failure_threshold=breaker_threshold,
                recovery_time=breaker_recovery,
            )
        transport = RetryingTransport(
            transport,
            retry_policy if retry_policy is not None else RetryPolicy(),
            breaker=breaker,
        )
    return transport
