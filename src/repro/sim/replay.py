"""Simulated graph stream replayer.

The counterpart of the live :mod:`repro.core.replayer` for simulated
runs: it walks a :class:`~repro.core.stream.GraphStream` on the
simulation clock, emitting events with a uniform, tunable rate, and
honours the stream's control events (``SPEED`` multiplies the base
rate, ``PAUSE`` suspends emission).  Delivery is blocking: when the
platform back-throttles (``ingest`` returns ``False``) the replayer
retries and subsequent events queue behind — the pull-based / TCP
flow-control behaviour of section 3.2.

The replayer is itself instrumented (section 4.3, "Streaming
Metrics"): it records the actual ingress rate and the wall-clock (here:
simulation-clock) timestamps of marker events into the run's result
log.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.core.events import (
    Event,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
)
from repro.core.resultlog import Record
from repro.core.stream import GraphStream
from repro.platforms.base import Platform
from repro.sim.kernel import Simulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tracing import Tracer

__all__ = ["SimulatedReplayer"]


@dataclass(frozen=True, slots=True)
class _ReplayStats:
    emitted: int
    rejected_attempts: int
    finished_at: float


class SimulatedReplayer:
    """Replays a stream into a platform on the simulation clock.

    ``rate`` is the base emission rate in events/second (control events
    scale or pause it).  ``retry_interval`` is the back-off before
    re-offering a rejected event.  Marker and rate records are appended
    to ``records`` (a plain list collected by the harness afterwards).

    ``tracer`` (a :class:`~repro.core.tracing.Tracer` on the simulation
    clock) records the emit/ingest span pair per graph event: an
    ``emitted`` instant when the event is first offered and an
    ``ingested`` span when the platform accepts it, whose duration is
    the back-throttle delay (zero when accepted on first offer).  Both
    share the event's stream position as ``event_id``, so traces and
    span analyses can match the two sides exactly.
    """

    def __init__(
        self,
        sim: Simulation,
        stream: GraphStream,
        platform: Platform,
        rate: float,
        retry_interval: float = 0.001,
        rate_sample_interval: float = 1.0,
        source_name: str = "replayer",
        tracer: "Tracer | None" = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if retry_interval <= 0:
            raise ValueError(f"retry_interval must be positive, got {retry_interval}")
        self._sim = sim
        self._events = list(stream)
        self._platform = platform
        self._base_rate = rate
        self._speed_factor = 1.0
        self._retry_interval = retry_interval
        self._rate_sample_interval = rate_sample_interval
        self._source_name = source_name
        self._tracer = tracer
        self.records: list[Record] = []
        self._index = 0
        self._emitted = 0
        self._rejected_attempts = 0
        self._emitted_at_last_sample = 0
        self._finished = False
        self._stop_requested = False
        self.finished_at: float | None = None
        #: Sim time the current event was first offered (back-throttle
        #: latency measurement); None when no offer is outstanding.
        self._offered_at: float | None = None

    @property
    def emitted(self) -> int:
        """Graph events accepted by the platform so far."""
        return self._emitted

    @property
    def rejected_attempts(self) -> int:
        """Delivery attempts the platform back-throttled."""
        return self._rejected_attempts

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def current_rate(self) -> float:
        """Effective target emission rate right now."""
        return self._base_rate * self._speed_factor

    def start(self) -> None:
        """Schedule the first emission and the rate sampler."""
        self._sim.schedule(0.0, self._step)
        if self._rate_sample_interval > 0:
            self._sim.schedule(self._rate_sample_interval, self._sample_rate)

    def stop(self) -> None:
        """Abort the replay: the next emission step finishes instead.

        Used by the harness to bound runs against platforms that cannot
        absorb the stream within the configured horizon.
        """
        self._stop_requested = True

    # -- internals -----------------------------------------------------------

    def _sample_rate(self) -> None:
        emitted_now = self._emitted
        delta = emitted_now - self._emitted_at_last_sample
        self._emitted_at_last_sample = emitted_now
        self.records.append(
            Record(
                timestamp=self._sim.now,
                source=self._source_name,
                metric="ingress_rate",
                value=delta / self._rate_sample_interval,
            )
        )
        if not self._finished:
            self._sim.schedule(self._rate_sample_interval, self._sample_rate)

    def _control(self, event: Event) -> None:
        """Honour a marker, speed or pause event, then step on."""
        self._index += 1
        if isinstance(event, MarkerEvent):
            self.records.append(
                Record(
                    timestamp=self._sim.now,
                    source=self._source_name,
                    metric="marker",
                    value=float(self._emitted),
                    kind="marker",
                    tags={"label": event.label},
                )
            )
            if self._tracer is not None:
                self._tracer.instant(
                    "marker",
                    self._source_name,
                    timestamp=self._sim.now,
                    event_id=self._emitted,
                    label=event.label,
                )
            self._sim.schedule(0.0, self._step)
        elif isinstance(event, SpeedEvent):
            self._speed_factor = event.factor
            self._sim.schedule(0.0, self._step)
        elif isinstance(event, PauseEvent):
            self._sim.schedule(event.seconds, self._step)
        else:
            raise TypeError(f"cannot replay {type(event).__name__}")

    # hot-path
    def _step(self) -> None:
        if self._stop_requested or self._index >= len(self._events):
            self._finish()
            return
        event = self._events[self._index]
        if type(event) is not GraphEvent:
            self._control(event)
            return
        sim = self._sim
        tracer = self._tracer
        if tracer is not None and self._offered_at is None:
            # First offer of this event: the emit side of the span pair.
            now = sim.now
            self._offered_at = now
            event_id = self._emitted
            tracer.count("emitted")
            if tracer.should_sample(event_id):
                tracer.instant(
                    "emitted", self._source_name, timestamp=now, event_id=event_id
                )
        if self._platform.ingest(event):
            if tracer is not None:
                now = sim.now
                event_id = self._emitted
                tracer.count("ingested")
                if tracer.should_sample(event_id):
                    offered_at = (
                        self._offered_at if self._offered_at is not None else now
                    )
                    # Duration = back-throttle delay between first offer
                    # and acceptance (zero on the fast path).
                    tracer.record_span(
                        "ingested",
                        self._platform.name,
                        offered_at,
                        now - offered_at,
                        event_id=event_id,
                    )
                self._offered_at = None
            self._index += 1
            self._emitted += 1
            sim.schedule(1.0 / (self._base_rate * self._speed_factor), self._step)
        else:
            self._rejected_attempts += 1
            sim.schedule(self._retry_interval, self._step)

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.finished_at = self._sim.now
        self.records.append(
            Record(
                timestamp=self._sim.now,
                source=self._source_name,
                metric="marker",
                value=float(self._emitted),
                kind="marker",
                tags={"label": "replay-finished"},
            )
        )

    def stats(self) -> _ReplayStats:
        return _ReplayStats(
            emitted=self._emitted,
            rejected_attempts=self._rejected_attempts,
            finished_at=self.finished_at if self.finished_at is not None else -1.0,
        )
