"""Live (wall-clock) graph stream replayer (paper section 5.1).

"The graph stream replayer ... is specifically designed for emitting a
stream of events with a uniform, yet tunable event rate.  Streaming is
decoupled from reading the stream graph file.  We use a multi-threaded
design to decouple both tasks and to ensure high throughput.  Emitting
stream events is handled by a dedicated thread that uses high precision
timestamps and busy-waiting for timeliness."

Every live replay is a :class:`LiveReplayer` pacing through one loop,
:class:`PacedLoop`.  It consumes an iterator of batches and control
events, waits for each batch's slot on the unified trace clock (sleep,
then busy-wait a margin calibrated from the loop's own sleep
overshoot), calls ``emit(batch)``, which
sends the batch and returns its event count, and records per-window
egress rates so the achieved rate can be analysed afterwards (the
Figure 3a measurement).  ``MARKER``, ``SPEED`` and ``PAUSE`` take
effect at their exact stream position, since the feeder emits its
pending batch before yielding one.

Unlike the paper's replayer, the feeder reads the source on the
emitting thread, between pacing waits: under the GIL a reader thread
only interleaves with the emitter, and the inline stored-bytes path
replays a CSV file flat out about seven times faster than the reader
thread's parse, queue and re-format path did.  By source:

* A stream file replayed onto a wire of its own format needs no event
  objects: it is read through :func:`repro.core.codec.iter_raw_batches`
  and the stored bytes are sent.  CSV runs of up to ``batch_size``
  lines, whose blocks pass the canonical line grammar, go through
  ``send_raw``; GTB1 frames of up to ``batch_size`` records go through
  ``send_frame`` once their records are counted
  (:meth:`LiveReplayer._frame_counter`).
* In-memory sources, and files transcoded to the other wire format
  (parsed by :func:`repro.core.codec.iter_parse_chunks`), are cut into
  batches of up to ``batch_size`` graph events, each encoded after its
  pacing wait (CSV lines for ``send_many``, or a GTB1 frame for
  ``send_frame``).

``batch_size=1`` reproduces per-event pacing exactly; larger batches
trade timing granularity for a higher saturation rate.
:class:`repro.core.sharding.ShardedReplayer` runs one
:class:`LiveReplayer` per source, one source per worker.

Resilience: the replayer checkpoints at every marker boundary.  When a
transport failure escapes the delivery layer (see
:mod:`repro.core.resilience`) and ``max_resumes`` allows it, the replay
*resumes* from the last checkpoint instead of dying: the source is
re-read, items up to the checkpoint are fast-forwarded without
emission, and events after it are re-emitted (at-least-once
redelivery, counted in the report).  Resume requires a re-iterable
source (file path, :class:`~repro.core.stream.GraphStream`, list).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core import binfmt, codec
from repro.core.connectors import Transport
from repro.core.events import (
    Event,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
)
from repro.core.metrics import percentile
from repro.core.resilience import FaultCounters, collect_fault_counters
from repro.core.stream import GraphStream
from repro.core.tracing import TraceClock, Tracer, shared_clock
from repro.errors import ConnectorError, ReplayError, TransientTransportError

__all__ = [
    "LiveReplayer",
    "PacedLoop",
    "ReplayReport",
    "ReplayCheckpoint",
    "next_pacing_margin",
]

#: The pacing margin (seconds): how long before a batch's deadline the
#: loop stops sleeping and busy-waits.  It starts at ``_MARGIN_START``,
#: tracks the ``_MARGIN_QUANTILE`` of the loop's own sleep overshoot and
#: stays within ``[_MARGIN_FLOOR, _MARGIN_CEILING]``.
_MARGIN_START = 200e-6
_MARGIN_FLOOR = 50e-6
_MARGIN_CEILING = 1e-3
_MARGIN_QUANTILE = 0.95
#: Log-space step of one update: an overshoot above the margin raises
#: it by ``exp(0.95 * gain)`` (x1.21), any other sleep lowers it by
#: ``exp(-0.05 * gain)`` (x0.99), so ~5% of sleeps overshoot it.
_MARGIN_GAIN = 0.2
_MARGIN_UP = math.exp(_MARGIN_QUANTILE * _MARGIN_GAIN)
_MARGIN_DOWN = math.exp(-(1.0 - _MARGIN_QUANTILE) * _MARGIN_GAIN)


def next_pacing_margin(margin: float, overshoot: float) -> float:
    """The pacing margin after a sleep woke ``overshoot`` seconds late.

    A stochastic-approximation quantile tracker: each sample moves the
    margin one multiplicative step towards the overshoot's 95th
    percentile.  One outlier (a descheduled sleep, milliseconds late)
    moves it by a single up-step, which the next ~20 on-time sleeps
    undo, where a peak tracker would hold it high for a whole replay.
    The result is clamped to ``[_MARGIN_FLOOR, _MARGIN_CEILING]``.
    """
    margin *= _MARGIN_UP if overshoot > margin else _MARGIN_DOWN
    if margin < _MARGIN_FLOOR:
        return _MARGIN_FLOOR
    if margin > _MARGIN_CEILING:
        return _MARGIN_CEILING
    return margin


@dataclass(frozen=True, slots=True)
class ReplayCheckpoint:
    """A resume point taken at a marker boundary.

    ``position`` is the number of feeder items (batches and control
    events) handled before the checkpoint, the marker included (the
    fast-forward distance on resume);
    ``speed_factor`` restores the rate state the markers were passed
    at; ``marker_count`` is how many marker timestamps were recorded,
    so a failed attempt's markers can be rolled back.
    """

    label: str
    position: int
    emitted: int
    speed_factor: float
    marker_count: int


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of a live replay.

    ``events_emitted`` counts every delivered emission, including
    re-emissions after a checkpoint resume; ``redeliveries`` counts the
    lines that may have reached the system under test more than once
    (transport-level unacknowledged resends plus checkpoint-rewind
    re-emissions), so ``events_emitted - redeliveries`` is the
    exactly-once floor.  The fault counters are zero for replays
    through plain transports.
    """

    events_emitted: int
    duration: float
    window_rates: tuple[float, ...]
    marker_times: tuple[tuple[str, float], ...]
    retries: int = 0
    redeliveries: int = 0
    breaker_openings: int = 0
    chaos_faults: int = 0
    resumes: int = 0
    checkpoints: int = 0
    #: Run start on the replay's :class:`~repro.core.tracing.TraceClock`
    #: — add it to the (run-relative) ``marker_times`` to place markers
    #: on the same epoch as probe and receiver records.
    started_at: float = 0.0
    #: The pacing loop's final calibrated margin (seconds): how long
    #: before each deadline it stopped sleeping, about the 95th
    #: percentile of its own sleep overshoot (see :class:`PacedLoop`).
    pacing_margin_s: float = 0.0

    @property
    def mean_rate(self) -> float:
        return self.events_emitted / self.duration if self.duration > 0 else 0.0

    def rate_percentile(self, q: float) -> float:
        """Percentile ``q`` of the per-window achieved rates.

        Falls back to the mean rate when the run was shorter than one
        measurement window.
        """
        if not self.window_rates:
            return self.mean_rate
        return percentile(self.window_rates, q)

    @property
    def p5_rate(self) -> float:
        """5th percentile of the per-window achieved rates."""
        return self.rate_percentile(5)

    @property
    def median_rate(self) -> float:
        """Median of the per-window achieved rates."""
        return self.rate_percentile(50)

    @property
    def p95_rate(self) -> float:
        """95th percentile of the per-window achieved rates."""
        return self.rate_percentile(95)


class PacedLoop:
    """The paced emission loop of every live replay.

    :meth:`run` consumes an iterator whose items are either batches
    (anything that is not an :class:`Event`) or control events, and
    calls ``emit(batch)`` once each batch is due; ``emit`` sends the
    batch and returns how many events it held.  It is a token bucket
    of one batch: sleep until :attr:`margin` before the deadline, spin
    the rest, then charge ``count`` intervals.  The margin follows the
    95th percentile of the loop's own sleep overshoot (wake time minus
    intended wake, :func:`next_pacing_margin`), so the loop sleeps
    through every wait longer than the margin instead of spinning a
    fixed millisecond.  An overshoot past the deadline delays that one
    batch; the schedule itself never moves.  A loop that falls more
    than one window behind drops the debt, so a slow transport degrades
    the rate instead of bursting afterwards.  ``SPEED`` rescales the
    rate, ``PAUSE`` sleeps and restarts the schedule, and each marker
    is timestamped (relative to :attr:`start`) and counted as a
    checkpoint.  Per-window egress rates record the achieved rate.

    Totals survive across :meth:`run` calls, so a replay resumed after
    a failure keeps one report; each call restarts the schedule and the
    current window, at the rate :attr:`speed` sets.
    """

    def __init__(self, rate: float, window_seconds: float, clock: TraceClock):
        self.rate = rate
        self.window_seconds = window_seconds
        self._now = clock.now
        self.start = self._now()
        #: The SPEED factor in effect.
        self.speed = 1.0
        self.emitted = 0
        self.checkpoints = 0
        self.duration = 0.0
        self.window_rates: list[float] = []
        self.marker_times: list[tuple[str, float]] = []
        #: Seconds before a deadline the loop stops sleeping.
        self.margin = _MARGIN_START

    # hot-path
    def run(
        self,
        items: Iterable[object],
        emit: Callable[[object], int],
        flush: Callable[[], None] | None = None,
    ) -> None:
        """Pace ``items`` through ``emit``; exceptions propagate.

        ``flush`` (the transport's) runs before every sleep, pacing or
        ``PAUSE``, so sent batches do not wait out the sleep in a write
        buffer; a wait short enough to spin, or a run that never waits,
        leaves the buffering to the transport.
        """
        perf_counter = self._now
        window_seconds = self.window_seconds
        window_rates = self.window_rates
        margin = self.margin
        interval = 1.0 / (self.rate * self.speed)
        next_emit = window_start = perf_counter()
        window_count = 0
        for item in items:
            if not isinstance(item, Event):
                now = perf_counter()
                wait = next_emit - now
                if wait > 0:
                    if wait > margin and flush is not None:
                        flush()
                        wait = next_emit - perf_counter()
                    if wait > margin:
                        # pacing sleep, bounded by the next emit slot
                        time.sleep(wait - margin)  # repro-check: disable=HOT001
                        overshoot = perf_counter() - (next_emit - margin)
                        self.margin = margin = next_pacing_margin(
                            margin, overshoot
                        )
                    while perf_counter() < next_emit:
                        pass
                    now = next_emit
                elif -wait > window_seconds:
                    # Behind schedule: cap the debt at one window.
                    next_emit = now
                count = emit(item)
                self.emitted += count
                window_count += count
                next_emit += count * interval
                if now - window_start >= window_seconds:
                    window_rates.append(window_count / (now - window_start))
                    window_start = now
                    window_count = 0
            elif isinstance(item, MarkerEvent):
                self.marker_times.append((item.label, perf_counter() - self.start))
                self.checkpoints += 1
            elif isinstance(item, SpeedEvent):
                self.speed = item.factor
                interval = 1.0 / (self.rate * item.factor)
            elif isinstance(item, PauseEvent):
                if flush is not None:
                    flush()
                # PAUSE events block by design
                time.sleep(item.seconds)  # repro-check: disable=HOT001
                next_emit = perf_counter()
            else:
                raise ReplayError(f"cannot replay {type(item).__name__}")
        self.duration = perf_counter() - self.start

    def report(
        self, counters: FaultCounters, resumes: int = 0, redeliveries: int = 0
    ) -> ReplayReport:
        """The replay's report, with the fault ``counters`` of every
        transport it sent through; ``redeliveries`` adds
        checkpoint-rewind re-emissions."""
        return ReplayReport(
            events_emitted=self.emitted,
            duration=self.duration,
            window_rates=tuple(self.window_rates),
            marker_times=tuple(self.marker_times),
            retries=counters.retries,
            redeliveries=counters.redeliveries + redeliveries,
            breaker_openings=counters.breaker_openings,
            chaos_faults=counters.chaos_faults,
            resumes=resumes,
            checkpoints=self.checkpoints,
            started_at=self.start,
            pacing_margin_s=self.margin,
        )


def close_transport(transport: Transport, failure: BaseException | None) -> None:
    """Close ``transport``; swallow a close error only when already
    propagating a more interesting ``failure``."""
    try:
        transport.close()
    except Exception:
        if failure is None:
            raise


# hot-path
def _event_batches(
    source: GraphStream | str | Path | Iterable[Event],
    batch_size: int,
    tracer: Tracer | None,
) -> Iterator[list[Event] | Event]:
    """Batches of up to ``batch_size`` graph events, and control events.

    ``source`` is an iterable of events, or a stream file parsed by
    :func:`~repro.core.codec.iter_parse_chunks` (a transcoding replay).
    A control event is yielded after the pending batch, and so is an
    error: a failing source, or a non-event item (:class:`ReplayError`),
    raises once the events read before it are yielded.  The batch list
    is reused, since :class:`PacedLoop` emits a batch before it asks for
    the next item.
    """
    chunks: Iterable[Iterable[Event]] = (
        codec.iter_parse_chunks(source, tracer=tracer)
        if isinstance(source, (str, Path))
        else (source,)
    )
    pending: list[Event] = []
    try:
        for chunk in chunks:
            for item in chunk:
                if isinstance(item, GraphEvent):
                    pending.append(item)
                    if len(pending) >= batch_size:
                        yield pending
                        pending.clear()
                    continue
                if not isinstance(item, Event):
                    raise ReplayError(f"cannot replay {type(item).__name__}")
                if pending:
                    yield pending
                    pending.clear()
                yield item
    except Exception:
        if pending:
            yield pending
        raise
    if pending:
        yield pending


class LiveReplayer:
    """Replays a stream over a transport at a tunable uniform rate.

    ``source`` is a :class:`GraphStream`, a path to a stream file, or
    any iterable of events, read on the emitting thread between pacing
    waits.  A file source in ``wire_format`` is forwarded as its stored
    lines or frames (see :func:`~repro.core.codec.iter_raw_batches`);
    other sources are batched as events and encoded after each wait.

    ``batch_size`` is the token-bucket burst size: the emitter sends up
    to that many events per :class:`PacedLoop` wakeup in one transport
    call (a larger stored GTB1 frame is re-framed).  The default of 1
    matches the paper's per-event pacing; raising it (e.g. to 32-256)
    lifts the saturation rate at the cost of event timing being uniform
    only at batch granularity.

    ``max_resumes`` enables checkpoint resume: when a
    :class:`~repro.errors.ConnectorError` escapes the transport during
    emission, up to that many resumes restart delivery from the last
    marker checkpoint (requires a re-iterable source).
    ``transport_factory`` builds a replacement transport per resume
    (e.g. reconnecting TCP); without it the existing transport is
    reused.  ``resume_delay`` sleeps before each resume so a crashed
    system under test gets time to come back.

    ``clock`` is the unified :class:`~repro.core.tracing.TraceClock`
    the replay paces and stamps with (the process-wide shared clock by
    default, so replayer, receivers and live probes share one epoch).
    ``tracer`` enables per-event tracing: sampled ``encoded`` /
    ``emitted`` spans per batch, ``marker`` instants, and an exact
    ``emitted`` count for span accounting.  ``tracer=None`` (default)
    keeps the hot path untouched.
    """

    def __init__(
        self,
        source: GraphStream | str | Path | Iterable[Event],
        transport: Transport,
        rate: float,
        window_seconds: float = 1.0,
        batch_size: int = 1,
        wire_format: str = "csv",
        max_resumes: int = 0,
        resume_delay: float = 0.0,
        transport_factory: Callable[[], Transport] | None = None,
        clock: TraceClock | None = None,
        tracer: Tracer | None = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if wire_format not in ("csv", "binary"):
            raise ValueError(
                f"unknown wire_format {wire_format!r}; "
                "expected 'csv' or 'binary'"
            )
        if max_resumes < 0:
            raise ValueError(f"max_resumes must be >= 0, got {max_resumes}")
        if resume_delay < 0:
            raise ValueError("resume_delay must be >= 0")
        self._source = source
        self._transport = transport
        self._base_rate = rate
        self._window_seconds = window_seconds
        self._batch_size = batch_size
        self._wire_format = wire_format
        self._max_resumes = max_resumes
        self._resume_delay = resume_delay
        self._transport_factory = transport_factory
        if tracer is not None and clock is None:
            clock = tracer.clock
        self._clock = clock if clock is not None else shared_clock()
        self._tracer = tracer

    def _resumable(self) -> bool:
        """Resume needs a source that can be iterated again."""
        return isinstance(self._source, (str, Path, GraphStream, list, tuple))

    def _stored(self) -> bool:
        """True when the stored bytes go out as they are: a file
        replayed onto a wire of its own format, read inline by
        :func:`~repro.core.codec.iter_raw_batches`."""
        if not isinstance(self._source, (str, Path)):
            return False
        try:
            return codec.detect_stream_format(self._source) == self._wire_format
        except OSError:
            return True  # reading it fails again: a source failure

    def _frame_counter(self) -> Callable[[memoryview, int], int]:
        """How a stored GTB1 frame is counted before it is sent.

        With a witness sidecar the whole file is verified once, up front
        (:func:`~repro.core.witness.preverify_shard`; corruption raises
        before any emission), and each frame's proven header is read.
        Without one, each frame's records are walked
        (:func:`~repro.core.binfmt.scan_frame`).  Both report a bad
        record at the same file byte offset.
        """
        from repro.core import witness  # numpy, only for GTB1 files

        if witness.preverify_shard(self._source) is not None:
            return witness.count_verified_frame
        return binfmt.scan_frame

    # -- emission ----------------------------------------------------------

    # hot-path
    def run(self) -> ReplayReport:
        """Replay the whole stream; blocks until finished.

        Raises :class:`ReplayError` when the stream source failed
        (malformed file, after the items before the failure were sent)
        or :class:`ConnectorError` when the transport raised and the
        resume budget is spent.  The transport is closed on every exit
        path.
        """
        # All pacing and stamping goes through the unified trace clock,
        # so replayer series share an epoch with receivers and probes.
        loop = PacedLoop(self._base_rate, self._window_seconds, self._clock)
        tracer = self._tracer
        batch_size = self._batch_size
        stored = self._stored()
        binary = self._wire_format == "binary"
        encode = binfmt.encode_graph_frame if binary else codec.format_lines

        # Sampling bookkeeping kept as plain ints so an unsampled traced
        # batch costs one integer comparison over the untraced path.
        # ``next_sample`` is the smallest multiple of the stride >= the
        # current position; exact counts are flushed to the tracer at
        # sampled batches and on every exit path.
        trace_step = tracer.sample_every if tracer is not None else 0
        next_sample = 0
        traced_counted = 0

        def record_emitted(start: float, count: int) -> None:
            """A sampled batch's ``emitted`` span, plus the exact count."""
            nonlocal next_sample, traced_counted
            assert tracer is not None
            first = loop.emitted
            tracer.record_span(
                "emitted",
                "replayer",
                start,
                tracer.clock.now() - start,
                event_id=first,
                count=count,
            )
            end = first + count
            next_sample = -(-end // trace_step) * trace_step
            tracer.count("emitted", end - traced_counted)
            traced_counted = end

        def attempt_emit(transport: Transport) -> Callable[[object], int]:
            """One attempt's emit: send a batch after its pacing wait
            through the transport verb bound here, encoding events first
            (stored bytes go out as they are)."""
            if stored:
                send_stored = transport.send_frame if binary else transport.send_raw

                def emit_stored(batch: codec.RawBatch) -> int:
                    count = batch.count
                    if tracer is None or loop.emitted + count <= next_sample:
                        send_stored(batch.data, count)
                        return count
                    start = tracer.clock.now()
                    send_stored(batch.data, count)
                    record_emitted(start, count)
                    return count

                return emit_stored
            send = transport.send_frame if binary else transport.send_many

            def emit(events: list[Event]) -> int:
                count = len(events)
                if tracer is None or loop.emitted + count <= next_sample:
                    if binary:
                        send(encode(events), count)
                    else:
                        send(encode(events))
                    return count
                start = tracer.clock.now()
                with tracer.measure(
                    "encoded", "replayer", event_id=loop.emitted, count=count
                ):
                    payload = encode(events)
                if binary:
                    send(payload, count)
                else:
                    send(payload)
                record_emitted(start, count)
                return count

            return emit

        def flush_trace_counts() -> None:
            nonlocal traced_counted
            if tracer is not None and loop.emitted > traced_counted:
                tracer.count("emitted", loop.emitted - traced_counted)
                traced_counted = loop.emitted

        checkpoint = ReplayCheckpoint(
            label="", position=0, emitted=0, speed_factor=1.0, marker_count=0
        )
        source_error: Exception | None = None
        count_frame: Callable[[memoryview, int], int] | None = None

        def take_checkpoint(position: int) -> None:
            """The marker just passed, item ``position`` of the source,
            becomes the checkpoint."""
            nonlocal checkpoint
            label, at = loop.marker_times[-1]
            if tracer is not None:
                tracer.instant(
                    "marker",
                    "replayer",
                    timestamp=loop.start + at,
                    event_id=loop.emitted,
                    label=label,
                )
            checkpoint = ReplayCheckpoint(
                label=label,
                position=position,
                emitted=loop.emitted,
                speed_factor=loop.speed,
                marker_count=len(loop.marker_times),
            )

        def paced_items() -> Iterator[object]:
            """One attempt's batches and control events, read on this
            thread: the file's stored bytes (GTB1 frames counted by the
            rule the first attempt chose) or :func:`_event_batches`.
            The first ``checkpoint.position`` items were delivered
            before a resume and are skipped; a marker becomes the
            checkpoint once passed.  A source failure ends the items and
            is raised after the attempt."""
            nonlocal source_error, count_frame
            skip = checkpoint.position
            position = 0
            try:
                source: Iterator[object]
                if stored:
                    if binary and count_frame is None:
                        count_frame = self._frame_counter()
                    source = codec.iter_raw_batches(
                        self._source, batch_lines=batch_size
                    )
                else:
                    source = _event_batches(self._source, batch_size, tracer)
                count = count_frame
                raw_batch = codec.RawBatch
                for item in source:
                    position += 1
                    if position <= skip:
                        continue
                    if count is not None and type(item) is raw_batch:
                        item.count = count(item.data, item.offset)
                    yield item
                    if isinstance(item, MarkerEvent):
                        take_checkpoint(position)
            except ReplayError:
                raise  # a non-event item: not a source failure
            except Exception as exc:
                source_error = exc

        resumes = 0
        resume_redeliveries = 0
        # Fault counters of the transports a resume replaced.
        replaced = FaultCounters()
        while True:
            transport = self._transport
            items = paced_items()
            loop.speed = checkpoint.speed_factor
            attempt_start = loop.emitted
            try:
                loop.run(items, attempt_emit(transport), transport.flush)
            except BaseException as exc:
                # Release the source now, not when the traceback dies.
                items.close()
                resumable = isinstance(exc, ConnectorError) and self._resumable()
                if not resumable or resumes >= self._max_resumes:
                    flush_trace_counts()
                    close_transport(transport, exc)
                    raise
                # Resume from the last checkpoint: events emitted after
                # it will be delivered again (at-least-once).
                resumes += 1
                resume_redeliveries += loop.emitted - max(
                    checkpoint.emitted, attempt_start
                )
                if isinstance(exc, TransientTransportError):
                    # No retrier caught it (one that gives up counts its
                    # own prefix), so what of the failed batch arrived
                    # arrives again with the rewind.
                    resume_redeliveries += exc.delivered + exc.unacknowledged
                del loop.marker_times[checkpoint.marker_count :]
                if self._transport_factory is not None:
                    replaced = replaced.merged(collect_fault_counters(transport))
                    try:
                        transport.close()
                    except ConnectorError:
                        pass
                    self._transport = self._transport_factory()
                if self._resume_delay:
                    # configured reconnect backoff, off the steady path
                    time.sleep(self._resume_delay)  # repro-check: disable=HOT001
                continue
            flush_trace_counts()
            close_transport(transport, None)
            break

        if source_error is not None:
            raise ReplayError(
                f"stream source failed: {source_error}"
            ) from source_error
        return loop.report(
            replaced.merged(collect_fault_counters(transport)),
            resumes=resumes,
            redeliveries=resume_redeliveries,
        )
