"""End-to-end event tracing on one unified trace clock.

The paper's methodology (section 4.3) observes a platform at three
evaluation levels *over time*; correlating those observations only
works when every component stamps its records with the **same clock**.
Historically the repo mixed clock sources — ``time.monotonic()`` in the
live process probe versus ``time.perf_counter()`` in the replayer and
connectors — whose epochs differ, silently breaking cross-correlation.
This module fixes that and builds an observability layer on top:

* :class:`TraceClock` — a single timestamp source with an explicit
  origin.  All live components (replayer, transports, receivers,
  probes) share one process-wide instance (:func:`shared_clock`);
  simulated components use :meth:`TraceClock.for_simulation`, which
  reads the simulation calendar.
* :class:`Tracer` — a low-overhead span/annotation recorder in the
  style of Dapper-like distributed tracers: each event (or batch) is
  stamped as it moves through the pipeline — generated → encoded →
  transported → emitted → ingested → processed → result.  Recording is
  sampled (1-in-N events) so tracing a saturated replay stays cheap;
  per-phase **counters** are exact regardless of sampling so span
  accounting always closes (emitted = ingested + in-flight).
* Chrome ``trace_event`` export — :func:`write_chrome_trace` and
  :func:`records_to_chrome_trace` produce JSON loadable in
  ``chrome://tracing`` / Perfetto; :func:`validate_chrome_trace` is the
  schema smoke check used by tests and CI.
* :class:`TracingTransport` — wraps any
  :class:`~repro.core.connectors.Transport` and records a
  ``transported`` span per delivery batch.

Spans also land in the existing :class:`~repro.core.resultlog.ResultLog`
machinery (``kind="span"`` records) so
:func:`repro.core.analysis.cross_correlation` and reflection-latency
profiles work across evaluation levels.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.core.connectors import Transport, WrappingTransport
from repro.core.resultlog import Record, ResultLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulation

__all__ = [
    "TraceClock",
    "shared_clock",
    "reset_shared_clock",
    "Span",
    "Tracer",
    "TracingTransport",
    "PHASES",
    "chrome_trace",
    "records_to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: Pipeline phases a traced event moves through, in order.  ``emitted``
#: and ``ingested`` are the accounting pair: every event leaving the
#: replayer must eventually arrive at the system under test (or still
#: be in flight at shutdown).
PHASES: tuple[str, ...] = (
    "generated",
    "decoded",
    "encoded",
    "transported",
    "emitted",
    "ingested",
    "processed",
    "result",
)


class TraceClock:
    """One timestamp source for everything a run records.

    ``now()`` returns seconds since the clock's ``origin``.  The default
    source is ``time.perf_counter`` — the highest-resolution monotonic
    clock available — but the crucial property is not the source, it is
    that *every* component of a run reads the **same instance**, so all
    timestamps share one epoch and can be cross-correlated.
    """

    __slots__ = ("_source", "origin")

    def __init__(
        self,
        source: Callable[[], float] = time.perf_counter,
        origin: float | None = None,
    ):
        self._source = source
        self.origin = source() if origin is None else origin

    def now(self) -> float:
        """Seconds elapsed since this clock's origin."""
        return self._source() - self.origin

    @classmethod
    def for_simulation(cls, sim: "Simulation") -> "TraceClock":
        """A trace clock reading the simulation calendar (origin 0)."""
        return cls(source=lambda: sim.now, origin=0.0)

    def __repr__(self) -> str:
        return f"TraceClock(origin={self.origin!r})"


_shared_lock = threading.Lock()
_shared: TraceClock | None = None


def shared_clock() -> TraceClock:
    """The process-wide live trace clock (created on first use).

    Live components default to this instance so a replayer, its
    transports/receivers, and any :class:`LiveProcessProbe` sampling
    the same run all stamp records with one epoch.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = TraceClock()
        return _shared


def reset_shared_clock() -> TraceClock:
    """Replace the shared clock with a fresh one (tests / new runs)."""
    global _shared
    with _shared_lock:
        _shared = TraceClock()
        return _shared


@dataclass(slots=True)
class Span:
    """One recorded pipeline annotation.

    ``name`` is the phase (see :data:`PHASES`), ``category`` the
    component that recorded it (``replayer``, ``transport``, a platform
    name, ...).  ``event_id`` is the stream position of the first event
    the span covers and ``count`` how many events it covers (batch
    spans).  ``duration`` 0.0 makes it an instant annotation.

    Deliberately *not* frozen: span recording sits on the replay hot
    path, and a frozen dataclass pays ``object.__setattr__`` per field
    on construction.
    """

    name: str
    category: str
    start: float
    duration: float = 0.0
    event_id: int | None = None
    count: int = 1
    args: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Record:
        """The result-log representation (``kind="span"``)."""
        tags = {"count": str(self.count)}
        if self.event_id is not None:
            tags["event_id"] = str(self.event_id)
        for key, value in self.args.items():
            tags[key] = str(value)
        return Record(
            timestamp=self.start,
            source=self.category,
            metric=self.name,
            value=self.duration,
            kind="span",
            tags=tags,
        )


class Tracer:
    """Sampled span recorder plus exact per-phase counters.

    ``sample_every`` keeps overhead bounded: only events whose id is a
    multiple of it get spans recorded (1 = trace everything).  The
    counters updated through :meth:`count` are exact regardless of
    sampling, so :meth:`accounting` closes even at high sample rates.

    Span appends rely on the GIL-atomicity of ``list.append`` — the
    recorder is safe to call from the replayer's emitter thread and
    receiver threads concurrently; counters take a lock (they are
    read-modify-write, but called once per batch, not per event).
    """

    def __init__(
        self,
        clock: TraceClock | None = None,
        sample_every: int = 1,
        metadata: Mapping[str, Any] | None = None,
    ):
        if sample_every <= 0:
            raise ValueError(
                f"sample_every must be positive, got {sample_every}"
            )
        self.clock = clock if clock is not None else shared_clock()
        self.sample_every = sample_every
        self.spans: list[Span] = []
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._counts: dict[str, int] = {}
        self._count_lock = threading.Lock()

    # -- sampling ----------------------------------------------------------

    def should_sample(self, event_id: int) -> bool:
        """Whether the event with this stream position gets a span."""
        return event_id % self.sample_every == 0

    def sample_batch(self, first_id: int, count: int) -> bool:
        """Whether a batch covering ``[first_id, first_id+count)`` gets
        a span — true iff the range contains a sampled id."""
        if count <= 0:
            return False
        step = self.sample_every
        return (first_id + count - 1) // step >= (first_id + step - 1) // step

    # -- recording ---------------------------------------------------------

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        duration: float = 0.0,
        event_id: int | None = None,
        count: int = 1,
        **args: Any,
    ) -> None:
        """Append a span with explicit timestamps (sim or live)."""
        self.spans.append(
            Span(
                name=name,
                category=category,
                start=start,
                duration=duration,
                event_id=event_id,
                count=count,
                args=args,
            )
        )

    def instant(
        self,
        name: str,
        category: str,
        timestamp: float | None = None,
        event_id: int | None = None,
        count: int = 1,
        **args: Any,
    ) -> None:
        """Record a zero-duration annotation (timestamp defaults to now)."""
        start = self.clock.now() if timestamp is None else timestamp
        self.record_span(
            name, category, start, 0.0, event_id=event_id, count=count, **args
        )

    @contextmanager
    def measure(
        self,
        name: str,
        category: str,
        event_id: int | None = None,
        count: int = 1,
        **args: Any,
    ) -> Iterator[None]:
        """Context manager timing its body on the tracer's clock."""
        start = self.clock.now()
        try:
            yield
        finally:
            self.record_span(
                name,
                category,
                start,
                self.clock.now() - start,
                event_id=event_id,
                count=count,
                **args,
            )

    def count(self, phase: str, n: int = 1) -> None:
        """Bump the exact (sampling-independent) counter for ``phase``."""
        with self._count_lock:
            self._counts[phase] = self._counts.get(phase, 0) + n

    # -- introspection -----------------------------------------------------

    @property
    def counts(self) -> dict[str, int]:
        with self._count_lock:
            return dict(self._counts)

    def accounting(self) -> dict[str, int | bool]:
        """Span accounting at this instant.

        ``in_flight`` is what left the replayer but has not been seen
        arriving; the accounting is *closed* when every emitted event is
        either ingested or in flight — i.e. the independent ingest count
        never exceeds the emit count (no phantom arrivals).
        """
        counts = self.counts
        emitted = counts.get("emitted", 0)
        ingested = counts.get("ingested", 0)
        return {
            "emitted": emitted,
            "ingested": ingested,
            "in_flight": emitted - ingested,
            "closed": ingested <= emitted,
        }

    def export_metadata(self) -> dict[str, Any]:
        """Run metadata embedded in exports (sampling config + counters)."""
        meta = dict(self.metadata)
        meta["sample_every"] = self.sample_every
        meta["spans_recorded"] = len(self.spans)
        meta["counts"] = self.counts
        meta["accounting"] = self.accounting()
        return meta

    # -- export ------------------------------------------------------------

    def to_records(self) -> list[Record]:
        """All spans as result-log records (``kind="span"``)."""
        return [span.to_record() for span in self.spans]

    def result_log(self) -> ResultLog:
        return ResultLog(self.to_records())

    def chrome_trace(self) -> dict[str, Any]:
        return chrome_trace(self.spans, self.export_metadata())

    def write_chrome_trace(self, path: str | Path) -> None:
        write_chrome_trace(path, self)


class TracingTransport(WrappingTransport):
    """Transport wrapper recording a ``transported`` span per batch.

    Sits anywhere in a delivery chain; the sharded replayer wraps it
    outside the retry/chaos layers, so one span covers one replayer
    batch, its retries and backoff included.  Event ids are assigned in
    send order, matching the replayer's emit ids for ordered transports.
    """

    def __init__(self, inner: Transport, tracer: Tracer):
        super().__init__(inner)
        self._tracer = tracer
        self._sent = 0
        # Hot-path sampling state (same scheme as the live replayer):
        # an unsampled send costs one integer comparison; the exact
        # ``transported`` counter is flushed at sampled sends and on
        # close.
        self._step = tracer.sample_every
        self._next_sample = 0
        self._counted = 0

    def _record(self, start: float, end: float, first_id: int, count: int) -> None:
        tracer = self._tracer
        tracer.record_span(
            "transported",
            "transport",
            start,
            end - start,
            event_id=first_id,
            count=count,
        )
        end_pos = first_id + count
        self._next_sample = -(-end_pos // self._step) * self._step
        tracer.count("transported", end_pos - self._counted)
        self._counted = end_pos

    def _deliver(self, send: Callable, payload, count: int) -> None:
        """Deliver through ``send``, the inner verb, timing sampled sends."""
        first_id = self._sent
        sampled = first_id + count > self._next_sample
        if sampled:
            start = self._tracer.clock.now()
        send(payload, count)
        if sampled:
            self._record(start, self._tracer.clock.now(), first_id, count)
        self._sent = first_id + count

    def flush_counts(self) -> None:
        """Flush the deferred exact ``transported`` count to the tracer."""
        if self._sent > self._counted:
            self._tracer.count("transported", self._sent - self._counted)
            self._counted = self._sent

    def close(self) -> None:
        self.flush_counts()
        super().close()


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

#: Chrome trace timestamps are microseconds.
_MICROSECONDS = 1e6


def _chrome_events_from_spans(
    spans: Iterable[Span],
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Convert spans to Chrome events; returns (events, category→tid)."""
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        tid = tids.setdefault(span.category, len(tids) + 1)
        args: dict[str, Any] = {"count": span.count}
        if span.event_id is not None:
            args["event_id"] = span.event_id
        args.update(span.args)
        entry: dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "ts": round(span.start * _MICROSECONDS, 3),
            "pid": 1,
            "tid": tid,
            "args": args,
        }
        if span.duration > 0:
            entry["ph"] = "X"
            entry["dur"] = round(span.duration * _MICROSECONDS, 3)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    return events, tids


def chrome_trace(
    spans: Iterable[Span], metadata: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """A Chrome ``trace_event`` JSON object (dict) from spans.

    Spans with a duration become complete (``"X"``) events, instants
    become thread-scoped instant (``"i"``) events; each span category
    gets its own named thread row so the pipeline stages stack visually
    in ``chrome://tracing`` / Perfetto.
    """
    events, tids = _chrome_events_from_spans(spans)
    meta_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "graphtides"},
        }
    ]
    for category, tid in sorted(tids.items(), key=lambda item: item[1]):
        meta_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": category},
            }
        )
    return {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def records_to_chrome_trace(
    log: ResultLog, metadata: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Chrome trace JSON from a result log's span and marker records.

    The inverse integration point of :meth:`Tracer.to_records`: a
    persisted ``result.jsonl`` containing ``kind="span"`` records (and
    optionally ``kind="marker"`` records, exported as instants) can be
    turned back into a loadable trace — the ``graphtides trace``
    subcommand.
    """
    spans: list[Span] = []
    for record in log:
        if record.kind == "span":
            tags = dict(record.tags)
            count = int(tags.pop("count", "1"))
            event_id_text = tags.pop("event_id", None)
            spans.append(
                Span(
                    name=record.metric,
                    category=record.source,
                    start=record.timestamp,
                    duration=record.value,
                    event_id=(
                        int(event_id_text) if event_id_text is not None else None
                    ),
                    count=count,
                    args=tags,
                )
            )
        elif record.kind == "marker":
            spans.append(
                Span(
                    name=f"marker:{record.tags.get('label', record.metric)}",
                    category=record.source,
                    start=record.timestamp,
                    duration=0.0,
                    args={"value": record.value},
                )
            )
    return chrome_trace(spans, metadata)


def write_chrome_trace(path: str | Path, tracer: Tracer) -> None:
    """Serialize a tracer's trace to a Chrome JSON file."""
    payload = tracer.chrome_trace()
    Path(path).write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )


_VALID_PHASES = frozenset("BEXiIPCMSTFsftNODvVRabnec(),")


def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema smoke check of a Chrome ``trace_event`` JSON object.

    Returns a list of problems (empty = well-formed).  Checks the JSON
    Object Format variant: a top-level object with a ``traceEvents``
    array whose entries carry the required keys with sane types — the
    structural subset ``chrome://tracing`` needs to load a file.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _VALID_PHASES:
            problems.append(f"{where}: invalid phase {phase!r}")
            continue
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: invalid ts {ts!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing pid")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: missing tid")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
    return problems
