"""Process-parallel replay of disjoint streams: scale-out of the Fig 3a
replayer.

A single :class:`~repro.core.replayer.LiveReplayer` is GIL-bound — one
core drives parsing, pacing and I/O, so the achieved-vs-target curve of
the replayer benchmark (paper Figure 3a) saturates at whatever one core
can push.  This module scales the load generator *out* the way the paper
does (section 3.2).  A stream's events depend on each other (an edge
needs its endpoints), so a stream has "a single event source"; parallel
input comes from "concurrent streaming of disjunct streams by different
event sources".  :class:`ShardedReplayer` replays N disjoint stream
files (see :func:`repro.core.multistream.disjoint_streams`, or
``graphtides generate -o A B ...``) in N worker processes, one source
per worker, each at ``rate / N``, and merges the per-worker reports
into one aggregate view.  Every worker's wire carries its own source in
the source's order, so each arrival order applies to a graph as the
source does.

Every worker replays its source through one
:class:`~repro.core.replayer.LiveReplayer` (:func:`replay_shard`: token
bucket, one-window debt cap, window rates, markers, ``SPEED``/``PAUSE``,
checkpoint resume), reading the file inline.  A file replayed onto a
wire of its own format goes out as its stored lines or frames
(:func:`repro.core.codec.iter_raw_batches`); a file of the other format
is transcoded between the replayer's pacing waits.  A refusal names the
line or byte offset in the worker's own source file.

Workers synchronise on a start barrier so their pacing windows share an
epoch, and return their :class:`ReplayReport` (and, when traced, their
spans and counts) over a queue; the merged report sums counts and
per-window rates and keeps the per-worker breakdown
(:class:`ShardedReplayReport`).  All cross-process
configuration travels as picklable specs (:class:`WorkerConfig`,
:class:`~repro.core.connectors.TransportSpec`,
:class:`~repro.core.resilience.RetryPolicy`, ...), so workers can be
started with either the ``fork`` or ``spawn`` method.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core import codec
from repro.core.connectors import Transport, TransportSpec
from repro.core.events import Event
from repro.core.replayer import LiveReplayer, ReplayReport, close_transport
from repro.core.resilience import (
    ChaosConfig,
    RetryPolicy,
    build_transport_chain,
    reseeded,
)
from repro.core.stream import GraphStream
from repro.core.tracing import Span, TraceClock, Tracer, TracingTransport
from repro.errors import ReplayError

__all__ = [
    "WorkerConfig",
    "ShardedReplayReport",
    "ShardedReplayer",
    "merge_replay_reports",
]

#: One replay source: a stream file, or (at one worker) events in memory.
Source = GraphStream | str | Path | Iterable[Event]


# -- worker-side replay ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WorkerConfig:
    """Everything one worker process needs, in picklable form.

    ``source`` is the worker's stream file (a :class:`GraphStream` or
    an iterable of events too, at one worker, where nothing crosses a
    process boundary) and ``wire_format`` the format it sends.  The
    live transport is rebuilt inside the worker from ``transport_spec``
    (plus the optional resilience configs, composed by
    :func:`~repro.core.resilience.build_transport_chain`), because
    sockets and file objects cannot cross a process boundary.  So is
    the tracer: ``trace`` is the parent tracer's ``(sample_every,
    clock origin)``, and the worker records on a clock with the same
    origin.
    """

    index: int
    source: Source
    rate: float
    wire_format: str = "csv"
    window_seconds: float = 1.0
    #: Graph events per paced send (a larger stored GTB1 frame is
    #: re-framed).
    batch_size: int = 64
    transport_spec: TransportSpec | None = None
    chaos_config: ChaosConfig | None = None
    retry_policy: RetryPolicy | None = None
    breaker_threshold: int = 0
    breaker_recovery: float = 1.0
    max_resumes: int = 0
    resume_delay: float = 0.0
    trace: tuple[int, float] | None = None

    def build_transport(self) -> Transport:
        if self.transport_spec is None:
            raise ReplayError(
                f"worker {self.index} has no transport spec to build"
            )
        return build_transport_chain(
            self.transport_spec.build(),
            chaos_config=self.chaos_config,
            retry_policy=self.retry_policy,
            breaker_threshold=self.breaker_threshold,
            breaker_recovery=self.breaker_recovery,
        )


# hot-path
def replay_shard(
    config: WorkerConfig, transport: Transport, tracer: Tracer | None = None
) -> ReplayReport:
    """Replay one worker's source on an already-built transport.

    A file in ``config.wire_format`` is forwarded as its stored lines or
    frames; any other source is transcoded inline by the
    :class:`LiveReplayer` (with checkpoint resume when
    ``config.max_resumes`` allows it).  With a tracer, every transport
    it sends through records ``transported`` spans.  The transport is
    closed on every exit path, a refused argument included.
    """

    def traced(built: Transport) -> Transport:
        return built if tracer is None else TracingTransport(built, tracer)

    rebuilds = itertools.count(1)

    def rebuild() -> Transport:
        """A resume's chain, its chaos and jitter seeded afresh."""
        n = next(rebuilds)
        rebuilt = replace(
            config,
            chaos_config=reseeded(config.chaos_config, n),
            retry_policy=reseeded(config.retry_policy, n),
        )
        return traced(rebuilt.build_transport())

    try:
        replayer = LiveReplayer(
            config.source,
            traced(transport),
            rate=config.rate,
            window_seconds=config.window_seconds,
            batch_size=config.batch_size,
            wire_format=config.wire_format,
            max_resumes=config.max_resumes,
            resume_delay=config.resume_delay,
            transport_factory=(
                rebuild
                if config.max_resumes and config.transport_spec is not None
                else None
            ),
            tracer=tracer,
        )
    except BaseException as exc:
        close_transport(transport, exc)
        raise
    return replayer.run()


def _root_error(exc: BaseException) -> BaseException:
    """The typed error under a failure's :class:`ReplayError` wrappers
    (a source failure wraps its :class:`StreamFormatError`), which
    pickling would drop with ``__cause__`` on the way to the parent."""
    while isinstance(exc, ReplayError) and exc.__cause__ is not None:
        exc = exc.__cause__
    return exc


def _worker_main(config: WorkerConfig, barrier, results) -> None:
    """Worker process entry point: build, sync, replay, report.

    The transport is built *before* the barrier so no worker starts
    pacing until every worker is connected; a failure before the start
    aborts the barrier, releasing the siblings and the parent
    immediately.  A failure after it leaves the barrier alone: every
    party has passed, and an abort would only break a sibling that has
    not yet woken from its wait.  A traced worker returns its spans and
    exact counts with its report.
    """
    transport: Transport | None = None
    tracer = None
    started = False
    if config.trace is not None:
        sample_every, origin = config.trace
        tracer = Tracer(clock=TraceClock(origin=origin), sample_every=sample_every)
    try:
        transport = config.build_transport()
        barrier.wait(timeout=_START_TIMEOUT)
        started = True
        report = replay_shard(config, transport, tracer)
        trace = None if tracer is None else (tracer.spans, tracer.counts)
        results.put((config.index, report, None, trace))
    except BaseException as exc:
        if not started:
            barrier.abort()
        if transport is not None:
            close_transport(transport, exc)
        message = f"{type(exc).__name__}: {exc}"
        root = _root_error(exc)
        try:
            # The queue pickles in a feeder thread, where an item that
            # cannot cross is dropped without a word: check it here.
            pickle.loads(pickle.dumps(root))
        except Exception:
            root = ReplayError(message)
        results.put((config.index, None, (message, root), None))


#: How long workers / the parent wait on the start barrier.
_START_TIMEOUT = 30.0


# -- report merging ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardedReplayReport(ReplayReport):
    """A merged :class:`ReplayReport` plus the per-worker breakdown.

    The aggregate fields follow :func:`merge_replay_reports`; the
    ``shards`` tuple keeps each worker's own report so per-worker
    variance (uneven sources, straggler workers) stays inspectable.
    """

    shards: tuple[ReplayReport, ...] = ()

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def per_shard_rates(self) -> tuple[float, ...]:
        """Each worker's mean achieved rate (events/second)."""
        return tuple(shard.mean_rate for shard in self.shards)


def merge_replay_reports(reports: Sequence[ReplayReport]) -> ReplayReport:
    """Merge per-worker reports into one aggregate report.

    Counts (events, retries, redeliveries, breaker openings, chaos
    faults, resumes) are summed.  Per-window rates are summed
    *position-wise* — workers share a barrier-aligned start, so window
    ``i`` covers the same wall-clock slice in every report; a worker
    that finished early contributes zero to later windows.  Sources
    generated from the same rules carry the same markers, so marker
    times take the per-marker maximum across workers (a marker has been
    passed once the *slowest* worker passes it), and checkpoints the
    per-worker maximum.  ``duration`` is the longest worker duration,
    ``started_at`` the earliest worker start and ``pacing_margin_s``
    the largest worker margin (the noisiest sleeper).
    """
    if not reports:
        raise ValueError("cannot merge zero replay reports")
    window_count = max(len(report.window_rates) for report in reports)
    window_rates = [0.0] * window_count
    for report in reports:
        for index, rate in enumerate(report.window_rates):
            window_rates[index] += rate

    # Merge markers by position where the labels agree, and keep the
    # longest sequence.
    reference = max(reports, key=lambda report: len(report.marker_times))
    marker_times = []
    for index, (label, at) in enumerate(reference.marker_times):
        slowest = at
        for report in reports:
            if index < len(report.marker_times):
                other_label, other_at = report.marker_times[index]
                if other_label == label:
                    slowest = max(slowest, other_at)
        marker_times.append((label, slowest))

    return ReplayReport(
        events_emitted=sum(r.events_emitted for r in reports),
        duration=max(r.duration for r in reports),
        window_rates=tuple(window_rates),
        marker_times=tuple(marker_times),
        retries=sum(r.retries for r in reports),
        redeliveries=sum(r.redeliveries for r in reports),
        breaker_openings=sum(r.breaker_openings for r in reports),
        chaos_faults=sum(r.chaos_faults for r in reports),
        resumes=sum(r.resumes for r in reports),
        checkpoints=max(r.checkpoints for r in reports),
        started_at=min(r.started_at for r in reports),
        pacing_margin_s=max(r.pacing_margin_s for r in reports),
    )


def _as_sharded(
    merged: ReplayReport, shards: Sequence[ReplayReport]
) -> ShardedReplayReport:
    values = {field.name: getattr(merged, field.name) for field in fields(merged)}
    return ShardedReplayReport(**values, shards=tuple(shards))


# -- the sharded replayer ----------------------------------------------------


class ShardedReplayer:
    """Replays N disjoint streams through N synchronised worker processes.

    ``source`` is one source (a stream file, a :class:`GraphStream` or
    an iterable of events) or a sequence of stream files (or
    :class:`GraphStream` objects), one per worker: the number of
    workers is the number of sources.  Each worker replays its source
    at ``rate / workers``, so the aggregate target rate is ``rate``.
    ``workers`` may be given for existing callers, and must equal the
    source count.

    ``transport_spec`` is either one
    :class:`~repro.core.connectors.TransportSpec` every worker builds
    its own connection from (e.g. a :class:`TcpSpec` pointing at a
    receiver with ``max_connections >= workers``) or a sequence of one
    spec per worker (e.g. per-worker output files or shm rings).

    One source is the single-process baseline: the replay runs
    in-process (no fork), so a 1-worker run is the existing Fig 3a
    measurement.

    ``tracer`` traces the replay: at one worker it records in process;
    at N workers each worker records on a clock with the tracer's
    origin and returns its spans and counts, which are merged into the
    tracer with the worker index as a category suffix (``replayer#1``),
    one set of lanes per worker.

    ``start_method`` selects the :mod:`multiprocessing` context
    (``None`` = platform default, ``"spawn"``/``"fork"``/... where
    supported); every cross-process value is picklable, so spawn works
    on platforms without fork.

    ``emission`` is accepted for existing callers and has no effect:
    every worker replays through the same :class:`LiveReplayer` path.
    """

    def __init__(
        self,
        source: Source | Sequence[str | Path | GraphStream],
        transport_spec: TransportSpec | Sequence[TransportSpec],
        rate: float,
        workers: int | None = None,
        emission: str = "events",
        stream_format: str = "auto",
        window_seconds: float = 1.0,
        batch_size: int = 64,
        chaos_config: ChaosConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 0,
        breaker_recovery: float = 1.0,
        max_resumes: int = 0,
        resume_delay: float = 0.0,
        start_method: str | None = None,
        worker_timeout: float = 300.0,
        tracer: Tracer | None = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        sources: tuple[Source, ...] = (source,)
        if (
            isinstance(source, (list, tuple))
            and source
            and all(isinstance(item, (str, Path, GraphStream)) for item in source)
        ):
            sources = tuple(source)
        if workers is not None and workers != len(sources):
            raise ValueError(
                f"workers={workers}, but {len(sources)} source(s): "
                "each worker replays one source"
            )
        if emission not in ("events", "decode", "raw"):
            raise ValueError(
                f"unknown emission mode {emission!r}; "
                "expected 'events', 'decode' or 'raw'"
            )
        if stream_format not in ("auto", "csv", "binary"):
            raise ValueError(
                f"unknown stream_format {stream_format!r}; "
                "expected 'auto', 'csv' or 'binary'"
            )
        specs: tuple[TransportSpec, ...]
        if isinstance(transport_spec, TransportSpec):
            specs = (transport_spec,) * len(sources)
        else:
            specs = tuple(transport_spec)
            if len(specs) != len(sources):
                raise ValueError(
                    f"need one transport spec per worker: got {len(specs)} "
                    f"spec(s) for {len(sources)} worker(s)"
                )
        self._sources = sources
        self._specs = specs
        self._stream_format = stream_format
        self._start_method = start_method
        self._worker_timeout = worker_timeout
        self._tracer = tracer
        #: Every worker's config but its index, source, format and spec.
        self._config = WorkerConfig(
            index=0,
            source="",
            rate=rate / len(sources),
            window_seconds=window_seconds,
            batch_size=batch_size,
            chaos_config=chaos_config,
            retry_policy=retry_policy,
            breaker_threshold=breaker_threshold,
            breaker_recovery=breaker_recovery,
            max_resumes=max_resumes,
            resume_delay=resume_delay,
            trace=(
                None if tracer is None else (tracer.sample_every, tracer.clock.origin)
            ),
        )

    def _worker_config(self, index: int) -> WorkerConfig:
        """Worker ``index``'s config; ``stream_format="auto"`` sends a
        file in its own format (an in-memory source as CSV)."""
        source = self._sources[index]
        wire_format = self._stream_format
        if wire_format == "auto":
            wire_format = (
                codec.detect_stream_format(source)
                if isinstance(source, (str, Path))
                else "csv"
            )
        return replace(
            self._config,
            index=index,
            source=source,
            wire_format=wire_format,
            transport_spec=self._specs[index],
        )

    def run(self) -> ShardedReplayReport:
        """Replay every source and merge the reports.

        Blocks until every worker finished.  Raises
        :class:`~repro.errors.ReplayError` when the one source failed
        (``stream source failed: ...``), when any worker failed (naming
        each failed worker's error, with the lowest-indexed failed
        worker's typed error as ``__cause__``: a source failure's
        :class:`~repro.errors.StreamFormatError`, with the line or byte
        offset in that worker's source), or when workers do not report
        back within ``worker_timeout``.
        """
        configs = [self._worker_config(index) for index in range(len(self._sources))]
        if len(configs) == 1:
            (config,) = configs
            report = replay_shard(config, config.build_transport(), self._tracer)
            return _as_sharded(report, (report,))
        reports = self._run_workers(configs)
        return _as_sharded(merge_replay_reports(reports), reports)

    def _merge_trace(
        self, index: int, spans: list[Span], counts: dict[str, int]
    ) -> None:
        """Fold worker ``index``'s spans (on its own lanes) and exact
        counts into the tracer."""
        tracer = self._tracer
        assert tracer is not None
        suffix = f"#{index}"
        for span in spans:
            span.category += suffix
        tracer.spans.extend(spans)
        for phase, count in counts.items():
            tracer.count(phase, count)

    def _run_workers(self, configs: list[WorkerConfig]) -> list[ReplayReport]:
        workers = len(configs)
        context = multiprocessing.get_context(self._start_method)
        barrier = context.Barrier(workers + 1)
        results = context.Queue()
        processes = []
        for config in configs:
            process = context.Process(
                target=_worker_main,
                args=(config, barrier, results),
                name=f"graphtides-shard-{config.index}",
                daemon=True,
            )
            process.start()
            processes.append(process)
        try:
            try:
                # The parent is the (N+1)-th barrier party: workers all
                # have their transports connected before any emits.
                barrier.wait(timeout=_START_TIMEOUT)
            except threading.BrokenBarrierError:
                pass  # a worker failed during setup; its error is queued
            reports: dict[int, ReplayReport] = {}
            failures: dict[int, tuple[str, BaseException]] = {}
            reported: set[int] = set()
            received = 0
            deadline = time.monotonic() + self._worker_timeout
            dead_since: float | None = None
            while received < workers:
                try:
                    index, report, error, trace = results.get(timeout=0.5)
                except queue.Empty:
                    now = time.monotonic()
                    if now > deadline:
                        # Per-worker watchdog verdicts: name every worker
                        # that never reported, distinguishing wedged
                        # (still alive, terminated by the finally block)
                        # from silently dead ones.
                        entries = []
                        for idx, process in enumerate(processes):
                            if idx in reported:
                                continue
                            if process.is_alive():
                                entries.append(
                                    f"worker {idx}: no report within "
                                    f"{self._worker_timeout:g}s "
                                    f"(still alive; terminated)"
                                )
                            else:
                                entries.append(
                                    f"worker {idx}: exited without "
                                    f"reporting (exit code "
                                    f"{process.exitcode})"
                                )
                        raise ReplayError(
                            f"sharded replay timed out after "
                            f"{self._worker_timeout:g}s: "
                            + "; ".join(entries)
                        ) from None
                    if any(process.is_alive() for process in processes):
                        dead_since = None
                    elif dead_since is None:
                        dead_since = now
                    elif now - dead_since > 2.0:
                        # All workers exited and a grace period passed
                        # with nothing left in the queue: they died
                        # without reporting (e.g. killed, unpicklable
                        # environment under spawn).
                        codes = [process.exitcode for process in processes]
                        raise ReplayError(
                            f"sharded replay failed: "
                            f"{workers - received} worker(s) exited "
                            f"without reporting (exit codes {codes})"
                        ) from None
                    continue
                received += 1
                reported.add(index)
                if error is not None:
                    failures[index] = error
                else:
                    reports[index] = report
                if trace is not None:
                    self._merge_trace(index, *trace)
            for process in processes:
                process.join(timeout=10.0)
            if failures:
                errors = sorted(
                    f"worker {index}: {message}"
                    for index, (message, __) in failures.items()
                )
                raise ReplayError(
                    "sharded replay failed: " + "; ".join(errors)
                ) from failures[min(failures)][1]
            return [reports[index] for index in range(workers)]
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            results.close()
