"""Process-parallel sharded replay: scale-out of the Fig 3a replayer.

A single :class:`~repro.core.replayer.LiveReplayer` is GIL-bound — one
core drives parsing, pacing and I/O, so the achieved-vs-target curve of
the replayer benchmark (paper Figure 3a) saturates at whatever one core
can push.  This module scales the load generator *out* instead of up,
the same move SProBench makes for HPC stream benchmarks: partition the
stream into N marker-aligned shards, replay each shard in its own
worker process at ``rate / N``, and merge the per-worker reports into
one aggregate view, so the system under test — not the harness —
becomes the bottleneck.

Partitioning (:func:`partition_stream`) splits only the graph events;
``MARKER`` / ``SPEED`` / ``PAUSE`` control events are *replicated* to
every shard.  Markers never travel over the transport (the replayer
handles them locally), so replication changes no delivered bytes, but
it keeps every worker's checkpointing, speed changes and pauses aligned
to the same stream positions — shard replays stay mutually
phase-consistent, and the union of shard emissions is exactly the
original stream's graph-event multiset.

Partitioning is *streamed at the byte level* for file sources: the
parent classifies each line (CSV) or record (binary) by its leading
byte/tag and scatters the raw bytes into per-shard files without ever
constructing, or re-encoding, an :class:`Event` — the parent does I/O,
not parsing.  In-memory sources still partition event-by-event via
:func:`partition_stream`.

Emission inside a worker runs in one of three modes, all paced by the
one :class:`~repro.core.replayer.PacedLoop` (token bucket, one-window
debt cap, window rates, markers, ``SPEED``/``PAUSE``):

* ``"events"`` — a :class:`LiveReplayer` (parse → pace → format →
  send), byte-for-byte the single-process behaviour, with checkpoint
  resume;
* ``"decode"`` — decode-in-worker: the worker validates and counts
  each stored batch locally (the per-event work the parent used to do
  for every shard) and emits the stored bytes verbatim, zero re-encode.
  With binary shards the decode is a cheap struct walk (or one bulk
  witness check); with CSV shards it is the trusted bulk parse;
* ``"raw"`` — the same zero-copy loop without the decode: batches from
  :func:`repro.core.codec.iter_raw_batches` go out as
  :class:`memoryview` slices of the shard file's mmap, trusting the
  partitioner's counts.

``decode`` and ``raw`` send binary frames whole through
``Transport.send_frame`` and CSV runs of up to ``batch_size`` lines
through ``Transport.send_raw``; they have no checkpoint resume.

Workers synchronise on a start barrier so their pacing windows share an
epoch, and return their :class:`ReplayReport` over a queue; the merged
report sums counts and per-window rates and keeps the per-shard
breakdown (:class:`ShardedReplayReport`).  All cross-process
configuration travels as picklable specs (:class:`WorkerConfig`,
:class:`~repro.core.connectors.TransportSpec`,
:class:`~repro.core.resilience.RetryPolicy`, ...), so workers can be
started with either the ``fork`` or ``spawn`` method.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from repro.core import binfmt, codec, witness
from repro.core.connectors import Transport, TransportSpec
from repro.core.events import EdgeId, Event, GraphEvent
from repro.core.replayer import (
    LiveReplayer,
    PacedLoop,
    ReplayReport,
    close_transport,
)
from repro.core.resilience import ChaosConfig, RetryPolicy, build_transport_chain
from repro.core.stream import GraphStream
from repro.core.tracing import shared_clock
from repro.errors import ReplayError, StreamFormatError

__all__ = [
    "SHARD_STRATEGIES",
    "ShardPlan",
    "WorkerConfig",
    "ShardedReplayReport",
    "ShardedReplayer",
    "partition_stream",
    "write_shards",
    "merge_replay_reports",
]

#: Supported graph-event partitioning strategies.
SHARD_STRATEGIES = ("round-robin", "hash")

# -- partitioning ------------------------------------------------------------


def _entity_shard(entity: int | EdgeId, workers: int) -> int:
    """Deterministic shard index for a graph entity.

    Vertex events shard by vertex id, edge events by source vertex id
    (co-locating a vertex's out-edges with it).  Plain modulo on the
    integer ids — never ``hash()`` on strings, whose per-process
    randomisation would break cross-run and cross-worker determinism.
    """
    if isinstance(entity, EdgeId):
        return entity.source % workers
    return entity % workers


def partition_stream(
    events: Iterable[Event], workers: int, shard_by: str = "round-robin"
) -> list[GraphStream]:
    """Split a stream into ``workers`` marker-aligned shards.

    Graph events are distributed round-robin (exact balance) or by
    entity hash (``shard_by="hash"``: a vertex's events always land on
    the same shard, at the cost of skew).  Control events (markers,
    speed, pause) are replicated to every shard — each shard receives
    each control event exactly once, at the same relative position —
    so shard replays stay phase-aligned and checkpoints agree.

    The union of the shards' graph events is exactly the input's
    graph-event multiset; with one worker the single shard is the
    input stream itself.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_by not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard_by {shard_by!r}; expected one of {SHARD_STRATEGIES}"
        )
    shards: list[list[Event]] = [[] for __ in range(workers)]
    round_robin = 0
    for event in events:
        if isinstance(event, GraphEvent):
            if shard_by == "round-robin":
                index = round_robin
                round_robin += 1
                if round_robin == workers:
                    round_robin = 0
            else:
                index = _entity_shard(event.entity, workers)
            shards[index].append(event)
        else:
            for shard in shards:
                shard.append(event)
    return [GraphStream(shard) for shard in shards]


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Where a partitioned stream's shards live (picklable).

    ``graph_events`` is the per-shard graph-event count (the balance /
    skew view); ``control_events`` is the number of control events
    replicated into every shard.
    """

    workers: int
    shard_by: str
    paths: tuple[str, ...]
    graph_events: tuple[int, ...]
    control_events: int

    @property
    def total_graph_events(self) -> int:
        return sum(self.graph_events)


def _csv_entity_shard(mapped, start: int, end: int, workers: int) -> int:
    """Shard index of the CSV graph line at ``mapped[start:end]``.

    Decodes *only* the entity field (second column) — no event object,
    no payload work.  The dash search starts one byte into the field so
    a negative vertex id's sign is never mistaken for the edge
    separator, matching :func:`_entity_shard`.
    """
    first = mapped.find(b",", start, end)
    if first == -1:
        raise StreamFormatError("graph line has no entity field")
    second = mapped.find(b",", first + 1, end)
    entity = mapped[first + 1 : end if second == -1 else second]
    sep = entity.find(b"-", 1)
    try:
        if sep == -1:
            return int(entity) % workers
        return int(entity[:sep]) % workers
    except ValueError:
        raise StreamFormatError(
            f"cannot shard entity field {bytes(entity)!r}"
        ) from None


def _write_shards_csv_bytes(
    source: str | Path, workers: int, directory: Path, shard_by: str
) -> ShardPlan:
    """Streamed byte-level CSV partitioner: scatter raw lines to shard
    files without parsing.

    Graph lines (classified by first byte, the ``iter_raw_batches``
    trust contract) are copied verbatim to exactly one shard; control
    lines are parsed (they steer replays — worth validating once here)
    and their bytes replicated to every shard; blanks and comments are
    dropped, matching the parse-based path.
    """
    paths = [directory / f"shard-{index}.csv" for index in range(workers)]
    graph_counts = [0] * workers
    control_events = 0
    round_robin = 0
    hash_mode = shard_by == "hash"
    graph_first_bytes = codec._RAW_GRAPH_FIRST_BYTES
    # Acquire the shard files and the source view inside the same try
    # so a failure opening any of them (or mapping the source) cannot
    # leak the handles opened before it.
    files: list[BinaryIO] = []
    mapped = None
    try:
        for path in paths:
            files.append(open(path, "wb", buffering=1 << 16))
        mapped = codec._open_stream_mmap(source)
        if mapped is not None:
            size = len(mapped)
            position = 0
            line_number = 0
            while position < size:
                line_number += 1
                newline = mapped.find(b"\n", position)
                end = size if newline == -1 else newline
                next_position = size if newline == -1 else newline + 1
                if end > position and mapped[position] in graph_first_bytes:
                    if hash_mode:
                        index = _csv_entity_shard(mapped, position, end, workers)
                    else:
                        index = round_robin
                        round_robin += 1
                        if round_robin == workers:
                            round_robin = 0
                    files[index].write(mapped[position:end])
                    files[index].write(b"\n")
                    graph_counts[index] += 1
                else:
                    line = mapped[position:end].decode("utf-8")
                    stripped = line.strip()
                    if stripped and not stripped.startswith("#"):
                        codec.parse_line(line, line_number)
                        control_events += 1
                        data = mapped[position:end]
                        for handle in files:
                            handle.write(data)
                            handle.write(b"\n")
                position = next_position
    finally:
        if mapped is not None:
            mapped.close()
        for handle in files:
            handle.close()
    return ShardPlan(
        workers=workers,
        shard_by=shard_by,
        paths=tuple(str(path) for path in paths),
        graph_events=tuple(graph_counts),
        control_events=control_events,
    )


def _write_shards_binary_records(
    source: str | Path, workers: int, directory: Path, shard_by: str
) -> ShardPlan:
    """Streamed binary partitioner: scatter raw records to shard files.

    Graph frames are walked record header to record header; each
    record's bytes move verbatim into one shard's
    :class:`~repro.core.binfmt.BinaryStreamWriter` (which reframes and
    indexes them).  Control events are replicated to every shard.
    """
    paths = [directory / f"shard-{index}.gtb" for index in range(workers)]
    graph_counts = [0] * workers
    control_events = 0
    round_robin = 0
    hash_mode = shard_by == "hash"
    # Construct the writers inside the try: each one opens a file, so a
    # failure on the k-th must still close the k-1 already open.
    writers: list[binfmt.BinaryStreamWriter] = []
    try:
        for path in paths:
            writers.append(
                binfmt.BinaryStreamWriter(
                    path, witness_path=witness.witness_path(path)
                )
            )
        for item in binfmt.iter_binary_batches(source):
            if isinstance(item, Event):
                control_events += 1
                for writer in writers:
                    writer.add(item)
                continue
            frame = item.data
            for start, end in binfmt.iter_frame_record_spans(frame):
                if hash_mode:
                    index = binfmt.record_entity_id(frame, start) % workers
                else:
                    index = round_robin
                    round_robin += 1
                    if round_robin == workers:
                        round_robin = 0
                writers[index].add_record(bytes(frame[start:end]))
                graph_counts[index] += 1
    finally:
        for writer in writers:
            writer.close()
    return ShardPlan(
        workers=workers,
        shard_by=shard_by,
        paths=tuple(str(path) for path in paths),
        graph_events=tuple(graph_counts),
        control_events=control_events,
    )


def _write_shards_events(
    events: Iterable[Event],
    workers: int,
    directory: Path,
    shard_by: str,
    stream_format: str,
) -> ShardPlan:
    """Event-level partitioner for in-memory sources (and format
    conversions), via :func:`partition_stream`."""
    shards = partition_stream(events, workers, shard_by)
    extension = "gtb" if stream_format == "binary" else "csv"
    paths = []
    graph_counts = []
    control_events = 0
    for index, shard in enumerate(shards):
        path = directory / f"shard-{index}.{extension}"
        codec.write_stream_file(path, shard, format=stream_format)
        paths.append(str(path))
        statistics = shard.statistics()
        graph_counts.append(statistics.graph_events)
        if index == 0:
            control_events = (
                statistics.marker_events + statistics.control_events
            )
    return ShardPlan(
        workers=workers,
        shard_by=shard_by,
        paths=tuple(paths),
        graph_events=tuple(graph_counts),
        control_events=control_events,
    )


def write_shards(
    source: GraphStream | str | Path | Iterable[Event],
    workers: int,
    directory: str | Path,
    shard_by: str = "round-robin",
    stream_format: str = "auto",
) -> ShardPlan:
    """Partition ``source`` and write one stream file per shard.

    ``source`` may be a stream file path (CSV or binary, autodetected),
    a :class:`GraphStream`, or any iterable of events.  Shard files are
    written as ``shard-<i>.csv`` / ``shard-<i>.gtb`` under
    ``directory`` (created if missing).  ``stream_format`` selects the
    shard file format: ``"auto"`` keeps a file source's own format
    (CSV for in-memory sources), ``"csv"`` / ``"binary"`` force one.

    File sources in their own format take the streamed byte-level
    path: raw lines/records are scattered to shard files without the
    parent ever parsing or re-encoding an event.  A cross-format
    request falls back to the event-level partitioner over a trusted
    parse.  Empty shards — a stream shorter than the worker count —
    produce empty (or frame-less) files, which replay to empty reports.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_by not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard_by {shard_by!r}; expected one of {SHARD_STRATEGIES}"
        )
    if stream_format not in ("auto", "csv", "binary"):
        raise ValueError(
            f"unknown stream_format {stream_format!r}; "
            "expected 'auto', 'csv' or 'binary'"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(source, (str, Path)):
        source_format = codec.detect_stream_format(source)
        target_format = (
            source_format if stream_format == "auto" else stream_format
        )
        if target_format == source_format:
            if source_format == "binary":
                return _write_shards_binary_records(
                    source, workers, directory, shard_by
                )
            return _write_shards_csv_bytes(source, workers, directory, shard_by)
        events: Iterable[Event] = codec.parse_stream_file(source, trusted=True)
        return _write_shards_events(
            events, workers, directory, shard_by, target_format
        )
    target_format = "csv" if stream_format == "auto" else stream_format
    return _write_shards_events(
        source, workers, directory, shard_by, target_format
    )


# -- worker-side replay ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WorkerConfig:
    """Everything one worker process needs, in picklable form.

    The live transport is rebuilt inside the worker from
    ``transport_spec`` (plus the optional resilience configs, composed
    by :func:`~repro.core.resilience.build_transport_chain`), because
    sockets and file objects cannot cross a process boundary.
    """

    index: int
    path: str
    rate: float
    emission: str = "events"
    window_seconds: float = 1.0
    #: Events per paced send: graph events per batch in ``events``
    #: emission, lines per CSV run in ``decode``/``raw`` (binary
    #: frames go whole).
    batch_size: int = 64
    transport_spec: TransportSpec | None = None
    chaos_config: ChaosConfig | None = None
    retry_policy: RetryPolicy | None = None
    breaker_threshold: int = 0
    breaker_recovery: float = 1.0
    max_resumes: int = 0
    resume_delay: float = 0.0

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


def _batch_counter(config: WorkerConfig, binary: bool):
    """How ``decode`` emission counts a stored batch; None for ``raw``.

    Decode-in-worker validates and counts each batch's records before
    emitting the stored bytes verbatim, so that per-event work scales
    with ``--workers``.  Binary shards get a
    :func:`~repro.core.binfmt.scan_frame` record walk, or one bulk
    witness verification up front when the shard has a sidecar
    (:mod:`repro.core.witness`; corruption raises before any
    emission).  CSV shards need the full trusted bulk parse just to
    count their records; that asymmetry is the point of the
    length-prefixed format.  Raw emission trusts the partitioner's
    counts.
    """
    if config.emission == "raw":
        return None
    if binary:
        if witness.preverify_shard(config.path) is not None:
            return witness.count_verified_frame
        return binfmt.scan_frame
    parse_lines = codec.parse_lines

    def count_lines(data) -> int:
        lines = str(data, "utf-8").split("\n")
        if lines and not lines[-1]:
            lines.pop()
        return len(parse_lines(lines, trusted=True, skip_comments=True))

    return count_lines


# hot-path
def replay_shard(config: WorkerConfig, transport: Transport) -> ReplayReport:
    """Run one shard's replay on an already-built transport.

    The shard file's own format is the wire format.  ``events``
    emission runs a :class:`LiveReplayer`; ``decode`` and ``raw`` feed
    the stored batches to the same
    :class:`~repro.core.replayer.PacedLoop`: binary frames whole via
    ``send_frame``, CSV runs of up to ``batch_size`` lines via
    ``send_raw``.  They have no checkpoint resume: a transport failure
    propagates.
    """
    binary = codec.detect_stream_format(config.path) == "binary"
    if config.emission == "events":
        return LiveReplayer(
            config.path,
            transport,
            rate=config.rate,
            window_seconds=config.window_seconds,
            batch_size=config.batch_size,
            wire_format="binary" if binary else "csv",
            max_resumes=config.max_resumes,
            resume_delay=config.resume_delay,
            transport_factory=(
                config.build_transport
                if config.max_resumes and config.transport_spec is not None
                else None
            ),
        ).run()
    send = transport.send_frame if binary else transport.send_raw
    count_batch = _batch_counter(config, binary)

    def emit(batch: codec.RawBatch) -> int:
        count = batch.count if count_batch is None else count_batch(batch.data)
        send(batch.data, count)
        return count

    loop = PacedLoop(config.rate, config.window_seconds, shared_clock())
    try:
        loop.run(
            codec.iter_raw_batches(config.path, batch_lines=config.batch_size),
            emit,
        )
    except BaseException as exc:
        close_transport(transport, exc)
        raise
    close_transport(transport, None)
    return loop.report(transport)


def _worker_main(config: WorkerConfig, barrier, results) -> None:
    """Worker process entry point: build, sync, replay, report.

    The transport is built *before* the barrier so no worker starts
    pacing until every worker is connected; a failure anywhere aborts
    the barrier, releasing the siblings and the parent immediately.
    """
    transport: Transport | None = None
    try:
        transport = config.build_transport()
        barrier.wait(timeout=_START_TIMEOUT)
        report = replay_shard(config, transport)
        results.put((config.index, report, None))
    except BaseException as exc:
        barrier.abort()
        if transport is not None:
            close_transport(transport, exc)
        message = f"{type(exc).__name__}: {exc}"
        try:
            # The queue pickles in a feeder thread, where an item that
            # cannot cross is dropped without a word: check it here.
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ReplayError(message)
        results.put((config.index, None, (message, exc)))


#: How long workers / the parent wait on the start barrier.
_START_TIMEOUT = 30.0


# -- report merging ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardedReplayReport(ReplayReport):
    """A merged :class:`ReplayReport` plus the per-shard breakdown.

    The aggregate fields follow :func:`merge_replay_reports`; the
    ``shards`` tuple keeps each worker's own report so per-shard
    variance (hash skew, straggler workers) stays inspectable.
    """

    shards: tuple[ReplayReport, ...] = ()

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def per_shard_rates(self) -> tuple[float, ...]:
        """Each shard's mean achieved rate (events/second)."""
        return tuple(shard.mean_rate for shard in self.shards)


def merge_replay_reports(reports: Sequence[ReplayReport]) -> ReplayReport:
    """Merge per-worker reports into one aggregate report.

    Counts (events, retries, redeliveries, breaker openings, chaos
    faults, resumes) are summed.  Per-window rates are summed
    *position-wise* — workers share a barrier-aligned start, so window
    ``i`` covers the same wall-clock slice in every report; a worker
    that finished early contributes zero to later windows.  Marker
    times take the per-marker maximum across shards (a marker has been
    passed once the *slowest* shard passes it); checkpoints count the
    shared marker boundaries, not their replicas, so the merged value
    is the per-shard maximum.  ``duration`` is the longest worker
    duration and ``started_at`` the earliest worker start.
    """
    if not reports:
        raise ValueError("cannot merge zero replay reports")
    window_count = max(len(report.window_rates) for report in reports)
    window_rates = [0.0] * window_count
    for report in reports:
        for index, rate in enumerate(report.window_rates):
            window_rates[index] += rate

    # Markers are replicated, so reports agree on labels/order; merge
    # defensively by position and keep the longest sequence.
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
    )


def _as_sharded(
    merged: ReplayReport, shards: Sequence[ReplayReport]
) -> ShardedReplayReport:
    return ShardedReplayReport(
        events_emitted=merged.events_emitted,
        duration=merged.duration,
        window_rates=merged.window_rates,
        marker_times=merged.marker_times,
        retries=merged.retries,
        redeliveries=merged.redeliveries,
        breaker_openings=merged.breaker_openings,
        chaos_faults=merged.chaos_faults,
        resumes=merged.resumes,
        checkpoints=merged.checkpoints,
        started_at=merged.started_at,
        shards=tuple(shards),
    )


# -- the sharded replayer ----------------------------------------------------


class ShardedReplayer:
    """Replays a stream through N synchronised worker processes.

    ``transport_spec`` is either one
    :class:`~repro.core.connectors.TransportSpec` every worker builds
    its own connection from (e.g. a :class:`TcpSpec` pointing at a
    receiver with ``max_connections >= workers``) or a sequence of one
    spec per worker (e.g. per-shard output files).  Each worker replays
    its shard at ``rate / workers``, so the aggregate target rate
    matches a single-process replay of the whole stream.

    ``workers=1`` is the degenerate single-process baseline: the shard
    is the whole stream and the replay runs in-process (no fork), so a
    1-worker run is the existing Fig 3a measurement.

    ``start_method`` selects the :mod:`multiprocessing` context
    (``None`` = platform default, ``"spawn"``/``"fork"``/... where
    supported); every cross-process value is picklable, so spawn works
    on platforms without fork.  Shard files are written under
    ``shard_dir`` when given (kept afterwards, inspectable) or a
    temporary directory (removed after the run).
    """

    def __init__(
        self,
        source: GraphStream | str | Path | Iterable[Event],
        transport_spec: TransportSpec | Sequence[TransportSpec],
        rate: float,
        workers: int = 1,
        shard_by: str = "round-robin",
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
        shard_dir: str | Path | None = None,
        start_method: str | None = None,
        worker_timeout: float = 300.0,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if shard_by not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard_by {shard_by!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )
        if emission not in ("events", "decode", "raw"):
            raise ValueError(
                f"unknown emission mode {emission!r}; "
                "expected 'events', 'decode' or 'raw'"
            )
        if emission in ("decode", "raw") and max_resumes:
            raise ValueError(
                f"{emission} emission does not support checkpoint resume"
            )
        if stream_format not in ("auto", "csv", "binary"):
            raise ValueError(
                f"unknown stream_format {stream_format!r}; "
                "expected 'auto', 'csv' or 'binary'"
            )
        specs: tuple[TransportSpec, ...]
        if isinstance(transport_spec, TransportSpec):
            specs = (transport_spec,) * workers
        else:
            specs = tuple(transport_spec)
            if len(specs) != workers:
                raise ValueError(
                    f"need one transport spec per worker: got {len(specs)} "
                    f"spec(s) for {workers} worker(s)"
                )
        self._source = source
        self._specs = specs
        self._rate = rate
        self._workers = workers
        self._shard_by = shard_by
        self._emission = emission
        self._stream_format = stream_format
        self._window_seconds = window_seconds
        self._batch_size = batch_size
        self._chaos_config = chaos_config
        self._retry_policy = retry_policy
        self._breaker_threshold = breaker_threshold
        self._breaker_recovery = breaker_recovery
        self._max_resumes = max_resumes
        self._resume_delay = resume_delay
        self._shard_dir = shard_dir
        self._start_method = start_method
        self._worker_timeout = worker_timeout
        #: The shard layout of the last run (set by :meth:`run`).
        self.plan: ShardPlan | None = None

    def _worker_config(self, index: int, path: str) -> WorkerConfig:
        return WorkerConfig(
            index=index,
            path=path,
            rate=self._rate / self._workers,
            emission=self._emission,
            window_seconds=self._window_seconds,
            batch_size=self._batch_size,
            transport_spec=self._specs[index],
            chaos_config=self._chaos_config,
            retry_policy=self._retry_policy,
            breaker_threshold=self._breaker_threshold,
            breaker_recovery=self._breaker_recovery,
            max_resumes=self._max_resumes,
            resume_delay=self._resume_delay,
        )

    def run(self) -> ShardedReplayReport:
        """Partition, replay all shards, and merge the reports.

        Blocks until every worker finished.  Raises
        :class:`~repro.errors.ReplayError` when any worker failed
        (naming each failed worker's error, with the lowest-indexed
        failed worker's exception as ``__cause__``) or when workers do
        not report back within ``worker_timeout``.
        """
        if self._workers == 1:
            return self._run_single()
        if self._shard_dir is not None:
            directory = Path(self._shard_dir)
            directory.mkdir(parents=True, exist_ok=True)
            cleanup = False
        else:
            directory = Path(tempfile.mkdtemp(prefix="graphtides-shards-"))
            cleanup = True
        try:
            self.plan = write_shards(
                self._source,
                self._workers,
                directory,
                shard_by=self._shard_by,
                stream_format=self._stream_format,
            )
            shards = self._run_workers(self.plan)
        finally:
            if cleanup:
                shutil.rmtree(directory, ignore_errors=True)
        return _as_sharded(merge_replay_reports(shards), shards)

    def _run_single(self) -> ShardedReplayReport:
        """The 1-worker degenerate case: in-process, no partitioning.

        A file source in the requested format is replayed in place; a
        format conversion or in-memory source is materialised once.
        """
        cleanup_dir = None
        if isinstance(self._source, (str, Path)) and (
            self._stream_format == "auto"
            or codec.detect_stream_format(self._source) == self._stream_format
        ):
            path = str(self._source)
        else:
            # The worker-side replay paths read files; materialise
            # in-memory (or format-converted) sources once.
            target_format = (
                "csv" if self._stream_format == "auto" else self._stream_format
            )
            extension = "gtb" if target_format == "binary" else "csv"
            cleanup_dir = Path(tempfile.mkdtemp(prefix="graphtides-shards-"))
            path = str(cleanup_dir / f"shard-0.{extension}")
            if isinstance(self._source, (str, Path)):
                binfmt.convert_stream(self._source, path, target_format)
            else:
                codec.write_stream_file(path, self._source, format=target_format)
        try:
            config = self._worker_config(0, path)
            report = replay_shard(config, config.build_transport())
        finally:
            if cleanup_dir is not None:
                shutil.rmtree(cleanup_dir, ignore_errors=True)
        return _as_sharded(report, (report,))

    def _run_workers(self, plan: ShardPlan) -> list[ReplayReport]:
        context = multiprocessing.get_context(self._start_method)
        barrier = context.Barrier(self._workers + 1)
        results = context.Queue()
        processes = []
        for index, path in enumerate(plan.paths):
            process = context.Process(
                target=_worker_main,
                args=(self._worker_config(index, path), barrier, results),
                name=f"graphtides-shard-{index}",
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
            while received < self._workers:
                try:
                    index, report, error = results.get(timeout=0.5)
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
                            f"{self._workers - received} worker(s) exited "
                            f"without reporting (exit codes {codes})"
                        ) from None
                    continue
                received += 1
                reported.add(index)
                if error is not None:
                    failures[index] = error
                else:
                    reports[index] = report
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
            return [reports[index] for index in range(self._workers)]
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            results.close()
