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

Every worker replays its shard through one
:class:`~repro.core.replayer.LiveReplayer` (token bucket, one-window
debt cap, window rates, markers, ``SPEED``/``PAUSE``, checkpoint
resume), reading the shard file inline through
:func:`repro.core.codec.iter_raw_batches` with the file's own format
on the wire.  A CSV shard's blocks are checked against the canonical
line grammar and its runs of up to ``batch_size`` stored lines are sent
through ``Transport.send_raw`` (a non-canonical block is parsed and
re-formatted first); a GTB1 shard's frames of up to ``batch_size``
records go through ``Transport.send_frame`` once the worker has
counted their records (a struct walk, or one bulk witness check up
front).  Byte for byte, this is the single-process behaviour.

Workers synchronise on a start barrier so their pacing windows share an
epoch, and return their :class:`ReplayReport` (and, when traced, their
spans and counts) over a queue; the merged report sums counts and
per-window rates and keeps the per-shard breakdown
(:class:`ShardedReplayReport`).  All cross-process
configuration travels as picklable specs (:class:`WorkerConfig`,
:class:`~repro.core.connectors.TransportSpec`,
:class:`~repro.core.resilience.RetryPolicy`, ...), so workers can be
started with either the ``fork`` or ``spawn`` method.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO, Generator, Iterable, Sequence

from repro.core import binfmt, codec, witness
from repro.core.connectors import Transport, TransportSpec
from repro.core.events import EdgeId, Event, GraphEvent
from repro.core.replayer import LiveReplayer, ReplayReport, close_transport
from repro.core.resilience import ChaosConfig, RetryPolicy, build_transport_chain
from repro.core.stream import GraphStream
from repro.core.tracing import Span, TraceClock, Tracer, TracingTransport
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


def _csv_entity_shard(line: str, workers: int) -> int:
    """Shard index of the CSV graph line ``line``.

    Decodes *only* the entity field (second column) — no event object,
    no payload work.  The dash search starts one character into the
    field so a negative vertex id's sign is never mistaken for the edge
    separator, matching :func:`_entity_shard`.
    """
    first = line.find(",")
    if first == -1:
        raise StreamFormatError("graph line has no entity field")
    second = line.find(",", first + 1)
    entity = line[first + 1 : len(line) if second == -1 else second].strip()
    sep = entity.find("-", 1)
    try:
        if sep == -1:
            return int(entity) % workers
        return int(entity[:sep]) % workers
    except ValueError:
        raise StreamFormatError(f"cannot shard entity field {entity!r}") from None


#: First characters of the six graph-changing commands (``ADD_*``,
#: ``REMOVE_*``, ``UPDATE_*``); no control command shares them.
_GRAPH_FIRST_CHARS = frozenset("ARU")


#: The shard of a placement that goes to every shard (a control event).
_EVERY_SHARD = -1


def _csv_placements(
    source: str | Path, workers: int, shard_by: str
) -> Generator[tuple[int, int, bytes], None, None]:
    """Where the streamed CSV partitioner puts each line of ``source``.

    Yields ``(shard, line_number, data)`` per kept line in source order:
    ``data`` is the line's bytes with its ``\n``, ``line_number`` its
    1-based line in the source, ``shard`` its shard or
    :data:`_EVERY_SHARD`.  Lines come from the reader's own blocks and
    line splitter (``codec._iter_blocks`` and ``codec._split_lines``:
    UTF-8 checked, universal newlines), so every reader agrees on where
    lines end.  A line starting with a graph command's first character
    goes to exactly one shard, where the worker's reader validates it.
    Any other line that is not blank or a comment is parsed: a control
    line (it steers replays — worth validating once here) goes to every
    shard, and a padded graph line to one shard like the others.
    Blanks and comments are dropped.
    """
    round_robin = 0
    hash_mode = shard_by == "hash"
    mapped = codec._open_stream_mmap(source)
    if mapped is None:
        return
    try:
        line_number = 0
        for __, text in codec._iter_blocks(mapped):
            for line in codec._split_lines(text):
                line_number += 1
                data = (line + "\n").encode("utf-8")
                event = None
                if line[:1] not in _GRAPH_FIRST_CHARS:
                    stripped = line.strip()
                    if not stripped or stripped.startswith("#"):
                        continue
                    event = codec.parse_line(line, line_number)
                    if not isinstance(event, GraphEvent):
                        yield _EVERY_SHARD, line_number, data
                        continue
                if not hash_mode:
                    index = round_robin
                    round_robin += 1
                    if round_robin == workers:
                        round_robin = 0
                elif event is None:
                    index = _csv_entity_shard(line, workers)
                else:
                    index = _entity_shard(event.entity, workers)
                yield index, line_number, data
    finally:
        mapped.close()


def _write_shards_csv_bytes(
    source: str | Path, workers: int, directory: Path, shard_by: str
) -> ShardPlan:
    """Streamed CSV partitioner: scatter lines to shard files without
    parsing graph lines (see :func:`_csv_placements`)."""
    paths = [directory / f"shard-{index}.csv" for index in range(workers)]
    graph_counts = [0] * workers
    control_events = 0
    # Acquire the shard files and the source view inside the same try
    # so a failure opening any of them (or mapping the source) cannot
    # leak the handles opened before it.
    files: list[BinaryIO] = []
    placements = _csv_placements(source, workers, shard_by)
    try:
        for path in paths:
            files.append(open(path, "wb", buffering=1 << 16))
        for index, __, data in placements:
            if index == _EVERY_SHARD:
                control_events += 1
                for handle in files:
                    handle.write(data)
            else:
                files[index].write(data)
                graph_counts[index] += 1
    finally:
        placements.close()
        for handle in files:
            handle.close()
    return ShardPlan(
        workers=workers,
        shard_by=shard_by,
        paths=tuple(str(path) for path in paths),
        graph_events=tuple(graph_counts),
        control_events=control_events,
    )


def _binary_placements(
    source: str | Path, workers: int, shard_by: str
) -> Generator[tuple[int, int, "memoryview | Event"], None, None]:
    """Where the streamed binary partitioner puts each record of ``source``.

    Yields ``(shard, offset, payload)`` in source order: a graph
    record's complete bytes (a view of the source mapping, valid until
    the next item) with its file offset and shard, or a control event
    with :data:`_EVERY_SHARD`.  Graph frames are walked record header
    to record header; records are never decoded.
    """
    round_robin = 0
    hash_mode = shard_by == "hash"
    for item in binfmt.iter_binary_batches(source):
        if isinstance(item, Event):
            yield _EVERY_SHARD, -1, item
            continue
        frame = item.data
        for start, end in binfmt.iter_frame_record_spans(frame, item.offset):
            if hash_mode:
                try:
                    index = binfmt.record_entity_id(frame, start) % workers
                except StreamFormatError as exc:
                    # The peek names the record's offset in its frame.
                    raise StreamFormatError(
                        str(exc).split(": ", 1)[1],
                        byte_offset=item.offset + start,
                    ) from None
            else:
                index = round_robin
                round_robin += 1
                if round_robin == workers:
                    round_robin = 0
            yield index, item.offset + start, frame[start:end]


def _write_shards_binary_records(
    source: str | Path, workers: int, directory: Path, shard_by: str
) -> ShardPlan:
    """Streamed binary partitioner: scatter raw records to shard files.

    Each record's bytes move verbatim into one shard's
    :class:`~repro.core.binfmt.BinaryStreamWriter` (which reframes and
    indexes them); control events are replicated to every shard (see
    :func:`_binary_placements`).
    """
    paths = [directory / f"shard-{index}.gtb" for index in range(workers)]
    graph_counts = [0] * workers
    control_events = 0
    # Construct the writers inside the try: each one opens a file, so a
    # failure on the k-th must still close the k-1 already open.
    writers: list[binfmt.BinaryStreamWriter] = []
    placements = _binary_placements(source, workers, shard_by)
    try:
        for path in paths:
            writers.append(
                binfmt.BinaryStreamWriter(
                    path, witness_path=witness.witness_path(path)
                )
            )
        for index, __, payload in placements:
            if isinstance(payload, Event):
                control_events += 1
                for writer in writers:
                    writer.add(payload)
            else:
                writers[index].add_record(bytes(payload))
                graph_counts[index] += 1
    finally:
        placements.close()
        for writer in writers:
            writer.close()
    return ShardPlan(
        workers=workers,
        shard_by=shard_by,
        paths=tuple(str(path) for path in paths),
        graph_events=tuple(graph_counts),
        control_events=control_events,
    )


def _shard_record(path: str, byte_offset: int) -> tuple[int, int, int] | None:
    """Where ``byte_offset`` falls in the GTB1 shard file ``path``:
    ``(n, within, record)`` for ``within`` bytes into its ``n``-th
    graph record (1-based), which is record ``record`` of the file
    counting control records too (0-based, as the witness numbers
    them); None when no graph record holds it."""
    graph = 0
    record = -1
    with contextlib.closing(binfmt.iter_binary_batches(path)) as items:
        for item in items:
            if isinstance(item, Event):
                record += 1
                continue
            for start, end in binfmt.iter_frame_record_spans(item.data, item.offset):
                graph += 1
                record += 1
                if item.offset + start <= byte_offset < item.offset + end:
                    return graph, byte_offset - item.offset - start, record
    return None


def _source_position(
    source: str | Path, plan: ShardPlan, shard: int, error: StreamFormatError
) -> StreamFormatError:
    """``error``, raised by ``shard``'s worker, at its place in ``source``.

    Re-walks the partitioner's placements up to the refused line or
    record (on the error path only, so a clean run pays nothing): a
    CSV shard's line ``n`` is the ``n``-th line placed on it, and a
    GTB1 shard's ``n``-th graph record is the ``n``-th record placed
    on it, refused at the same offset within the record.  An error the
    walk cannot place comes back unchanged.
    """
    path = plan.paths[shard]
    csv = path.endswith(".csv")
    placements: Generator[tuple[int, int, object], None, None]
    if csv:
        if error.line_number is None:
            return error
        wanted, within, shard_record = error.line_number, 0, -1
        placements = _csv_placements(source, plan.workers, plan.shard_by)
    else:
        found = None
        if error.byte_offset is not None:
            found = _shard_record(path, error.byte_offset)
        if found is None:
            return error
        wanted, within, shard_record = found
        placements = _binary_placements(source, plan.workers, plan.shard_by)
    seen = 0
    record = -1
    with contextlib.closing(placements):
        for index, position, __ in placements:
            record += 1
            if index == shard or (csv and index == _EVERY_SHARD):
                seen += 1
                if seen == wanted:
                    break
        else:
            return error
    # Both kinds of position prefix the message ("line N: ...").
    bare = str(error).split(": ", 1)[1]
    if csv:
        return StreamFormatError(bare, position)
    # A witness refusal names the file and its record number.
    bare = bare.replace(
        f"{path}: record {shard_record} ", f"{source}: record {record} "
    )
    return StreamFormatError(bare, byte_offset=position + within)


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
    request falls back to the event-level partitioner over a parse of
    the source.  Empty shards — a stream shorter than the worker count —
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
        events: Iterable[Event] = codec.parse_stream_file(source)
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
    sockets and file objects cannot cross a process boundary.  So is
    the tracer: ``trace`` is the parent tracer's ``(sample_every,
    clock origin)``, and the worker records on a clock with the same
    origin.
    """

    index: int
    path: str
    rate: float
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


def _live_replayer(
    config: WorkerConfig,
    source: GraphStream | str | Path | Iterable[Event],
    transport: Transport,
    wire_format: str,
    tracer: Tracer | None,
) -> LiveReplayer:
    """The :class:`LiveReplayer` of one shard; with a tracer, every
    transport it sends through records ``transported`` spans."""

    def traced(built: Transport) -> Transport:
        return built if tracer is None else TracingTransport(built, tracer)

    return LiveReplayer(
        source,
        traced(transport),
        rate=config.rate,
        window_seconds=config.window_seconds,
        batch_size=config.batch_size,
        wire_format=wire_format,
        max_resumes=config.max_resumes,
        resume_delay=config.resume_delay,
        transport_factory=(
            (lambda: traced(config.build_transport()))
            if config.max_resumes and config.transport_spec is not None
            else None
        ),
        tracer=tracer,
    )


# hot-path
def replay_shard(
    config: WorkerConfig, transport: Transport, tracer: Tracer | None = None
) -> ReplayReport:
    """Run one shard's replay on an already-built transport.

    The shard file's own format is the wire format, so the
    :class:`LiveReplayer` forwards its stored lines or frames (with
    checkpoint resume when ``config.max_resumes`` allows it).
    """
    wire_format = codec.detect_stream_format(config.path)
    return _live_replayer(config, config.path, transport, wire_format, tracer).run()


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
    pacing until every worker is connected; a failure anywhere aborts
    the barrier, releasing the siblings and the parent immediately.
    A traced worker returns its spans and exact counts with its report.
    """
    transport: Transport | None = None
    tracer = None
    if config.trace is not None:
        sample_every, origin = config.trace
        tracer = Tracer(clock=TraceClock(origin=origin), sample_every=sample_every)
    try:
        transport = config.build_transport()
        barrier.wait(timeout=_START_TIMEOUT)
        report = replay_shard(config, transport, tracer)
        trace = None if tracer is None else (tracer.spans, tracer.counts)
        results.put((config.index, report, None, trace))
    except BaseException as exc:
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
    duration, ``started_at`` the earliest worker start and
    ``pacing_margin_s`` the largest shard margin (the noisiest sleeper).
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
        pacing_margin_s=max(r.pacing_margin_s for r in reports),
    )


def _as_sharded(
    merged: ReplayReport, shards: Sequence[ReplayReport]
) -> ShardedReplayReport:
    values = {field.name: getattr(merged, field.name) for field in fields(merged)}
    return ShardedReplayReport(**values, shards=tuple(shards))


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

    ``tracer`` traces the replay: at one worker it records in process;
    at N workers each worker records on a clock with the tracer's
    origin and returns its spans and counts, which are merged into the
    tracer with the worker index as a category suffix (``replayer#1``),
    one set of lanes per worker.

    ``start_method`` selects the :mod:`multiprocessing` context
    (``None`` = platform default, ``"spawn"``/``"fork"``/... where
    supported); every cross-process value is picklable, so spawn works
    on platforms without fork.  Shard files are written under
    ``shard_dir`` when given (kept afterwards, inspectable) or a
    temporary directory (removed after the run).

    ``emission`` is accepted for existing callers and has no effect:
    every shard replays through the same :class:`LiveReplayer` path.
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
        tracer: Tracer | None = None,
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
        self._workers = workers
        self._shard_by = shard_by
        self._stream_format = stream_format
        self._shard_dir = shard_dir
        self._start_method = start_method
        self._worker_timeout = worker_timeout
        self._tracer = tracer
        #: Every worker's config but its index, shard path and spec.
        self._config = WorkerConfig(
            index=0,
            path="",
            rate=rate / workers,
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
        #: The shard layout of the last run (set by :meth:`run`).
        self.plan: ShardPlan | None = None

    def _worker_config(self, index: int, path: str) -> WorkerConfig:
        return replace(
            self._config, index=index, path=path, transport_spec=self._specs[index]
        )

    def run(self) -> ShardedReplayReport:
        """Partition, replay all shards, and merge the reports.

        Blocks until every worker finished.  Raises
        :class:`~repro.errors.ReplayError` when the partitioner refuses
        the source (``stream source failed: ...``, as at one worker) or
        any worker failed (naming each failed worker's error, with the
        lowest-indexed failed worker's typed error as ``__cause__``: a
        source failure's :class:`~repro.errors.StreamFormatError`,
        offsets included), or when workers do not report back within
        ``worker_timeout``.
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
            try:
                self.plan = write_shards(
                    self._source,
                    self._workers,
                    directory,
                    shard_by=self._shard_by,
                    stream_format=self._stream_format,
                )
            except StreamFormatError as exc:
                raise ReplayError(f"stream source failed: {exc}") from exc
            shards = self._run_workers(self.plan)
        finally:
            if cleanup:
                shutil.rmtree(directory, ignore_errors=True)
        return _as_sharded(merge_replay_reports(shards), shards)

    def _run_single(self) -> ShardedReplayReport:
        """The 1-worker degenerate case: in-process, no partitioning.

        A file source in the requested format is replayed in place; an
        in-memory source or a format conversion is batched as events.
        Either way the source is read on the emitting thread.
        """
        source = self._source
        stored_format = None
        path = ""
        if isinstance(source, (str, Path)):
            path = str(source)
            stored_format = codec.detect_stream_format(path)
        wire_format = self._stream_format
        if wire_format == "auto":
            wire_format = stored_format or "csv"
        config = self._worker_config(0, path)
        transport = config.build_transport()
        if wire_format == stored_format:
            report = replay_shard(config, transport, self._tracer)
        else:
            report = _live_replayer(
                config, source, transport, wire_format, self._tracer
            ).run()
        return _as_sharded(report, (report,))

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

    def _place_in_source(
        self, plan: ShardPlan, failures: dict[int, tuple[str, BaseException]]
    ) -> None:
        """Move each worker's format refusal from its shard file to the
        source file, when the shards are the source's own lines or
        records (see :func:`_source_position`)."""
        source = self._source
        if not isinstance(source, (str, Path)) or self._stream_format not in (
            "auto",
            codec.detect_stream_format(source),
        ):
            return
        for index, (message, error) in failures.items():
            if isinstance(error, StreamFormatError):
                placed = _source_position(source, plan, index, error)
                failures[index] = (message.replace(str(error), str(placed)), placed)

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
                if trace is not None:
                    self._merge_trace(index, *trace)
            for process in processes:
                process.join(timeout=10.0)
            if failures:
                self._place_in_source(plan, failures)
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
