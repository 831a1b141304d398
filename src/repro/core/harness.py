"""The test harness: wires replayer, platform, loggers and collector
(paper section 4.1, Figure 2).

A :class:`TestHarness` runs one experiment: it replays a graph stream
into the system under test on the simulation clock, runs the metrics
loggers appropriate for the requested evaluation level, waits for the
platform to drain its backlog (up to a grace horizon), and returns a
:class:`RunResult` with the merged, chronologically sorted result log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.collector import collect_records
from repro.core.loggers import ObjectSeriesLogger, SimPeriodicLogger
from repro.core.probes import CpuUtilizationProbe, InternalProbe, NativeMetricsProbe
from repro.core.resultlog import Record, ResultLog
from repro.core.stream import GraphStream
from repro.core.tracing import TraceClock, Tracer
from repro.errors import GraphTidesError
from repro.platforms.base import FaultSchedule, Platform
from repro.sim.kernel import Simulation
from repro.sim.replay import SimulatedReplayer

__all__ = [
    "HarnessConfig",
    "RunResult",
    "TestHarness",
    "InternalProbeSpec",
    "FaultRecovery",
]


@dataclass(frozen=True, slots=True)
class InternalProbeSpec:
    """Declares one Level-2 internal probe to log periodically.

    ``extract`` may turn the probed object into a float or a list of
    (source-suffix, float) pairs; see
    :class:`~repro.core.probes.InternalProbe`.
    """

    probe_name: str
    metric: str
    extract: Callable[[Any], float | list[tuple[str, float]]] | None = None


@dataclass(frozen=True, slots=True)
class HarnessConfig:
    """Configuration of one harness run.

    ``rate`` is the base replay rate (events/second).  ``level``
    selects which metric layers to collect (capped by what the platform
    supports — requesting more raises at construction, matching how an
    analyst cannot run a level-2 evaluation on a black box).
    ``drain_grace`` bounds how long (simulated seconds) the harness
    waits after replay end for the platform to drain; ``log_interval``
    is the logger sampling period.
    """

    rate: float
    level: int = 0
    log_interval: float = 1.0
    drain_grace: float = 600.0
    drain_poll_interval: float = 0.25
    retry_interval: float = 0.001
    #: Hard horizon on the whole run (simulated seconds); ``None`` means
    #: unbounded.  Protects against platforms that cannot absorb the
    #: stream at all (permanent back-throttling).
    max_duration: float | None = None
    #: Timed platform crash/recovery schedule; ``None`` runs fault-free.
    #: With a schedule, the harness additionally samples the platform's
    #: client-observable backlog each ``log_interval`` and reports
    #: per-fault recovery (see :class:`FaultRecovery`).
    fault_schedule: FaultSchedule | None = None
    #: Enable end-to-end event tracing: the harness creates a
    #: :class:`~repro.core.tracing.Tracer` on the simulation clock,
    #: attaches it to the replayer, the platform, and every periodic
    #: logger, and merges the resulting span records into the run log.
    trace: bool = False
    #: Span sampling stride (1 = trace every event).  Phase counters
    #: stay exact regardless, so accounting closes at any stride.
    trace_sample_every: int = 1
    #: Replay the stream through this many parallel (simulated)
    #: replayers, each driving a marker-aligned shard at
    #: ``rate / replay_workers`` — the simulation-side mirror of the
    #: live :class:`~repro.core.sharding.ShardedReplayer`.
    replay_workers: int = 1
    #: Graph-event partitioning strategy for ``replay_workers > 1``
    #: (see :func:`repro.core.sharding.partition_stream`).
    shard_by: str = "round-robin"

    def __post_init__(self) -> None:
        if self.trace_sample_every < 1:
            raise ValueError(
                f"trace_sample_every must be >= 1, got {self.trace_sample_every}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.level not in (0, 1, 2):
            raise ValueError(f"level must be 0, 1, or 2, got {self.level}")
        if self.log_interval <= 0:
            raise ValueError("log_interval must be positive")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0")
        if self.drain_poll_interval <= 0:
            raise ValueError("drain_poll_interval must be positive")
        if self.max_duration is not None and self.max_duration <= 0:
            raise ValueError("max_duration must be positive or None")
        if self.replay_workers <= 0:
            raise ValueError(
                f"replay_workers must be positive, got {self.replay_workers}"
            )
        from repro.core.sharding import SHARD_STRATEGIES

        if self.shard_by not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard_by {self.shard_by!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )


@dataclass(frozen=True, slots=True)
class FaultRecovery:
    """Recovery behaviour of one scheduled crash/restore pair.

    ``backlog_at_crash`` is the pre-crash steady backlog envelope (the
    largest backlog sampled before the crash); ``backlog_peak`` bounds
    the growth during the outage; ``recovery_seconds`` is how long
    after restore the backlog first returned to that pre-crash level
    (``None`` when it never did within the run — degradation without
    recovery).
    """

    process: str
    crash_at: float
    restore_at: float
    backlog_at_crash: int
    backlog_peak: int
    recovery_seconds: float | None

    @property
    def recovered(self) -> bool:
        return self.recovery_seconds is not None


@dataclass(slots=True)
class RunResult:
    """Outcome of one harness run."""

    log: ResultLog
    duration: float
    #: Events emitted by each replayer, in source order.
    events_emitted_per_source: list[int]
    events_processed: int
    rejected_attempts: int
    drained: bool
    object_series: dict[str, list[tuple[float, Any]]] = field(default_factory=dict)
    #: Armed crash/restore timeline: ``(time, action, process)``.
    fault_events: list[tuple[float, str, str]] = field(default_factory=list)
    #: Per-crash recovery measurements (one entry per crash/restore pair).
    recoveries: list[FaultRecovery] = field(default_factory=list)
    #: The run's tracer when ``HarnessConfig.trace`` was set, else None.
    tracer: Tracer | None = None

    @property
    def events_emitted(self) -> int:
        return sum(self.events_emitted_per_source)

    @property
    def mean_throughput(self) -> float:
        """Processed events per simulated second over the whole run."""
        return self.events_processed / self.duration if self.duration > 0 else 0.0


class TestHarness:
    """Runs one evaluation of a platform against a stream.

    Observation layers by level (cumulative):

    * level 0 — replayer instrumentation (ingress rate, markers) and
      per-process CPU probes;
    * level 1 — the platform's native metrics, sampled periodically;
    * level 2 — the configured :class:`InternalProbeSpec` probes.

    Additional hooks: ``query_probes`` map a metric name to a callable
    ``platform -> float`` sampled each interval via the platform's
    *public* query interface (allowed at every level — it is the normal
    results interface); ``object_probes`` capture full objects for
    retrospective analyses.
    """

    #: Not a pytest test class despite the Test- prefix.
    __test__ = False

    def __init__(
        self,
        platform: Platform,
        stream: GraphStream,
        config: HarnessConfig,
        internal_probes: list[InternalProbeSpec] | None = None,
        query_probes: dict[str, Callable[[Platform], float]] | None = None,
        object_probes: dict[str, Callable[[Platform], Any]] | None = None,
    ):
        if config.level > platform.evaluation_level:
            raise GraphTidesError(
                f"requested evaluation level {config.level}, but platform "
                f"{platform.name!r} only supports level "
                f"{platform.evaluation_level}"
            )
        if internal_probes and config.level < 2:
            raise GraphTidesError("internal probes require evaluation level 2")
        self.platform = platform
        self.stream = stream
        self.config = config
        self.internal_probes = internal_probes or []
        self.query_probes = query_probes or {}
        self.object_probes = object_probes or {}

    def _sources(self) -> list[tuple[GraphStream, float, str]]:
        """The replayers to run, as ``(stream, rate, source_name)``.

        One replayer at the full rate, or ``replay_workers``
        marker-aligned shards sharing it.
        """
        config = self.config
        if config.replay_workers == 1:
            return [(self.stream, config.rate, "replayer")]
        from repro.core.sharding import partition_stream

        shards = partition_stream(self.stream, config.replay_workers, config.shard_by)
        rate = config.rate / config.replay_workers
        return [(shard, rate, f"replayer-{i}") for i, shard in enumerate(shards)]

    def run(self) -> RunResult:
        """Execute the evaluation and return the collected results."""
        sim = Simulation()
        platform = self.platform
        config = self.config
        platform.attach(sim)
        sources = self._sources()

        # One tracer is shared by all replayers: span ids are local
        # stream positions, disambiguated by the replayer's source name
        # as span category, while the phase counters aggregate, so
        # accounting closes for the whole run.
        tracer: Tracer | None = None
        if config.trace:
            tracer = Tracer(
                clock=TraceClock.for_simulation(sim),
                sample_every=config.trace_sample_every,
                metadata={
                    "mode": "simulated",
                    "platform": platform.name,
                    "sources": len(sources),
                },
            )
        platform.attach_tracer(tracer)

        replayers = [
            SimulatedReplayer(
                sim,
                stream,
                platform,
                rate=rate,
                retry_interval=config.retry_interval,
                rate_sample_interval=config.log_interval,
                source_name=source_name,
                tracer=tracer,
            )
            for stream, rate, source_name in sources
        ]

        loggers: list[SimPeriodicLogger] = []
        object_loggers: list[ObjectSeriesLogger] = []

        fault_events: list[tuple[float, str, str]] = []
        backlog_samples: list[tuple[float, int]] = []
        if config.fault_schedule is not None and not config.fault_schedule.is_noop:
            fault_events = platform.schedule_faults(config.fault_schedule)

            def backlog_probe() -> list[Record]:
                backlog = platform.backlog
                backlog_samples.append((sim.now, backlog))
                return [
                    Record(
                        timestamp=sim.now,
                        source="harness",
                        metric="backlog",
                        value=float(backlog),
                    )
                ]

            loggers.append(
                SimPeriodicLogger(
                    sim, config.log_interval, backlog_probe,
                    name="backlog-probe", tracer=tracer,
                )
            )

        loggers.append(
            SimPeriodicLogger(
                sim,
                config.log_interval,
                CpuUtilizationProbe(platform, sim),
                name="cpu-probe",
                tracer=tracer,
            )
        )
        if config.level >= 1:
            loggers.append(
                SimPeriodicLogger(
                    sim,
                    config.log_interval,
                    NativeMetricsProbe(platform, sim),
                    name="native-metrics",
                    tracer=tracer,
                )
            )
        if config.level >= 2:
            for spec in self.internal_probes:
                loggers.append(
                    SimPeriodicLogger(
                        sim,
                        config.log_interval,
                        InternalProbe(
                            platform, sim, spec.probe_name, spec.metric, spec.extract
                        ),
                        name=f"internal-{spec.probe_name}",
                        tracer=tracer,
                    )
                )
        for metric, fn in self.query_probes.items():
            loggers.append(
                SimPeriodicLogger(
                    sim,
                    config.log_interval,
                    _make_query_probe(sim, platform, metric, fn),
                    name=f"query-{metric}",
                    tracer=tracer,
                )
            )
        for name, capture in self.object_probes.items():
            object_loggers.append(
                ObjectSeriesLogger(
                    sim,
                    config.log_interval,
                    lambda capture=capture: capture(platform),
                    name=name,
                )
            )

        for logger in loggers:
            logger.start()
        for logger in object_loggers:
            logger.start()
        for replayer in replayers:
            replayer.start()

        # Supervisor: end-of-stream flush, drain detection, logger stop.
        state = {"stream_ended": False, "drained": False, "deadline": None}

        def stop_logging() -> None:
            for logger in loggers:
                logger.stop()
            for logger in object_loggers:
                logger.stop()
            platform.shutdown()

        def supervise() -> None:
            if config.max_duration is not None and sim.now >= config.max_duration:
                for replayer in replayers:
                    if not replayer.finished:
                        replayer.stop()
            if all(r.finished for r in replayers) and not state["stream_ended"]:
                state["stream_ended"] = True
                platform.on_stream_end()
                state["deadline"] = sim.now + config.drain_grace
            if state["stream_ended"]:
                if platform.is_drained:
                    state["drained"] = True
                    stop_logging()
                    return
                if state["deadline"] is not None and sim.now >= state["deadline"]:
                    stop_logging()
                    return
            sim.schedule(config.drain_poll_interval, supervise)

        sim.schedule(config.drain_poll_interval, supervise)
        sim.run()

        if fault_events:
            # Final backlog observation: the periodic probe stops with
            # the loggers, so a run that drained right at the end would
            # otherwise never show its backlog back at zero.
            backlog_samples.append((sim.now, platform.backlog))

        fault_records = [
            Record(
                timestamp=at,
                source="harness",
                metric="fault",
                value=1.0 if action == "crash" else 0.0,
                kind="result",
                tags={"action": action, "process": process},
            )
            for at, action, process in fault_events
            if at <= sim.now
        ]
        log = collect_records(
            *(replayer.records for replayer in replayers),
            *(logger.records for logger in loggers),
            fault_records,
            tracer.to_records() if tracer is not None else [],
        )
        return RunResult(
            log=log,
            duration=sim.now,
            events_emitted_per_source=[r.emitted for r in replayers],
            events_processed=platform.events_processed(),
            rejected_attempts=sum(r.rejected_attempts for r in replayers),
            drained=state["drained"],
            object_series={
                logger.name: logger.samples for logger in object_loggers
            },
            fault_events=fault_events,
            recoveries=_compute_recoveries(fault_events, backlog_samples),
            tracer=tracer,
        )


def _compute_recoveries(
    fault_events: list[tuple[float, str, str]],
    backlog_samples: list[tuple[float, int]],
) -> list[FaultRecovery]:
    """Pair crash/restore events and measure backlog recovery.

    The pre-crash level is the *envelope* (maximum) of the backlog
    samples taken before the crash, not the last instantaneous sample:
    a serial pipeline under continuous load holds O(1) events in flight
    at any sampling instant, so a point baseline that happened to catch
    an idle instant would make recovery undetectable.  Recovery time is
    measured from the restore instant to the first backlog sample at or
    below that envelope; ``None`` when the run ended before the backlog
    got back down.
    """
    recoveries: list[FaultRecovery] = []
    restores: dict[str, list[float]] = {}
    for at, action, process in fault_events:
        if action == "restore":
            restores.setdefault(process, []).append(at)
    for at, action, process in fault_events:
        if action != "crash":
            continue
        candidates = [t for t in restores.get(process, ()) if t > at]
        if not candidates:
            continue
        restore_at = min(candidates)
        before = [value for t, value in backlog_samples if t <= at]
        baseline = max(before) if before else 0
        outage = [value for t, value in backlog_samples if at <= t <= restore_at]
        after = [value for t, value in backlog_samples if t >= restore_at]
        peak = max(outage + after[:1], default=baseline)
        recovery_seconds = None
        for t, value in backlog_samples:
            if t >= restore_at and value <= baseline:
                recovery_seconds = t - restore_at
                break
        recoveries.append(
            FaultRecovery(
                process=process,
                crash_at=at,
                restore_at=restore_at,
                backlog_at_crash=baseline,
                backlog_peak=peak,
                recovery_seconds=recovery_seconds,
            )
        )
    return recoveries


def _make_query_probe(
    sim: Simulation,
    platform: Platform,
    metric: str,
    fn: Callable[[Platform], float],
) -> Callable[[], list[Record]]:
    def probe() -> list[Record]:
        return [
            Record(
                timestamp=sim.now,
                source=platform.name,
                metric=metric,
                value=float(fn(platform)),
                kind="result",
            )
        ]

    return probe
