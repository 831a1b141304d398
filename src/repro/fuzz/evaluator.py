"""The fuzz evaluator: one candidate through the real pipeline, judged.

Stages (each a real framework entry point, not a model of one):

1. ``parse``      — :func:`repro.core.codec.parse_stream_file` (format
                    autodetected, so binary candidates walk binfmt).
2. ``roundtrip``  — CSV↔GTB1↔back conversion; the reparsed event list
                    must equal the original exactly (payload bytes,
                    float controls included).
3. ``platform``   — a simulated-time :class:`TestHarness` run into a
                    real platform; the sampled ``backlog`` series feeds
                    the backlog-blowup cliff oracle against a
                    calibrated baseline.  Virtual time keeps this stage
                    deterministic and immune to pause bombs.
4. ``replay``     — a straight :class:`LiveReplayer` run, then a
                    chaos+retry+checkpoint-resume run (seeded per
                    candidate, ``batch_size=1`` so the fault sequence
                    is independent of pacing); delivered-line counts
                    must not regress — the silent-loss oracle.

The whole pipeline runs in a watchdog thread: exceeding the deadline is
itself a verdict (``hang``), recorded with the stage that wedged.

Oracle verdicts (:class:`Verdict.status`):

* ``ok``         — all stages clean.
* ``rejected``   — a stage refused the input with a typed
                   :class:`~repro.errors.GraphTidesError` (the correct
                   response to malformed input; not a finding).
* ``crash``      — an *untyped* exception escaped a stage.
* ``hang``       — the deadline elapsed.
* ``divergence`` — the format round trip changed the event list.
* ``loss``       — the resilient replay delivered fewer lines than the
                   straight replay.
* ``cliff``      — input-queue overflow or backlog blowup beyond the
                   calibrated baseline.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import codec
from repro.core.connectors import CallbackTransport
from repro.core.events import Event, PauseEvent, SpeedEvent, pause, speed
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.replayer import LiveReplayer
from repro.core.resilience import ChaosConfig, RetryPolicy, build_transport_chain
from repro.core.stream import GraphStream
from repro.errors import GraphTidesError
from repro.fuzz.workload import Workload

__all__ = [
    "Verdict",
    "Baseline",
    "EvaluatorConfig",
    "FINDING_STATUSES",
    "evaluate",
    "calibrate",
]

#: Verdict statuses that count as findings (everything else is clean).
FINDING_STATUSES = ("crash", "hang", "divergence", "loss", "cliff")


@dataclass(frozen=True, slots=True)
class Verdict:
    """The oracle outcome for one candidate."""

    status: str
    stage: str
    detail: str = ""
    kind: str = ""

    @property
    def is_finding(self) -> bool:
        return self.status in FINDING_STATUSES

    @property
    def signature(self) -> str:
        """Dedup/minimization identity: hangs keep only their stage
        (the wedged operation can shift under shrinking); every other
        status keys on the failure kind too."""
        if self.status == "hang":
            return f"hang:{self.stage}"
        return f"{self.status}:{self.stage}:{self.kind}"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "stage": self.stage,
            "detail": self.detail,
            "kind": self.kind,
            "signature": self.signature,
        }


@dataclass(frozen=True, slots=True)
class Baseline:
    """Calibrated clean-workload reference for the cliff oracles."""

    peak_backlog: float = 0.0


@dataclass(frozen=True, slots=True)
class EvaluatorConfig:
    """Knobs of one evaluation run (all recorded into corpus metadata)."""

    seed: int = 42
    deadline: float = 20.0
    harness_rate: float = 2000.0
    harness_log_interval: float = 0.02
    platform_service_time: float = 20e-6
    platform_queue_capacity: int = 32
    platform_speed_floor: float = 0.05
    platform_pause_cap: float = 0.25
    replay_rate: float = 20000.0
    replay_pause_budget: float = 5.0
    max_replay_events: int = 20000
    cliff_backlog_factor: float = 8.0
    cliff_backlog_floor: float = 50.0
    send_failure_probability: float = 0.02
    reset_probability: float = 0.01
    partial_batch_probability: float = 0.0
    retry_attempts: int = 6
    retry_base_delay: float = 0.001
    max_resumes: int = 2

    def as_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluatorConfig":
        import dataclasses

        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass
class _Progress:
    """Shared cell the watchdog reads while the pipeline thread runs."""

    stage: str = "parse"
    verdict: Verdict | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def enter(self, stage: str) -> None:
        with self.lock:
            self.stage = stage

    def current(self) -> str:
        with self.lock:
            return self.stage


def _first_difference(
    original: list[Event], reparsed: list[Event]
) -> str:
    if len(original) != len(reparsed):
        return (
            f"event count changed: {len(original)} -> {len(reparsed)}"
        )
    for index, (a, b) in enumerate(zip(original, reparsed)):
        if a != b:
            return f"event {index} changed: {a!r} -> {b!r}"
    return "streams differ"


def _stage_parse(path: Path) -> list[Event]:
    return codec.parse_stream_file(path)


def _stage_roundtrip(
    events: list[Event], workload: Workload, tmp: Path
) -> Verdict | None:
    """Convert to the other format and back; events must survive."""
    other = "csv" if workload.fmt == "binary" else "binary"
    first = tmp / f"rt-first{'.gtb' if other == 'binary' else '.csv'}"
    second = tmp / f"rt-second{workload.suffix}"
    codec.write_stream_file(first, events, format=other)
    reparsed_other = codec.parse_stream_file(first)
    codec.write_stream_file(second, reparsed_other, format=workload.fmt)
    reparsed = codec.parse_stream_file(second)
    if reparsed != events:
        return Verdict(
            "divergence",
            "roundtrip",
            _first_difference(events, reparsed),
            kind=f"{workload.fmt}-{other}-{workload.fmt}",
        )
    return None


def _platform_metrics(
    events: list[Event], config: EvaluatorConfig
) -> tuple[float, int, bool]:
    """(peak sampled backlog, rejected attempts, drained) of a
    simulated-time harness run — all virtual-clock quantities, so the
    numbers are exact functions of the event list and the config."""
    from repro.algorithms.pagerank import OnlinePageRank
    from repro.platforms.inmem import InMemoryPlatform

    # Bound the *simulated* duration: a SPEED,1e-9 or PAUSE,3600 would
    # make the virtual clock crawl through millions of backlog samples
    # (a wall-clock hang in a stage that must stay cheap).  Flooring the
    # factor and capping pauses leaves the cliff metrics intact — a
    # 0.25s simulated pause already fully drains the bounded queue.
    bounded: list[Event] = []
    for event in events:
        if isinstance(event, SpeedEvent) and event.factor < config.platform_speed_floor:
            bounded.append(speed(config.platform_speed_floor))
        elif isinstance(event, PauseEvent) and event.seconds > config.platform_pause_cap:
            bounded.append(pause(config.platform_pause_cap))
        else:
            bounded.append(event)

    platform = InMemoryPlatform(
        service_time=config.platform_service_time,
        queue_capacity=config.platform_queue_capacity,
    )
    platform.add_online(OnlinePageRank(work_per_event=8))
    result = TestHarness(
        platform,
        GraphStream(bounded),
        HarnessConfig(
            rate=config.harness_rate,
            level=1,
            log_interval=config.harness_log_interval,
        ),
    ).run()
    try:
        peak = max(result.log.series("backlog").values)
    except GraphTidesError:
        peak = 0.0
    return float(peak), result.rejected_attempts, result.drained


def _stage_platform(
    events: list[Event], config: EvaluatorConfig, baseline: Baseline
) -> Verdict | None:
    """Simulated-time harness run; backlog blowup vs the baseline.

    Two cliff signals: the bounded input queue overflowing (exact,
    burst-proof — a rejection means arrivals outran service by a whole
    queue) and the sampled backlog series exceeding the calibrated
    baseline by ``cliff_backlog_factor``.
    """
    peak, rejected, drained = _platform_metrics(events, config)
    if rejected > 0:
        return Verdict(
            "cliff",
            "platform",
            f"input queue overflowed: {rejected} rejection(s) at "
            f"capacity {config.platform_queue_capacity} "
            f"(drained={drained})",
            kind="queue-overflow",
        )
    threshold = max(
        config.cliff_backlog_floor,
        config.cliff_backlog_factor * (baseline.peak_backlog + 1.0),
    )
    if peak >= threshold:
        return Verdict(
            "cliff",
            "platform",
            f"backlog peaked at {peak:.0f} "
            f"(baseline {baseline.peak_backlog:.0f}, "
            f"threshold {threshold:.0f}, drained={drained})",
            kind="backlog-blowup",
        )
    return None


def _stage_replay(
    events: list[Event], workload: Workload, config: EvaluatorConfig
) -> Verdict | None:
    """Straight replay vs chaos+retry+resume replay, by delivered count."""
    if len(events) > config.max_replay_events:
        return None

    # Predict the wall-clock cost before spending it: the replayer
    # blocks on PAUSE and paces at 1/(rate*factor) by design, so the
    # stream's replay duration is a pure function of its controls.  A
    # stream that must block past the budget is a guaranteed wedge —
    # report the hang without waiting for the watchdog (same signature,
    # so minimization probes reproduce it instantly).
    duration = 0.0
    pause_total = 0.0
    factor = 1.0
    for event in events:
        if isinstance(event, SpeedEvent):
            factor = event.factor
        elif isinstance(event, PauseEvent):
            pause_total += event.seconds
        else:
            duration += 1.0 / (config.replay_rate * max(factor, 1e-12))
    if duration + pause_total > config.replay_pause_budget:
        return Verdict(
            "hang",
            "replay",
            f"replay must block for {duration + pause_total:.1f}s "
            f"({pause_total:.1f}s of PAUSE), over the "
            f"{config.replay_pause_budget:g}s budget",
            kind="pause-budget",
        )
    # Under budget, pauses only slow the runs down without affecting
    # the delivered-count comparison — strip them from both replays.
    events = [e for e in events if not isinstance(e, PauseEvent)]

    straight = [0]
    LiveReplayer(
        events,
        CallbackTransport(lambda line: straight.__setitem__(0, straight[0] + 1)),
        rate=config.replay_rate,
        batch_size=1,
    ).run()

    resilient = [0]
    # Per-candidate sub-seed: stable across runs and processes, distinct
    # per workload content.
    chaos_seed = (config.seed * 0x9E3779B1 + workload.digest) & 0x7FFFFFFF

    def build_transport():
        return build_transport_chain(
            CallbackTransport(
                lambda line: resilient.__setitem__(0, resilient[0] + 1)
            ),
            chaos_config=ChaosConfig(
                send_failure_probability=config.send_failure_probability,
                reset_probability=config.reset_probability,
                partial_batch_probability=config.partial_batch_probability,
                seed=chaos_seed,
            ),
            retry_policy=RetryPolicy(
                max_attempts=config.retry_attempts,
                base_delay=config.retry_base_delay,
                seed=chaos_seed,
            ),
        )

    LiveReplayer(
        events,
        build_transport(),
        rate=config.replay_rate,
        batch_size=1,
        max_resumes=config.max_resumes,
        transport_factory=build_transport,
    ).run()

    if resilient[0] < straight[0]:
        return Verdict(
            "loss",
            "replay",
            f"straight replay delivered {straight[0]} line(s), "
            f"resilient replay only {resilient[0]}",
            kind="resume-undercount",
        )
    return None


def _run_pipeline(
    workload: Workload,
    config: EvaluatorConfig,
    baseline: Baseline,
    progress: _Progress,
    tmp: Path,
) -> Verdict:
    path = tmp / f"workload{workload.suffix}"
    path.write_bytes(workload.data)

    progress.enter("parse")
    events = _stage_parse(path)

    progress.enter("roundtrip")
    verdict = _stage_roundtrip(events, workload, tmp)
    if verdict is not None:
        return verdict

    progress.enter("platform")
    verdict = _stage_platform(events, config, baseline)
    if verdict is not None:
        return verdict

    progress.enter("replay")
    verdict = _stage_replay(events, workload, config)
    if verdict is not None:
        return verdict

    return Verdict("ok", "replay", f"{len(events)} event(s) clean")


def evaluate(
    workload: Workload,
    config: EvaluatorConfig | None = None,
    baseline: Baseline | None = None,
) -> Verdict:
    """Run one candidate through the pipeline behind the watchdog."""
    if config is None:
        config = EvaluatorConfig()
    if baseline is None:
        baseline = Baseline()
    progress = _Progress()
    holder: dict = {}

    with tempfile.TemporaryDirectory(prefix="graphtides-fuzz-") as tmpdir:
        tmp = Path(tmpdir)

        def body() -> None:
            try:
                holder["verdict"] = _run_pipeline(
                    workload, config, baseline, progress, tmp
                )
            except GraphTidesError as exc:
                holder["verdict"] = Verdict(
                    "rejected",
                    progress.current(),
                    str(exc),
                    kind=type(exc).__name__,
                )
            except BaseException as exc:  # the crash oracle
                holder["verdict"] = Verdict(
                    "crash",
                    progress.current(),
                    f"{type(exc).__name__}: {exc}",
                    kind=type(exc).__name__,
                )

        worker = threading.Thread(
            target=body, name="fuzz-evaluator", daemon=True
        )
        worker.start()
        worker.join(config.deadline)
        if worker.is_alive():
            # The worker is wedged (e.g. a pause bomb mid-replay); it is
            # a daemon, so it cannot outlive the process.  The temp dir
            # may be cleaned under it — acceptable on this path.
            return Verdict(
                "hang",
                progress.current(),
                f"deadline of {config.deadline:g}s exceeded "
                f"in stage {progress.current()!r}",
                kind="deadline",
            )
    verdict = holder.get("verdict")
    if verdict is None:  # pragma: no cover - defensive
        return Verdict("crash", progress.current(), "worker died silently")
    return verdict


def calibrate(
    base: Workload,
    config: EvaluatorConfig | None = None,
) -> Baseline:
    """Measure the clean base workload's peak backlog for cliff oracles."""
    if config is None:
        config = EvaluatorConfig()
    with tempfile.TemporaryDirectory(prefix="graphtides-fuzz-") as tmpdir:
        path = Path(tmpdir) / f"base{base.suffix}"
        path.write_bytes(base.data)
        events = codec.parse_stream_file(path)
    peak, __, __ = _platform_metrics(events, config)
    return Baseline(peak_backlog=peak)
