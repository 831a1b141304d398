"""Robustness experiment: rate-vs-achieved under injected runtime faults.

The Figure-3a question — "does the replayer hold its target rate?" —
asked again with the delivery path failing underneath it: every send
operation can fail, reset, or deliver only a partial batch (seeded
:class:`~repro.core.resilience.ChaosTransport`), while a
:class:`~repro.core.resilience.RetryingTransport` with a circuit
breaker keeps the replay alive.  Reported per target rate are the
achieved-rate *degradation band* (5th percentile / median / maximum,
like the paper's Figure 3a range plot) plus the fault counters that
explain the degradation, and a delivery audit: with retries and
checkpoint resume, no event may be lost (at-least-once), so
``received >= events`` must hold with the surplus accounted for by
``redeliveries``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.connectors import CallbackTransport
from repro.core.replayer import LiveReplayer
from repro.core.resilience import ChaosConfig, RetryPolicy, build_transport_chain
from repro.experiments.configs import RobustnessExperimentConfig
from repro.experiments.fig3a import _events_for_rate, build_social_stream

__all__ = [
    "CorpusReplayRow",
    "RobustnessRow",
    "replay_corpus",
    "run_robustness",
]


@dataclass(frozen=True, slots=True)
class RobustnessRow:
    """One data point: a target rate replayed through a faulty path."""

    target_rate: int
    events: int
    received: int
    median_rate: float
    p5_rate: float
    max_rate: float
    duration: float
    chaos_faults: int
    retries: int
    redeliveries: int
    breaker_openings: int
    resumes: int

    @property
    def achieved_fraction(self) -> float:
        """Median achieved rate relative to the target."""
        return self.median_rate / self.target_rate if self.target_rate else 0.0

    @property
    def events_lost(self) -> int:
        """Events never delivered at all (must be 0 for a sound run)."""
        return max(0, self.events - self.received)


def _measure(
    config: RobustnessExperimentConfig, target_rate: int, events: list
) -> RobustnessRow:
    received = [0]

    def count(line: str) -> None:
        received[0] += 1

    # Per-rate sub-seed so every rate level draws an independent but
    # reproducible fault sequence.
    transport = build_transport_chain(
        CallbackTransport(count),
        chaos_config=ChaosConfig(
            send_failure_probability=config.send_failure_probability,
            reset_probability=config.reset_probability,
            partial_batch_probability=config.partial_batch_probability,
            seed=config.seed * 1000 + target_rate,
        ),
        retry_policy=RetryPolicy(
            max_attempts=config.retry_attempts,
            base_delay=config.retry_base_delay,
            seed=config.seed,
        ),
        breaker_threshold=config.breaker_threshold,
        breaker_recovery=config.breaker_recovery_time,
    )
    replayer = LiveReplayer(
        events,
        transport,
        rate=target_rate,
        batch_size=config.batch_size,
        max_resumes=config.max_resumes,
    )
    report = replayer.run()
    window_rates = list(report.window_rates) or [report.mean_rate]
    return RobustnessRow(
        target_rate=target_rate,
        events=len(events),
        received=received[0],
        median_rate=report.median_rate,
        p5_rate=report.p5_rate,
        max_rate=max(window_rates),
        duration=report.duration,
        chaos_faults=report.chaos_faults,
        retries=report.retries,
        redeliveries=report.redeliveries,
        breaker_openings=report.breaker_openings,
        resumes=report.resumes,
    )


def run_robustness(
    config: RobustnessExperimentConfig | None = None,
) -> list[RobustnessRow]:
    """One row per target rate, replayed through the chaos pipeline."""
    if config is None:
        config = RobustnessExperimentConfig()
    stream = build_social_stream_for(config)
    rows: list[RobustnessRow] = []
    for target_rate in config.target_rates:
        events = _events_for_rate(stream, config.events_for_rate(target_rate))
        rows.append(_measure(config, target_rate, events))
    return rows


@dataclass(frozen=True, slots=True)
class CorpusReplayRow:
    """One fuzz-corpus entry re-evaluated under its recorded config."""

    name: str
    found_as: str
    expected_signature: str
    actual_signature: str

    @property
    def matches(self) -> bool:
        """True when the fresh verdict reproduces the recorded one."""
        return self.expected_signature == self.actual_signature


def replay_corpus(corpus_dir) -> list[CorpusReplayRow]:
    """Replay every fuzz regression-corpus entry under ``corpus_dir``.

    Each entry's workload runs through the full evaluator pipeline with
    the evaluator knobs and baseline recorded in its ``meta.json``; the
    row compares the recorded verdict signature against the fresh one.
    This is the robustness experiment's regression gate: a mismatch
    means a previously-characterized adversarial workload now behaves
    differently.
    """
    from repro.fuzz import load_corpus, replay_entry

    rows: list[CorpusReplayRow] = []
    for entry in load_corpus(corpus_dir):
        verdict, __ = replay_entry(entry)
        rows.append(
            CorpusReplayRow(
                name=entry.name,
                found_as=entry.found_as,
                expected_signature=entry.verdict_signature,
                actual_signature=verdict.signature,
            )
        )
    return rows


def build_social_stream_for(config: RobustnessExperimentConfig):
    """The fig3a social workload at this experiment's scale."""
    from repro.experiments.configs import ReplayerExperimentConfig

    return build_social_stream(
        ReplayerExperimentConfig(
            stream_rounds=config.stream_rounds, seed=config.seed
        )
    )
