"""The paced loop's sleep margin, calibrated from its own overshoot.

:func:`next_pacing_margin` is fed overshoot samples directly (it never
reads the clock), so its tracking, its outlier recovery and its bounds
are checked on fixed data.  The last case replays a paced file and
reads the process's CPU: a loop that sleeps through its waits uses a
fraction of a core where one that spins holds a whole one.
"""

from __future__ import annotations

import os
import random
import resource
import time

from repro.core import codec
from repro.core.connectors import PipeSpec
from repro.core.events import add_vertex
from repro.core.replayer import (
    _MARGIN_CEILING,
    _MARGIN_FLOOR,
    _MARGIN_START,
    next_pacing_margin,
)
from repro.core.sharding import ShardedReplayer


def _steady_overshoots(count: int, seed: int = 7) -> list[float]:
    """Sleep overshoots around 80 us with a 10 us spread."""
    rng = random.Random(seed)
    return [max(0.0, rng.gauss(80e-6, 10e-6)) for _ in range(count)]


def _feed(margin: float, samples) -> list[float]:
    margins = []
    for overshoot in samples:
        margin = next_pacing_margin(margin, overshoot)
        margins.append(margin)
    return margins


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TestNextPacingMargin:
    def test_settles_at_the_p95_and_recovers_from_an_outlier(self):
        samples = _steady_overshoots(2000)
        p95 = sorted(samples)[int(0.95 * len(samples))]
        margins = _feed(_MARGIN_START, samples[:1000])
        settled = margins[200:]
        assert all(0.75 * p95 <= margin <= 1.4 * p95 for margin in settled)
        assert 0.9 * p95 <= sorted(settled)[len(settled) // 2] <= 1.1 * p95

        before = margins[-1]
        after_outlier = next_pacing_margin(before, 3e-3)
        # One 3 ms sleep moves the margin by one step, not to 3 ms ...
        assert before < after_outlier <= 1.25 * before
        # ... and the next few dozen on-time sleeps bring it back to
        # the steady p95.
        recovery = _feed(after_outlier, samples[1000:1060])
        assert min(recovery) <= 1.05 * p95
        assert all(margin <= after_outlier * 1.25 for margin in recovery)

    def test_stays_within_floor_and_ceiling(self):
        assert _MARGIN_FLOOR <= _MARGIN_START <= _MARGIN_CEILING
        assert _MARGIN_CEILING == 1e-3
        rng = random.Random(3)
        wild = [10 ** rng.uniform(-7, -1) for _ in range(5000)]
        margins = _feed(_MARGIN_START, wild)
        margins += _feed(_MARGIN_START, [0.0] * 500)
        margins += _feed(_MARGIN_START, [0.5] * 500)
        assert all(_MARGIN_FLOOR <= margin <= _MARGIN_CEILING for margin in margins)
        assert margins[-501] == _MARGIN_FLOOR  # on-time sleeps forever
        assert margins[-1] == _MARGIN_CEILING  # late sleeps forever


def test_paced_replay_sleeps_through_its_waits(tmp_path):
    """20k events at 50k events/s in batches of 32: a batch is due every
    0.64 ms, well above the margin, so the loop sleeps most of each wait
    (a loop spinning its waits reads ~1.0 cores here)."""
    path = tmp_path / "stream.csv"
    codec.write_stream_file(path, [add_vertex(i) for i in range(20_000)])
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    report = ShardedReplayer(
        str(path),
        PipeSpec(target=os.devnull),
        rate=50_000.0,
        workers=1,
        batch_size=32,
    ).run()
    cores = (_cpu_seconds() - cpu_before) / (time.perf_counter() - started)
    assert report.events_emitted == 20_000
    assert _MARGIN_FLOOR <= report.pacing_margin_s <= _MARGIN_CEILING
    assert cores <= 0.6, (cores, report.pacing_margin_s)
