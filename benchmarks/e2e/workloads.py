"""The four workloads: what each feeds the system and how one pass runs.

A *pass* is one operation: one complete replay of the workload's stream
into the receiver child, or one complete simulated run.  Inputs are
built from the seed alone (:func:`build_inputs`), in a child process of
the benchmark; the system receives only the generated stream file.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core import binfmt, codec, witness
from repro.core.events import GraphEvent
from repro.core.generator import GeneratorRules, StreamGenerator
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.models import SocialNetworkRules, UniformRules, WeaverTable3Rules
from repro.core.sharding import ShardedReplayer
from repro.core.stream import GraphStream
from repro.platforms.weaverlike import WeaverLikePlatform

from benchmarks.e2e import oracle

#: A target rate no replay reaches: the replayer emits flat out.
FLAT_OUT = 1e8
#: Token-bucket burst of every live replay (events per transport send).
BATCH_SIZE = 256


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``transport`` is ``"pipe"``, ``"tcp"`` or ``"shm"`` for a live
    replay into the receiver child, or ``None`` for a simulated run of
    :class:`~repro.platforms.weaverlike.WeaverLikePlatform` under
    :class:`~repro.core.harness.TestHarness`.  ``rate`` is the open-loop
    target in events per second (live) or the harness's offered rate in
    simulated events per second.

    ``host_exponent`` is how a pass's rate follows the host-speed probe
    (rate ~ probe ** exponent), fitted on per-pass data from a shared
    2-vCPU VM: 1 for CSV parsing, less where numpy, memory copies or the
    simulation's heap and object churn slow down less than the probe
    loop, 0 for a pass bound by its schedule.
    """

    name: str
    rules: Callable[[], GeneratorRules]
    rounds: int
    stream_format: str
    transport: str | None
    rate: float
    host_exponent: float
    emission: str = "events"

    @property
    def simulated(self) -> bool:
        return self.transport is None

    @property
    def paced(self) -> bool:
        return not self.simulated and self.rate < FLAT_OUT


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "csv-events-pipe",
            SocialNetworkRules,
            rounds=25_000,
            stream_format="csv",
            transport="pipe",
            rate=FLAT_OUT,
            host_exponent=1.0,
        ),
        Workload(
            "gtb-decode-shm",
            UniformRules,
            rounds=250_000,
            stream_format="binary",
            transport="shm",
            rate=FLAT_OUT,
            host_exponent=0.6,
            emission="decode",
        ),
        Workload(
            "paced-csv-tcp",
            SocialNetworkRules,
            rounds=25_000,
            stream_format="csv",
            transport="tcp",
            rate=175_000.0,
            host_exponent=0.0,
        ),
        Workload(
            "sim-weaver",
            functools.partial(WeaverTable3Rules, n=2000, m0=50, m=10),
            rounds=30_000,
            stream_format="csv",
            transport=None,
            rate=20_000.0,
            host_exponent=0.7,
        ),
    )
}


# -- set-up -------------------------------------------------------------------


def build_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate and encode the workload's stream; returns its description.

    Runs in a set-up child process.  The returned ``graph_events`` is
    the stream's own graph-event count: every pass is checked against
    it, never against another pass or transport.
    """
    started = time.perf_counter()
    generator = StreamGenerator(
        workload.rules(), workload.rounds, seed=seed, phase_pause_seconds=0.0
    )
    events = list(generator.iter_events())
    generated = time.perf_counter()
    if workload.stream_format == "binary":
        path = directory / "stream.gtb"
        sidecar = witness.witness_path(path)
        binfmt.write_binary_stream(path, events, witness_path=sidecar)
        files = [path, sidecar]
    else:
        path = directory / "stream.csv"
        codec.write_stream_file(path, events)
        files = [path]
    written = time.perf_counter()
    digest = hashlib.sha256()
    for file in files:
        digest.update(file.read_bytes())
    return {
        "path": str(path),
        "events": len(events),
        "graph_events": sum(1 for event in events if type(event) is GraphEvent),
        "gen_s": generated - started,
        "write_s": written - generated,
        "digest": digest.hexdigest(),
    }


def load_stream(inputs: dict) -> GraphStream:
    """The in-memory stream a simulated pass replays (part of set-up)."""
    return GraphStream.read(inputs["path"])


# -- passes -------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass measured, plus the oracle's verdict on it."""

    wall_s: float
    cpu_s: float
    events: int
    #: ``(lag in ms, events)`` per receiver record.
    lags: list[tuple[float, int]]
    problems: list[str]
    #: Simulated passes: the run's deterministic signature.
    signature: tuple | None = None
    #: When the pass was called and returned, and (live passes) the
    #: receiver's records, kept for the analysis of traced passes.
    called_at: float = 0.0
    returned_at: float = 0.0
    arrivals: list[float] | None = None
    arrival_counts: list[int] | None = None
    #: Host-speed probe reading around the pass (set by the runner).
    host_speed: float = 0.0

    @property
    def delivered_eps(self) -> float:
        return self.events / self.wall_s

    @property
    def cpu_util(self) -> float:
        return self.cpu_s / self.wall_s


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def live_pass(workload: Workload, inputs: dict, receiver) -> PassResult:
    """Replay the stream file once into a fresh receiver in the child.

    ``wall_s`` runs from the replay call to the last arrival at the
    receiver, so delivered events per second is what the receiver saw.
    Lag is open-loop: each receiver record's arrival minus the due time
    ``call + k / rate`` of its first event ``k``, held by every event of
    the record.  The schedule starts at the replay call, so set-up the
    replay does before emitting (transport connect, witness check)
    delays every event.
    """
    spec = receiver.begin(workload.transport)
    cpu_before = _cpu_seconds()
    called_at = time.perf_counter()
    try:
        ShardedReplayer(
            inputs["path"],
            spec,
            rate=workload.rate,
            workers=1,
            emission=workload.emission,
            stream_format=workload.stream_format,
            batch_size=BATCH_SIZE,
        ).run()
    except BaseException:
        receiver.abort()
        raise
    returned_at = time.perf_counter()
    cpu_s = _cpu_seconds() - cpu_before
    reply = receiver.finish()
    problems = oracle.check_live(inputs["graph_events"], reply)
    stamps, counts = reply["stamps"], reply["counts"]
    lags = []
    before = 0
    for stamp, count in zip(stamps, counts):
        lags.append(((stamp - (called_at + before / workload.rate)) * 1e3, count))
        before += count
    last = stamps[-1] if stamps else returned_at
    return PassResult(
        wall_s=last - called_at,
        cpu_s=cpu_s,
        events=reply["total"],
        lags=lags,
        problems=problems,
        called_at=called_at,
        returned_at=returned_at,
        arrivals=stamps,
        arrival_counts=counts,
    )


def sim_pass(workload: Workload, stream: GraphStream, graph_events: int) -> PassResult:
    """One simulated run of the Weaver model over the in-memory stream.

    A simulation's results exist only once the run returns, so every
    event counts as delivered then: lag is the run's wall time.
    """
    harness = TestHarness(
        WeaverLikePlatform(batch_size=10),
        stream,
        HarnessConfig(rate=workload.rate, level=0),
    )
    cpu_before = _cpu_seconds()
    called_at = time.perf_counter()
    result = harness.run()
    wall_s = time.perf_counter() - called_at
    cpu_s = _cpu_seconds() - cpu_before
    return PassResult(
        wall_s=wall_s,
        cpu_s=cpu_s,
        events=result.events_processed,
        lags=[(wall_s * 1e3, result.events_processed)],
        problems=oracle.check_sim(graph_events, result),
        signature=oracle.sim_signature(result),
        called_at=called_at,
        returned_at=called_at + wall_s,
    )
