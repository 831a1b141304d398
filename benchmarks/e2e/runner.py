"""The run protocol of one workload, in the current (fresh) process.

1. Fork the receiver child first, before anything touches shared memory
   or starts a thread (see :mod:`benchmarks.e2e.receiver`).
2. Set up ``SETUP_REPEATS`` times, each in its own child process, so
   generator memory stays out of ``peak_rss_mb``; ``setup_s`` is the
   median.  Every set-up of one seed must produce byte-identical inputs.
3. One warm-up pass, checked and discarded.
4. Measured passes back to back until ``seconds`` have passed.  Gated
   values are medians over passes.  A traced run alternates untraced
   and traced passes, so the tracing overhead is measured under the
   same host conditions.

The host is shared: its speed drifts by up to a factor of two over
seconds to minutes, in phases far longer than a pass.  A probe loop
that runs no repository code (:func:`host_speed`) is timed right
before and after every pass and every set-up.  Pass rates and lags are
corrected to ``REFERENCE_SPEED`` by the probe's reading raised to the
workload's ``host_exponent`` (0 for the paced workload, which its
schedule binds), set-up time, which is interpreter-bound, by the plain
reading.  Raw medians stay in the result document.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

from benchmarks.e2e import ROOT, layers, oracle
from benchmarks.e2e.receiver import ReceiverProcess, stop_resource_tracker
from benchmarks.e2e.workloads import (
    WORKLOADS,
    PassResult,
    Workload,
    build_inputs,
    live_pass,
    load_stream,
    sim_pass,
)

SETUP_REPEATS = 3
SETUP_TIMEOUT = 120.0
#: Probe speed (operations per second) corrected values refer to; about
#: what the probe reads on a 2-vCPU cloud VM at full speed.
REFERENCE_SPEED = 6.0e6
#: Scratch space for stream files and the FIFO, inside the checkout.
WORK_ROOT = ROOT / ".bench_e2e"


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of ``values``."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, __, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def host_speed(repeats: int = 3, size: int = 2000) -> float:
    """Operations per second of a fixed pure-Python loop, best of ``repeats``.

    About a millisecond.  The loop uses no repository code, so a change
    to the system cannot move it: it only tracks how fast the shared
    host runs right now.
    """
    best = 0.0
    for __ in range(repeats):
        started = time.perf_counter()
        table: dict[str, int] = {}
        for i in range(size):
            key = str(i & 255)
            table[key] = table.get(key, 0) + i
        best = max(best, size / (time.perf_counter() - started))
    return best


def weighted_quantile(pairs: list[tuple[float, int]], q: float) -> float:
    """The value below which a share ``q`` of the weight lies."""
    pairs = sorted(pairs)
    total = sum(weight for __, weight in pairs)
    reached = 0
    for value, weight in pairs:
        reached += weight
        if reached >= q * total:
            return value
    return pairs[-1][0]


def _setup_child(conn, workload: Workload, seed: int, directory: Path) -> None:
    try:
        conn.send(("ok", build_inputs(workload, seed, directory)))
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def set_up(workload: Workload, seed: int, directory: Path) -> tuple[dict, float]:
    """Build the inputs in a child process; returns them and the wall time."""
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    started = time.perf_counter()
    process = context.Process(
        target=_setup_child, args=(writer, workload, seed, directory)
    )
    try:
        process.start()
        writer.close()
        if not reader.poll(SETUP_TIMEOUT):
            raise RuntimeError(f"set-up gave no result in {SETUP_TIMEOUT:g}s")
        tag, payload = reader.recv()
        process.join(timeout=SETUP_TIMEOUT)
    finally:
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        writer.close()
        reader.close()
    if tag != "ok":
        raise RuntimeError(f"set-up failed: {payload}")
    return payload, time.perf_counter() - started


class _Run:
    """State of one workload run: inputs, receiver, pass bookkeeping."""

    def __init__(self, workload: Workload, receiver: ReceiverProcess | None):
        self.workload = workload
        self.receiver = receiver
        self.inputs: dict = {}
        self.stream = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.reference: tuple | None = None

    def one_pass(self) -> PassResult | None:
        """Run and check one pass; None when it failed."""
        self.attempted += 1
        speed = host_speed()
        try:
            if self.workload.simulated:
                result = sim_pass(
                    self.workload, self.stream, self.inputs["graph_events"]
                )
                if self.reference is None:
                    self.reference = result.signature
                result.problems += oracle.check_repeat(
                    self.reference, result.signature
                )
            else:
                result = live_pass(self.workload, self.inputs, self.receiver)
        except Exception as exc:
            problems = [f"pass raised {type(exc).__name__}: {exc}"]
            result = None
        else:
            problems = result.problems
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"pass {self.attempted}: {p}" for p in problems)
            return None
        result.host_speed = (speed + host_speed()) / 2
        return result


def _scale(workload: Workload, speed: float) -> float:
    """How much faster than the reference host a pass ran."""
    return (speed / REFERENCE_SPEED) ** workload.host_exponent


def _corrected_eps(workload: Workload, passes: list[PassResult]) -> list[float]:
    return [p.delivered_eps / _scale(workload, p.host_speed) for p in passes]


def _end_to_end(
    run: _Run, passes: list[PassResult], setup: list[tuple[float, float]]
) -> tuple[dict, dict]:
    """Gated metrics (medians over passes) and informational extras.

    ``setup`` holds ``(seconds, host speed)`` per set-up.
    """
    lags = [weighted_quantile(p.lags, 0.5) for p in passes]
    metrics = {
        "delivered_eps": summarize(_corrected_eps(run.workload, passes)),
        "lag_p50_ms": summarize(
            [lag * _scale(run.workload, p.host_speed) for lag, p in zip(lags, passes)]
        ),
        "replayer_cpu_util": summarize([p.cpu_util for p in passes]),
        "setup_s": summarize(
            [seconds * speed / REFERENCE_SPEED for seconds, speed in setup]
        ),
        "peak_rss_mb": summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ),
    }
    pooled = [pair for p in passes for pair in p.lags]
    extras = {
        "lag_p99_ms": {
            "value": weighted_quantile(pooled, 0.99),
            "unit": "ms",
            "samples": len(pooled),
        },
        "error_rate": {"value": run.failed / run.attempted, "unit": "fraction"},
        "host_speed": {
            "value": statistics.median(p.host_speed for p in passes),
            "unit": "ops/s",
        },
        "raw_delivered_eps": {
            "value": statistics.median(p.delivered_eps for p in passes),
            "unit": "events/s",
        },
        "raw_lag_p50_ms": {"value": statistics.median(lags), "unit": "ms"},
        "raw_setup_s": {
            "value": statistics.median(seconds for seconds, __ in setup),
            "unit": "s",
        },
    }
    if run.workload.paced:
        extras["pace_ratio"] = {
            "value": metrics["delivered_eps"]["value"] / run.workload.rate,
            "unit": "ratio",
        }
    return metrics, extras


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_out: Path | None = None,
) -> dict:
    """Run one workload to completion; returns the result document."""
    workload = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    directory = WORK_ROOT / f"{name}-{os.getpid()}"
    directory.mkdir()
    receiver = None
    try:
        if workload.transport == "pipe":
            os.mkfifo(directory / "replay.fifo")
        if not workload.simulated:
            receiver = ReceiverProcess(str(directory / "replay.fifo"))
        run = _Run(workload, receiver)

        setup_seconds = []
        setups = []
        for __ in range(SETUP_REPEATS):
            speed = host_speed()
            run.inputs, elapsed = set_up(workload, seed, directory)
            if workload.simulated:
                run.stream = None  # never hold two loaded streams at once
                loaded = time.perf_counter()
                run.stream = load_stream(run.inputs)
                elapsed += time.perf_counter() - loaded
            setup_seconds.append((elapsed, (speed + host_speed()) / 2))
            setups.append(run.inputs)
        digests = {inputs["digest"] for inputs in setups}
        if len(digests) != 1:
            run.problems.append("set-ups of one seed built different inputs")

        run.one_pass()  # warm-up, checked and discarded
        tracer = layers.LayerTracer(workload, seed) if trace else None
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        deadline = time.perf_counter() + seconds
        turns = 2 if tracer is not None else 1
        measured = 0
        while measured < turns or time.perf_counter() < deadline:
            if measured % turns:
                with tracer.tracing():
                    result = run.one_pass()
                if result is not None:
                    tracer.end_pass(result)
                    traced.append(result)
            else:
                result = run.one_pass()
                if result is not None:
                    plain.append(result)
            measured += 1

        document = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "correct": run.failed == 0 and len(digests) == 1,
            "attempted": run.attempted,
            "failed": run.failed,
            "passes": {
                "setups": SETUP_REPEATS,
                "warmup": 1,
                "measured": len(plain),
                "traced": len(traced),
            },
            "inputs": {
                key: run.inputs[key] for key in ("events", "graph_events", "digest")
            },
            "metrics": {},
            "extras": {},
            "problems": run.problems,
        }
        if not plain:
            document["correct"] = False
            return document
        document["metrics"], document["extras"] = _end_to_end(
            run, plain, setup_seconds
        )
        if tracer is not None and not traced:
            document["correct"] = False
        elif tracer is not None:
            overhead = 1.0 - statistics.median(
                _corrected_eps(workload, traced)
            ) / statistics.median(_corrected_eps(workload, plain))
            document["per_layer"], trace_problems, warnings = tracer.summary(
                setups, overhead, trace_out
            )
            document["problems"] += trace_problems
            document["warnings"] = warnings
            document["correct"] = document["correct"] and not trace_problems
        return document
    finally:
        if receiver is not None:
            receiver.close()
        stop_resource_tracker()
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
