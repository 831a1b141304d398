"""Per-layer metrics of traced passes, measured from outside ``src/``.

During a traced pass, :meth:`LayerTracer.tracing` replaces public
callables of each layer — module functions and class methods the
replay path looks up at call time — with timing wrappers, and restores
them afterwards.  Wrappers stamp raw ``time.perf_counter``, accumulate
exact busy time and counts per layer, and keep a sampled span in
memory; the Chrome trace is written once, when the run ends.

Layers and the end-to-end metric each should move (workload):

* ``codec`` — reader-thread parse and emitter-side format:
  ``delivered_eps`` (csv-events-pipe), ``lag_p50_ms`` (paced-csv-tcp);
  zero-copy batch iteration: ``delivered_eps`` (gtb-decode-shm).
* ``binfmt`` — witness pre-verification and per-frame counts:
  ``delivered_eps`` (gtb-decode-shm).
* ``replayer`` — the emitting thread outside every layer (pacing sleep
  and spin, queue waits, loop): ``replayer_cpu_util`` and
  ``lag_p50_ms`` (paced-csv-tcp), ``delivered_eps`` (flat-out
  workloads).
* ``connectors`` — transport build and send verbs, receiver records:
  ``delivered_eps`` (csv-events-pipe), ``lag_p50_ms`` (paced-csv-tcp).
* ``shm`` — ring pushes, full-ring waits included: ``delivered_eps``
  (gtb-decode-shm).
* ``sim`` — platform ingest and the simulation kernel:
  ``delivered_eps`` (sim-weaver).
* ``runtime`` — garbage-collector pauses: ``lag_p50_ms``
  (paced-csv-tcp), ``delivered_eps`` (sim-weaver).
* ``gen`` and ``setup`` — generation and stream encoding: ``setup_s``.

Busy times are reported as shares of the emitting thread's pass wall
(``*_share``), so the emitter's shares sum to ``trace.closure_frac``,
which must lie within 5% of 1.  A layer a workload never calls reads 0.
Per-frame calls and platform ingest cost about as much as timing them,
so one call in ``HOT_STRIDE`` is timed and stands for the others; their
counts stay exact.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path

from repro.core import binfmt, codec, sharding, shm, witness
from repro.core.connectors import (
    PipeSpec,
    PipeTransport,
    ShmSpec,
    ShmTransport,
    TcpSpec,
    TcpTransport,
)
from repro.core.harness import TestHarness
from repro.core.tracing import Tracer, shared_clock, validate_chrome_trace
from repro.platforms.weaverlike import WeaverLikePlatform
from repro.sim.kernel import Simulation

#: Record a span for the first call of a layer in a pass and every
#: ``SPAN_STRIDE``-th call after it.
SPAN_STRIDE = 64
#: Time one call in this many on per-frame and per-event hot paths.
HOT_STRIDE = 8
#: Layers the emitting thread calls inside the replay call, none nested
#: in another (``sim.kernel`` counts without the ingest it holds).
EMITTER_LAYERS = (
    "codec.format",
    "codec.raw",
    "binfmt.preverify",
    "binfmt.count",
    "connectors.send",
    "sim.ingest",
    "sim.kernel",
)
CLOSURE_TOLERANCE = 0.05
OVERHEAD_LIMIT = 0.10


class _Layer:
    """Busy seconds, calls and items of one layer during one pass."""

    __slots__ = ("busy", "calls", "items")

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0
        self.items = 0


class _PassState:
    """Accumulators of one traced pass."""

    def __init__(self, tracer: Tracer, index: int):
        self.tracer = tracer
        self.index = index
        self.layers: dict[str, _Layer] = {}
        #: ``(start, events)`` per transport send call; the send layer's
        #: ``items`` count bytes.
        self.sends: list[tuple[float, int]] = []
        #: Start of the transport's close: its final flush.
        self.close_start = 0.0
        #: ``(start, duration)`` of timed ingest calls.
        self.ingests: list[tuple[float, float]] = []
        self.stream_end = 0.0
        self.callbacks = 0
        self.gc_pause = 0.0
        self.gc_collections = 0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def layer(self, name: str) -> _Layer:
        return self.layers.setdefault(name, _Layer())

    def span(self, name: str, start: float, end: float, **args) -> None:
        category, __, phase = name.partition(".")
        self.tracer.record_span(
            phase or category,
            category,
            start - self.tracer.clock.origin,
            end - start,
            event_id=self.index,
            **args,
        )

    def on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        self.gc_pause += now - self._gc_start
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1


def _timed(state: _PassState, name: str, original, items=None, stride: int = 1):
    """Wrap ``original`` so each call adds to layer ``name``.

    With ``stride`` > 1 every call is counted but only one in ``stride``
    is timed, and its time stands for the calls skipped: a per-frame
    call costs about as much as timing it.
    """
    layer = state.layer(name)
    perf_counter = time.perf_counter
    timed = 1 % stride

    def wrapper(*args):
        calls = layer.calls + 1
        layer.calls = calls
        if calls % stride != timed:
            return original(*args)
        start = perf_counter()
        result = original(*args)
        end = perf_counter()
        layer.busy += (end - start) * stride
        if items is not None:
            layer.items += items(result)
        if calls % SPAN_STRIDE == 1:
            state.span(name, start, end, call=calls)
        return result

    return wrapper


_END = object()


def _timed_iterator(state: _PassState, name: str, original, items, stride: int = 1):
    """Wrap a generator function so its ``next()`` calls add to ``name``
    (``stride`` as in :func:`_timed`; ``items`` is counted on every item)."""
    layer = state.layer(name)
    perf_counter = time.perf_counter
    timed = 1 % stride

    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        calls = 0
        while True:
            calls += 1
            if calls % stride != timed:
                item = next(iterator, _END)
            else:
                start = perf_counter()
                item = next(iterator, _END)
                end = perf_counter()
                layer.busy += (end - start) * stride
                if calls % SPAN_STRIDE == 1:
                    state.span(name, start, end, call=calls)
            if item is _END:
                layer.calls += calls - 1
                return
            layer.items += items(item)
            yield item

    return wrapper


def _frame_sender(state: _PassState, original):
    """Wrap ``send_raw``/``send_frame(data, count)``: busy time plus a
    ``(start, count)`` stamp per call."""
    layer = state.layer("connectors.send")
    stamp = state.sends.append
    perf_counter = time.perf_counter

    def wrapper(transport, data, count):
        start = perf_counter()
        original(transport, data, count)
        end = perf_counter()
        layer.busy += end - start
        layer.calls += 1
        layer.items += len(data)
        stamp((start, count))
        if layer.calls % SPAN_STRIDE == 1:
            state.span("connectors.send", start, end, call=layer.calls)

    return wrapper


def _line_sender(state: _PassState, original):
    """Wrap ``send_many(lines)`` like :func:`_frame_sender`."""
    layer = state.layer("connectors.send")
    stamp = state.sends.append
    perf_counter = time.perf_counter

    def wrapper(transport, lines):
        start = perf_counter()
        original(transport, lines)
        end = perf_counter()
        layer.busy += end - start
        layer.calls += 1
        layer.items += sum(map(len, lines)) + len(lines)
        stamp((start, len(lines)))
        if layer.calls % SPAN_STRIDE == 1:
            state.span("connectors.send", start, end, call=layer.calls)

    return wrapper


def _closer(state: _PassState, original):
    """Transport close flushes buffered sends: it is send-layer time."""
    layer = state.layer("connectors.send")

    def wrapper(transport):
        start = time.perf_counter()
        original(transport)
        end = time.perf_counter()
        layer.busy += end - start
        state.close_start = start
        state.span("connectors.close", start, end)

    return wrapper


def _ingester(state: _PassState, original):
    """Time one platform ingest call in ``HOT_STRIDE`` (the count of
    calls comes exactly from the run: accepted plus rejected offers)."""
    perf_counter = time.perf_counter
    timed = state.ingests.append
    calls = 0

    def wrapper(platform, event):
        nonlocal calls
        calls += 1
        if calls % HOT_STRIDE:
            return original(platform, event)
        start = perf_counter()
        accepted = original(platform, event)
        timed((start, perf_counter() - start))
        return accepted

    return wrapper


def _kernel(state: _PassState, original):
    layer = state.layer("sim.kernel")

    def wrapper(sim, *args, **kwargs):
        start = time.perf_counter()
        executed = original(sim, *args, **kwargs)
        end = time.perf_counter()
        layer.busy += end - start
        state.callbacks += executed
        state.span("sim.kernel", start, end)
        return executed

    return wrapper


def _stream_end(state: _PassState, original):
    def wrapper(platform):
        state.stream_end = time.perf_counter()
        return original(platform)

    return wrapper


def _patches(state: _PassState) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every traced public callable."""
    patches: list[tuple[object, str, object]] = [
        (sharding, "replay_shard", _timed(state, "replayer.run", sharding.replay_shard)),
        (codec, "format_lines", _timed(state, "codec.format", codec.format_lines, len)),
        (
            codec,
            "iter_parse_chunks",
            _timed_iterator(state, "codec.parse", codec.iter_parse_chunks, len),
        ),
        (
            codec,
            "iter_raw_batches",
            _timed_iterator(
                state,
                "codec.raw",
                codec.iter_raw_batches,
                lambda item: type(item) is codec.RawBatch,
                HOT_STRIDE,
            ),
        ),
        (witness, "preverify_shard", _timed(state, "binfmt.preverify", witness.preverify_shard)),
        (
            witness,
            "count_verified_frame",
            _timed(state, "binfmt.count", witness.count_verified_frame, None, HOT_STRIDE),
        ),
        (
            binfmt,
            "scan_frame",
            _timed(state, "binfmt.count", binfmt.scan_frame, None, HOT_STRIDE),
        ),
        (
            shm.RingProducer,
            "push_many",
            _timed(state, "shm.push", shm.RingProducer.push_many),
        ),
        (TestHarness, "run", _timed(state, "replayer.run", TestHarness.run)),
        (Simulation, "run", _kernel(state, Simulation.run)),
        (WeaverLikePlatform, "ingest", _ingester(state, WeaverLikePlatform.ingest)),
        (
            WeaverLikePlatform,
            "on_stream_end",
            _stream_end(state, WeaverLikePlatform.on_stream_end),
        ),
    ]
    for spec in (PipeSpec, TcpSpec, ShmSpec):
        patches.append(
            (spec, "build", _timed(state, "connectors.connect", spec.build))
        )
    for transport in (PipeTransport, TcpTransport, ShmTransport):
        patches.append(
            (transport, "send_many", _line_sender(state, transport.send_many))
        )
        for verb in ("send_raw", "send_frame"):
            patches.append(
                (transport, verb, _frame_sender(state, getattr(transport, verb)))
            )
        patches.append((transport, "close", _closer(state, transport.close)))
    return patches


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class LayerTracer:
    """Per-layer measurement of a run's traced passes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer(
            clock=shared_clock(), metadata={"workload": workload.name, "seed": seed}
        )
        self.passes: list[dict[str, float]] = []
        self._state: _PassState | None = None

    @contextmanager
    def tracing(self):
        """Install every wrapper for the duration of one pass."""
        state = _PassState(self.tracer, len(self.passes))
        patches = _patches(state)
        originals = [(owner, name, owner.__dict__[name]) for owner, name, __ in patches]
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        gc.callbacks.append(state.on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(state.on_gc)
            for owner, name, original in originals:
                setattr(owner, name, original)
        self._state = state

    def end_pass(self, result) -> None:
        """Turn the last traced pass's accumulators into layer metrics."""
        state = self._state
        layers = state.layers
        wall = result.returned_at - result.called_at
        state.span("benchmark.pass", result.called_at, result.returned_at)
        share = {name: layer.busy / wall for name, layer in layers.items()}
        if self.workload.simulated:
            ingest_calls = result.signature[0] + result.signature[1]
            # Ingest is timed on one call in HOT_STRIDE: scale it up,
            # and take it out of the kernel run that holds it.
            timed = sum(duration for __, duration in state.ingests)
            share["sim.ingest"] = timed * ingest_calls / len(state.ingests) / wall
            share["sim.kernel"] -= share["sim.ingest"]
            late = [(start - result.called_at) * 1e3 for start, __ in state.ingests]
            transit = [duration * 1e3 for __, duration in state.ingests]
            tail = result.returned_at - state.stream_end
            speedup = result.signature[2] / result.wall_s
            rejected = result.signature[1]
        else:
            ingest_calls = 0
            rate = self.workload.rate
            firsts = list(accumulate((events for __, events in state.sends), initial=0))
            late = [
                (start - (result.called_at + first / rate)) * 1e3
                for (start, __), first in zip(state.sends, firsts)
            ]
            transit = _transit_ms(state.sends, firsts, result)
            tail = result.arrivals[-1] - state.close_start
            speedup = 0.0
            rejected = 0
        # The run call holds every emitter layer: its remainder is the
        # replayer's own time (pacing, queue waits, loop).
        self_share = share["replayer.run"] - sum(
            share.get(name, 0.0) for name in EMITTER_LAYERS
        )

        def count(name: str, what: str = "calls") -> int:
            layer = layers.get(name)
            return getattr(layer, what) if layer is not None else 0

        self.passes.append({
            "replayer.run_s": layers["replayer.run"].busy,
            "replayer.self_share": self_share,
            "replayer.late_p50_ms": _median(late),
            "codec.parse_events": count("codec.parse", "items"),
            "codec.parse_share": share.get("codec.parse", 0.0),
            "codec.format_calls": count("codec.format"),
            "codec.format_share": share.get("codec.format", 0.0),
            "codec.raw_batches": count("codec.raw", "items"),
            "codec.raw_share": share.get("codec.raw", 0.0),
            "binfmt.preverify_share": share.get("binfmt.preverify", 0.0),
            "binfmt.count_calls": count("binfmt.count"),
            "binfmt.count_share": share.get("binfmt.count", 0.0),
            "connectors.connect_share": share.get("connectors.connect", 0.0),
            "connectors.send_calls": len(state.sends),
            "connectors.send_bytes": count("connectors.send", "items"),
            "connectors.send_share": share.get("connectors.send", 0.0),
            "connectors.recv_records": len(result.arrivals or ()),
            "connectors.transit_p50_ms": _median(transit),
            "connectors.drain_tail_ms": tail * 1e3,
            "shm.push_calls": count("shm.push"),
            "shm.push_share": share.get("shm.push", 0.0),
            "sim.callbacks": state.callbacks,
            "sim.ingest_calls": ingest_calls,
            "sim.ingest_share": share.get("sim.ingest", 0.0),
            "sim.kernel_share": share.get("sim.kernel", 0.0),
            "sim.rejected_attempts": rejected,
            "sim.speedup": speedup,
            "runtime.gc_share": state.gc_pause / wall,
            "runtime.gc_collections": state.gc_collections,
            "runtime.gc_gen2_collections": state.gc_gen2,
            "trace.closure_frac": share.get("connectors.connect", 0.0)
            + share["replayer.run"],
        })

    def summary(self, setups: list[dict], overhead: float, trace_out: Path | None):
        """Medians over traced passes.

        Returns ``(metrics, problems, warnings)``: an invalid Chrome
        trace is a problem; closure outside 1 +- 5% and tracing
        overhead above 10% are warnings, since they judge the trace,
        not the replayed stream.
        """
        metrics = {
            name: {
                "value": statistics.median(p[name] for p in self.passes),
                "n": len(self.passes),
            }
            for name in self.passes[0]
        }
        for name, key in (
            ("gen.events", "events"),
            ("gen.busy_s", "gen_s"),
            ("setup.write_busy_s", "write_s"),
        ):
            metrics[name] = {
                "value": statistics.median(s[key] for s in setups),
                "n": len(setups),
            }
        metrics["trace.overhead_frac"] = {"value": overhead, "n": len(self.passes)}

        warnings = []
        closure = metrics["trace.closure_frac"]["value"]
        if abs(closure - 1.0) > CLOSURE_TOLERANCE:
            warnings.append(
                f"layer times cover {closure:.3f} of the emitting thread's "
                f"pass wall, outside 1 +- {CLOSURE_TOLERANCE}"
            )
        if overhead > OVERHEAD_LIMIT:
            warnings.append(
                f"tracing overhead {overhead:.3f} exceeds {OVERHEAD_LIMIT}"
            )
        payload = self.tracer.chrome_trace()
        problems = [f"chrome trace: {p}" for p in validate_chrome_trace(payload)]
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            stem = f"{self.workload.name}-seed{self.seed}"
            (trace_out / f"{stem}.trace.json").write_text(
                json.dumps(payload) + "\n", encoding="utf-8"
            )
            (trace_out / f"{stem}.layers.json").write_text(
                json.dumps(metrics, indent=1) + "\n", encoding="utf-8"
            )
        return metrics, problems, warnings


def _transit_ms(sends, firsts, result) -> list[float]:
    """Receiver arrival minus the start of the send call that carried
    the first event of each receiver record."""
    transit = []
    before = 0
    for arrival, count in zip(result.arrivals, result.arrival_counts):
        call = bisect.bisect_right(firsts, before, hi=len(sends)) - 1
        transit.append((arrival - sends[call][0]) * 1e3)
        before += count
    return transit
