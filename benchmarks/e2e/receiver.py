"""The receiving side of every live pass, in one long-lived child process.

The benchmark process replays; this child receives, with the repo's own
:class:`~repro.core.connectors.PipeReceiver`,
:class:`~repro.core.connectors.TcpReceiver` and
:class:`~repro.core.connectors.ShmReceiver`.  Each receiver's counter is
swapped for a :class:`StampCounter`, which stamps every receiver record
with raw ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, one clock
for both processes — so the parent can compute delivery rate and
open-loop lag from the arrivals.

The child is forked once, before the parent touches shared memory or
starts a thread.  Forked later, it would share CPython's
``resource_tracker`` with the parent, and every ring unlink would print
``KeyError`` tracebacks from the tracker.

Protocol, one exchange per pass over a ``multiprocessing`` pipe::

    parent: ("pass", kind)      child: ("ready", TransportSpec)
    parent replays ...          child: result dict (after end of stream)
    parent: ("abort",)          (only when the replay failed early)
    parent: ("stop",)           child exits
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import resource_tracker
from pathlib import Path

from repro.core.connectors import (
    PipeReceiver,
    PipeSpec,
    ShmReceiver,
    TcpReceiver,
    TcpSpec,
    TransportSpec,
)
from repro.errors import ConnectorError

#: How long one pass may take before the receiver gives up on it.
PASS_TIMEOUT = 60.0
#: Where POSIX shared-memory segments appear on Linux.
SHM_DIR = Path("/dev/shm")


class StampCounter:
    """Stand-in for a receiver's ``WindowCounter``: stamps each record.

    Receivers call ``counter.record(count)`` once per arriving batch and
    read ``counter.total``; nothing else of the counter is used.  One
    receiver thread records per pass, so no lock is needed.
    """

    def __init__(self) -> None:
        self.total = 0
        self.stamps: list[float] = []
        self.counts: list[int] = []

    def record(self, count: int = 1) -> None:
        self.stamps.append(time.perf_counter())
        self.counts.append(count)
        self.total += count


def stop_resource_tracker() -> None:
    """Stop this process's ``resource_tracker`` child and wait for it.

    The first shared-memory segment a process opens starts a tracker
    process that otherwise only ends after its owner has exited, and
    nobody waits for it then.  Without this call each shm run would
    leave one tracker per process behind.
    """
    resource_tracker._resource_tracker._stop()


def _wait(conn, receiver) -> bool:
    """Join the receiver; returns False when the parent aborted the pass."""
    deadline = time.monotonic() + PASS_TIMEOUT
    while True:
        try:
            receiver.join(timeout=0.05)
            return True
        except ConnectorError:
            pass
        if conn.poll():
            conn.recv()
            return False
        if time.monotonic() > deadline:
            raise ConnectorError(f"no end of stream within {PASS_TIMEOUT:g}s")


def _receive(conn, kind: str, fifo: str) -> dict:
    counter = StampCounter()
    leftover = None
    completed = False
    if kind == "pipe":
        conn.send(("ready", PipeSpec(target=fifo)))
        # Blocks until the replayer opens the write end (or the parent
        # unblocks it after a failed replay); EOF ends the pass.
        receiver = PipeReceiver(os.open(fifo, os.O_RDONLY))
        receiver.counter = counter
        try:
            receiver.start()
            completed = _wait(conn, receiver)
        finally:
            receiver.close()
    elif kind == "tcp":
        receiver = TcpReceiver()
        receiver.counter = counter
        try:
            receiver.start()
            conn.send(("ready", TcpSpec(port=receiver.port)))
            completed = _wait(conn, receiver)
        finally:
            receiver.close()
    elif kind == "shm":
        receiver = ShmReceiver(max_producers=1)
        receiver.counter = counter
        try:
            receiver.start()
            conn.send(("ready", receiver.specs[0]))
            completed = _wait(conn, receiver)
        finally:
            receiver.close()
        leftover = (SHM_DIR / receiver.name.lstrip("/")).exists()
    else:
        raise ValueError(f"unknown transport kind {kind!r}")
    error = getattr(receiver, "error", None)
    return {
        "completed": completed,
        "total": counter.total,
        "stamps": counter.stamps,
        "counts": counter.counts,
        "error": None if error is None else f"{type(error).__name__}: {error}",
        "shm_left_behind": leftover,
    }


def _serve(conn, fifo: str) -> None:
    """Child main loop: one receive per ``("pass", kind)`` request."""
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent gone
            if message[0] == "stop":
                return
            if message[0] != "pass":
                continue  # a late abort for a pass that already ended
            try:
                result = _receive(conn, message[1], fifo)
            except Exception as exc:
                result = {"failure": f"{type(exc).__name__}: {exc}"}
            conn.send(("result", result))
    finally:
        conn.close()
        stop_resource_tracker()


class ReceiverProcess:
    """Parent-side handle on the receiver child.

    Create it before anything else in the benchmark process (see the
    module docstring); :meth:`close` stops and joins the child.
    """

    def __init__(self, fifo: str):
        context = multiprocessing.get_context("fork")
        self._fifo = fifo
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(child_conn, fifo), name="e2e-receiver"
        )
        try:
            self._process.start()
        finally:
            child_conn.close()
        self._kind: str | None = None

    def _recv(self, timeout: float):
        if not self._conn.poll(timeout):
            raise ConnectorError(f"receiver child silent for {timeout:g}s")
        return self._conn.recv()

    def begin(self, kind: str) -> TransportSpec:
        """Open a receiver of ``kind``; returns the spec to replay into."""
        self._conn.send(("pass", kind))
        tag, payload = self._recv(PASS_TIMEOUT)
        if tag == "result":
            raise ConnectorError(f"receiver failed to start: {payload}")
        self._kind = kind
        return payload

    def finish(self) -> dict:
        """Wait for the receiver to see end of stream; returns its counts."""
        self._kind = None
        tag, payload = self._recv(PASS_TIMEOUT + 5.0)
        if "failure" in payload:
            raise ConnectorError(f"receiver failed: {payload['failure']}")
        return payload

    def abort(self) -> None:
        """Release a receiver whose replay failed, then drop its result."""
        if self._kind is None:
            return
        if self._kind == "pipe":
            # A child still blocked opening the FIFO needs a writer to
            # come and go; ENXIO means no reader waits any more.
            try:
                os.close(os.open(self._fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
        self._conn.send(("abort",))
        try:
            self.finish()
        except ConnectorError:
            pass

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except OSError:
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()
