"""Transports and connectors binding the replayer to a system under test
(paper sections 3.3 and 4.1).

A :class:`Transport` takes batches through three verbs, one per payload
shape: :meth:`~Transport.send_many` (a list of CSV lines),
:meth:`~Transport.send_raw` (stored CSV line bytes, the sharded
zero-copy path) and :meth:`~Transport.send_frame` (one GTB1 binary
frame).  Live replays attach through:

* :class:`CallbackTransport` — in-process delivery of each line to a
  Python callable (the "platform-specific connector plugged into the
  replayer");
* :class:`PipeTransport` — the batch onto a file descriptor / file
  object (the paper's STDOUT→STDIN piping);
* :class:`TcpTransport` — the same bytes over a TCP socket, where the
  kernel's flow control provides backpressure (section 3.2);
* :class:`ShmTransport` — batches through a
  :class:`~repro.core.shm.ShmRing` shared-memory ring (one producer,
  one consumer, same machine): the zero-syscall local path, where
  backpressure is the ring filling up.

Decoding bytes into lines is the adapter at the edge: the base class's
:meth:`~Transport.send_raw` and :meth:`~Transport.send_frame` decode
into :meth:`~Transport.send_many` for line targets (callbacks, text
files), while the byte-stream transports write the bytes verbatim.
The wrappers in :mod:`repro.core.resilience` and
:mod:`repro.core.tracing` are :class:`WrappingTransport`\\ s: each verb
goes through one delivery hook to the same verb of the inner transport,
so one batch keeps its shape down the whole chain.
The verbs stay separate methods on each byte-stream class because
``benchmarks/e2e`` times a run by patching ``send_many``, ``send_raw``,
``send_frame`` and ``close`` on each of those classes by name.

Matching receivers (:class:`PipeReceiver`, :class:`TcpReceiver`,
:class:`ShmReceiver`) count arriving events per time window; they
implement the measurement side of the replayer benchmark (Figure 3a).
A pipe or TCP receiver counts a CSV wire as its bytes arrive: each read
takes what the fd holds, and the lines read are recorded at most once
per millisecond (``_RECORD_QUANTUM``), so a window's count follows the
batches sent into it rather than the fill of a 64 KiB read.  A binary
frame wire is counted per frame, an shm ring per drained round.
Transports that hold sends back for one write (the shm ring's slots,
the pipe and TCP ``flush_every`` lines) deliver them on
:meth:`Transport.flush`, which the paced replayer calls before it
sleeps.
"""

from __future__ import annotations

import io
import os
import select
import socket
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConnectorError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tracing import TraceClock, Tracer

__all__ = [
    "Transport",
    "WrappingTransport",
    "CallbackTransport",
    "PipeTransport",
    "TcpTransport",
    "ShmTransport",
    "TransportSpec",
    "PipeSpec",
    "TcpSpec",
    "ShmSpec",
    "WindowCounter",
    "PipeReceiver",
    "TcpReceiver",
    "ShmReceiver",
    "SOCKET_BUFFER_BYTES",
]

#: Default SO_SNDBUF/SO_RCVBUF request for the TCP transport pair:
#: room for ~180 batch_size=256 binary frames (or ~45k CSV lines), so
#: a whole pacing window of batches is in flight before the kernel
#: applies backpressure.  The kernel clamps to its rmem/wmem limits.
SOCKET_BUFFER_BYTES = 1 << 20

#: Slots :class:`ShmTransport` buffers before one ring write.
_SHM_FLUSH_SLOTS = 64

#: Seconds between two records of a CSV wire receiver: lines arriving
#: within one quantum of the last record are recorded together.
_RECORD_QUANTUM = 0.001


class Transport:
    """Interface: deliver batches of serialized events to a system under test.

    Three batch verbs, one per payload shape: :meth:`send_many` (CSV
    lines), :meth:`send_raw` (stored CSV line bytes) and
    :meth:`send_frame` (one GTB1 frame).  :meth:`send_many` is the one
    a transport must implement; the byte verbs default to decoding into
    it, the line adapter for callbacks and text targets.  Every verb
    delivers the whole batch or raises :class:`ConnectorError`.
    """

    def send_many(self, lines: Iterable[str]) -> None:
        """Deliver a batch of CSV lines (without newlines), in order."""
        raise NotImplementedError  # pragma: no cover - interface

    def send_raw(self, data: "bytes | memoryview", count: int) -> None:
        """Deliver ``count`` pre-serialized, newline-terminated lines.

        The sharded replayer's zero-copy path: ``data`` holds the exact
        wire bytes of whole lines (a :class:`~repro.core.codec.RawBatch`
        slice).  The default decodes and delegates to :meth:`send_many`
        for line targets; byte-stream transports write it verbatim.
        """
        text = bytes(data).decode("utf-8")
        lines = text.split("\n")
        if lines and not lines[-1]:
            lines.pop()
        self.send_many(lines)

    def send_frame(self, frame: "bytes | memoryview", count: int) -> None:
        """Deliver one binary frame of ``count`` records (header included).

        The binary-wire sibling of :meth:`send_raw`: ``frame`` holds the
        exact bytes of one :mod:`repro.core.binfmt` frame.  Byte-stream
        transports put it on the wire verbatim (prefixing the stream
        magic on the first frame of a connection, so the peer can
        autodetect the format); the default decodes the frame into CSV
        lines for :meth:`send_many`.
        """
        from repro.core import binfmt, codec

        self.send_many(codec.format_lines(binfmt.decode_frame_events(frame)))

    def flush(self) -> None:
        """Deliver what the transport holds back now.

        The paced replayer calls it before it sleeps, so a batch never
        waits out a pacing sleep in a write buffer.  The default holds
        nothing back.
        """

    def close(self) -> None:
        """Release resources; further sends raise :class:`ConnectorError`."""


class WrappingTransport(Transport):
    """A transport that delivers through another one, :attr:`inner`.

    Every verb calls the one :meth:`_deliver` hook with the inner
    transport's same verb, so a subclass handles all three payload
    shapes in one place; :meth:`flush` and :meth:`close` are forwarded.
    """

    def __init__(self, inner: Transport):
        self.inner = inner

    def send_many(self, lines: Iterable[str]) -> None:
        if not isinstance(lines, list):
            lines = list(lines)
        if lines:
            self._deliver(self._send_lines, lines, len(lines))

    def _send_lines(self, lines: list[str], count: int) -> None:
        self.inner.send_many(lines)

    def send_raw(self, data: "bytes | memoryview", count: int) -> None:
        self._deliver(self.inner.send_raw, data, count)

    def send_frame(self, frame: "bytes | memoryview", count: int) -> None:
        self._deliver(self.inner.send_frame, frame, count)

    def _deliver(self, send: Callable, payload, count: int) -> None:
        """Deliver one batch through ``send(payload, count)``, the inner
        verb: ``payload`` is a list of lines, or the bytes of a raw run
        or a frame, holding ``count`` records."""
        raise NotImplementedError  # pragma: no cover - interface

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()


class CallbackTransport(Transport):
    """Delivers each line to an in-process callable."""

    def __init__(self, callback: Callable[[str], None]):
        self._callback = callback
        self._closed = False

    def send_many(self, lines: Iterable[str]) -> None:
        if self._closed:
            raise ConnectorError("transport is closed")
        callback = self._callback
        for line in lines:
            callback(line)

    def close(self) -> None:
        self._closed = True


class PipeTransport(Transport):
    """Writes newline-terminated lines to a file object or fd.

    Writes are buffered and flushed every ``flush_every`` lines to keep
    per-event overhead low at high rates (the replayer's write path
    must not become the bottleneck being measured).
    """

    def __init__(self, target, flush_every: int = 512, owns: bool | None = None):
        if flush_every <= 0:
            raise ValueError(f"flush_every must be positive, got {flush_every}")
        if isinstance(target, int):
            self._file = os.fdopen(target, "w", encoding="utf-8", buffering=1 << 16)
            self._owns = True if owns is None else owns
        else:
            self._file = target
            self._owns = False if owns is None else owns
        self._flush_every = flush_every
        self._since_flush = 0
        self._closed = False
        self._magic_sent = False

    def send_many(self, lines: Iterable[str]) -> None:
        if self._closed:
            raise ConnectorError("transport is closed")
        if not isinstance(lines, list):
            lines = list(lines)
        if not lines:
            return
        try:
            # One buffered write for the whole batch.
            self._file.write("\n".join(lines) + "\n")
        except (OSError, ValueError) as exc:
            raise ConnectorError(f"pipe write failed: {exc}") from exc
        self._since_flush += len(lines)
        if self._since_flush >= self._flush_every:
            self._file.flush()
            self._since_flush = 0

    def send_raw(self, data: "bytes | memoryview", count: int) -> None:
        """Write pre-serialized line bytes verbatim (zero-copy path).

        Bytes go to the text file's underlying binary buffer; targets
        without one (e.g. ``StringIO``) fall back to the decoding
        default.  A missing final newline is appended so the stream
        stays line-delimited.
        """
        if self._closed:
            raise ConnectorError("transport is closed")
        buffer = getattr(self._file, "buffer", None)
        if buffer is None:
            super().send_raw(data, count)
            return
        try:
            # Order any buffered text writes before the raw bytes.
            self._file.flush()
            buffer.write(data)
            if len(data) and data[-1] != 0x0A:
                buffer.write(b"\n")
        except (OSError, ValueError) as exc:
            raise ConnectorError(f"pipe write failed: {exc}") from exc
        self._since_flush += count
        if self._since_flush >= self._flush_every:
            buffer.flush()
            self._since_flush = 0

    def send_frame(self, frame: "bytes | memoryview", count: int) -> None:
        """Write one binary frame verbatim (no newline framing).

        The first frame of the connection is preceded by the binary
        stream magic so the peer (receiver or file reader) autodetects
        the format.  Targets without a binary buffer (e.g. ``StringIO``)
        fall back to the decoding default.
        """
        if self._closed:
            raise ConnectorError("transport is closed")
        buffer = getattr(self._file, "buffer", None)
        if buffer is None:
            super().send_frame(frame, count)
            return
        try:
            # Order any buffered text writes before the raw bytes.
            self._file.flush()
            if not self._magic_sent:
                from repro.core.binfmt import MAGIC

                buffer.write(MAGIC)
                self._magic_sent = True
            buffer.write(frame)
        except (OSError, ValueError) as exc:
            raise ConnectorError(f"pipe write failed: {exc}") from exc
        self._since_flush += count
        if self._since_flush >= self._flush_every:
            buffer.flush()
            self._since_flush = 0

    def flush(self) -> None:
        if self._closed or not self._since_flush:
            return
        try:
            self._file.flush()
        except (OSError, ValueError) as exc:
            raise ConnectorError(f"pipe write failed: {exc}") from exc
        self._since_flush = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.flush()
        except (OSError, ValueError):
            pass
        if self._owns:
            # close() flushes again internally; a broken pipe there must
            # still release the fd (close always does, even on error).
            try:
                self._file.close()
            except OSError:
                pass


class TcpTransport(Transport):
    """Sends newline-terminated lines over a TCP connection.

    The socket's send buffer plus TCP flow control provide natural
    backpressure: when the receiver cannot keep up, a send blocks.
    """

    def __init__(
        self,
        host: str,
        port: int,
        flush_every: int = 512,
        send_buffer: int | None = SOCKET_BUFFER_BYTES,
    ):
        if flush_every <= 0:
            raise ValueError(f"flush_every must be positive, got {flush_every}")
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise ConnectorError(f"cannot connect to {host}:{port}: {exc}") from exc
        try:
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if send_buffer:
                # Size SO_SNDBUF to whole batch windows: with the
                # default 16-page buffer a 6KB frame burst blocks after
                # ~10 batches, serializing sender and receiver on a
                # single-CPU machine; a deep buffer lets each side run
                # long slices (see EXPERIMENTS.md, transport matrix).
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, send_buffer
                )
            self._file = sock.makefile("w", encoding="utf-8", buffering=1 << 16)
        except OSError as exc:
            # The connection succeeded but configuring it did not: the
            # fd is ours until handed to self, so release it here.
            sock.close()
            raise ConnectorError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._socket = sock
        self._flush_every = flush_every
        self._since_flush = 0
        self._closed = False
        self._magic_sent = False

    def send_many(self, lines: Iterable[str]) -> None:
        if self._closed:
            raise ConnectorError("transport is closed")
        if not isinstance(lines, list):
            lines = list(lines)
        if not lines:
            return
        try:
            # One buffered write for the whole batch; the file object
            # hands large batches to sendall in a single syscall.
            self._file.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConnectorError(f"tcp write failed: {exc}") from exc
        self._since_flush += len(lines)
        if self._since_flush >= self._flush_every:
            self._file.flush()
            self._since_flush = 0

    def send_raw(self, data: "bytes | memoryview", count: int) -> None:
        """Send pre-serialized line bytes straight through the socket.

        The zero-copy path: after flushing any buffered text writes the
        batch goes to ``sendall`` verbatim (one syscall for the whole
        run).  A missing final newline is appended so the stream stays
        line-delimited.
        """
        if self._closed:
            raise ConnectorError("transport is closed")
        try:
            self._file.flush()
            self._socket.sendall(data)
            if len(data) and data[-1] != 0x0A:
                self._socket.sendall(b"\n")
        except OSError as exc:
            raise ConnectorError(f"tcp write failed: {exc}") from exc

    def send_frame(self, frame: "bytes | memoryview", count: int) -> None:
        """Send one binary frame verbatim through the socket.

        The first frame of the connection is preceded by the binary
        stream magic so a frame-aware receiver autodetects the format
        and counts records from frame headers instead of newlines.
        """
        if self._closed:
            raise ConnectorError("transport is closed")
        try:
            self._file.flush()
            if not self._magic_sent:
                from repro.core.binfmt import MAGIC

                self._socket.sendall(MAGIC)
                self._magic_sent = True
            self._socket.sendall(frame)
        except OSError as exc:
            raise ConnectorError(f"tcp write failed: {exc}") from exc

    def flush(self) -> None:
        if self._closed or not self._since_flush:
            return
        try:
            self._file.flush()
        except OSError as exc:
            raise ConnectorError(f"tcp write failed: {exc}") from exc
        self._since_flush = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Flush and close in separate try blocks: a failing flush (peer
        # gone) must not leave the file object — and its fd — open.
        try:
            self._file.flush()
        except OSError:
            pass
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass


class ShmTransport(Transport):
    """Sends batches through a shared-memory ring (producer side).

    The zero-syscall local transport: each batch is one length-prefixed
    slot copied straight into the ring's arena — no write syscall, no
    kernel buffer, no second copy on the consumer side (the receiver
    reads the payload in place).  ``send_raw``/``send_frame`` accept
    :class:`memoryview` slices of the stream file's mmap, so the only
    copy on the whole path is the single mmap→arena ``memcpy``.

    Sends are buffered: slots accumulate locally and are written to the
    ring ``_SHM_FLUSH_SLOTS`` at a time through
    :meth:`~repro.core.shm.RingProducer.push_many`, which amortizes the
    space check and head publication over the whole run — the same
    batching discipline as :class:`PipeTransport`'s ``flush_every``,
    and what keeps the per-slot cost below the pipe's.  :meth:`close`
    flushes.

    Backpressure is the ring filling up: a flush blocks in a bounded
    spin-then-sleep until the consumer frees space, and raises
    :class:`ConnectorError` if the consumer closed or ``stall_timeout``
    elapses — the same contract as a TCP send blocking on a full
    socket buffer.  Exactly one producer per ring (SPSC); the sharded
    replayer uses one ring per worker.

    On :meth:`close` the producer pushes a best-effort EOF slot (so a
    draining receiver finishes promptly), marks the producer side
    closed, and drops its mapping.  The ring segment itself is owned —
    created and unlinked — by the :class:`ShmReceiver`; a transport
    never unlinks, so a crashing worker cannot strand or double-free
    the segment.
    """

    def __init__(self, name: str, stall_timeout: float = 30.0):
        from repro.core import shm

        self._ring = shm.ShmRing.attach(name)
        self._producer = shm.RingProducer(
            self._ring, stall_timeout=stall_timeout
        )
        self._pending: list[tuple] = []
        self._pending_kind = shm.SLOT_RAW
        self._closed = False

    def _append(self, payload, count: int, kind: int) -> None:
        if self._closed:
            raise ConnectorError("transport is closed")
        if self._pending and self._pending_kind != kind:
            self.flush()
        self._pending_kind = kind
        self._pending.append((payload, count))
        if len(self._pending) >= _SHM_FLUSH_SLOTS:
            self.flush()

    def flush(self) -> None:
        """Write buffered slots to the ring (blocking on backpressure)."""
        if self._pending:
            items = self._pending
            self._pending = []
            self._producer.push_many(items, self._pending_kind)

    def send_many(self, lines: Iterable[str]) -> None:
        if not isinstance(lines, list):
            lines = list(lines)
        if not lines:
            if self._closed:
                raise ConnectorError("transport is closed")
            return
        from repro.core.shm import SLOT_RAW

        payload = ("\n".join(lines) + "\n").encode("utf-8")
        self._append(payload, len(lines), SLOT_RAW)

    def send_raw(self, data: "bytes | memoryview", count: int) -> None:
        from repro.core.shm import SLOT_RAW

        if len(data) and data[-1] != 0x0A:
            # A final line at EOF: append the terminator, as the pipe
            # and TCP verbs do, so the ring stays line-delimited.
            data = bytes(data) + b"\n"
        self._append(data, count, SLOT_RAW)

    def send_frame(self, frame: "bytes | memoryview", count: int) -> None:
        from repro.core.shm import SLOT_FRAME

        self._append(frame, count, SLOT_FRAME)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self.flush()
            finally:
                # Flag even if the flush failed: a draining receiver
                # must see the producer is done once the ring empties,
                # EOF slot or not (ring wedged full, consumer gone).
                self._ring.set_producer_closed()
            self._producer.push_eof()
        except (ConnectorError, ValueError):
            # Consumer gone or mapping already invalid: nothing left to
            # signal — the receiver's producer_closed/stop paths cover
            # this side's disappearance.
            pass
        finally:
            self._ring.close()


class TransportSpec:
    """Picklable description of a transport, built inside a worker.

    Live transports hold sockets and file objects that cannot cross a
    process boundary; the sharded replayer instead ships a *spec* to
    each worker, which calls :meth:`build` after the fork/spawn to open
    its own connection.  Specs are frozen dataclasses so they pickle
    under both start methods.
    """

    def build(self) -> Transport:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PipeSpec(TransportSpec):
    """Spec for a :class:`PipeTransport`.

    ``target`` may be a path (opened for write in the worker, so give
    each shard its own file), ``"-"`` for the worker's stdout, or an
    inherited file descriptor (valid only under the ``fork`` start
    method).
    """

    target: str | int = "-"
    append: bool = False
    flush_every: int = 512

    def build(self) -> PipeTransport:
        if isinstance(self.target, int):
            return PipeTransport(self.target, flush_every=self.flush_every)
        if self.target == "-":
            return PipeTransport(sys.stdout, flush_every=self.flush_every)
        handle = open(
            Path(self.target),
            "a" if self.append else "w",
            encoding="utf-8",
            buffering=1 << 16,
        )
        try:
            return PipeTransport(handle, flush_every=self.flush_every, owns=True)
        except BaseException:
            # e.g. flush_every validation: the transport never took
            # ownership, so the fd is still ours to release.
            handle.close()
            raise


@dataclass(frozen=True, slots=True)
class TcpSpec(TransportSpec):
    """Spec for a :class:`TcpTransport` connection to ``host:port``."""

    host: str = "127.0.0.1"
    port: int = 0
    flush_every: int = 512
    send_buffer: int | None = SOCKET_BUFFER_BYTES

    def build(self) -> TcpTransport:
        return TcpTransport(
            self.host,
            self.port,
            flush_every=self.flush_every,
            send_buffer=self.send_buffer,
        )


@dataclass(frozen=True, slots=True)
class ShmSpec(TransportSpec):
    """Spec for a :class:`ShmTransport` producer attaching to ``name``.

    The ring is created by the receiving side (a
    :class:`ShmReceiver`, which owns the segment's unlink); the spec
    only carries the segment name across the process boundary.  One
    ring admits exactly one producer — the sharded replayer passes one
    spec per worker.
    """

    name: str = ""
    stall_timeout: float = 30.0

    def build(self) -> "ShmTransport":
        if not self.name:
            raise ConnectorError("ShmSpec needs a ring segment name")
        return ShmTransport(self.name, stall_timeout=self.stall_timeout)


class WindowCounter:
    """Counts arriving events per fixed time window (receiver side).

    Window boundaries are stamped on the run's unified
    :class:`~repro.core.tracing.TraceClock` (the process-wide shared
    clock by default), so receiver-side series share an epoch with the
    replayer's and the live probes' series.
    """

    def __init__(
        self, window_seconds: float = 1.0, clock: "TraceClock | None" = None
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if clock is None:
            from repro.core.tracing import shared_clock

            clock = shared_clock()
        self.window_seconds = window_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: list[tuple[float, int]] = []  # guarded-by: self._lock
        self._current_start: float | None = None  # guarded-by: self._lock
        self._current_count = 0  # guarded-by: self._lock
        self.total = 0  # guarded-by: self._lock

    def record(self, count: int = 1) -> None:
        now = self._clock.now()
        with self._lock:
            self.total += count
            if self._current_start is None:
                self._current_start = now
            while now - self._current_start >= self.window_seconds:
                self._windows.append((self._current_start, self._current_count))
                self._current_start += self.window_seconds
                self._current_count = 0
            self._current_count += count

    def rates(self) -> list[float]:
        """Per-window observed rates (events/second), completed windows."""
        with self._lock:
            return [
                count / self.window_seconds for __, count in self._windows
            ]


# hot-path
def _count_stream(file, record: Callable[[int], None]) -> None:
    """Count events arriving on a stream, autodetecting the format.

    A stream leading with the :mod:`repro.core.binfmt` magic is a
    binary frame wire: ``record(count)`` is called once per frame, with
    the count from its header.  Anything else is the newline-delimited
    CSV wire, counted by newlines (a final line without a trailing
    newline counts at EOF).

    CSV lines are counted as they arrive: each read is one raw read
    (``read1``) of whatever the pipe or socket holds, up to 64 KiB,
    never a wait for a full buffer.  Lines read are recorded at once
    when the last record is at least :data:`_RECORD_QUANTUM` old;
    otherwise they wait on the fd for the rest of the quantum, joined
    by whatever arrives meanwhile, so a flood is recorded once per
    quantum.  The wait is a ``poll`` (``select.select`` breaks on fds
    of 1024 and above), which rounds it up to a whole millisecond: a
    wait that runs out ends up to a millisecond late, so the lines
    after it are recorded at once.  Without that, a stream arriving
    just over a quantum apart would be deferred a millisecond at every
    record.  A source without a pollable fd records every read; a text
    file object has no ``read1`` and keeps its 64 KiB reads, where
    universal newlines normalise ``\\r\\n`` before counting.
    """
    from repro.core import binfmt

    first = file.read(len(binfmt.MAGIC))
    if isinstance(first, bytes) and first == binfmt.MAGIC:
        for count in binfmt.iter_wire_frame_counts(file):
            record(count)
        return
    newline = "\n" if isinstance(first, str) else b"\n"
    read = getattr(file, "read1", file.read)
    poller = None
    try:
        fd = file.fileno()
    except (AttributeError, OSError, ValueError):
        fd = -1  # io.UnsupportedOperation is both OSError and ValueError
    if fd >= 0:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
    clock = time.monotonic
    pending = first.count(newline)
    last = first
    recorded_at = 0.0
    # Whether the last record ended a wait that ran out (or none yet).
    quiet = True
    while True:
        chunk = read(1 << 16)
        if not chunk:
            break
        pending += chunk.count(newline)
        last = chunk
        if not pending:
            continue
        now = clock()
        if quiet or now - recorded_at >= _RECORD_QUANTUM or poller is None:
            quiet = False
        elif poller.poll((recorded_at + _RECORD_QUANTUM - now) * 1000.0):
            continue  # more bytes: read them into this record
        else:
            quiet = True
            now = clock()
        record(pending)
        pending = 0
        recorded_at = now
    if last and not last.endswith(newline):
        pending += 1
    if pending:
        record(pending)


class _Receiver:
    """Ingest recording shared by the receivers.

    Each arriving batch counts into ``counter`` (looked up per batch, so
    a caller may swap in its own counter after construction).  With a
    :class:`~repro.core.tracing.Tracer` it also records the *ingest*
    side of the pipeline: an exact ``ingested`` count plus sampled
    ``ingested`` instants, whose event ids are drawn in arrival order
    from one counter shared by every connection or ring.
    """

    def __init__(
        self,
        window_seconds: float,
        clock: "TraceClock | None",
        tracer: "Tracer | None",
    ):
        self.counter = WindowCounter(window_seconds, clock=clock)
        self._tracer = tracer
        self._id_lock = threading.Lock()
        self._next_id = 0  # guarded-by: self._id_lock

    def _record_batch(self, count: int) -> None:
        with self._id_lock:
            first_id = self._next_id
            self._next_id += count
        self.counter.record(count)
        tracer = self._tracer
        if tracer is not None:
            tracer.count("ingested", count)
            if tracer.sample_batch(first_id, count):
                tracer.instant(
                    "ingested", "receiver", event_id=first_id, count=count
                )


class PipeReceiver(_Receiver):
    """Reads lines from a readable file object / fd on a thread.

    Counts events into a :class:`WindowCounter`; reading stops at EOF.
    Usable as a context manager: ``with PipeReceiver(fd) as receiver:``
    starts the reader thread and guarantees join-and-close on exit,
    even when the body raises.  Pipe delivery is ordered, so traced
    ingest ids match the replayer's emit ids.
    """

    def __init__(
        self,
        source,
        window_seconds: float = 1.0,
        clock: "TraceClock | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if isinstance(source, int):
            # Binary mode: the wire may carry binary frames, and CSV
            # line counting needs no decoding.
            self._file = os.fdopen(source, "rb", buffering=1 << 16)
            self._owns = True
        else:
            self._file = source
            self._owns = False
        super().__init__(window_seconds, clock, tracer)
        self._closed = False
        self._thread = threading.Thread(target=self._read_loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _read_loop(self) -> None:
        try:
            _count_stream(self._file, self._record_batch)
        except ValueError:
            # File closed under the reader by close(): stop counting.
            pass

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ConnectorError("pipe receiver did not finish in time")

    def close(self) -> None:
        """Close the file the receiver owns (constructed from a raw fd).

        Safe to call repeatedly; files passed in as objects stay open
        (their owner closes them).  While the reader thread is still
        blocked in a read this is a no-op — closing a buffered file
        under an active reader deadlocks on its internal lock; the
        writer closing its end (EOF) is what unblocks the reader.
        """
        if self._closed or self._thread.is_alive():
            return
        self._closed = True
        if self._owns:
            try:
                self._file.close()
            except OSError:
                pass

    def __enter__(self) -> "PipeReceiver":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            # Join even a finished reader: the join orders its counts
            # before the caller's reads.
            self._thread.join(timeout=10.0)
        finally:
            self.close()


class TcpReceiver(_Receiver):
    """Accepts TCP connections and counts received lines.

    Binds an ephemeral local port (``port`` attribute) so benchmarks
    need no fixed port assignments.  The accept loop polls with a
    timeout and honours :meth:`close`, so a receiver whose client never
    connects can always be shut down instead of blocking forever.
    Usable as a context manager like :class:`PipeReceiver`.

    With ``max_connections > 1`` (the sharded replayer's fan-in) the
    receiver keeps accepting until that many clients have connected or
    :meth:`close` is called; each connection is read on its own thread
    and all connections count into the one shared
    :class:`WindowCounter`.
    """

    #: Poll period of the accept loop; bounds close() latency.
    accept_poll_seconds = 0.2

    def __init__(
        self,
        window_seconds: float = 1.0,
        host: str = "127.0.0.1",
        clock: "TraceClock | None" = None,
        tracer: "Tracer | None" = None,
        max_connections: int = 1,
    ):
        if max_connections <= 0:
            raise ValueError(
                f"max_connections must be positive, got {max_connections}"
            )
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            # Accepted sockets inherit the listener's receive buffer:
            # sized to hold a whole burst of batch frames so a sender
            # saturating the loopback never stalls on a 64KB default
            # window (the mirror of TcpTransport's SO_SNDBUF).
            if SOCKET_BUFFER_BYTES:
                try:
                    server.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_RCVBUF,
                        SOCKET_BUFFER_BYTES,
                    )
                except OSError:  # pragma: no cover - exotic platforms
                    pass
            server.bind((host, 0))
            server.listen(max_connections)
            server.settimeout(self.accept_poll_seconds)
            self.port = server.getsockname()[1]
        except BaseException:
            # bind/listen can fail (port exhaustion, bad host); nothing
            # owns the socket yet, so close it before re-raising.
            server.close()
            raise
        self._server = server
        self.host = host
        super().__init__(window_seconds, clock, tracer)
        self._max_connections = max_connections
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _accept(self) -> socket.socket | None:
        """Accept with a timeout, re-checking the stop flag between
        polls; returns None when stopped before any client arrived."""
        while not self._stop.is_set():
            try:
                connection, __ = self._server.accept()
                return connection
            except socket.timeout:
                continue
            except OSError:
                # Server socket closed under us by close().
                return None
        # Stopped: drain a connection already completed in the listen
        # backlog — its client connected (and may have sent everything
        # and closed) before we got to accept it; dropping it here
        # would silently lose counted events.
        try:
            self._server.settimeout(0)
            connection, __ = self._server.accept()
            return connection
        except OSError:  # includes BlockingIOError: backlog empty
            return None

    def _serve(self) -> None:
        readers: list[threading.Thread] = []
        accepted = 0
        while accepted < self._max_connections:
            connection = self._accept()
            if connection is None:
                break
            accepted += 1
            thread = threading.Thread(
                target=self._read_connection, args=(connection,), daemon=True
            )
            thread.start()
            readers.append(thread)
        try:
            self._server.close()
        except OSError:
            pass
        for thread in readers:
            thread.join()

    def _read_connection(self, connection: socket.socket) -> None:
        with connection:
            with connection.makefile("rb", buffering=1 << 16) as reader:
                _count_stream(reader, self._record_batch)

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ConnectorError("tcp receiver did not finish in time")

    def close(self) -> None:
        """Stop accepting, join the serve thread, close the server socket.

        Safe whether or not a client ever connected, and safe to call
        repeatedly.  Connections already completed in the listen
        backlog are drained and read to EOF before the thread exits,
        so no counted events are lost to shutdown timing.
        """
        self._stop.set()
        # Join a started thread even when it has finished: the join
        # orders its readers' counts before the caller's reads.
        if self._thread.ident is not None:
            self._thread.join(timeout=max(10.0, 2 * self.accept_poll_seconds))
        try:
            self._server.close()
        except OSError:
            pass

    def __enter__(self) -> "TcpReceiver":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShmReceiver(_Receiver):
    """Owns shared-memory rings and counts the slots producers push.

    The measurement peer of :class:`ShmTransport`: creates
    ``max_producers`` rings (one SPSC ring per producer — the sharded
    replayer's fan-in), drains each on its own thread into one shared
    :class:`WindowCounter`, and owns the segments' lifecycle — every
    ring is closed *and* unlinked exactly once in :meth:`close`, no
    matter how producers exit.  A producer that crashes mid-stream (or
    never attaches) cannot leak a segment: the receiver outlives it
    and unlinks unconditionally; a producer that outlives the receiver
    keeps its mapping (POSIX unlink semantics) and gets
    :class:`ConnectorError` from its next push via the consumer-closed
    flag.

    Counts are independent, not trusted: each slot's record count is
    re-derived from its payload (frame header / newline count) and
    must agree with its descriptor — see
    :meth:`~repro.core.shm.RingConsumer.drain_counts`.  Corruption
    surfaces as a typed :class:`~repro.errors.StreamFormatError` on
    the ``error`` attribute.

    Hand the receiver's specs to the workers, one ring each, and replay
    two disjoint streams (one worker per stream, each at ``rate / 2``)::

        with ShmReceiver(max_producers=2) as receiver:
            ShardedReplayer([a, b], receiver.specs, rate=rate).run()
        total = receiver.counter.total
    """

    def __init__(
        self,
        window_seconds: float = 1.0,
        clock: "TraceClock | None" = None,
        tracer: "Tracer | None" = None,
        max_producers: int = 1,
        slots: int = 4096,
        arena_bytes: int = 1 << 23,
        drain_timeout: float = 30.0,
    ):
        from repro.core import shm

        if max_producers <= 0:
            raise ValueError(
                f"max_producers must be positive, got {max_producers}"
            )
        self._rings: list[shm.ShmRing] = []
        try:
            for __ in range(max_producers):
                self._rings.append(
                    shm.ShmRing.create(slots=slots, arena_bytes=arena_bytes)
                )
        except BaseException:
            for ring in self._rings:
                ring.close()
                ring.unlink()
            raise
        self.specs = tuple(ShmSpec(name=ring.name) for ring in self._rings)
        super().__init__(window_seconds, clock, tracer)
        self._drain_timeout = drain_timeout
        self._stop = threading.Event()
        self._closed = False
        self.error: Exception | None = None
        self._threads = [
            threading.Thread(target=self._drain, args=(ring,), daemon=True)
            for ring in self._rings
        ]

    @property
    def name(self) -> str:
        """Segment name of the (first) ring — the single-producer case."""
        return self._rings[0].name

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _drain(self, ring) -> None:
        from repro.core import shm

        consumer = shm.RingConsumer(ring)
        sleep = 0.0002
        idle_spins = 0
        deadline = None
        try:
            while True:
                consumed, records, finished = consumer.drain_counts()
                consumer.advance()
                if records:
                    self._record_batch(records)
                if finished:
                    return
                if consumed:
                    sleep = 0.0002
                    idle_spins = 0
                    deadline = None
                    if consumed < 192:
                        # Small round: the producer is mid-burst.  A
                        # nap lets slots accumulate so the next round
                        # takes the vectorized drain path (~0.5us per
                        # slot against ~5us per slot popped singly)
                        # instead of hot-polling the ring one slot at a
                        # time — which on a single CPU also steals the
                        # quanta the producer needs to fill it.  Big
                        # rounds loop straight back: a filling ring
                        # means the producer needs space soon.
                        time.sleep(0.002)  # repro-check: disable=HOT001 -- gulp pacing
                    continue
                if consumer.producer_done():
                    return
                if self._stop.is_set():
                    # Drain grace: producers already publishing keep
                    # being counted until the ring goes idle.
                    return
                idle_spins += 1
                if idle_spins < 4:
                    continue
                # Sleep, never spin or yield: on a single-CPU machine
                # an idle consumer burning quanta preempts the producer
                # it is waiting for (the ring holds megabytes, so wake
                # latency is throughput-irrelevant).  The producer's
                # full-ring wait yields instead — there handing the
                # core over is exactly what unblocks it.
                if deadline is None:
                    deadline = time.monotonic() + self._drain_timeout
                elif time.monotonic() >= deadline:
                    raise ConnectorError(
                        "shm receiver stalled: producer made no "
                        "progress before the timeout"
                    )
                time.sleep(sleep)  # repro-check: disable=HOT001 -- idle backoff
                sleep = min(sleep * 2, 0.002)
        except Exception as exc:
            self.error = exc  # guarded-by: write-once; read after join()

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                raise ConnectorError("shm receiver did not finish in time")

    def close(self) -> None:
        """Stop draining, then close and unlink every ring (idempotent).

        The consumer-closed flag goes up first so blocked producers
        fail fast instead of stalling; drain threads exit at the next
        idle check.  Unlink is unconditional — segments never outlive
        the receiver, whatever the producers did.
        """
        if self._closed:
            return
        self._closed = True
        for ring in self._rings:
            try:
                ring.set_consumer_closed()
            except ValueError:  # pragma: no cover - mapping already gone
                pass
        self._stop.set()
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=10.0)
        for ring in self._rings:
            ring.close()
            ring.unlink()

    def __enter__(self) -> "ShmReceiver":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if exc_info[0] is None:
                # Clean body: wait for producers to finish their
                # streams so counts are complete before close().
                for thread in self._threads:
                    thread.join(timeout=self._drain_timeout)
        finally:
            self.close()
