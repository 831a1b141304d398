"""Single-producer/single-consumer shared-memory ring buffer.

The local-transport fast path: a :class:`ShmRing` carries the existing
GTB1/CSV batch payloads between a replay worker and a receiver in the
same machine through one ``multiprocessing.shared_memory`` segment —
no syscall, no kernel copy, no socket buffer.  One producer process
writes, one consumer process reads; the sharded replayer uses one ring
per worker (rings are cheap: a ring is a file in ``/dev/shm``).

Layout of the segment (offsets in bytes)::

    0    magic "GTRB0001", version u32, slot capacity u32,
         arena capacity u64                    (read-only after create)
    64   head_seq u64                          (producer publishes)
    128  tail_seq u64, freed_bytes u64         (consumer publishes)
    192  producer flags u8 (bit 0: closed)
    256  consumer flags u8 (bit 0: closed)
    320  descriptor table: slot capacity x 24-byte descriptors
    ...  payload arena (64-byte aligned), arena capacity bytes

Head and tail live in separate cache lines so the two sides never
write-share a line.  Publication order is write payload, write
descriptor, then store ``head_seq`` — CPython emits the stores in
statement order and x86/ARM64 shared mappings keep same-address order
across processes, while the per-descriptor sequence number
(``seq_lo == seq & 0xFFFFFFFF``) gives the consumer an acquire-side
check: a descriptor whose sequence, offset, stride, or kind disagrees
with the consumer's own cursor arithmetic is corrupt and raises a
typed :class:`~repro.errors.StreamFormatError` with the descriptor's
byte offset in the segment.

Slots are length-prefixed and fully determined: given the consumer's
byte cursor, a descriptor's expected ``offset`` (start of payload in
the arena, 0 after an end-of-arena wrap) and ``stride`` (bytes the
slot consumes, wrap padding included) are recomputable, so every field
is verifiable, not trusted.  Blocking sides use a bounded
spin-then-sleep backoff (:func:`_backoff`) — on a single-CPU machine
the peer needs the core, so the loop yields quickly and escalates to
short sleeps, bounded by ``stall_timeout``.
"""

from __future__ import annotations

import os
import struct
import time
from repro.errors import ConnectorError, StreamFormatError

try:  # numpy is optional: the vector drain path degrades to the loop
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

__all__ = [
    "SLOT_RAW",
    "SLOT_FRAME",
    "SLOT_EOF",
    "ShmRing",
    "RingProducer",
    "RingConsumer",
]

MAGIC = b"GTRB0001"
VERSION = 1

#: Slot kinds carried in descriptors.
SLOT_RAW = 1  # newline-delimited CSV line run
SLOT_FRAME = 2  # one GTB1 binary frame
SLOT_EOF = 3  # producer's clean end-of-stream (empty payload)

_KNOWN_KINDS = frozenset((SLOT_RAW, SLOT_FRAME, SLOT_EOF))

_HEADER = struct.Struct("<8sII Q")  # magic, version, slots, arena bytes
_U64 = struct.Struct("<Q")
_U64_PAIR = struct.Struct("<QQ")

#: One slot descriptor: payload offset in the arena, payload length,
#: record count, stride (arena bytes consumed, wrap padding included),
#: low 32 bits of the slot sequence, slot kind.
_DESC = struct.Struct("<IIIIII")

_HEAD_OFF = 64
_TAIL_OFF = 128
_PRODUCER_FLAGS_OFF = 192
_CONSUMER_FLAGS_OFF = 256
_DESC_OFF = 320

_SEQ_MASK = 0xFFFFFFFF

#: Backoff schedule: re-check this many times back to back, then hand
#: the core to the peer with ``sched_yield`` for a while, then sleep,
#: doubling from the floor to the ceiling.  The yields matter most on a
#: single-CPU machine: the peer is runnable and one quantum away, and a
#: yield wakes it ~an order of magnitude sooner than the shortest sleep.
_SPIN_ROUNDS = 32
_YIELD_ROUNDS = 256
_SLEEP_FLOOR = 0.0001
_SLEEP_CEILING = 0.002

_sched_yield = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))

#: Segment names created by this process.  Attaching to one of these
#: must NOT unregister it from the resource tracker — the create-side
#: registration is the crash-safety net that reclaims the segment if
#: the owning process dies before unlinking.
_OWNED_NAMES: set[str] = set()


def _desc_aligned(slots: int) -> int:
    """Arena offset: descriptor table end rounded up to a cache line."""
    end = _DESC_OFF + slots * _DESC.size
    return (end + 63) & ~63


_PAGE_SIZE = 4096


def _prefault(buf, start: int, write: bool) -> None:
    """Touch every page of ``buf`` from ``start`` so the hot path never
    page-faults.

    A fresh segment is all holes: without this, every first write to a
    page lands a minor fault in the middle of a push (~3 faults per
    256-record frame — measurably slower than a pipe whose 64KB kernel
    buffer stays hot forever).  Write-touching allocates the page for
    real; a read-touch would only map the shared zero page, leaving the
    allocation fault for the producer.  Callers must own every byte
    they write-touch: the read-modify-write below can lose a concurrent
    update by the other side.
    """
    if _np is not None:
        view = _np.frombuffer(buf, dtype=_np.uint8)[start::_PAGE_SIZE]
        if write:
            view |= 0
        else:
            int(view.sum())
        return
    if write:
        for off in range(start, len(buf), _PAGE_SIZE):
            buf[off] = buf[off]
    else:
        touched = 0
        for off in range(start, len(buf), _PAGE_SIZE):
            touched += buf[off]


class ShmRing:
    """The shared segment and both sides' cursor arithmetic.

    Create the segment with :meth:`create` (the owning side — in this
    codebase always the consumer/receiver, which outlives workers) or
    map an existing one with :meth:`attach`.  The owner must call both
    :meth:`close` and :meth:`unlink`; attachers only :meth:`close`.
    Both are idempotent, so lifecycle code can be unconditional.
    """

    def __init__(self, segment, slots: int, arena_bytes: int, owner: bool):
        self._segment = segment
        self._buf = segment.buf
        self.slots = slots
        self.arena_bytes = arena_bytes
        self.owner = owner
        self.arena_offset = _desc_aligned(slots)
        self._closed = False
        self._unlinked = False

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        slots: int = 512,
        arena_bytes: int = 1 << 20,
        name: str | None = None,
    ) -> "ShmRing":
        """Create a new ring segment (the owning side)."""
        from multiprocessing import shared_memory

        if slots <= 0 or slots & (slots - 1):
            raise ValueError(f"slots must be a positive power of two, got {slots}")
        if arena_bytes <= 0:
            raise ValueError(f"arena_bytes must be positive, got {arena_bytes}")
        size = _desc_aligned(slots) + arena_bytes
        segment = shared_memory.SharedMemory(
            create=True, size=size, name=name
        )
        _OWNED_NAMES.add(segment.name)
        try:
            _HEADER.pack_into(
                segment.buf, 0, MAGIC, VERSION, slots, arena_bytes
            )
            # SharedMemory zero-fills new segments, so cursors, flags
            # and descriptors all start at zero — no further init.
            # Write-touch every page while no peer exists yet: tmpfs
            # backs a fresh segment with holes, and allocating them now
            # keeps first-write faults out of the producer's hot path.
            _prefault(segment.buf, 0, write=True)
            return cls(segment, slots, arena_bytes, owner=True)
        except BaseException:
            segment.close()
            segment.unlink()
            _OWNED_NAMES.discard(segment.name)
            raise

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring segment by name (the non-owning side).

        The attaching process is *not* the segment's owner: Python's
        ``resource_tracker`` would otherwise unlink the segment when
        this process exits (the 3.11 attach-side registration quirk),
        so the attachment is unregistered here and the owner keeps the
        single unlink.
        """
        from multiprocessing import resource_tracker, shared_memory

        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError) as exc:
            raise ConnectorError(
                f"cannot attach shm ring {name!r}: {exc}"
            ) from exc
        if segment.name not in _OWNED_NAMES:
            # Python registers even non-owning attachments with the
            # resource tracker, which would unlink the (still live)
            # segment when this process exits; only the owner holds
            # the unlink.  Same-process attachments keep the owner's
            # registration untouched.
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker variations
                pass
        try:
            magic, version, slots, arena_bytes = _HEADER.unpack_from(
                segment.buf, 0
            )
            if magic != MAGIC or version != VERSION:
                raise ConnectorError(
                    f"segment {name!r} is not a GTRB ring "
                    f"(magic {magic!r}, version {version})"
                )
            return cls(segment, slots, arena_bytes, owner=False)
        except BaseException:
            segment.close()
            raise

    # -- shared state --------------------------------------------------

    @property
    def name(self) -> str:
        return self._segment.name

    def head_seq(self) -> int:
        return _U64.unpack_from(self._buf, _HEAD_OFF)[0]

    def tail_state(self) -> tuple[int, int]:
        """(tail_seq, freed_bytes) as last published by the consumer."""
        return _U64_PAIR.unpack_from(self._buf, _TAIL_OFF)

    def producer_closed(self) -> bool:
        return bool(self._buf[_PRODUCER_FLAGS_OFF] & 1)

    def consumer_closed(self) -> bool:
        return bool(self._buf[_CONSUMER_FLAGS_OFF] & 1)

    def set_producer_closed(self) -> None:
        self._buf[_PRODUCER_FLAGS_OFF] = 1

    def set_consumer_closed(self) -> None:
        self._buf[_CONSUMER_FLAGS_OFF] = 1

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        A payload view still alive in a straggling drain thread makes
        the underlying mmap unclosable (``BufferError``); the mapping
        is then left for process teardown — :meth:`unlink` still
        removes the name, so nothing persists in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        self._buf = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - straggling view
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner side, idempotent).

        Safe after the peer crashed or never attached; existing
        mappings survive a POSIX unlink, so a still-running peer is
        undisturbed and the memory is reclaimed when the last mapping
        closes.
        """
        if not self._unlinked:
            self._unlinked = True
            _OWNED_NAMES.discard(self._segment.name)
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    @property
    def closed(self) -> bool:
        return self._closed


def _backoff(deadline: float, sleep: float) -> float:
    """One blocking step; returns the escalated sleep interval."""
    if time.monotonic() >= deadline:
        raise ConnectorError(
            "shm ring stalled: peer made no progress before the timeout"
        )
    time.sleep(sleep)  # repro-check: disable=HOT001 -- bounded backoff
    return min(sleep * 2, _SLEEP_CEILING)


class RingProducer:
    """The writing side of a ring: length-prefixed slot pushes.

    :meth:`push_many` blocks (spin-then-sleep) while the ring lacks a free
    descriptor or enough arena space, and raises
    :class:`~repro.errors.ConnectorError` if the consumer closed or no
    progress happens within ``stall_timeout`` seconds.
    """

    def __init__(self, ring: ShmRing, stall_timeout: float = 30.0):
        self._ring = ring
        self._buf = ring._buf
        self._arena_off = ring.arena_offset
        self._arena_cap = ring.arena_bytes
        self._slots = ring.slots
        self._stall_timeout = stall_timeout
        # Populate this process's page table for the whole mapping up
        # front (an attaching producer starts with none of it mapped).
        # Page 0 is skipped: it holds the consumer-written cursors, and
        # a write-touch could lose a concurrent tail update.  Every
        # page past it is producer-owned (descriptors + arena).
        _prefault(self._buf, _PAGE_SIZE, write=True)
        self._head_seq = ring.head_seq()
        tail_seq, freed = ring.tail_state()
        self._produced_bytes = self._recover_produced_bytes(freed)
        self._cached_tail = tail_seq
        self._cached_freed = freed
        #: Times a push found the ring full and had to block — a
        #: diagnostic for sizing rings against their producers.
        self.wait_count = 0

    def _recover_produced_bytes(self, freed: int) -> int:
        """Rebuild the byte cursor from published state (fresh rings
        start at zero; reattaching mid-stream replays the strides of
        the still-unconsumed descriptors)."""
        produced = freed
        tail_seq, __ = self._ring.tail_state()
        for seq in range(tail_seq, self._head_seq):
            desc_off = _DESC_OFF + (seq % self._slots) * _DESC.size
            __, __, __, stride, __, __ = _DESC.unpack_from(
                self._buf, desc_off
            )
            produced += stride
        return produced

    def _wait_for_space(self, stride: int) -> None:
        self.wait_count += 1
        deadline = 0.0
        sleep = _SLEEP_FLOOR
        spins = 0
        while True:
            if (
                self._head_seq - self._cached_tail < self._slots
                and self._produced_bytes + stride - self._cached_freed
                <= self._arena_cap
            ):
                return
            self._cached_tail, self._cached_freed = self._ring.tail_state()
            if (
                self._head_seq - self._cached_tail < self._slots
                and self._produced_bytes + stride - self._cached_freed
                <= self._arena_cap
            ):
                return
            if self._ring.consumer_closed():
                raise ConnectorError("shm ring consumer is closed")
            spins += 1
            if spins < _SPIN_ROUNDS:
                continue
            if spins < _YIELD_ROUNDS:
                _sched_yield()
                continue
            if not deadline:
                deadline = time.monotonic() + self._stall_timeout
            sleep = _backoff(deadline, sleep)

    def push_many(self, items, kind: int) -> None:
        """Copy a run of ``(payload, count)`` slots and publish once.

        The write path behind :class:`ShmTransport`'s buffered
        flush: one head publication and mostly-cached space checks
        amortize over the whole run, which cuts per-slot interpreter
        overhead ~3x against publishing slot by slot — the difference
        between losing to and beating the pipe transport on a
        single-CPU machine.  Blocking first publishes the slots written
        so far, so a full ring drains while this side waits.
        """
        buf = self._buf
        arena_off = self._arena_off
        arena_cap = self._arena_cap
        half = arena_cap // 2
        slots = self._slots
        desc_size = _DESC.size
        pack_desc = _DESC.pack_into
        pack_u64 = _U64.pack_into
        head = self._head_seq
        produced = self._produced_bytes
        cached_tail = self._cached_tail
        cached_freed = self._cached_freed
        try:
            for payload, count in items:
                size = len(payload)
                if size > half:
                    # Above half the arena, end-of-arena wrap padding
                    # could exceed capacity outright — an unsatisfiable
                    # wait.
                    raise ConnectorError(
                        f"slot of {size} bytes exceeds half the "
                        f"{arena_cap}-byte ring arena; use a larger ring"
                    )
                pos = produced % arena_cap
                contig = arena_cap - pos
                if contig >= size:
                    offset, stride = pos, size
                else:
                    # Payload would straddle the arena end: pad to the
                    # start so every slot stays contiguous (zero-copy
                    # views need that).
                    offset, stride = 0, size + contig
                if (
                    head - cached_tail >= slots
                    or produced + stride - cached_freed > arena_cap
                ):
                    self._head_seq = head
                    self._produced_bytes = produced
                    pack_u64(buf, _HEAD_OFF, head)
                    self._wait_for_space(stride)
                    cached_tail = self._cached_tail
                    cached_freed = self._cached_freed
                base = arena_off + offset
                if size:
                    buf[base : base + size] = payload
                pack_desc(
                    buf,
                    _DESC_OFF + (head % slots) * desc_size,
                    offset,
                    size,
                    count,
                    stride,
                    head & _SEQ_MASK,
                    kind,
                )
                head += 1
                produced += stride
        finally:
            self._head_seq = head
            self._produced_bytes = produced
            self._cached_tail = cached_tail
            self._cached_freed = cached_freed
            pack_u64(buf, _HEAD_OFF, head)

    def push_eof(self, timeout: float | None = 2.0) -> bool:
        """Best-effort end-of-stream marker; False if it could not be
        delivered (consumer gone or ring wedged full)."""
        saved = self._stall_timeout
        if timeout is not None:
            self._stall_timeout = timeout
        try:
            self.push_many([(b"", 0)], SLOT_EOF)
            return True
        except ConnectorError:
            return False
        finally:
            self._stall_timeout = saved


class _Slot:
    """One consumed slot: (seq, kind, count, payload view)."""

    __slots__ = ("seq", "kind", "count", "payload", "stride")

    def __init__(self, seq, kind, count, payload, stride):
        self.seq = seq
        self.kind = kind
        self.count = count
        self.payload = payload
        self.stride = stride


class RingConsumer:
    """The reading side of a ring: validated slot pops.

    Descriptors are *checked*, not trusted: sequence, kind, offset and
    stride must all match the consumer's own cursor arithmetic, and a
    mismatch raises :class:`~repro.errors.StreamFormatError` carrying
    the descriptor's byte offset in the segment.  Payload views alias
    ring memory and stay valid until the slot is acknowledged with
    :meth:`advance` (which is what frees the space for the producer).
    """

    def __init__(self, ring: ShmRing):
        self._ring = ring
        self._buf = ring._buf
        self._arena_off = ring.arena_offset
        self._arena_cap = ring.arena_bytes
        self._slots = ring.slots
        if not ring.owner:
            # An attaching consumer maps the segment cold; touch it so
            # drains don't fault page by page.  (The owning side already
            # touched every page at create.)
            _prefault(self._buf, _PAGE_SIZE, write=False)
        self.tail_seq, self.consumed_bytes = ring.tail_state()
        self._pending_seq = self.tail_seq
        self._pending_bytes = self.consumed_bytes
        self.finished = False  # EOF slot seen

    def available(self) -> int:
        return self._ring.head_seq() - self._pending_seq

    def _validate(self, seq: int, cursor: int) -> tuple:
        desc_off = _DESC_OFF + (seq % self._slots) * _DESC.size
        offset, size, count, stride, seq_lo, kind = _DESC.unpack_from(
            self._buf, desc_off
        )
        pos = cursor % self._arena_cap
        contig = self._arena_cap - pos
        if contig >= size:
            expect_off, expect_stride = pos, size
        else:
            expect_off, expect_stride = 0, size + contig
        if seq_lo != seq & _SEQ_MASK:
            raise StreamFormatError(
                f"shm slot {seq}: sequence mismatch "
                f"(descriptor says {seq_lo})",
                byte_offset=desc_off,
            )
        if kind not in _KNOWN_KINDS:
            raise StreamFormatError(
                f"shm slot {seq}: unknown slot kind {kind}",
                byte_offset=desc_off,
            )
        if size > self._arena_cap or offset != expect_off or stride != expect_stride:
            raise StreamFormatError(
                f"shm slot {seq}: corrupt geometry (offset {offset}, "
                f"length {size}, stride {stride}; expected offset "
                f"{expect_off}, stride {expect_stride})",
                byte_offset=desc_off,
            )
        return offset, size, count, stride, kind

    def pop_available(self, max_slots: int = 0) -> list[_Slot]:
        """Consume every published slot (up to ``max_slots`` if given)
        without blocking; returns ``[]`` when the ring is idle.

        Views in the result alias the ring; call :meth:`advance` when
        done with them to release the space to the producer.
        """
        n = self.available()
        if max_slots and n > max_slots:
            n = max_slots
        out: list[_Slot] = []
        seq = self._pending_seq
        cursor = self._pending_bytes
        for __ in range(n):
            offset, size, count, stride, kind = self._validate(seq, cursor)
            base = self._arena_off + offset
            payload = self._buf[base : base + size] if size else b""
            out.append(_Slot(seq, kind, count, payload, stride))
            if kind == SLOT_EOF:
                self.finished = True
            seq += 1
            cursor += stride
        self._pending_seq = seq
        self._pending_bytes = cursor
        return out

    def drain_counts(self, max_slots: int = 4096) -> tuple[int, int, bool]:
        """Consume published slots, verifying payload-counted records.

        The counting receiver's hot path: every descriptor is validated
        (sequence, kind, geometry) *and* its record count re-derived
        from the payload — a FRAME slot's count must match its frame
        header, a RAW slot's count its newline count — so the receiver
        counts independently, exactly like the pipe/TCP receivers'
        :func:`_count_stream`.  With numpy available, whole runs of
        slots are checked in a handful of vector operations
        (descriptors are fixed-size, so a run is one reshape away);
        otherwise — or to localize an error the vector pass detected —
        a per-slot loop does the same checks and raises the precise
        :class:`~repro.errors.StreamFormatError`.

        Returns ``(slots_consumed, records, finished)`` and advances
        the pending cursor; call :meth:`advance` to publish the space
        back to the producer.
        """
        n = self.available()
        if max_slots and n > max_slots:
            n = max_slots
        if n == 0:
            return 0, 0, self.finished
        if _np is not None and n >= 8:
            vector = self._drain_counts_vector(n)
            if vector is not None:
                return vector
            # The vector pass saw an inconsistency: fall through to the
            # per-slot loop, which raises with the exact byte offset.
        return self._drain_counts_loop(n)

    def _drain_counts_loop(self, n: int) -> tuple[int, int, bool]:
        from repro.core import binfmt

        records = 0
        consumed = 0
        while consumed < n:
            seq = self._pending_seq
            offset, size, count, stride, kind = self._validate(
                seq, self._pending_bytes
            )
            desc_off = _DESC_OFF + (seq % self._slots) * _DESC.size
            base = self._arena_off + offset
            if kind == SLOT_FRAME:
                payload = self._buf[base : base + size]
                try:
                    fkind, fcount = binfmt.frame_info(payload)
                    __, __, fbody = binfmt._FRAME_HEADER.unpack_from(
                        payload, 0
                    )
                finally:
                    payload.release()
                if (
                    fkind not in (binfmt.FRAME_GRAPH, binfmt.FRAME_CONTROL)
                    or fbody + binfmt.FRAME_HEADER_SIZE != size
                    or fcount != count
                ):
                    raise StreamFormatError(
                        f"shm slot {seq}: frame header (kind {fkind}, "
                        f"{fcount} records, body {fbody}) disagrees with "
                        f"descriptor ({count} records, {size} bytes)",
                        byte_offset=desc_off,
                    )
                records += count
            elif kind == SLOT_RAW:
                data = bytes(self._buf[base : base + size])
                lines = data.count(b"\n")
                if data and data[-1] != 0x0A:
                    lines += 1
                if lines != count:
                    raise StreamFormatError(
                        f"shm slot {seq}: payload holds {lines} lines, "
                        f"descriptor claims {count}",
                        byte_offset=desc_off,
                    )
                records += count
            else:  # SLOT_EOF — _validate already vetted the kind
                if size or count:
                    raise StreamFormatError(
                        f"shm slot {seq}: EOF slot must be empty "
                        f"(length {size}, count {count})",
                        byte_offset=desc_off,
                    )
                self.finished = True
                self._pending_seq += 1
                self._pending_bytes += stride
                consumed += 1
                break
            self._pending_seq += 1
            self._pending_bytes += stride
            consumed += 1
        return consumed, records, self.finished

    def _drain_counts_vector(self, n: int) -> "tuple[int, int, bool] | None":
        """Vectorized drain: None means "loop path must re-check"."""
        np = _np
        from repro.core import binfmt

        start = self._pending_seq
        first = start % self._slots
        span = min(n, self._slots - first)
        d1 = np.frombuffer(
            self._buf,
            dtype=np.uint32,
            count=span * 6,
            offset=_DESC_OFF + first * _DESC.size,
        ).reshape(-1, 6)
        if n > span:
            d2 = np.frombuffer(
                self._buf, dtype=np.uint32, count=(n - span) * 6,
                offset=_DESC_OFF,
            ).reshape(-1, 6)
            desc = np.concatenate((d1, d2))
        else:
            desc = d1
        kinds = desc[:, 5]
        eof = np.nonzero(kinds == SLOT_EOF)[0]
        finished = False
        if eof.size:
            finished = True
            n = int(eof[0]) + 1
            desc = desc[:n]
            kinds = kinds[:n]
        offs = desc[:, 0].astype(np.int64)
        sizes = desc[:, 1].astype(np.int64)
        counts = desc[:, 2].astype(np.int64)
        strides = desc[:, 3].astype(np.int64)
        expect_seq = (
            np.arange(start, start + n, dtype=np.uint64) & _SEQ_MASK
        ).astype(np.uint32)
        if not (
            (desc[:, 4] == expect_seq).all()
            and ((kinds >= SLOT_RAW) & (kinds <= SLOT_EOF)).all()
        ):
            return None
        prefix = np.empty(n, dtype=np.int64)
        prefix[0] = self._pending_bytes
        if n > 1:
            prefix[1:] = self._pending_bytes + np.cumsum(strides[:-1])
        pos = prefix % self._arena_cap
        contig = self._arena_cap - pos
        wrap = contig < sizes
        if not (
            (offs == np.where(wrap, 0, pos)).all()
            and (strides == np.where(wrap, sizes + contig, sizes)).all()
            and (sizes <= self._arena_cap // 2).all()
        ):
            return None
        frames = kinds == SLOT_FRAME
        if frames.any():
            fo = self._arena_off + offs[frames]
            fsizes = sizes[frames]
            if not (fsizes >= binfmt.FRAME_HEADER_SIZE).all():
                return None
            arena = np.frombuffer(self._buf, dtype=np.uint8)
            fcount = (
                arena[fo + 1].astype(np.int64)
                | (arena[fo + 2].astype(np.int64) << 8)
                | (arena[fo + 3].astype(np.int64) << 16)
                | (arena[fo + 4].astype(np.int64) << 24)
            )
            fbody = (
                arena[fo + 5].astype(np.int64)
                | (arena[fo + 6].astype(np.int64) << 8)
                | (arena[fo + 7].astype(np.int64) << 16)
                | (arena[fo + 8].astype(np.int64) << 24)
            )
            if not (
                (arena[fo] <= binfmt.FRAME_CONTROL).all()
                and (fcount == counts[frames]).all()
                and (fbody + binfmt.FRAME_HEADER_SIZE == fsizes).all()
            ):
                return None
        raws = np.nonzero(kinds == SLOT_RAW)[0]
        for i in raws:
            base = self._arena_off + int(offs[i])
            data = bytes(self._buf[base : base + int(sizes[i])])
            lines = data.count(b"\n")
            if data and data[-1] != 0x0A:
                lines += 1
            if lines != int(counts[i]):
                return None
        if finished:
            eofs = kinds == SLOT_EOF
            if sizes[eofs].any() or counts[eofs].any():
                return None
        self._pending_seq += n
        self._pending_bytes += int(strides.sum())
        if finished:
            self.finished = True
        return n, int(counts.sum()), finished

    def advance(self) -> None:
        """Acknowledge every slot returned so far: release memoryviews
        held by the caller *before* calling this."""
        if self._pending_seq != self.tail_seq:
            self.tail_seq = self._pending_seq
            self.consumed_bytes = self._pending_bytes
            _U64_PAIR.pack_into(
                self._buf, _TAIL_OFF, self.tail_seq, self.consumed_bytes
            )

    def producer_done(self) -> bool:
        """True once no further slots can arrive."""
        return self.finished or (
            self._ring.producer_closed() and self.available() == 0
        )

