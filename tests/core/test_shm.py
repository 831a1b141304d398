"""Unit tests for the shared-memory SPSC ring.

The ring is validated, not trusted: every descriptor check that guards
a live consumer must raise a typed
:class:`~repro.errors.StreamFormatError` carrying the byte offset of
the offending descriptor, and the segment lifecycle must never leak a
``/dev/shm`` entry.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core import binfmt, shm
from repro.core.events import add_vertex
from repro.errors import ConnectorError, StreamFormatError


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def _frame(n_records: int, base: int = 0) -> bytes:
    return binfmt.encode_graph_frame(
        [add_vertex(base + i) for i in range(n_records)]
    )


def _poke_desc(ring, seq: int, field: int, value: int) -> int:
    """Overwrite one u32 field of slot ``seq``'s descriptor; returns the
    descriptor's byte offset."""
    desc_off = shm._DESC_OFF + (seq % ring.slots) * shm._DESC.size
    struct.pack_into("<I", ring._buf, desc_off + field * 4, value)
    return desc_off


@pytest.fixture
def ring():
    ring = shm.ShmRing.create(slots=16, arena_bytes=1 << 14)
    try:
        yield ring
    finally:
        ring.close()
        ring.unlink()


class TestRingRoundTrip:
    def test_push_pop_preserves_payload_count_kind(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        frames = [_frame(3, base=10 * i) for i in range(5)]
        producer.push_many([(frame, 3) for frame in frames], shm.SLOT_FRAME)
        producer.push_many([(b"a,b\nc,d\n", 2)], shm.SLOT_RAW)
        assert producer.push_eof()

        slots = consumer.pop_available()
        assert [slot.kind for slot in slots] == (
            [shm.SLOT_FRAME] * 5 + [shm.SLOT_RAW, shm.SLOT_EOF]
        )
        assert [slot.count for slot in slots] == [3, 3, 3, 3, 3, 2, 0]
        for slot, frame in zip(slots, frames):
            assert bytes(slot.payload) == frame
            slot.payload.release()
        assert bytes(slots[5].payload) == b"a,b\nc,d\n"
        slots[5].payload.release()
        consumer.advance()
        assert consumer.finished
        assert consumer.producer_done()

    def test_wraparound_many_times(self, ring):
        # 16KB arena, ~700B slots: hundreds of pushes wrap repeatedly;
        # payload bytes must survive every wrap (including the padded
        # end-of-arena slots).
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        for i in range(300):
            payload = bytes([i & 0xFF]) * (600 + (i % 7) * 50)
            producer.push_many([(payload, 1)], shm.SLOT_RAW)
            (slot,) = consumer.pop_available()
            assert slot.seq == i
            assert bytes(slot.payload) == payload
            slot.payload.release()
            consumer.advance()

    def test_push_many_blocks_and_drains_full_ring(self, ring):
        # More slots than the ring holds: push_many must publish what it
        # wrote, wait for space, and finish once the consumer drains.
        import threading

        producer = shm.RingProducer(ring, stall_timeout=10.0)
        consumer = shm.RingConsumer(ring)
        items = [(b"x" * 64, 1)] * 100

        done = threading.Event()

        def produce():
            producer.push_many(items, shm.SLOT_RAW)
            producer.push_eof()
            done.set()

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        records = 0
        while True:
            consumed, counted, finished = consumer.drain_counts()
            consumer.advance()
            records += counted
            if finished:
                break
        thread.join(10.0)
        assert done.is_set()
        assert records == 100
        assert producer.wait_count >= 1


class TestRingBlocking:
    def test_stall_timeout_raises(self, ring):
        producer = shm.RingProducer(ring, stall_timeout=0.2)
        with pytest.raises(ConnectorError, match="stalled"):
            # 16 slots: the 17th must block
            producer.push_many([(b"x", 1)] * 17, shm.SLOT_RAW)

    def test_consumer_closed_fails_fast(self, ring):
        producer = shm.RingProducer(ring, stall_timeout=30.0)
        producer.push_many([(b"x", 1)] * 16, shm.SLOT_RAW)
        ring.set_consumer_closed()
        with pytest.raises(ConnectorError, match="consumer is closed"):
            producer.push_many([(b"x", 1)], shm.SLOT_RAW)

    def test_oversized_slot_rejected(self, ring):
        producer = shm.RingProducer(ring)
        with pytest.raises(ConnectorError, match="exceeds half"):
            producer.push_many([(b"x" * ((1 << 13) + 1), 1)], shm.SLOT_RAW)

    def test_push_eof_reports_failure(self, ring):
        # A free ring accepts the EOF slot even after the consumer
        # closed (no blocking, no check); a full ring must fail fast.
        producer = shm.RingProducer(ring)
        producer.push_many([(b"x", 1)] * 16, shm.SLOT_RAW)
        ring.set_consumer_closed()
        assert producer.push_eof(timeout=0.1) is False


class TestRingCorruption:
    def test_unknown_kind_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many([(b"x", 1)], shm.SLOT_RAW)
        desc_off = _poke_desc(ring, 0, 5, 99)
        with pytest.raises(StreamFormatError, match="unknown slot kind") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_sequence_mismatch_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many([(b"x", 1)], shm.SLOT_RAW)
        desc_off = _poke_desc(ring, 0, 4, 7)
        with pytest.raises(StreamFormatError, match="sequence mismatch") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_corrupt_geometry_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many([(b"abcd", 1)], shm.SLOT_RAW)
        desc_off = _poke_desc(ring, 0, 0, 4096)  # bogus arena offset
        with pytest.raises(StreamFormatError, match="corrupt geometry") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_drain_counts_frame_count_mismatch(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many([(_frame(3), 5)], shm.SLOT_FRAME)  # descriptor lies
        with pytest.raises(StreamFormatError, match="disagrees"):
            consumer.drain_counts()

    def test_drain_counts_raw_line_mismatch(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many([(b"one\ntwo\n", 3)], shm.SLOT_RAW)
        with pytest.raises(StreamFormatError, match="lines"):
            consumer.drain_counts()

    def test_vector_and_loop_paths_count_alike(self, ring, monkeypatch):
        # 12 slots clear the vectorized drain's threshold of 8; each
        # path is forced, so a runner without numpy cannot quietly run
        # the loop twice.
        pytest.importorskip("numpy")
        vector = shm.RingConsumer._drain_counts_vector
        vector_results = []

        def spy(self, n):
            vector_results.append(vector(self, n))
            return vector_results[-1]

        monkeypatch.setattr(shm.RingConsumer, "_drain_counts_vector", spy)
        counted = []
        for path in ("vector", "loop"):
            if path == "loop":
                monkeypatch.setattr(shm, "_np", None)
            producer = shm.RingProducer(ring)
            consumer = shm.RingConsumer(ring)
            producer.push_many(
                [(_frame(2, base=i), 2) for i in range(12)], shm.SLOT_FRAME
            )
            producer.push_eof()
            counted.append(consumer.drain_counts())
            consumer.advance()
        assert counted == [(13, 24, True)] * 2
        assert vector_results == [(13, 24, True)]  # vector ran, no fallback


@pytest.fixture(params=["vector", "loop"])
def drain_path(request, monkeypatch):
    """Force :meth:`RingConsumer.drain_counts` down one path."""
    if request.param == "vector":
        pytest.importorskip("numpy")
    else:
        monkeypatch.setattr(shm, "_np", None)
    return request.param


class TestLiveRingCorruption:
    """Corrupt descriptors in a live ring must fail the counting drain
    with the descriptor's byte offset, on the vectorized path (which
    defers to the loop to localize the error) and on the loop alone.
    12 slots clear the vectorized drain's threshold of 8."""

    def _publish(self, ring) -> shm.RingConsumer:
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push_many(
            [(_frame(2, base=i), 2) for i in range(11)], shm.SLOT_FRAME
        )
        assert producer.push_eof()
        return consumer

    def test_length_overrunning_the_arena_raises(self, ring, drain_path):
        consumer = self._publish(ring)
        desc_off = _poke_desc(ring, 5, 1, 1 << 24)
        with pytest.raises(StreamFormatError, match="corrupt geometry") as info:
            consumer.drain_counts()
        assert info.value.byte_offset == desc_off

    def test_eof_slot_with_records_raises(self, ring, drain_path):
        consumer = self._publish(ring)
        desc_off = _poke_desc(ring, 11, 2, 1)
        with pytest.raises(
            StreamFormatError, match="EOF slot must be empty"
        ) as info:
            consumer.drain_counts()
        assert info.value.byte_offset == desc_off


class TestRingLifecycle:
    def test_close_and_unlink_idempotent_and_reclaim(self):
        ring = shm.ShmRing.create(slots=16, arena_bytes=4096)
        name = ring.name
        assert _segment_exists(name)
        ring.close()
        ring.close()
        ring.unlink()
        ring.unlink()
        assert not _segment_exists(name)

    def test_attach_round_trip_and_owner_unlink(self):
        owner = shm.ShmRing.create(slots=16, arena_bytes=4096)
        try:
            peer = shm.ShmRing.attach(owner.name)
            producer = shm.RingProducer(peer)
            producer.push_many([(b"hi\n", 1)], shm.SLOT_RAW)
            consumer = shm.RingConsumer(owner)
            (slot,) = consumer.pop_available()
            assert bytes(slot.payload) == b"hi\n"
            slot.payload.release()
            consumer.advance()
            peer.close()
        finally:
            owner.close()
            owner.unlink()
        assert not _segment_exists(owner.name)

    def test_attach_unknown_name_raises(self):
        with pytest.raises(ConnectorError, match="cannot attach"):
            shm.ShmRing.attach("graphtides-no-such-segment")

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(ConnectorError, match="not a GTRB ring"):
                shm.ShmRing.attach(segment.name)
        finally:
            segment.close()
            segment.unlink()

    def test_create_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="power of two"):
            shm.ShmRing.create(slots=12)
        with pytest.raises(ValueError, match="positive"):
            shm.ShmRing.create(slots=16, arena_bytes=0)

