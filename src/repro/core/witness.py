"""Structural witness sidecars for binary stream files.

A replay of a GTB1 file proves every frame well-formed before sending
it: without a sidecar, a :func:`repro.core.binfmt.scan_frame` header
walk per frame, ~0.13 µs per record of pure interpreter time — which
dominates the replay loop once the transport itself is sub-microsecond
(the shared-memory ring).  A *witness* moves that proof off the hot
path without weakening it:

* At write time :class:`~repro.core.binfmt.BinaryStreamWriter`
  records what it wrote — per-frame (kind, count, body length) and
  per-record body lengths — into a ``<stream>.witness`` sidecar.  The
  writer already knows these numbers; recording them is one list append
  per record.
* At replay start the replayer *verifies the file against the witness
  in bulk* (:meth:`repro.core.replayer.LiveReplayer._frame_counter`):
  frame offsets and record start offsets are recomputed from the
  witness arrays (pure vector arithmetic), and the actual file bytes
  at every one of those offsets — frame kind/count/body fields, record
  tags, record length prefixes — are gathered and compared in a handful
  of numpy operations, ~6 ns per record.  A witness that tiles the file
  exactly and agrees with every header byte is precisely what the
  per-frame ``scan_frame`` walk proves, by induction over the same
  structure.
* After one clean bulk verification the per-frame count is read from
  the (now proven) frame header (:func:`count_verified_frame`) —
  constant work per batch.

The witness is an *accelerator*, never a requirement: a missing
sidecar, a sidecar whose recorded file size disagrees (stale — the
stream was rewritten), or a machine without numpy all fall back to the
``scan_frame`` walk.  A sidecar that matches the file's size but not
its bytes is corruption and raises a typed
:class:`~repro.errors.StreamFormatError` with the offending byte
offset, exactly like the walk it replaces.
"""

from __future__ import annotations

import struct
import sys
from array import array
from pathlib import Path

from repro.errors import StreamFormatError

try:  # numpy is optional: without it verification falls back to scan_frame
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

__all__ = [
    "WITNESS_MAGIC",
    "WITNESS_VERSION",
    "Witness",
    "witness_path",
    "dump_witness",
    "load_witness",
    "verify_stream",
    "preverify_shard",
    "count_verified_frame",
]

WITNESS_MAGIC = b"GTW1"
WITNESS_VERSION = 1

#: magic, version, source file size, frame count, record count.
_HEADER = struct.Struct("<4sIQIQ")


def witness_path(stream_path: str | Path) -> Path:
    """Sidecar path for a stream file: ``<stream>.witness``."""
    return Path(f"{stream_path}.witness")


def _le(arr: array) -> array:
    if sys.byteorder != "little":  # pragma: no cover - LE-only CI
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


def dump_witness(
    frame_counts,
    frame_bodies,
    frame_kinds,
    record_lens,
    file_size: int,
) -> bytes:
    """Serialize a witness: header, then the four tables as packed
    little-endian arrays (struct-of-arrays, so the verifier maps each
    straight into one numpy view)."""
    if not (len(frame_counts) == len(frame_bodies) == len(frame_kinds)):
        raise ValueError("witness frame tables disagree in length")
    return b"".join(
        (
            _HEADER.pack(
                WITNESS_MAGIC,
                WITNESS_VERSION,
                file_size,
                len(frame_counts),
                len(record_lens),
            ),
            _le(array("I", frame_counts)).tobytes(),
            _le(array("I", frame_bodies)).tobytes(),
            bytes(frame_kinds),
            _le(array("I", record_lens)).tobytes(),
        )
    )


class Witness:
    """Parsed witness tables (numpy int64/uint8 views)."""

    __slots__ = (
        "file_size",
        "frame_counts",
        "frame_bodies",
        "frame_kinds",
        "record_lens",
    )

    def __init__(self, file_size, frame_counts, frame_bodies, frame_kinds, record_lens):
        self.file_size = file_size
        self.frame_counts = frame_counts
        self.frame_bodies = frame_bodies
        self.frame_kinds = frame_kinds
        self.record_lens = record_lens


def load_witness(path: str | Path) -> "Witness | None":
    """Parse a sidecar file; ``None`` when it does not exist.

    Requires numpy (the only consumer is the vector verifier).  A
    sidecar that exists but cannot be parsed raises
    :class:`~repro.errors.StreamFormatError` — a corrupt witness must
    not silently demote verification.
    """
    if _np is None:
        return None
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    if len(blob) < _HEADER.size:
        raise StreamFormatError(
            f"{path}: truncated witness header "
            f"({len(blob)} of {_HEADER.size} bytes)",
            byte_offset=0,
        )
    magic, version, file_size, frames, records = _HEADER.unpack_from(blob, 0)
    if magic != WITNESS_MAGIC or version != WITNESS_VERSION:
        raise StreamFormatError(
            f"{path}: not a witness sidecar "
            f"(magic {magic!r}, version {version})",
            byte_offset=0,
        )
    expected = _HEADER.size + frames * 9 + records * 4
    if len(blob) != expected:
        raise StreamFormatError(
            f"{path}: witness holds {len(blob)} bytes, header implies "
            f"{expected}",
            byte_offset=min(len(blob), expected),
        )
    offset = _HEADER.size
    counts = _np.frombuffer(blob, "<u4", frames, offset).astype(_np.int64)
    offset += frames * 4
    bodies = _np.frombuffer(blob, "<u4", frames, offset).astype(_np.int64)
    offset += frames * 4
    kinds = _np.frombuffer(blob, _np.uint8, frames, offset)
    offset += frames
    lens = _np.frombuffer(blob, "<u4", records, offset).astype(_np.int64)
    return Witness(file_size, counts, bodies, kinds, lens)


def _first_bad(ok) -> int:
    """Index of the first False in a boolean vector (which is known to
    contain one)."""
    return int(_np.nonzero(~ok)[0][0])


def verify_stream(buffer, wit: Witness, *, path: str = "") -> tuple[int, int]:
    """Bulk-verify a binary stream's bytes against its witness.

    ``buffer`` is the whole file (mmap or bytes).  Returns
    ``(frames, records)`` on success; any disagreement — between the
    witness tables themselves, or between a recomputed offset's
    expected bytes and the file — raises
    :class:`~repro.errors.StreamFormatError` with the first offending
    byte offset.
    """
    from repro.core import binfmt

    np = _np
    if np is None:  # pragma: no cover - callers gate on availability
        raise StreamFormatError("witness verification requires numpy")
    label = path or "stream"
    counts = wit.frame_counts
    bodies = wit.frame_bodies
    kinds = wit.frame_kinds
    rec_lens = wit.record_lens
    n_frames = len(counts)
    n_records = len(rec_lens)
    total = len(buffer)
    if total != wit.file_size:
        raise StreamFormatError(
            f"{label}: file holds {total} bytes, witness recorded "
            f"{wit.file_size}",
            byte_offset=min(total, wit.file_size),
        )
    # -- witness self-consistency (pure arithmetic on the tables) ------
    if n_frames and (counts <= 0).any():
        raise StreamFormatError(
            f"{label}: witness frame {_first_bad(counts > 0)} records a "
            f"non-positive count"
        )
    if int(counts.sum()) != n_records:
        raise StreamFormatError(
            f"{label}: witness frame counts sum to {int(counts.sum())}, "
            f"record table holds {n_records}"
        )
    header = len(binfmt.MAGIC)
    strides = rec_lens + binfmt.RECORD_HEADER_SIZE
    if n_frames:
        frame_first = np.concatenate(
            (np.zeros(1, np.int64), np.cumsum(counts)[:-1])
        )
        body_sums = np.add.reduceat(strides, frame_first)
        ok = body_sums == bodies
        if not ok.all():
            bad = _first_bad(ok)
            raise StreamFormatError(
                f"{label}: witness frame {bad} records a {int(bodies[bad])}"
                f"-byte body but its records span {int(body_sums[bad])}"
            )
        frame_sizes = bodies + binfmt.FRAME_HEADER_SIZE
        frame_offs = header + np.concatenate(
            (np.zeros(1, np.int64), np.cumsum(frame_sizes)[:-1])
        )
        data_end = header + int(frame_sizes.sum())
    else:
        frame_offs = np.zeros(0, np.int64)
        data_end = header
    # -- file bytes at every recomputed offset -------------------------
    magic_len = len(binfmt.MAGIC)
    if bytes(buffer[:magic_len]) != binfmt.MAGIC:
        raise StreamFormatError(
            f"{label}: missing binary stream magic", byte_offset=0
        )
    index_magic = binfmt.INDEX_MAGIC
    if (
        data_end + len(index_magic) > total
        or bytes(buffer[data_end : data_end + len(index_magic)]) != index_magic
    ):
        raise StreamFormatError(
            f"{label}: witness frames end at {data_end} but no frame "
            f"index starts there",
            byte_offset=data_end,
        )
    if n_frames == 0:
        return 0, 0
    data = np.frombuffer(buffer, np.uint8, total)
    fo = frame_offs
    ok = (data[fo] == kinds) & (kinds <= binfmt.FRAME_CONTROL)
    if not ok.all():
        bad = _first_bad(ok)
        raise StreamFormatError(
            f"{label}: frame {bad} kind byte {int(data[fo[bad]])} "
            f"disagrees with witness kind {int(kinds[bad])}",
            byte_offset=int(fo[bad]),
        )
    file_counts = (
        data[fo + 1].astype(np.int64)
        | (data[fo + 2].astype(np.int64) << 8)
        | (data[fo + 3].astype(np.int64) << 16)
        | (data[fo + 4].astype(np.int64) << 24)
    )
    ok = file_counts == counts
    if not ok.all():
        bad = _first_bad(ok)
        raise StreamFormatError(
            f"{label}: frame {bad} header promises {int(file_counts[bad])} "
            f"record(s), witness recorded {int(counts[bad])}",
            byte_offset=int(fo[bad]) + 1,
        )
    file_bodies = (
        data[fo + 5].astype(np.int64)
        | (data[fo + 6].astype(np.int64) << 8)
        | (data[fo + 7].astype(np.int64) << 16)
        | (data[fo + 8].astype(np.int64) << 24)
    )
    ok = file_bodies == bodies
    if not ok.all():
        bad = _first_bad(ok)
        raise StreamFormatError(
            f"{label}: frame {bad} header claims a {int(file_bodies[bad])}"
            f"-byte body, witness recorded {int(bodies[bad])}",
            byte_offset=int(fo[bad]) + 5,
        )
    # Record start offsets: each frame's records tile its body.
    global_cs = np.concatenate((np.zeros(1, np.int64), np.cumsum(strides)[:-1]))
    starts = np.repeat(fo + binfmt.FRAME_HEADER_SIZE, counts) + (
        global_cs - np.repeat(global_cs[frame_first], counts)
    )
    tags = data[starts]
    tag_ok = np.zeros(256, np.bool_)
    tag_ok[list(binfmt._KNOWN_TAGS)] = True
    ok = tag_ok[tags]
    if not ok.all():
        bad = _first_bad(ok)
        raise StreamFormatError(
            f"{label}: record {bad} carries unknown tag {int(tags[bad])}",
            byte_offset=int(starts[bad]),
        )
    file_lens = (
        data[starts + 1].astype(np.int64)
        | (data[starts + 2].astype(np.int64) << 8)
        | (data[starts + 3].astype(np.int64) << 16)
        | (data[starts + 4].astype(np.int64) << 24)
    )
    ok = file_lens == rec_lens
    if not ok.all():
        bad = _first_bad(ok)
        raise StreamFormatError(
            f"{label}: record {bad} length prefix {int(file_lens[bad])} "
            f"disagrees with witness length {int(rec_lens[bad])}",
            byte_offset=int(starts[bad]) + 1,
        )
    return n_frames, n_records


def preverify_shard(path: str | Path) -> "tuple[int, int] | None":
    """Verify a shard against its sidecar once, before replay.

    Returns ``(frames, records)`` when the shard is proven well-formed,
    or ``None`` when no proof is possible and the caller must fall back
    to the per-frame walk: sidecar absent, numpy absent, or sidecar
    stale (recorded file size differs — the stream was rewritten after
    the witness).  Raises :class:`~repro.errors.StreamFormatError` when
    the sidecar matches the file's size but not its bytes: that is
    corruption, not staleness.
    """
    if _np is None:
        return None
    wit = load_witness(witness_path(path))
    if wit is None:
        return None
    import os

    try:
        if os.path.getsize(path) != wit.file_size:
            return None  # stale sidecar: stream rewritten, no proof
    except OSError:
        return None
    from repro.core import binfmt

    mapped = binfmt._open_binary_view(path)
    try:
        return verify_stream(mapped, wit, path=str(path))
    finally:
        try:
            mapped.close()
        except BufferError:
            # A raising verify's traceback still references its numpy
            # views of the mapping; it closes when the exception dies.
            pass


def count_verified_frame(frame, offset: int = 0) -> int:
    """Per-batch count for a witness-verified shard: the frame header
    (already proven against the record walk in bulk) is read, not
    re-walked — one ``unpack_from`` per frame.  ``offset`` is the
    frame's file position, as for :func:`~repro.core.binfmt.scan_frame`."""
    try:
        return _frame_header_unpack(frame, 0)[1]
    except struct.error:
        raise StreamFormatError(
            "truncated binary frame header", byte_offset=offset
        ) from None


# Bound late so ``import repro.core.witness`` never recurses into
# binfmt's own lazy ``import witness`` (writer close path).
from repro.core.binfmt import _FRAME_HEADER as _FH  # noqa: E402

_frame_header_unpack = _FH.unpack_from
