"""Seeded mutators over event streams and raw stream bytes.

Two registries, both deterministic functions of their ``rng``:

* :data:`EVENT_MUTATORS` — ``(events, rng) -> events`` transformations
  applied before serialization: degree skew, burst trains,
  marker storms, escape-heavy and oversized payloads, pause bombs,
  adversarial float controls, duplication/reordering.
* :data:`BYTE_MUTATORS` — ``(data, rng) -> data`` transformations
  applied to the serialized file: truncation, bit flips, garbage
  prefixes, splices, non-UTF-8 injection — the binfmt/codec frame-walk
  attack surface.

Mutators never touch module-level randomness; every draw comes from the
caller's seeded ``random.Random``, so a candidate is a pure function of
``(base workload, mutator names, sub-seed)``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.core.events import (
    EdgeId,
    Event,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
    marker,
    pause,
    speed,
)

__all__ = [
    "EVENT_MUTATORS",
    "BYTE_MUTATORS",
    "ESCAPE_DICTIONARY",
    "ADVERSARIAL_FLOATS",
    "apply_event_mutators",
    "apply_byte_mutator",
]

#: Escape-heavy strings aimed at the CSV quoting machinery and the
#: CSV↔GTB1 round trip: every separator the format escapes, ambiguous
#: backslash runs, unknown escape sequences, and multi-byte UTF-8.
ESCAPE_DICTIONARY: tuple[str, ...] = (
    ",",
    ",,",
    "\\",
    "\\\\",
    "\\\\\\",
    "\\,",
    "\\n",
    "\n",
    "\r",
    "\r\n",
    "\n\r",
    "a,b\\c\nd\re",
    "trailing\\",
    "\\x41",
    "\\,\\,\\,",
    ",\n,\r,\\",
    "label,with,commas",
    "päyload ü",
    "\x00stray-nul",
    "MARKER,fake,",
    "ADD_VERTEX,9,injected",
)

#: Floats whose ``%g`` rendering loses precision — the historical
#: CSV↔binary divergence — plus denormals, extremes and exact values.
ADVERSARIAL_FLOATS: tuple[float, ...] = (
    1.2345678901234567,
    0.30000000000000004,  # 0.1 + 0.2
    1e-9,
    5e-324,
    1.7976931348623157e308,
    3.141592653589793,
    123456.78901234567,
    2.5,
    1.0,
    0.0625,
)


def _graph_indices(events: list[Event]) -> list[int]:
    return [i for i, e in enumerate(events) if isinstance(e, GraphEvent)]


def _with_entity(event: GraphEvent, entity) -> GraphEvent:
    return GraphEvent(event.event_type, entity, event.payload)


def _with_payload(event: GraphEvent, payload: str) -> GraphEvent:
    return GraphEvent(event.event_type, event.entity, payload)


# ---------------------------------------------------------------------------
# Event-level mutators
# ---------------------------------------------------------------------------


def skew_hub(events: list[Event], rng: random.Random) -> list[Event]:
    """Redirect a large fraction of edge events at one hub vertex.

    Every rewritten edge lands on the same vertex, so the platform's
    per-vertex work piles up on one hub — the degree-distribution /
    hub-collision cliff.
    """
    indices = _graph_indices(events)
    if not indices:
        return events
    hub = rng.randrange(100)
    fraction = 0.5 + rng.random() * 0.45
    out = list(events)
    for i in indices:
        event = out[i]
        if rng.random() >= fraction:
            continue
        if isinstance(event.entity, EdgeId):
            if event.entity.target != hub:
                out[i] = _with_entity(event, EdgeId(hub, event.entity.target))
        else:
            out[i] = _with_entity(event, hub)
    return out


def burst_train(events: list[Event], rng: random.Random) -> list[Event]:
    """Insert SPEED bursts: short windows of 10-80x arrival rate."""
    out = list(events)
    bursts = 1 + rng.randrange(3)
    for __ in range(bursts):
        if not out:
            break
        factor = 10.0 + rng.random() * 70.0
        start = rng.randrange(len(out))
        width = 1 + rng.randrange(max(1, len(out) // 2))
        end = min(len(out), start + width)
        out.insert(end, speed(1.0))
        out.insert(start, speed(factor))
    return out


def marker_storm(events: list[Event], rng: random.Random) -> list[Event]:
    """Insert many markers (escape-heavy labels) at random positions."""
    out = list(events)
    count = 3 + rng.randrange(12)
    for __ in range(count):
        label = ESCAPE_DICTIONARY[rng.randrange(len(ESCAPE_DICTIONARY))]
        if rng.random() < 0.5:
            label = f"m{rng.randrange(1000)}-{label}"
        out.insert(rng.randrange(len(out) + 1), marker(label))
    return out


def escape_payloads(events: list[Event], rng: random.Random) -> list[Event]:
    """Replace graph payloads with draws from the escape dictionary."""
    out = list(events)
    for i in _graph_indices(out):
        if rng.random() < 0.4:
            text = ESCAPE_DICTIONARY[rng.randrange(len(ESCAPE_DICTIONARY))]
            if rng.random() < 0.3:
                text = text * (1 + rng.randrange(4))
            out[i] = _with_payload(out[i], text)
    return out


def oversize_payloads(events: list[Event], rng: random.Random) -> list[Event]:
    """Blow a few payloads up to multi-KiB strings."""
    out = list(events)
    indices = _graph_indices(out)
    if not indices:
        return out
    for __ in range(1 + rng.randrange(3)):
        i = indices[rng.randrange(len(indices))]
        unit = ESCAPE_DICTIONARY[rng.randrange(len(ESCAPE_DICTIONARY))] or "x"
        size = 1 << (10 + rng.randrange(5))  # 1 KiB .. 16 KiB
        out[i] = _with_payload(out[i], (unit * (size // len(unit) + 1))[:size])
    return out


def pause_bomb(events: list[Event], rng: random.Random) -> list[Event]:
    """Insert a PAUSE far beyond any sane replay deadline."""
    out = list(events)
    seconds = float(60 + rng.randrange(3600))
    out.insert(rng.randrange(len(out) + 1), pause(seconds))
    return out


def float_jitter(events: list[Event], rng: random.Random) -> list[Event]:
    """Insert SPEED/PAUSE controls with precision-hostile floats."""
    out = list(events)
    for __ in range(1 + rng.randrange(4)):
        value = ADVERSARIAL_FLOATS[rng.randrange(len(ADVERSARIAL_FLOATS))]
        position = rng.randrange(len(out) + 1)
        if rng.random() < 0.5:
            out.insert(position, speed(max(value, 1e-9)))
        else:
            out.insert(position, pause(min(abs(value), 1e6)))
    return out


def dup_and_reorder(events: list[Event], rng: random.Random) -> list[Event]:
    """Duplicate, drop and swap windows of the stream."""
    out = list(events)
    for __ in range(1 + rng.randrange(3)):
        if len(out) < 4:
            break
        start = rng.randrange(len(out) - 2)
        width = 1 + rng.randrange(min(16, len(out) - start))
        window = out[start : start + width]
        action = rng.randrange(3)
        if action == 0:  # duplicate
            out[start + width : start + width] = window
        elif action == 1:  # drop
            del out[start : start + width]
        else:  # swap with the neighbouring window
            end = min(len(out), start + 2 * width)
            neighbour = out[start + width : end]
            out[start:end] = neighbour + window
    return out


EVENT_MUTATORS: dict[str, Callable[[list[Event], random.Random], list[Event]]] = {
    "skew_hub": skew_hub,
    "burst_train": burst_train,
    "marker_storm": marker_storm,
    "escape_payloads": escape_payloads,
    "oversize_payloads": oversize_payloads,
    "pause_bomb": pause_bomb,
    "float_jitter": float_jitter,
    "dup_and_reorder": dup_and_reorder,
}


def apply_event_mutators(
    events: list[Event], names: list[str], rng: random.Random
) -> list[Event]:
    """Apply named event mutators in order (unknown names raise)."""
    for name in names:
        events = EVENT_MUTATORS[name](events, rng)
    return events


# ---------------------------------------------------------------------------
# Byte-level mutators
# ---------------------------------------------------------------------------


def truncate(data: bytes, rng: random.Random) -> bytes:
    """Cut the file at an arbitrary byte offset (mid-frame, mid-line)."""
    if len(data) < 2:
        return data
    return data[: rng.randrange(1, len(data))]


def bit_flip(data: bytes, rng: random.Random) -> bytes:
    """Flip 1-8 random bits anywhere in the file."""
    if not data:
        return data
    out = bytearray(data)
    for __ in range(1 + rng.randrange(8)):
        position = rng.randrange(len(out))
        out[position] ^= 1 << rng.randrange(8)
    return bytes(out)


def garbage_prefix(data: bytes, rng: random.Random) -> bytes:
    """Prepend random bytes (destroys magic / first-line detection)."""
    length = 1 + rng.randrange(16)
    prefix = bytes(rng.randrange(256) for __ in range(length))
    return prefix + data


def splice(data: bytes, rng: random.Random) -> bytes:
    """Copy one random slice of the file over another position."""
    if len(data) < 8:
        return data
    start = rng.randrange(len(data) - 4)
    width = 1 + rng.randrange(min(64, len(data) - start))
    target = rng.randrange(len(data))
    out = bytearray(data)
    out[target:target] = data[start : start + width]
    return bytes(out)


def non_utf8_inject(data: bytes, rng: random.Random) -> bytes:
    """Overwrite a few bytes with invalid UTF-8 sequences."""
    if not data:
        return data
    out = bytearray(data)
    bad = (b"\xff", b"\xfe\xfd", b"\xc0\x80", b"\xf8\x88")
    for __ in range(1 + rng.randrange(3)):
        chunk = bad[rng.randrange(len(bad))]
        position = rng.randrange(len(out))
        out[position : position + len(chunk)] = chunk
    return bytes(out)


def corrupt_header(data: bytes, rng: random.Random) -> bytes:
    """Scramble bytes in the first 32 — magic, first frame header."""
    if not data:
        return data
    out = bytearray(data)
    limit = min(32, len(out))
    for __ in range(1 + rng.randrange(4)):
        out[rng.randrange(limit)] = rng.randrange(256)
    return bytes(out)


BYTE_MUTATORS: dict[str, Callable[[bytes, random.Random], bytes]] = {
    "truncate": truncate,
    "bit_flip": bit_flip,
    "garbage_prefix": garbage_prefix,
    "splice": splice,
    "non_utf8_inject": non_utf8_inject,
    "corrupt_header": corrupt_header,
}


def apply_byte_mutator(data: bytes, name: str, rng: random.Random) -> bytes:
    """Apply one named byte mutator (unknown names raise)."""
    return BYTE_MUTATORS[name](data, rng)
