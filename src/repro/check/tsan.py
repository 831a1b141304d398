"""Runtime thread-sanitizer harness (the dynamic half of ``repro check``).

The static concurrency rules (``CONC0xx``) prove lock *discipline*;
this module observes actual executions.  A :class:`Monitor` records a
``(thread, lock-set, access)`` tuple for every read/write of the
instrumented fields, and reports **races**: pairs of accesses to the
same field from different threads, at least one a write, whose held
lock-sets are disjoint (the classic Eraser lockset algorithm) and
which are not ordered by a happens-before edge (vector clocks updated
at ``Thread.start``/``Thread.join``, so a receiver's reader threads
counting into one :class:`~repro.core.connectors.WindowCounter`, joined
by ``close()`` before the caller reads the total, is correctly *not* a
race).

Typical test usage::

    monitor = Monitor()
    with watch_threads(monitor):          # start/join happens-before
        receiver = TcpReceiver(max_connections=2)
        instrument(receiver, monitor, fields=("_next_id",))
        with receiver:
            ShardedReplayer([a, b], TcpSpec(port=receiver.port),
                            rate=5000.0).run()
    assert monitor.races() == []

``instrument`` swaps the object's class for a recording subclass and
transparently wraps any plain ``threading.Lock``/``RLock`` attributes
in :class:`TrackedLock` so ``with self._lock:`` blocks feed the
lock-set tracking.  The overhead is one monitor call per instrumented
field access — built for tests, not production replays.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Access",
    "Race",
    "TrackedLock",
    "Monitor",
    "instrument",
    "watch_threads",
]


@dataclass(frozen=True, slots=True)
class Access:
    """One recorded field access."""

    seq: int
    thread: int
    owner: str
    field: str
    write: bool
    lockset: frozenset[int]
    clock: dict[int, int]
    location: str

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        held = len(self.lockset)
        return (
            f"{kind} of {self.owner}.{self.field} on thread {self.thread} "
            f"holding {held} lock(s) at {self.location}"
        )


@dataclass(frozen=True, slots=True)
class Race:
    """Two lockset-disjoint, unordered cross-thread accesses."""

    field: str
    first: Access
    second: Access

    def describe(self) -> str:
        return (
            f"race on {self.first.owner}.{self.field}:\n"
            f"  {self.first.describe()}\n"
            f"  {self.second.describe()}"
        )


def _dominates(first: dict[int, int], second: dict[int, int]) -> bool:
    """True when vector clock ``first`` <= ``second`` component-wise."""
    return all(value <= second.get(key, 0) for key, value in first.items())


def _concurrent(first: dict[int, int], second: dict[int, int]) -> bool:
    return not _dominates(first, second) and not _dominates(second, first)


class TrackedLock:
    """A lock wrapper feeding acquire/release into a :class:`Monitor`.

    Wraps an existing ``threading.Lock``/``RLock`` (or creates a fresh
    ``Lock``) and mirrors its context-manager and ``acquire``/
    ``release`` API, so it is a drop-in replacement inside ``with
    self._lock:`` blocks.
    """

    def __init__(self, monitor: "Monitor", inner=None, name: str = "lock"):
        self._monitor = monitor
        self._inner = inner if inner is not None else threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor._on_acquire(id(self))
        return acquired

    def release(self) -> None:
        self._monitor._on_release(id(self))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _ThreadId(threading.local):
    def __init__(self, ids: Iterator[int]):
        self.value = next(ids)


class Monitor:
    """Collects accesses, lock-sets, and thread happens-before edges.

    Thread-safe: every recording call serialises on one internal
    (untracked) lock, which also gives accesses a global sequence
    number.  Vector clocks advance one tick per recorded event; start
    and join edges merge clocks between parent and child threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accesses: list[Access] = []
        self._clocks: dict[int, dict[int, int]] = {}
        self._locksets: dict[int, set[int]] = {}
        self._finished_clocks: dict[int, dict[int, int]] = {}
        self._seq = 0
        # Logical ids: pthread hands a finished thread's OS ident to the
        # next thread, which would merge two threads' accesses into one.
        self._thread_id = _ThreadId(itertools.count(1))

    # -- recording ---------------------------------------------------------

    def record_access(
        self, owner: str, field: str, *, write: bool, location: str = ""
    ) -> None:
        ident = self._thread_id.value
        with self._lock:
            clock = self._tick(ident)
            self._seq += 1
            self._accesses.append(
                Access(
                    seq=self._seq,
                    thread=ident,
                    owner=owner,
                    field=field,
                    write=write,
                    lockset=frozenset(self._locksets.get(ident, ())),
                    clock=dict(clock),
                    location=location,
                )
            )

    def _on_acquire(self, lock_id: int) -> None:
        ident = self._thread_id.value
        with self._lock:
            self._locksets.setdefault(ident, set()).add(lock_id)

    def _on_release(self, lock_id: int) -> None:
        ident = self._thread_id.value
        with self._lock:
            self._locksets.get(ident, set()).discard(lock_id)

    # -- happens-before edges ---------------------------------------------

    def _tick(self, ident: int) -> dict[int, int]:
        clock = self._clocks.setdefault(ident, {})
        clock[ident] = clock.get(ident, 0) + 1
        return clock

    def on_thread_start(self, parent: int) -> dict[int, int]:
        """Called in the parent just before a child thread starts;
        returns the clock snapshot the child inherits."""
        with self._lock:
            return dict(self._tick(parent))

    def on_thread_begin(self, child: int, inherited: dict[int, int]) -> None:
        """Called as the first action on the child thread."""
        with self._lock:
            clock = self._clocks.setdefault(child, {})
            for key, value in inherited.items():
                clock[key] = max(clock.get(key, 0), value)
            self._tick(child)

    def on_thread_end(self, child: int) -> None:
        """Called as the child thread finishes; snapshots its clock so a
        later join can establish the edge."""
        with self._lock:
            self._finished_clocks[child] = dict(self._tick(child))

    def on_thread_join(self, parent: int, child: int) -> None:
        """Called in the parent after a successful join of ``child``."""
        with self._lock:
            final = self._finished_clocks.get(child)
            if final is None:
                return
            clock = self._clocks.setdefault(parent, {})
            for key, value in final.items():
                clock[key] = max(clock.get(key, 0), value)
            self._tick(parent)

    # -- reporting ---------------------------------------------------------

    @property
    def accesses(self) -> list[Access]:
        with self._lock:
            return list(self._accesses)

    def races(self, *, max_per_field: int = 1) -> list[Race]:
        """Lockset-disjoint, unordered cross-thread conflicting accesses.

        ``max_per_field`` caps how many conflicting pairs are reported
        per field (one is enough to fail a test; the full access log
        stays available on :attr:`accesses` for debugging).
        """
        races: list[Race] = []
        by_field: dict[tuple[str, str], list[Access]] = {}
        for access in self.accesses:
            by_field.setdefault((access.owner, access.field), []).append(access)
        for (__, field), accesses in sorted(by_field.items()):
            found = 0
            writes = [access for access in accesses if access.write]
            for write in writes:
                if found >= max_per_field:
                    break
                for other in accesses:
                    if other.thread == write.thread:
                        continue
                    if write.lockset & other.lockset:
                        continue
                    if not _concurrent(write.clock, other.clock):
                        continue
                    first, second = sorted(
                        (write, other), key=lambda access: access.seq
                    )
                    races.append(Race(field=field, first=first, second=second))
                    found += 1
                    break
        return races

    def assert_race_free(self) -> None:
        """Raise ``AssertionError`` describing every detected race."""
        races = self.races()
        if races:
            details = "\n".join(race.describe() for race in races)
            raise AssertionError(f"{len(races)} data race(s) detected:\n{details}")


def _caller_location(depth: int = 2) -> str:
    frame = sys._getframe(depth)
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _is_plain_lock(value: object) -> bool:
    if isinstance(value, TrackedLock):
        return False
    return type(value).__module__ == "_thread" and hasattr(value, "acquire")


def instrument(
    obj: object,
    monitor: Monitor,
    fields: Iterable[str],
    *,
    label: str | None = None,
    wrap_locks: bool = True,
) -> object:
    """Instrument ``obj`` so accesses to ``fields`` are recorded.

    Swaps the object's class for a dynamically created subclass whose
    ``__getattribute__``/``__setattr__`` report reads/writes of the
    named fields to ``monitor`` before delegating.  With
    ``wrap_locks`` (default), every plain ``threading.Lock``/``RLock``
    attribute of the object is replaced by a :class:`TrackedLock` so
    the monitor sees which locks protect which accesses.  Returns
    ``obj`` (instrumented in place).

    Objects using ``__slots__`` cannot be instrumented this way; the
    shared state of the replayer/transport stack is held in plain
    classes precisely so tests can wrap it.
    """
    cls = type(obj)
    field_set = frozenset(fields)
    owner = label if label is not None else cls.__name__

    if wrap_locks:
        for attr_name, value in list(vars(obj).items()):
            if _is_plain_lock(value):
                object.__setattr__(
                    obj,
                    attr_name,
                    TrackedLock(monitor, inner=value, name=attr_name),
                )

    base_get = cls.__getattribute__
    base_set = cls.__setattr__

    def __getattribute__(self, name):
        if name in field_set:
            monitor.record_access(
                owner, name, write=False, location=_caller_location()
            )
        return base_get(self, name)

    def __setattr__(self, name, value):
        if name in field_set:
            monitor.record_access(
                owner, name, write=True, location=_caller_location()
            )
        base_set(self, name, value)

    instrumented = type(
        f"Tsan{cls.__name__}",
        (cls,),
        {
            "__getattribute__": __getattribute__,
            "__setattr__": __setattr__,
            "__tsan_fields__": field_set,
        },
    )
    object.__setattr__(obj, "__class__", instrumented)
    return obj


@contextmanager
def watch_threads(monitor: Monitor) -> Iterator[Monitor]:
    """Patch ``threading.Thread`` start/join to feed happens-before edges.

    Inside the context, every thread start hands the parent's vector
    clock to the child, and every *successful* join merges the child's
    final clock back into the joiner — so hand-offs that are ordered
    by thread lifecycle (write in child, ``join()``, read in parent)
    are correctly excluded from race reports.  Timed-out joins merge
    nothing.  The patch is process-global; use from one test at a time
    (the pytest fixture serialises naturally).
    """
    original_start = threading.Thread.start
    original_join = threading.Thread.join

    def start(self):
        inherited = monitor.on_thread_start(monitor._thread_id.value)
        original_run = self.run

        def run():
            ident = self._tsan_thread_id = monitor._thread_id.value
            monitor.on_thread_begin(ident, inherited)
            try:
                original_run()
            finally:
                monitor.on_thread_end(ident)

        self.run = run
        original_start(self)

    def join(self, timeout=None):
        original_join(self, timeout)
        child = getattr(self, "_tsan_thread_id", None)
        if not self.is_alive() and child is not None:
            monitor.on_thread_join(monitor._thread_id.value, child)

    threading.Thread.start = start  # type: ignore[method-assign]
    threading.Thread.join = join  # type: ignore[method-assign]
    try:
        yield monitor
    finally:
        threading.Thread.start = original_start  # type: ignore[method-assign]
        threading.Thread.join = original_join  # type: ignore[method-assign]
