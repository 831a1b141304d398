"""Unit tests for the runtime thread-sanitizer harness."""

from __future__ import annotations

import threading
import time

from repro.check.tsan import Monitor, TrackedLock, instrument, watch_threads


class Counter:
    """Deliberately plain shared-state holder for instrumentation."""

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def bump_unlocked(self):
        self.value = self.value + 1

    def bump_locked(self):
        with self._lock:
            self.value = self.value + 1


def _run_in_threads(fn, count=2, iterations=200):
    threads = [
        threading.Thread(target=lambda: [fn() for _ in range(iterations)])
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestRaceDetection:
    def test_unlocked_cross_thread_writes_are_a_race(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        with watch_threads(monitor):
            _run_in_threads(counter.bump_unlocked)
        races = monitor.races()
        assert races
        assert races[0].field == "value"
        assert races[0].first.thread != races[0].second.thread
        assert "write" in races[0].describe()

    def test_race_found_when_os_thread_idents_repeat(self, monkeypatch):
        """pthread reuses a finished thread's ident, and on one CPU the
        first worker often exits before the second starts: the detector
        must still tell the two threads apart."""
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        threads = [threading.Thread(target=counter.bump_unlocked) for __ in range(2)]
        with watch_threads(monitor), monkeypatch.context() as patch:
            patch.setattr(threading, "get_ident", lambda: 1)
            for thread in threads:
                thread.start()
                # Finished, but not joined: nothing orders the two.
                deadline = time.monotonic() + 5.0
                while thread.is_alive() and time.monotonic() < deadline:
                    time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        races = monitor.races()
        assert races
        assert races[0].first.thread != races[0].second.thread

    def test_lock_guarded_writes_are_clean(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        # instrument() wrapped the plain Lock in a TrackedLock, so the
        # with-block feeds the lockset algorithm.
        assert isinstance(counter._lock, TrackedLock)
        with watch_threads(monitor):
            _run_in_threads(counter.bump_locked)
        monitor.assert_race_free()
        assert counter.value == 400

    def test_join_edge_orders_child_write_before_parent_read(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        with watch_threads(monitor):
            worker = threading.Thread(target=counter.bump_unlocked)
            worker.start()
            worker.join()
            observed = counter.value
        assert observed == 1
        monitor.assert_race_free()

    def test_parent_read_without_join_is_a_race(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        started = threading.Event()
        release = threading.Event()

        def child():
            counter.bump_unlocked()
            started.set()
            release.wait(timeout=5.0)

        with watch_threads(monitor):
            worker = threading.Thread(target=child)
            worker.start()
            # The child has definitely written, but no join edge orders
            # that write before this read.
            assert started.wait(timeout=5.0)
            _ = counter.value
            release.set()
            worker.join()
        races = monitor.races()
        assert races
        assert races[0].field == "value"


class TestMonitorMechanics:
    def test_accesses_record_reads_and_writes(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        counter.bump_unlocked()
        kinds = [(a.field, a.write) for a in monitor.accesses]
        assert ("value", False) in kinds
        assert ("value", True) in kinds

    def test_uninstrumented_fields_are_not_recorded(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        _ = counter._lock
        assert all(a.field == "value" for a in monitor.accesses)

    def test_same_thread_accesses_never_race(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        for _ in range(10):
            counter.bump_unlocked()
        assert monitor.races() == []

    def test_instrument_preserves_behaviour(self):
        monitor = Monitor()
        counter = Counter()
        instrument(counter, monitor, fields=("value",))
        counter.bump_locked()
        assert counter.value == 1
        assert isinstance(counter, Counter)

    def test_tracked_lock_is_reentrant_safe_wrapper(self):
        monitor = Monitor()
        lock = TrackedLock(monitor, inner=threading.RLock(), name="rlock")
        with lock:
            with lock:
                pass  # RLock semantics preserved through the wrapper

    def test_fixture_monitor_sees_thread_lifecycle(self, tsan_monitor):
        counter = Counter()
        instrument(counter, tsan_monitor, fields=("value",))
        worker = threading.Thread(target=counter.bump_locked)
        worker.start()
        worker.join()
        with counter._lock:
            assert counter.value == 1
