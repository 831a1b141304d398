"""Fixture tests for the flow-sensitive RES/EXC/HOT lifecycle rules.

Each rule must fire on its known-bad fixture *and* stay silent on the
``with`` / ``finally`` / ownership-transfer counterpart — the dataflow
engine's precision is the product under test here.
"""

from __future__ import annotations

import pytest

from repro.check.lifecycle import (
    BlockingHotPathRule,
    ResourceLeakRule,
    SwallowedExceptionRule,
    UnjoinedSpawnRule,
)


# -- RES001 ------------------------------------------------------------------


def test_res001_fires_on_exception_path_leak(check_source):
    violations = check_source(
        """
        def read(path):
            handle = open(path)
            data = handle.read()
            handle.close()
            return data
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]
    assert "exception" in violations[0].message
    assert violations[0].severity == "error"


def test_res001_fires_on_missing_close_entirely(check_source):
    violations = check_source(
        """
        def read(path):
            handle = open(path)
            return handle.read()
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]


def test_res001_silent_with_statement(check_source):
    assert not check_source(
        """
        def read(path):
            with open(path) as handle:
                return handle.read()
        """,
        ResourceLeakRule(),
    )


def test_res001_silent_try_finally(check_source):
    assert not check_source(
        """
        def read(path):
            handle = open(path)
            try:
                return handle.read()
            finally:
                handle.close()
        """,
        ResourceLeakRule(),
    )


def test_res001_silent_on_ownership_transfer_return(check_source):
    assert not check_source(
        """
        def acquire(path):
            handle = open(path)
            return handle
        """,
        ResourceLeakRule(),
    )


def test_res001_silent_on_attribute_store(check_source):
    assert not check_source(
        """
        class Holder:
            def open(self, path):
                handle = open(path)
                self._handle = handle
        """,
        ResourceLeakRule(),
    )


def test_res001_silent_on_call_argument_transfer(check_source):
    assert not check_source(
        """
        def acquire(path, registry):
            handle = open(path)
            registry.adopt(handle)
        """,
        ResourceLeakRule(),
    )


def test_res001_none_guard_release_is_understood(check_source):
    assert not check_source(
        """
        def scan(codec, source):
            mapped = codec.open_stream_mmap(source)
            try:
                process(mapped)
            finally:
                if mapped is not None:
                    mapped.close()
        """,
        ResourceLeakRule(),
    )


def test_res001_fires_on_conditional_expression_acquisition(check_source):
    violations = check_source(
        """
        def parse(path, fast):
            blocks = _iter_blocks_mmap(path) if fast else _iter_blocks(path)
            for lines in blocks:
                consume(lines)
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]
    assert "blocks" in violations[0].message


def test_res001_either_arm_of_conditional_expression_acquires(check_source):
    violations = check_source(
        """
        def read(path, spare):
            handle = spare if path is None else open(path)
            return handle.read()
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]


def test_res001_silent_on_conditional_expression_closed_in_finally(
    check_source,
):
    assert not check_source(
        """
        def parse(path, fast):
            blocks = _iter_blocks_mmap(path) if fast else _iter_blocks(path)
            try:
                for lines in blocks:
                    consume(lines)
            finally:
                blocks.close()
        """,
        ResourceLeakRule(),
    )


def test_res001_socket_configure_leak_and_fix(check_source):
    bad = check_source(
        """
        import socket

        def connect(host, port):
            sock = socket.create_connection((host, port))
            sock.settimeout(None)
            return sock
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in bad] == ["RES001"]
    assert not check_source(
        """
        import socket

        def connect(host, port):
            sock = socket.create_connection((host, port))
            try:
                sock.settimeout(None)
            except OSError:
                sock.close()
                raise
            return sock
        """,
        ResourceLeakRule(),
    )


def test_res001_lock_acquire_without_release(check_source):
    bad = check_source(
        """
        def update(self, value):
            self._lock.acquire()
            self._value = value
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in bad] == ["RES001"]
    assert not check_source(
        """
        def update(self, value):
            self._lock.acquire()
            try:
                self._value = value
            finally:
                self._lock.release()
        """,
        ResourceLeakRule(),
    )


def test_res001_alias_release_counts(check_source):
    assert not check_source(
        """
        def read(path):
            handle = open(path)
            alias = handle
            try:
                return alias.read()
            finally:
                alias.close()
        """,
        ResourceLeakRule(),
    )


def test_res001_suppression_applies(check_source):
    assert not check_source(
        """
        def read(path):
            handle = open(path)  # repro-check: disable=RES001
            return handle.read()
        """,
        ResourceLeakRule(),
    )


def test_res001_shared_memory_owner_needs_close_and_unlink(check_source):
    # close() alone is not enough for an owning segment: the unlink
    # obligation is tracked as its own fact and must fire separately.
    violations = check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def make(name):
            seg = SharedMemory(name=name, create=True, size=4096)
            seg.close()
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]
    assert "unlink" in violations[0].message


def test_res001_shared_memory_owner_missing_both(check_source):
    violations = check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def make(name, flag):
            seg = SharedMemory(name=name, create=True, size=4096)
            if flag:
                seg.close()
                seg.unlink()
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001", "RES001"]
    messages = " ".join(v.message for v in violations)
    assert "close" in messages and "unlink" in messages


def test_res001_shared_memory_owner_clean_with_finally(check_source):
    assert not check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def make(name):
            seg = SharedMemory(name=name, create=True, size=4096)
            try:
                seg.buf[0] = 1
            finally:
                seg.close()
                seg.unlink()
        """,
        ResourceLeakRule(),
    )


def test_res001_shared_memory_attach_needs_only_close(check_source):
    assert not check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def peek(name):
            seg = SharedMemory(name=name)
            try:
                return bytes(seg.buf[:8])
            finally:
                seg.close()
        """,
        ResourceLeakRule(),
    )
    violations = check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def peek(name, flag):
            seg = SharedMemory(name=name)
            if flag:
                seg.close()
        """,
        ResourceLeakRule(),
    )
    assert [v.rule_id for v in violations] == ["RES001"]
    assert "close" in violations[0].message


def test_res001_shared_memory_transfer_is_ownership_handoff(check_source):
    # Returning the segment hands both obligations to the caller.
    assert not check_source(
        """
        from multiprocessing.shared_memory import SharedMemory

        def make(name):
            seg = SharedMemory(name=name, create=True, size=4096)
            return seg
        """,
        ResourceLeakRule(),
    )


# -- RES002 ------------------------------------------------------------------


def test_res002_fires_on_unjoined_thread(check_source):
    violations = check_source(
        """
        import threading

        def launch(work):
            worker = threading.Thread(target=work)
            worker.start()
        """,
        UnjoinedSpawnRule(),
    )
    assert [v.rule_id for v in violations] == ["RES002"]


def test_res002_silent_when_joined(check_source):
    assert not check_source(
        """
        import threading

        def launch(work):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        """,
        UnjoinedSpawnRule(),
    )


def test_res002_silent_when_stored_before_start(check_source):
    assert not check_source(
        """
        import threading

        class Owner:
            def launch(self, work):
                worker = threading.Thread(target=work)
                self._worker = worker
                worker.start()
        """,
        UnjoinedSpawnRule(),
    )


def test_res002_silent_when_registered_for_cleanup(check_source):
    assert not check_source(
        """
        import atexit
        import threading

        def launch(work):
            worker = threading.Thread(target=work)
            worker.start()
            atexit.register(worker.join)
        """,
        UnjoinedSpawnRule(),
    )


def test_res002_flags_unbound_start(check_source):
    violations = check_source(
        """
        import threading

        def launch(work):
            threading.Thread(target=work, daemon=True).start()
        """,
        UnjoinedSpawnRule(),
    )
    assert [v.rule_id for v in violations] == ["RES002"]
    assert "never be joined" in violations[0].message


def test_res002_process_spawn(check_source):
    violations = check_source(
        """
        import multiprocessing

        def launch(work):
            proc = multiprocessing.Process(target=work)
            proc.start()
        """,
        UnjoinedSpawnRule(),
    )
    assert [v.rule_id for v in violations] == ["RES002"]


# -- EXC001 ------------------------------------------------------------------


def test_exc001_fires_on_swallow_with_resource_held(check_source):
    violations = check_source(
        """
        def read(path):
            handle = open(path)
            try:
                data = handle.read()
            except Exception:
                pass
            handle.close()
        """,
        SwallowedExceptionRule(),
    )
    assert [v.rule_id for v in violations] == ["EXC001"]
    assert "'handle'" in violations[0].message
    assert violations[0].severity == "warning"


def test_exc001_silent_when_handler_releases(check_source):
    assert not check_source(
        """
        def read(path):
            handle = open(path)
            try:
                data = handle.read()
            except Exception:
                handle.close()
                raise
            handle.close()
        """,
        SwallowedExceptionRule(),
    )


def test_exc001_silent_when_handler_logs(check_source):
    assert not check_source(
        """
        def read(path, log):
            handle = open(path)
            try:
                data = handle.read()
            except Exception as exc:
                log.warning("read failed: %s", exc)
            handle.close()
        """,
        SwallowedExceptionRule(),
    )


def test_exc001_silent_on_narrow_exception(check_source):
    assert not check_source(
        """
        def read(path):
            handle = open(path)
            try:
                data = handle.read()
            except ValueError:
                pass
            handle.close()
        """,
        SwallowedExceptionRule(),
    )


def test_exc001_silent_without_held_resources(check_source):
    assert not check_source(
        """
        def tally(records):
            total = 0
            try:
                total = sum(records)
            except Exception:
                pass
            return total
        """,
        SwallowedExceptionRule(),
    )


def test_exc001_bare_except_counts_as_broad(check_source):
    violations = check_source(
        """
        def read(path):
            handle = open(path)
            try:
                data = handle.read()
            except:
                pass
            handle.close()
        """,
        SwallowedExceptionRule(),
    )
    assert [v.rule_id for v in violations] == ["EXC001"]


# -- HOT001 ------------------------------------------------------------------


def test_hot001_fires_on_sleep_in_annotated_function(check_source):
    violations = check_source(
        """
        import time

        # hot-path
        def emit_loop(batches):
            for batch in batches:
                time.sleep(0.01)
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]
    assert violations[0].severity == "warning"


def test_hot001_fires_on_unbounded_queue_get(check_source):
    violations = check_source(
        """
        # hot-path
        def drain(work_queue):
            while True:
                item = work_queue.get()
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]


def test_hot001_silent_on_queue_get_with_timeout(check_source):
    assert not check_source(
        """
        # hot-path
        def drain(work_queue):
            while True:
                item = work_queue.get(timeout=0.5)
        """,
        BlockingHotPathRule(),
    )


def test_hot001_fires_on_socket_accept(check_source):
    violations = check_source(
        """
        # hot-path
        def serve(server):
            connection, __ = server.accept()
            return connection
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]


def test_hot001_propagates_to_callees(check_source):
    violations = check_source(
        """
        import time

        def backoff():
            time.sleep(1.0)

        # hot-path
        def emit_loop(batches):
            for batch in batches:
                backoff()
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]
    assert "hot via 'emit_loop'" in violations[0].message


def test_hot001_propagates_through_methods(check_source):
    violations = check_source(
        """
        import time

        class Pump:
            def _pause(self):
                time.sleep(0.5)

            # hot-path
            def run(self):
                self._pause()
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]


def test_hot001_silent_without_annotation(check_source):
    assert not check_source(
        """
        import time

        def cold_path():
            time.sleep(5)
        """,
        BlockingHotPathRule(),
    )


def test_hot001_silent_on_join_with_timeout(check_source):
    assert not check_source(
        """
        # hot-path
        def stop(worker):
            worker.join(timeout=2.0)
        """,
        BlockingHotPathRule(),
    )


def test_hot001_fires_on_bare_join(check_source):
    violations = check_source(
        """
        # hot-path
        def stop(worker):
            worker.join()
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]


def test_hot001_suppression_with_justification(check_source):
    assert not check_source(
        """
        import time

        # hot-path
        def emit_loop(wait):
            # pacing sleep, bounded by the emit slot
            time.sleep(wait)  # repro-check: disable=HOT001
        """,
        BlockingHotPathRule(),
    )


def test_hot001_annotation_on_def_line(check_source):
    violations = check_source(
        """
        import time

        def emit_loop(batches):  # hot-path
            time.sleep(0.01)
        """,
        BlockingHotPathRule(),
    )
    assert [v.rule_id for v in violations] == ["HOT001"]
