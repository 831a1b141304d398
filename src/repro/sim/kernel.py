"""Minimal deterministic discrete-event simulation kernel.

The paper's experiments ran Weaver and Chronograph on real clusters; we
reproduce their *dynamics* on a simulated substrate.  The kernel is a
classic event-driven simulator: callbacks scheduled at simulated times,
executed in timestamp order (FIFO among equal timestamps), with a
single global clock — which conveniently also gives us the perfectly
synchronised wall clocks the paper needs PTP for.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

__all__ = ["Simulation"]


class Simulation:
    """A discrete-event simulation with a single clock.

    Events are ``(time, callback)`` pairs; :meth:`run` executes them in
    time order until the queue drains or a horizon is reached.
    Scheduling is allowed from inside callbacks.  The sequence counter
    makes execution order deterministic for equal timestamps.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of scheduled but not yet executed events."""
        return len(self._queue)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past raises :class:`ValueError` — that is
        always a modelling bug.
        """
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` seconds (>= 0)."""
        # A non-negative delay never lands in the past, so this skips
        # schedule_at's check and pushes directly.
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), callback)
        )

    # hot-path
    def run(self, until: float | None = None, max_events: int = 50_000_000) -> int:
        """Execute events in time order.

        With ``until`` set, execution stops once the next event lies
        beyond that time (the clock is then advanced to ``until``).
        Returns the number of callbacks executed.  ``max_events``
        guards against runaway feedback loops in platform models.
        """
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        executed = 0
        self._running = True
        try:
            while queue:
                if queue[0][0] > horizon:
                    break
                time, __, callback = heappop(queue)
                self._now = time
                callback()
                executed += 1
                if executed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "likely a feedback loop in a platform model"
                    )
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed
