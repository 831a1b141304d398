"""Simulated Chronograph-style distributed processing platform (Level 2).

Chronograph [Erb et al., DEBS'17] is a distributed platform for online
and batch computations on event-sourced graphs: vertices are
hash-partitioned over workers, graph updates and vertex-centric
computation messages flow through the *same* per-worker FIFO queues,
and online computations produce approximate results while the graph
keeps evolving.

The paper's Level-2 experiment (section 5.3.2, Figure 3d) instrumented
Chronograph to expose internal queue lengths and per-worker operation
throughput, ran an online influence-rank computation under a varying
SNB-derived stream (pause, then doubled rate), and found that

* worker queues saturate towards the end of the stream,
* the backlog of internal messages keeps the system busy long after
  the stream has stopped, and
* rank results carry high error with long delays because graph
  evolution and computation messages compete for the same resources.

This model reproduces those mechanics: ``worker_count`` workers, each a
serial CPU with an unbounded FIFO mailbox carrying both update and
compute messages.  The online influence rank is a distributed
Gauss–Seidel PageRank (:class:`~repro.algorithms.pagerank.OnlinePageRank`
in scheduler mode): processing an update marks affected vertices dirty,
each dirty vertex becomes a compute message on its owner's queue, and
relaxations cascade further compute messages.

Modelling note: graph mutations are applied to the authoritative state
in stream order at ingest (Chronograph's event-sourced per-vertex logs
guarantee causal order); the *cost* of integrating an update is charged
on the owning worker when its update message is dequeued.  This keeps
state consistent without modelling per-vertex log replay, while
preserving the queueing dynamics the experiment measures.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.pagerank import OnlinePageRank
from repro.core.events import GraphEvent
from repro.errors import PlatformError
from repro.platforms.base import Platform
from repro.sim.kernel import Simulation
from repro.sim.resources import BoundedQueue, CpuResource

__all__ = ["ChronoLikePlatform"]

_UPDATE = "update"
_COMPUTE = "compute"


class ChronoLikePlatform(Platform):
    """Distributed message-driven platform with online influence rank.

    Level 2: full internal access.  ``internal_probe`` exposes queue
    lengths, per-worker operation counters, and intermediate rank
    estimates, mirroring the instrumentation injected into Chronograph
    for the paper's experiment.
    """

    name = "chronograph"
    evaluation_level = 2

    def __init__(
        self,
        worker_count: int = 4,
        update_service: float = 40e-6,
        compute_service: float = 60e-6,
        damping: float = 0.85,
        rank_threshold: float = 0.02,
        relative_rank_threshold: bool = True,
        deduplicate_compute: bool = False,
    ):
        super().__init__()
        if worker_count <= 0:
            raise ValueError(f"worker_count must be positive, got {worker_count}")
        if update_service < 0 or compute_service < 0:
            raise ValueError("service times must be >= 0")
        self.worker_count = worker_count
        self.update_service = update_service
        self.compute_service = compute_service
        #: With ``False`` (default) every dirty-marking becomes its own
        #: compute message, like real message-passing systems — redundant
        #: relaxations cost CPU and queue space, which is exactly the
        #: backlog behaviour the paper measured.  ``True`` coalesces
        #: marks per vertex (an idealised scheduler).
        self.deduplicate_compute = deduplicate_compute

        #: Vertices the rank computation marked dirty, in marking order.
        #: The rank appends to this list rather than calling back into
        #: the platform, so the two hold no reference cycle.
        self._marked: list[int] = []
        self._rank = OnlinePageRank(
            damping=damping,
            threshold=rank_threshold,
            work_per_event=0,
            scheduler=self._marked.append,
            relative_threshold=relative_rank_threshold,
        )
        self._cpus: list[CpuResource] = []
        self._mailboxes: list[BoundedQueue] = []
        self._update_ops = [0] * worker_count
        self._compute_ops = [0] * worker_count
        self._accepted = 0
        self._updates_processed = 0
        self._pending_compute: set[int] = set()

    # -- partitioning -----------------------------------------------------

    def owner_of(self, vertex: int) -> int:
        """Worker index owning ``vertex`` (hash partitioning)."""
        return vertex % self.worker_count

    def _owner_of_event(self, event: GraphEvent) -> int:
        if event.event_type.is_vertex_event:
            return self.owner_of(event.vertex_id)
        return self.owner_of(event.edge_id.source)

    # -- platform interface --------------------------------------------------

    def _on_attach(self, sim: Simulation) -> None:
        self._cpus = [
            CpuResource(sim, f"{self.name}-worker-{i}")
            for i in range(self.worker_count)
        ]
        self._mailboxes = [
            BoundedQueue(f"{self.name}-mailbox-{i}") for i in range(self.worker_count)
        ]

    def ingest(self, event: GraphEvent) -> bool:
        if not self._cpus:
            raise PlatformError("platform is not attached to a simulation")
        self._accepted += 1
        # Authoritative state in stream order; dirty vertices become
        # compute messages.
        self._rank.ingest(event)
        self._schedule_marked()
        worker = self._owner_of_event(event)
        self._enqueue(worker, (_UPDATE, event))
        return True  # no backpressure: queues are unbounded (the point!)

    def _schedule_marked(self) -> None:
        """Turn each vertex the rank marked dirty into a compute message."""
        for vertex in self._marked:
            if self.deduplicate_compute:
                if vertex in self._pending_compute:
                    continue
                self._pending_compute.add(vertex)
            self._enqueue(self.owner_of(vertex), (_COMPUTE, vertex))
        self._marked.clear()

    def _enqueue(self, worker: int, message: tuple) -> None:
        self._mailboxes[worker].push(message)
        self._maybe_start(worker)

    def _maybe_start(self, worker: int) -> None:
        cpu = self._cpus[worker]
        mailbox = self._mailboxes[worker]
        if cpu.busy or cpu.queue_length or not len(mailbox):
            return
        kind, payload = mailbox.pop()
        if kind == _UPDATE:
            service = self.update_service
        else:
            service = self.compute_service
        cpu.submit(service, lambda: self._handle(worker, kind, payload))

    def _handle(self, worker: int, kind: str, payload: Any) -> None:
        if kind == _UPDATE:
            # State was applied at ingest; this charges integration work.
            self._update_ops[worker] += 1
            self._updates_processed += 1
        else:
            vertex = payload
            self._pending_compute.discard(vertex)
            self._rank.relax(vertex)
            self._schedule_marked()
            self._compute_ops[worker] += 1
        self._maybe_start(worker)

    def query(self, name: str, **params: Any) -> Any:
        if name == "rank":
            return self._rank.result()
        if name == "top_influencers":
            k = int(params.get("k", 10))
            ranks = self._rank.result()
            return sorted(ranks, key=lambda v: (-ranks[v], v))[:k]
        if name == "vertex_count":
            return self._rank.graph.vertex_count
        if name == "edge_count":
            return self._rank.graph.edge_count
        raise PlatformError(f"unknown query {name!r}")

    def processes(self) -> list[CpuResource]:
        return list(self._cpus)

    def events_accepted(self) -> int:
        return self._accepted

    def events_processed(self) -> int:
        return self._updates_processed

    # -- level 1 -------------------------------------------------------------

    def _native_metrics(self) -> dict[str, float]:
        total_ops = sum(self._update_ops) + sum(self._compute_ops)
        return {
            "internal_ops": float(total_ops),
            "queued_messages": float(sum(len(m) for m in self._mailboxes)),
            "failed_workers": float(sum(1 for c in self._cpus if c.failed)),
        }

    # -- level 2 -------------------------------------------------------------

    def _internal_probe(self, name: str) -> Any:
        if name == "queue_lengths":
            return [len(mailbox) for mailbox in self._mailboxes]
        if name == "failed_workers":
            return [i for i, cpu in enumerate(self._cpus) if cpu.failed]
        if name == "worker_update_ops":
            return list(self._update_ops)
        if name == "worker_compute_ops":
            return list(self._compute_ops)
        if name == "rank_estimates":
            return self._rank.result()
        if name == "pending_compute":
            return len(self._pending_compute)
        if name == "graph":
            return self._rank.graph
        raise PlatformError(f"unknown internal probe {name!r}")

    @property
    def is_idle(self) -> bool:
        """True when all mailboxes are empty and all CPUs idle.

        A crashed worker with stalled queued work is *not* idle —
        without this, a fault window could masquerade as a drained
        platform.
        """
        return all(not len(m) for m in self._mailboxes) and all(
            not c.busy and not c.queue_length for c in self._cpus
        )

    @property
    def is_drained(self) -> bool:
        # Compute messages outlive accepted events; drained means the
        # whole internal backlog — updates *and* computation — is gone.
        return self.is_idle
