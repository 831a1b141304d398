"""Built-in generator rule sets and the paper's experiment workloads.

Provides ready-made :class:`~repro.core.generator.GeneratorRules`:

* :class:`UniformRules` — configurable event mix with uniform random
  selections; the generic baseline workload.
* :class:`WeaverTable3Rules` — the exact Weaver experiment workload of
  Table 3: Barabási–Albert bootstrap (n=10000, m0=250, M=50), the
  10/5/35/35/15/0 event mix, Zipf-degree-biased selections.
* :class:`SocialNetworkRules`, :class:`DdosTrafficRules`,
  :class:`BlockchainRules` — the three use cases of section 2.4.

plus :func:`chronograph_table4_stream`, which assembles the Table-4
Chronograph stream (SNB-like events with the pause and double-rate
control structure).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.events import EventType, GraphEvent, marker, pause, speed
from repro.core.generator import GeneratorContext, GeneratorRules
from repro.core.stream import GraphStream
from repro.errors import GeneratorError
from repro.gen.barabasi_albert import barabasi_albert_stream
from repro.gen.snb import SnbConfig, snb_stream
from repro.gen.zipf import ZipfSelector

__all__ = [
    "EventMix",
    "UniformRules",
    "WeaverTable3Rules",
    "SocialNetworkRules",
    "DdosTrafficRules",
    "BlockchainRules",
    "chronograph_table4_stream",
    "WEAVER_TABLE3_MIX",
]


@dataclass(frozen=True, slots=True)
class EventMix:
    """Relative weights of the six graph operations in a workload.

    Weights need not sum to 1; they are normalised when sampling.  A
    weight of 0 disables the operation entirely.
    """

    add_vertex: float = 1.0
    remove_vertex: float = 0.0
    update_vertex: float = 0.0
    add_edge: float = 1.0
    remove_edge: float = 0.0
    update_edge: float = 0.0

    def __post_init__(self) -> None:
        weights = self.as_weights()
        if any(w < 0 for w in weights.values()):
            raise ValueError("event mix weights must be non-negative")
        if not any(weights.values()):
            raise ValueError("event mix must enable at least one operation")

    def as_weights(self) -> dict[EventType, float]:
        return {
            EventType.ADD_VERTEX: self.add_vertex,
            EventType.REMOVE_VERTEX: self.remove_vertex,
            EventType.UPDATE_VERTEX: self.update_vertex,
            EventType.ADD_EDGE: self.add_edge,
            EventType.REMOVE_EDGE: self.remove_edge,
            EventType.UPDATE_EDGE: self.update_edge,
        }

    def sample(self, rng: random.Random) -> EventType:
        """Draw one event type with probability proportional to weight."""
        types, cumulative = _mix_table(self)
        return rng.choices(types, cum_weights=cumulative, k=1)[0]


@functools.lru_cache(maxsize=64)
def _mix_table(mix: EventMix) -> tuple[tuple[EventType, ...], tuple[float, ...]]:
    """A mix's event types and cumulative weights, built once per mix
    (a frozen, hashable value) instead of on every draw."""
    weights = mix.as_weights()
    return tuple(weights), tuple(itertools.accumulate(weights.values()))


#: Table 3's event mix: CREATE_VERTEX 10%, REMOVE_VERTEX 5%,
#: UPDATE_VERTEX 35%, CREATE_EDGE 35%, REMOVE_EDGE 15%, UPDATE_EDGE 0%.
WEAVER_TABLE3_MIX = EventMix(
    add_vertex=0.10,
    remove_vertex=0.05,
    update_vertex=0.35,
    add_edge=0.35,
    remove_edge=0.15,
    update_edge=0.0,
)


class UniformRules(GeneratorRules):
    """Uniform random workload with a configurable event mix.

    Bootstraps ``bootstrap_vertices`` isolated vertices plus
    ``bootstrap_edges`` uniform random edges, then evolves with
    uniform-random target selection for every operation.
    """

    def __init__(
        self,
        mix: EventMix | None = None,
        bootstrap_vertices: int = 50,
        bootstrap_edges: int = 100,
    ):
        if bootstrap_vertices < 0 or bootstrap_edges < 0:
            raise ValueError("bootstrap sizes must be non-negative")
        self.mix = mix or EventMix(
            add_vertex=0.25, update_vertex=0.25, add_edge=0.4, remove_edge=0.1
        )
        self.bootstrap_vertices = bootstrap_vertices
        self.bootstrap_edges = bootstrap_edges

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        from repro.core.events import add_edge, add_vertex

        for __ in range(self.bootstrap_vertices):
            yield add_vertex(context.fresh_vertex_id())
        made: set[tuple[int, int]] = set()
        n = self.bootstrap_vertices
        attempts = 0
        while len(made) < self.bootstrap_edges and n >= 2:
            attempts += 1
            if attempts > 50 * self.bootstrap_edges:
                break
            source = context.rng.randrange(n)
            target = context.rng.randrange(n)
            if source == target or (source, target) in made:
                continue
            made.add((source, target))
            yield add_edge(source, target)

    def next_event_type(self, context: GeneratorContext) -> EventType:
        return self.mix.sample(context.rng)

    def update_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return f"tick={context.round_number}"

    def update_edge(self, source: int, target: int, context: GeneratorContext) -> str:
        return f"tick={context.round_number}"


class WeaverTable3Rules(GeneratorRules):
    """The Weaver experiment workload (Table 3).

    Bootstrap: Barabási–Albert with ``n=10000, m0=250, M=50`` (scalable
    down for quick runs via the constructor).  Evolution mix per
    :data:`WEAVER_TABLE3_MIX`.  Selection functions:

    * removing vertices: Zipf over degree, biased towards *less*
      connected vertices;
    * updating vertices: uniform random;
    * edge source: uniform random; edge target: Zipf over degree,
      biased towards *strongly* connected vertices.
    """

    #: Above this vertex count, Zipf selections rank a uniform candidate
    #: sample instead of the full vertex set (power-of-k-choices
    #: approximation), keeping per-event cost O(k log k) instead of
    #: O(V log V) so the full Table-3 scale (n=10000, 500k rounds) stays
    #: tractable.  The degree bias is preserved within the sample.
    exact_selection_limit: int = 2_000
    candidate_sample_size: int = 64

    def __init__(
        self,
        n: int = 10_000,
        m0: int = 250,
        m: int = 50,
        zipf_exponent: float = 1.0,
    ):
        self.n = n
        self.m0 = m0
        self.m = m
        self.zipf_exponent = zipf_exponent

    def _selection_pool(self, context: GeneratorContext) -> list:
        """All live vertices, or a uniform sample for big graphs."""
        if len(context.vertex_pool) <= self.exact_selection_limit:
            return list(context.vertex_pool)
        return context.sample_vertices(self.candidate_sample_size)

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        for event in barabasi_albert_stream(
            self.n, self.m0, self.m, rng=context.rng
        ):
            yield event
        context.next_vertex_id = self.n

    def next_event_type(self, context: GeneratorContext) -> EventType:
        return WEAVER_TABLE3_MIX.sample(context.rng)

    def vertex_select(self, event_type: EventType, context: GeneratorContext) -> int:
        graph = context.graph
        if event_type is EventType.ADD_VERTEX:
            return context.fresh_vertex_id()
        if event_type is EventType.REMOVE_VERTEX:
            selector = ZipfSelector(
                context.rng, exponent=self.zipf_exponent, ascending=True
            )
            return selector.select(
                self._selection_pool(context), key=graph.degree
            )
        return context.random_vertex()

    def edge_select(
        self, event_type: EventType, context: GeneratorContext
    ) -> tuple[int, int]:
        graph = context.graph
        if event_type is EventType.ADD_EDGE:
            if len(context.vertex_pool) < 2:
                raise GeneratorError("need at least two vertices")
            selector = ZipfSelector(context.rng, exponent=self.zipf_exponent)
            for __ in range(50):
                source = context.random_vertex()
                target = selector.select(
                    self._selection_pool(context), key=graph.degree
                )
                if source != target and not graph.has_edge(source, target):
                    return source, target
            raise GeneratorError("could not find a free (source, target) pair")
        return super().edge_select(event_type, context)

    def insert_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"created_round": %d}' % context.round_number

    def update_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"updated_round": %d}' % context.round_number


class SocialNetworkRules(GeneratorRules):
    """Use case 2.4-1: a growing social network.

    Users sign up (add vertex), follow each other with preferential
    attachment (add edge), post activity (update vertex), occasionally
    unfollow (remove edge) or leave (remove vertex).
    """

    def __init__(self, seed_users: int = 20):
        if seed_users < 2:
            raise ValueError("seed_users must be >= 2")
        self.seed_users = seed_users
        self.mix = EventMix(
            add_vertex=0.15,
            remove_vertex=0.02,
            update_vertex=0.38,
            add_edge=0.35,
            remove_edge=0.10,
        )

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        from repro.core.events import add_edge, add_vertex

        for __ in range(self.seed_users):
            user = context.fresh_vertex_id()
            yield add_vertex(user, '{"posts": 0}')
        for i in range(self.seed_users):
            target = (i + 1) % self.seed_users
            yield add_edge(i, target, '{"kind": "follows"}')

    def next_event_type(self, context: GeneratorContext) -> EventType:
        return self.mix.sample(context.rng)

    def edge_select(
        self, event_type: EventType, context: GeneratorContext
    ) -> tuple[int, int]:
        graph = context.graph
        if event_type is EventType.ADD_EDGE:
            users = len(context.vertex_pool)
            if users < 2:
                raise GeneratorError("need at least two users")
            selector = ZipfSelector(context.rng)
            # Up to 2,000 users, every user is ranked: the context's
            # in-degree index gives the rank order without a sort.
            sample = context.sample_vertices(64) if users > 2_000 else None
            for __ in range(50):
                source = context.random_vertex()
                if sample is None:
                    rank = selector.select_rank(users)
                    target = context.vertex_by_in_degree_rank(rank)
                else:
                    target = selector.select(sample, key=graph.in_degree)
                if source != target and not graph.has_edge(source, target):
                    return source, target
            raise GeneratorError("no free follow edge found")
        return super().edge_select(event_type, context)

    def insert_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"posts": 0}'

    def insert_edge(self, source: int, target: int, context: GeneratorContext) -> str:
        return '{"kind": "follows"}'

    def update_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"posts": %d}' % context.rng.randint(1, 500)

    def remove_vertex(self, vertex_id: int, context: GeneratorContext) -> bool:
        # Influencers (high in-degree) rarely leave the network.
        return context.graph.in_degree(vertex_id) < 5


class DdosTrafficRules(GeneratorRules):
    """Use case 2.4-2: traffic flows between servers and remote clients.

    The graph contains ``servers`` long-lived server vertices plus
    churning client vertices.  Edges are flows with byte counters in
    their state.  After ``attack_after_round`` rounds, a botnet of
    ``attackers`` clients floods one victim server with flow updates —
    the anomalous temporal pattern a stream-based system should detect.
    """

    def __init__(
        self,
        servers: int = 5,
        attack_after_round: int = 500,
        attackers: int = 30,
    ):
        if servers < 1:
            raise ValueError("need at least one server")
        self.servers = servers
        self.attack_after_round = attack_after_round
        self.attackers = attackers
        self.mix = EventMix(
            add_vertex=0.20,
            remove_vertex=0.05,
            update_edge=0.45,
            add_edge=0.25,
            remove_edge=0.05,
        )

    def bootstrap_global_context(self, context: GeneratorContext) -> dict:
        return {"attackers": [], "victim": 0}

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        from repro.core.events import add_vertex

        for __ in range(self.servers):
            server = context.fresh_vertex_id()
            yield add_vertex(server, '{"role": "server"}')

    def next_event_type(self, context: GeneratorContext) -> EventType:
        if self._attack_active(context):
            # During the attack, flows dominate: update or create edges.
            return (
                EventType.UPDATE_EDGE
                if context.rng.random() < 0.7
                else EventType.ADD_EDGE
            )
        return self.mix.sample(context.rng)

    def _attack_active(self, context: GeneratorContext) -> bool:
        return context.round_number >= self.attack_after_round

    def vertex_select(self, event_type: EventType, context: GeneratorContext) -> int:
        if event_type is EventType.ADD_VERTEX:
            return context.fresh_vertex_id()
        clients = [
            v for v in context.graph.vertices() if v >= self.servers
        ]
        if not clients:
            raise GeneratorError("no client vertices yet")
        return clients[context.rng.randrange(len(clients))]

    def edge_select(
        self, event_type: EventType, context: GeneratorContext
    ) -> tuple[int, int]:
        graph = context.graph
        user: dict = context.user  # type: ignore[assignment]
        if self._attack_active(context):
            attackers = user["attackers"]
            if len(attackers) < self.attackers:
                candidates = [
                    v
                    for v in graph.vertices()
                    if v >= self.servers and v not in attackers
                ]
                if candidates:
                    attackers.append(
                        candidates[context.rng.randrange(len(candidates))]
                    )
            if attackers:
                source = attackers[context.rng.randrange(len(attackers))]
                victim = user["victim"]
                if event_type is EventType.ADD_EDGE:
                    if not graph.has_edge(source, victim):
                        return source, victim
                elif graph.has_edge(source, victim):
                    return source, victim
        if event_type is EventType.ADD_EDGE:
            clients = [v for v in graph.vertices() if v >= self.servers]
            if not clients:
                raise GeneratorError("no clients yet")
            for __ in range(50):
                source = clients[context.rng.randrange(len(clients))]
                target = context.rng.randrange(self.servers)
                if not graph.has_edge(source, target):
                    return source, target
            raise GeneratorError("no free flow edge")
        return super().edge_select(event_type, context)

    def insert_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"role": "client"}'

    def insert_edge(self, source: int, target: int, context: GeneratorContext) -> str:
        return '{"bytes": %d}' % context.rng.randint(100, 5000)

    def update_edge(self, source: int, target: int, context: GeneratorContext) -> str:
        heavy = self._attack_active(context)
        upper = 500_000 if heavy else 5_000
        return '{"bytes": %d}' % context.rng.randint(100, upper)

    def remove_vertex(self, vertex_id: int, context: GeneratorContext) -> bool:
        return vertex_id >= self.servers  # servers never disappear


class BlockchainRules(GeneratorRules):
    """Use case 2.4-3: a transaction/wallet graph from a ledger stream.

    Wallets are vertices holding a balance; transactions are edges
    carrying amounts.  New blocks appear as micro-batches: every
    ``block_size`` rounds the rules emit transaction edges between
    wallets and update wallet balances.
    """

    def __init__(self, seed_wallets: int = 25, block_size: int = 10):
        if seed_wallets < 2:
            raise ValueError("seed_wallets must be >= 2")
        self.seed_wallets = seed_wallets
        self.block_size = block_size
        self.mix = EventMix(
            add_vertex=0.10, update_vertex=0.40, add_edge=0.45, remove_edge=0.05
        )

    def bootstrap_graph(self, context: GeneratorContext) -> Iterator[GraphEvent]:
        from repro.core.events import add_vertex

        for __ in range(self.seed_wallets):
            wallet = context.fresh_vertex_id()
            yield add_vertex(wallet, '{"balance": 1000}')

    def next_event_type(self, context: GeneratorContext) -> EventType:
        return self.mix.sample(context.rng)

    def insert_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"balance": 0}'

    def insert_edge(self, source: int, target: int, context: GeneratorContext) -> str:
        block = context.round_number // self.block_size
        amount = context.rng.randint(1, 250)
        return '{"amount": %d, "block": %d}' % (amount, block)

    def update_vertex(self, vertex_id: int, context: GeneratorContext) -> str:
        return '{"balance": %d}' % context.rng.randint(0, 5000)


def chronograph_table4_stream(
    config: SnbConfig | None = None,
    pause_after: int = 100_000,
    pause_seconds: float = 20.0,
    double_rate_until: int = 150_000,
) -> GraphStream:
    """Assemble the Table-4 Chronograph stream.

    SNB-like graph events with the paper's control structure: a 20 s
    pause after the 100,000th event, doubled replay rate between the
    100,001st and 150,000th event, then the base rate for the rest.
    Markers flag the phase transitions for later correlation.
    """
    if config is None:
        config = SnbConfig()
    if not 0 < pause_after <= double_rate_until:
        raise ValueError("need 0 < pause_after <= double_rate_until")

    events = list(snb_stream(config))
    stream = GraphStream()
    for index, event in enumerate(events):
        if index == pause_after:
            stream.append(marker("pause-start"))
            stream.append(pause(pause_seconds))
            stream.append(speed(2.0))
            stream.append(marker("double-rate-start"))
        elif index == double_rate_until:
            stream.append(speed(1.0))
            stream.append(marker("base-rate-restored"))
        stream.append(event)
    stream.append(marker("stream-end"))
    return stream
