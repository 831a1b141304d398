"""Unit tests for the built-in rule sets and the Table-4 stream."""

import hashlib
import json
import random

import pytest

from repro.core import codec
from repro.core.events import EventType, GraphEvent, MarkerEvent, PauseEvent, SpeedEvent
from repro.core.generator import StreamGenerator
from repro.core.models import (
    WEAVER_TABLE3_MIX,
    BlockchainRules,
    DdosTrafficRules,
    EventMix,
    SocialNetworkRules,
    UniformRules,
    WeaverTable3Rules,
    chronograph_table4_stream,
)
from repro.gen.snb import SnbConfig
from repro.gen.zipf import ZipfSelector
from repro.graph.builders import build_graph


class TestEventMix:
    def test_table3_weights(self):
        weights = WEAVER_TABLE3_MIX.as_weights()
        assert weights[EventType.ADD_VERTEX] == pytest.approx(0.10)
        assert weights[EventType.REMOVE_VERTEX] == pytest.approx(0.05)
        assert weights[EventType.UPDATE_VERTEX] == pytest.approx(0.35)
        assert weights[EventType.ADD_EDGE] == pytest.approx(0.35)
        assert weights[EventType.REMOVE_EDGE] == pytest.approx(0.15)
        assert weights[EventType.UPDATE_EDGE] == 0.0

    def test_sample_respects_zero_weight(self, rng):
        mix = EventMix(add_vertex=1.0, update_edge=0.0)
        for __ in range(200):
            assert mix.sample(rng) is not EventType.UPDATE_EDGE

    def test_sample_distribution(self, rng):
        mix = EventMix(add_vertex=0.9, add_edge=0.1)
        samples = [mix.sample(rng) for __ in range(1000)]
        adds = sum(1 for s in samples if s is EventType.ADD_VERTEX)
        assert adds > 800

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            EventMix(add_vertex=-1)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            EventMix(add_vertex=0, add_edge=0)


def _consistency(rules, rounds=300, seed=5):
    stream = StreamGenerator(rules, rounds=rounds, seed=seed).generate()
    graph, report = build_graph(stream)
    return stream, graph, report


class TestUniformRules:
    def test_consistent_stream(self):
        __, graph, report = _consistency(UniformRules())
        assert not report.failed
        assert graph.vertex_count > 0

    def test_bootstrap_sizes(self):
        rules = UniformRules(bootstrap_vertices=10, bootstrap_edges=5)
        stream = StreamGenerator(rules, rounds=0, seed=0).generate()
        graph, __ = build_graph(stream)
        assert graph.vertex_count == 10
        assert graph.edge_count == 5

    def test_rejects_negative_bootstrap(self):
        with pytest.raises(ValueError):
            UniformRules(bootstrap_vertices=-1)


class TestWeaverTable3Rules:
    def test_consistent_stream(self):
        rules = WeaverTable3Rules(n=150, m0=10, m=3)
        __, graph, report = _consistency(rules, rounds=200)
        assert not report.failed

    def test_bootstrap_matches_parameters(self):
        rules = WeaverTable3Rules(n=120, m0=10, m=3)
        stream = StreamGenerator(rules, rounds=0, seed=0).generate()
        graph, __ = build_graph(stream)
        assert graph.vertex_count == 120

    def test_event_mix_roughly_table3(self):
        rules = WeaverTable3Rules(n=200, m0=10, m=3)
        stream = StreamGenerator(rules, rounds=2000, seed=1).generate()
        __, evaluation = stream.split_phases()
        stats = evaluation.statistics()
        assert stats.counts_by_type[EventType.UPDATE_EDGE] == 0
        update_fraction = (
            stats.counts_by_type[EventType.UPDATE_VERTEX] / stats.graph_events
        )
        assert 0.25 < update_fraction < 0.45

    def test_removals_prefer_low_degree(self):
        rules = WeaverTable3Rules(n=300, m0=20, m=5)
        stream = StreamGenerator(rules, rounds=3000, seed=3).generate()
        # Track degree at removal time by replaying.
        from repro.graph.graph import StreamGraph

        graph = StreamGraph()
        removal_degrees = []
        all_degrees_at_removals = []
        for event in stream.graph_events():
            if event.event_type is EventType.REMOVE_VERTEX:
                removal_degrees.append(graph.degree(event.vertex_id))
                degrees = [graph.degree(v) for v in graph.vertices()]
                all_degrees_at_removals.append(
                    sum(degrees) / len(degrees)
                )
            graph.apply(event)
        assert removal_degrees, "no removals generated"
        mean_removed = sum(removal_degrees) / len(removal_degrees)
        mean_population = sum(all_degrees_at_removals) / len(
            all_degrees_at_removals
        )
        assert mean_removed < mean_population


class TestUseCaseRules:
    def test_social_network_consistent(self):
        __, graph, report = _consistency(SocialNetworkRules())
        assert not report.failed

    def test_social_network_influencers_protected(self):
        rules = SocialNetworkRules()
        stream = StreamGenerator(rules, rounds=600, seed=2).generate()
        __, report = build_graph(stream)
        assert not report.failed

    def test_ddos_consistent_with_attack(self):
        rules = DdosTrafficRules(servers=3, attack_after_round=50, attackers=5)
        stream, graph, report = _consistency(rules, rounds=400)
        assert not report.failed
        # Servers persist.
        for server in range(3):
            assert graph.has_vertex(server)

    def test_ddos_attack_shifts_event_mix(self):
        rules = DdosTrafficRules(servers=3, attack_after_round=100)
        stream = StreamGenerator(
            rules, rounds=600, seed=4, emit_phase_marker=False
        ).generate()
        events = [e for e in stream if isinstance(e, GraphEvent)]
        early = events[: len(events) // 3]
        late = events[-len(events) // 3 :]

        def update_edge_fraction(chunk):
            updates = sum(
                1 for e in chunk if e.event_type is EventType.UPDATE_EDGE
            )
            return updates / len(chunk)

        assert update_edge_fraction(late) > update_edge_fraction(early)

    def test_blockchain_consistent(self):
        __, graph, report = _consistency(BlockchainRules())
        assert not report.failed

    def test_blockchain_transactions_carry_amounts(self):
        rules = BlockchainRules(seed_wallets=10, block_size=5)
        stream = StreamGenerator(rules, rounds=200, seed=6).generate()
        edge_adds = [
            e
            for e in stream.graph_events()
            if e.event_type is EventType.ADD_EDGE
        ]
        assert edge_adds
        payload = json.loads(edge_adds[0].payload)
        assert "amount" in payload and "block" in payload


class TestChronographTable4Stream:
    def test_structure(self):
        stream = chronograph_table4_stream(
            SnbConfig(total_events=3000),
            pause_after=1000,
            pause_seconds=5,
            double_rate_until=2000,
        )
        markers = [e.label for e in stream if isinstance(e, MarkerEvent)]
        assert markers == [
            "pause-start",
            "double-rate-start",
            "base-rate-restored",
            "stream-end",
        ]
        pauses = [e for e in stream if isinstance(e, PauseEvent)]
        assert len(pauses) == 1
        assert pauses[0].seconds == 5
        speeds = [e.factor for e in stream if isinstance(e, SpeedEvent)]
        assert speeds == [2.0, 1.0]

    def test_control_positions(self):
        stream = chronograph_table4_stream(
            SnbConfig(total_events=3000),
            pause_after=1000,
            pause_seconds=5,
            double_rate_until=2000,
        )
        graph_count = 0
        for event in stream:
            if isinstance(event, PauseEvent):
                assert graph_count == 1000
            if isinstance(event, SpeedEvent) and event.factor == 1.0:
                assert graph_count == 2000
            if isinstance(event, GraphEvent):
                graph_count += 1
        assert graph_count == 3000

    def test_applies_cleanly(self):
        stream = chronograph_table4_stream(
            SnbConfig(total_events=2000), pause_after=500, double_rate_until=1000
        )
        __, report = build_graph(stream)
        assert not report.failed

    def test_invalid_boundaries(self):
        with pytest.raises(ValueError):
            chronograph_table4_stream(
                SnbConfig(total_events=100), pause_after=50, double_rate_until=20
            )


class TestPinnedStreams:
    """Generated streams are byte-identical to the recorded digests.

    The digests were recorded before ``EventMix.sample`` and the Zipf
    selector cached their cumulative weights; the caches must change
    speed only, never which event or vertex a seed draws.
    """

    MODELS = {
        "uniform": lambda: UniformRules(
            mix=EventMix(
                add_vertex=0.3,
                remove_vertex=0.05,
                update_vertex=0.3,
                add_edge=0.25,
                remove_edge=0.05,
                update_edge=0.05,
            )
        ),
        "weaver": lambda: WeaverTable3Rules(n=300, m0=20, m=4),
        "social": SocialNetworkRules,
        "ddos": DdosTrafficRules,
        "blockchain": BlockchainRules,
    }

    DIGESTS = {
        "uniform": (1652, "d3b61a402f9310f08aacbc307f382124f85157423d548593d97c9c00a1fc9526"),
        "weaver": (2942, "714a2237018fabfe4569e24f9696d0735f1fbd72bf4d1d74d8a0947f879f73ed"),
        "social": (1542, "d885a1de2999bdc679f2a78007fb55d121d2def2406370394ac27de00ee8be60"),
        "ddos": (1507, "9258513870e887c6c9001dbc868532a68f0d70a5ae41792b7a8646128af9a47b"),
        "blockchain": (1527, "984946140d0a23560d93f74eaf93100fba0cfc9dd1d1eae8ecbd5ccdc06ccbeb"),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stream_digest(self, model):
        stream = StreamGenerator(self.MODELS[model](), rounds=1500, seed=11).generate()
        text = codec.format_events(list(stream))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert (len(stream), digest) == self.DIGESTS[model]

    def test_social_stream_across_the_exact_ranking_limit(self):
        """Edge targets are ranked over every user up to 2,000 users
        and over a sample above: this stream starts below the limit and
        crosses it, so both branches draw (about 120 follows below,
        74 above), and users leave before it crosses, so ranks tie
        between users whose pool positions differ from their ids."""
        rules = SocialNetworkRules(seed_users=1_950)
        stream = StreamGenerator(rules, rounds=600, seed=11).generate()
        text = codec.format_events(list(stream))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert (len(stream), digest) == (
            4502,
            "15fe1799a6f65fbfee8a43d160e1b93f3fe68d8f80eae70d5f75a161f312ff49",
        )

    def test_zipf_draws(self):
        rng = random.Random(5)
        heavy = ZipfSelector(rng, exponent=1.5)
        ascending = ZipfSelector(rng, ascending=True)
        picks = [heavy.select_rank(n) for n in (1, 2, 7, 7, 50, 7, 1000)]
        picks += [
            ascending.select(list(range(40)), key=lambda v: v % 7)
            for __ in range(5)
        ]
        assert picks == [0, 1, 2, 5, 4, 4, 0, 21, 12, 15, 18, 0]
