"""Unit tests for the streaming graph generators (BA, ER, R-MAT, Zipf)."""

import itertools
import random
from collections import Counter

import pytest

from repro.core.stream import GraphStream
from repro.gen.barabasi_albert import barabasi_albert_stream
from repro.gen.erdos_renyi import erdos_renyi_stream
from repro.gen.rmat import rmat_stream
from repro.gen import zipf
from repro.gen.zipf import ZipfSelector, zipf_weights
from repro.graph.builders import build_graph


class TestBarabasiAlbert:
    def test_stream_is_applicable(self):
        stream = GraphStream(barabasi_albert_stream(100, 10, 3))
        graph, report = build_graph(stream)
        assert not report.failed
        assert graph.vertex_count == 100

    def test_edge_count_lower_bound(self):
        stream = GraphStream(barabasi_albert_stream(100, 10, 3))
        graph, __ = build_graph(stream)
        # Ring seed (m0 edges) + ~m edges per new vertex (some may be
        # deduplicated).
        assert graph.edge_count >= 10 + (100 - 10) * 2

    def test_deterministic_for_seed(self):
        a = list(barabasi_albert_stream(50, 5, 2, rng=random.Random(7)))
        b = list(barabasi_albert_stream(50, 5, 2, rng=random.Random(7)))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(barabasi_albert_stream(50, 5, 2, rng=random.Random(1)))
        b = list(barabasi_albert_stream(50, 5, 2, rng=random.Random(2)))
        assert a != b

    def test_heavy_tail(self):
        stream = GraphStream(barabasi_albert_stream(400, 10, 3))
        graph, __ = build_graph(stream)
        degrees = sorted((graph.degree(v) for v in graph.vertices()), reverse=True)
        # Preferential attachment concentrates degree: the max degree
        # should far exceed the median.
        assert degrees[0] > 4 * degrees[len(degrees) // 2]

    def test_first_id_offset(self):
        stream = GraphStream(barabasi_albert_stream(20, 5, 2, first_id=1000))
        graph, __ = build_graph(stream)
        assert min(graph.vertices()) == 1000

    def test_state_callbacks(self):
        stream = list(
            barabasi_albert_stream(
                10, 3, 1,
                state_for_vertex=lambda v: f"v{v}",
                state_for_edge=lambda s, t: f"{s}->{t}",
            )
        )
        vertex_events = [e for e in stream if e.event_type.is_vertex_event]
        assert all(e.payload == f"v{e.vertex_id}" for e in vertex_events)

    @pytest.mark.parametrize(
        "n,m0,m", [(5, 1, 1), (5, 10, 2), (10, 5, 5), (10, 5, 0)]
    )
    def test_invalid_parameters(self, n, m0, m):
        with pytest.raises(ValueError):
            list(barabasi_albert_stream(n, m0, m))


class TestErdosRenyi:
    def test_gnm_exact_edge_count(self):
        stream = GraphStream(erdos_renyi_stream(50, edge_count=120))
        graph, report = build_graph(stream)
        assert not report.failed
        assert graph.vertex_count == 50
        assert graph.edge_count == 120

    def test_gnp_statistical_edge_count(self):
        stream = GraphStream(
            erdos_renyi_stream(60, p=0.1, rng=random.Random(3))
        )
        graph, __ = build_graph(stream)
        expected = 60 * 59 * 0.1
        assert 0.5 * expected < graph.edge_count < 1.5 * expected

    def test_requires_exactly_one_model(self):
        with pytest.raises(ValueError):
            list(erdos_renyi_stream(10))
        with pytest.raises(ValueError):
            list(erdos_renyi_stream(10, edge_count=5, p=0.5))

    def test_edge_count_bounds(self):
        with pytest.raises(ValueError):
            list(erdos_renyi_stream(3, edge_count=100))

    def test_p_bounds(self):
        with pytest.raises(ValueError):
            list(erdos_renyi_stream(3, p=1.5))

    def test_zero_edges(self):
        stream = GraphStream(erdos_renyi_stream(5, edge_count=0))
        graph, __ = build_graph(stream)
        assert graph.edge_count == 0

    def test_deterministic(self):
        a = list(erdos_renyi_stream(30, edge_count=50, rng=random.Random(5)))
        b = list(erdos_renyi_stream(30, edge_count=50, rng=random.Random(5)))
        assert a == b


class TestRmat:
    def test_vertex_and_edge_counts(self):
        stream = GraphStream(rmat_stream(scale=6, edge_count=150))
        graph, report = build_graph(stream)
        assert not report.failed
        assert graph.vertex_count == 64
        assert graph.edge_count == 150

    def test_skewed_distribution(self):
        stream = GraphStream(
            rmat_stream(scale=8, edge_count=600, rng=random.Random(11))
        )
        graph, __ = build_graph(stream)
        degrees = Counter(graph.degree(v) for v in graph.vertices())
        # R-MAT leaves many low-degree vertices and few high-degree hubs.
        max_degree = max(
            d for d in (graph.degree(v) for v in graph.vertices())
        )
        assert max_degree >= 10
        assert degrees.get(0, 0) + degrees.get(1, 0) + degrees.get(2, 0) > 50

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            list(rmat_stream(4, 10, probs=(0.5, 0.5, 0.5, 0.5)))

    def test_edge_count_bound(self):
        with pytest.raises(ValueError):
            list(rmat_stream(2, 1000))

    def test_deterministic(self):
        a = list(rmat_stream(5, 40, rng=random.Random(1)))
        b = list(rmat_stream(5, 40, rng=random.Random(1)))
        assert a == b


class TestZipf:
    def test_weights_decay(self):
        weights = zipf_weights(5)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_weights_exponent(self):
        steep = zipf_weights(5, exponent=2.0)
        assert steep[1] == pytest.approx(0.25)

    def test_empty_weights(self):
        assert zipf_weights(0) == []

    def test_select_prefers_high_scores(self, rng):
        selector = ZipfSelector(rng, exponent=1.5)
        items = list(range(50))
        picks = Counter(
            selector.select(items, key=lambda x: x) for __ in range(800)
        )
        top = sum(picks[i] for i in range(40, 50))
        bottom = sum(picks[i] for i in range(10))
        assert top > bottom

    def test_ascending_prefers_low_scores(self, rng):
        selector = ZipfSelector(rng, exponent=1.5, ascending=True)
        items = list(range(50))
        picks = Counter(
            selector.select(items, key=lambda x: x) for __ in range(800)
        )
        bottom = sum(picks[i] for i in range(10))
        top = sum(picks[i] for i in range(40, 50))
        assert bottom > top

    def test_select_empty_raises(self, rng):
        with pytest.raises(ValueError):
            ZipfSelector(rng).select([], key=lambda x: x)

    def test_select_rank_in_range(self, rng):
        selector = ZipfSelector(rng)
        for __ in range(100):
            assert 0 <= selector.select_rank(10) < 10

    def test_select_rank_invalid(self, rng):
        with pytest.raises(ValueError):
            ZipfSelector(rng).select_rank(0)

    def test_invalid_exponent(self, rng):
        with pytest.raises(ValueError):
            ZipfSelector(rng, exponent=0)

    def test_prefix_table_is_each_sizes_own_running_sum(self):
        """One growing table per exponent serves every size: its first
        ``n`` entries are bit for bit the running sums for ``n``,
        whatever order the sizes were asked for in."""
        for n in (7, 3, 50, 2, 1000, 50, 1):
            table = zipf._cumulative_weights(n, 1.25)
            assert len(table) >= n
            assert table[:n] == list(itertools.accumulate(zipf_weights(n, 1.25)))
