"""AllPaths (Algorithm 3) route-table tests, with brute-force oracle."""

from __future__ import annotations


import pytest

from repro import Graph, QueryError
from repro.core.allpaths import MAX_ALLPATHS_LABELS, RouteTables
from repro.core.bruteforce import brute_force_route
from repro.core.state import iter_bits
from repro.graph import generators
from repro.graph.shortest_paths import multi_source_dijkstra

INF = float("inf")


def groups_of(graph, k):
    return [list(graph.nodes_with_label(f"q{i}")) for i in range(k)]


def build_tables(graph, groups):
    dist = [multi_source_dijkstra(graph, members)[0] for members in groups]
    return RouteTables.build(dist, groups)


class TestSmallCases:
    def test_singleton_route_is_zero(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        tables = build_tables(g, groups_of(g, 2))
        assert tables.route(0, 0, 0b01) == 0.0
        assert tables.route(1, 1, 0b10) == 0.0
        assert tables.tour(0, 0b01) == 0.0

    def test_pair_route_is_virtual_distance(self):
        g = generators.random_graph(10, 18, num_query_labels=3, seed=1)
        tables = build_tables(g, groups_of(g, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                mask = (1 << i) | (1 << j)
                assert tables.route(i, j, mask) == pytest.approx(
                    tables.virtual_distance[i][j]
                )

    def test_route_requires_start_in_mask(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        tables = build_tables(g, groups_of(g, 2))
        with pytest.raises(KeyError):
            tables.route(0, 1, 0b10)
        with pytest.raises(KeyError):
            tables.tour(1, 0b01)

    def test_too_many_labels_rejected(self):
        g = generators.random_graph(
            40, 80, num_query_labels=MAX_ALLPATHS_LABELS + 1, label_frequency=2, seed=0
        )
        with pytest.raises(QueryError):
            build_tables(g, groups_of(g, MAX_ALLPATHS_LABELS + 1))

    def test_num_entries_positive(self):
        g = generators.random_graph(10, 18, num_query_labels=3, seed=2)
        tables = build_tables(g, groups_of(g, 3))
        assert tables.num_entries > 0
        assert tables.build_seconds >= 0.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_table_matches_permutation_enumeration(self, seed):
        k = 4
        g = generators.random_graph(
            14, 26, num_query_labels=k, label_frequency=2, seed=seed
        )
        tables = build_tables(g, groups_of(g, k))
        dist = tables.virtual_distance
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            for i in bits:
                for j in bits:
                    if i == j and len(bits) > 1:
                        continue
                    expected = brute_force_route(dist, i, j, bits)
                    got = tables.route(i, j, mask)
                    assert got == pytest.approx(expected), (mask, i, j)

    def test_tour_is_min_over_endpoints(self):
        k = 4
        g = generators.random_graph(
            14, 26, num_query_labels=k, label_frequency=2, seed=11
        )
        tables = build_tables(g, groups_of(g, k))
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            for i in bits:
                expected = min(tables.route_row(i, mask)[j] for j in bits)
                assert tables.tour(i, mask) == pytest.approx(expected)


class TestTriangleInequalityStructure:
    def test_route_monotone_in_mask(self):
        """Adding a required stop can never shorten the route."""
        k = 4
        g = generators.random_graph(
            16, 30, num_query_labels=k, label_frequency=2, seed=3
        )
        tables = build_tables(g, groups_of(g, k))
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            if len(bits) < 2:
                continue
            for i in bits:
                for extra in range(k):
                    if mask >> extra & 1:
                        continue
                    bigger = mask | (1 << extra)
                    assert tables.tour(i, bigger) >= tables.tour(i, mask) - 1e-9

    def test_disconnected_labels_give_inf(self):
        g = Graph()
        a = g.add_node(labels=["q0"])
        b = g.add_node(labels=["q1"])
        c = g.add_node(labels=["q2"])
        g.add_edge(a, b, 1.0)  # q2 disconnected
        tables = build_tables(g, [[a], [b], [c]])
        assert tables.route(0, 1, 0b011) == 1.0
        assert tables.route(0, 2, 0b101) == INF
        assert tables.tour(0, 0b111) == INF
