"""Properties of the CSR snapshot layer.

Two families:

* *Invalidation*: any mutating ``Graph`` operation performed after
  ``freeze()`` drops the cached snapshot, so a stale CSR view can never
  be served (randomized over mutation kinds via Hypothesis).
* *Kernel correctness*: both Dijkstra lanes (Dial's bucket queue on
  small integer weights, the binary heap otherwise) match a plain
  ``heapq`` Dijkstra on the materialized label-enhanced graph, and
  their ``parent`` arrays are valid shortest-path trees.  The
  virtual-node distance closure of ``repro.core.allpaths``, fed the
  kernels' per-group arrays, matches the same oracle.  The random
  instances include zero-weight edges, overlapping groups, groups in
  other components and single-group queries.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allpaths import label_enhanced_distances
from repro.graph.graph import Graph
from repro.graph.shortest_paths import (
    multi_source_dijkstra,
    reconstruct_path,
)

INF = float("inf")

# ----------------------------------------------------------------------
# Invalidation: mutation after freeze() always drops the snapshot.
# ----------------------------------------------------------------------


@st.composite
def frozen_graph_and_mutation(draw):
    n = draw(st.integers(2, 10))
    graph = Graph()
    for _ in range(n):
        graph.add_node()
    for u, v, w in draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(1.0, 20.0, allow_nan=False),
            ),
            max_size=20,
        )
    ):
        if u != v:
            graph.add_edge(u, v, w)
    for node, label in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from("abc")),
            max_size=8,
        )
    ):
        graph.add_labels(node, [label])
    mutation = draw(st.sampled_from(["add_node", "add_edge", "add_labels"]))
    payload = (
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, n - 1)),
        draw(st.floats(0.5, 25.0, allow_nan=False)),
        draw(st.sampled_from("abcxyz")),
    )
    return graph, mutation, payload


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=frozen_graph_and_mutation())
def test_mutation_after_freeze_invalidates(case):
    graph, mutation, (u, v, weight, label) = case
    snapshot = graph.freeze()
    assert graph.snapshot() is snapshot

    if mutation == "add_node":
        graph.add_node()
        mutated = True
    elif mutation == "add_edge":
        if u == v:
            return  # self-loops are rejected; nothing to check
        before = graph.edge_weight(u, v) if graph.has_edge(u, v) else None
        graph.add_edge(u, v, weight)
        # The min-weight collapse makes heavier duplicates a no-op.
        mutated = before is None or weight < before
    else:
        mutated = label not in graph.labels_of(u)
        graph.add_labels(u, [label])

    if mutated:
        assert graph.snapshot() is None
        fresh = graph.freeze()
        assert fresh is not snapshot
        # The refrozen snapshot reflects the mutation.
        assert fresh.num_nodes == graph.num_nodes
        assert fresh.num_edges == graph.num_edges
    else:
        # No actual change: the cached snapshot stays valid (and equal).
        assert graph.snapshot() is snapshot


# ----------------------------------------------------------------------
# Kernels against an independent oracle, on both lanes.
# ----------------------------------------------------------------------

# Each seed runs once per lane: Dial (integer weights), heap (float).
CASES = [(seed, integer) for seed in range(60) for integer in (True, False)]


def oracle_distances(graph, groups, source):
    """Plain ``heapq`` Dijkstra on the materialized label-enhanced graph.

    Adds one virtual node ``n + i`` per group, joined to its members by
    zero-weight edges, and returns the distances from ``n + source``.
    """
    n = graph.num_nodes
    adj = [list(graph.neighbors(u)) for u in range(n)] + [[] for _ in groups]
    for i, members in enumerate(groups):
        for u in members:
            adj[n + i].append((u, 0.0))
            adj[u].append((n + i, 0.0))
    dist = [INF] * len(adj)
    dist[n + source] = 0.0
    heap = [(0.0, n + source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def random_instance(seed, integer):
    """A sparse random graph (often several components) and its groups.

    ``integer`` draws weights from 0..4, zeros included, so the Dial
    lane runs with same-bucket cascades; otherwise weights are
    non-integral and the heap lane runs.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    graph = Graph()
    for _ in range(n):
        graph.add_node()
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.sample(range(n), 2)
        w = rng.randint(0, 4) if integer else rng.uniform(0.1, 10.0)
        graph.add_edge(u, v, w)
    groups = [
        sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        for _ in range(rng.randint(1, 5))
    ]
    assert (graph.freeze().int_adjacency is not None) == integer
    return graph, groups


def assert_shortest_path_tree(graph, sources, dist, parent):
    """``parent`` is a shortest-path tree for ``dist`` rooted at ``sources``."""
    for v in range(graph.num_nodes):
        if v in sources:
            assert dist[v] == 0.0 and parent[v] == -1
        elif dist[v] == INF:
            assert parent[v] == -1
        else:
            p = parent[v]
            assert dist[v] == dist[p] + graph.edge_weight(v, p)
            assert reconstruct_path(parent, v)[-1] in sources


def test_dijkstra_kernels_agree_on_random_graphs():
    for seed, integer in CASES:
        graph, _groups = random_instance(seed, integer)
        where = f"seed {seed}, integer {integer}"
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 4)):
            dist, parent = multi_source_dijkstra(graph, [source])
            expected = oracle_distances(graph, [[source]], 0)
            assert dist == expected[: graph.num_nodes], where
            assert_shortest_path_tree(graph, {source}, dist, parent)


def test_multi_source_and_label_enhanced_agree():
    seen = {"overlap": False, "inf": False, "k1": False}
    for seed, integer in CASES:
        graph, groups = random_instance(seed, integer)
        n = graph.num_nodes
        where = f"seed {seed}, integer {integer}"
        arrays = []
        for members in groups:
            dist, parent = multi_source_dijkstra(graph, members)
            assert dist == oracle_distances(graph, [members], 0)[:n], where
            assert_shortest_path_tree(graph, set(members), dist, parent)
            arrays.append(dist)
        table = label_enhanced_distances(arrays, groups)
        for i in range(len(groups)):
            expected = oracle_distances(graph, groups, i)[n:]
            if integer:
                assert table[i] == expected, where
            else:
                # Legs are summed separately from the oracle's single
                # path sum, so the last bit may differ.
                assert table[i] == pytest.approx(expected, rel=1e-12), where
            assert table[i][i] == 0.0, where
        seen["overlap"] |= any(
            set(a) & set(b) for a in groups for b in groups if a is not b
        )
        seen["inf"] |= any(INF in row for row in table)
        seen["k1"] |= len(groups) == 1
    # The random corpus exercises every case the closure must handle.
    assert all(seen.values()), seen


def test_targets_early_exit_agrees_on_requested_nodes():
    for seed, integer in CASES:
        graph, _groups = random_instance(seed, integer)
        targets = list(range(0, graph.num_nodes, 3))
        dist, _ = multi_source_dijkstra(graph, [0], targets=targets)
        expected = oracle_distances(graph, [[0]], 0)
        for t in targets:
            assert dist[t] == expected[t], f"seed {seed}, target {t}"
