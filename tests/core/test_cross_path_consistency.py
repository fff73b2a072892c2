"""One query, one answer: every entry path solves on the same snapshot.

A graph that was never frozen, a frozen copy of it, and the serving
path (``GraphIndex.execute``) must return byte-identical trees, equal
UB/LB progress traces and equal work counters.  The instances are
integer-weight DBLP-like graphs, so the solves run on the Dial lane of
the Dijkstra family, whose tie-breaking shapes the shortest-path parent
pointers the feasible trees are built from.
"""

from __future__ import annotations

import random

import pytest

from repro.core.solver import ALGORITHMS
from repro.graph import generators
from repro.graph.generators import query_label_pool
from repro.service.index import GraphIndex

ALGORITHM_KEYS = ("basic", "pruneddp", "pruneddp+", "pruneddp++")
SEEDS = range(6)


def make_graph(seed):
    return generators.dblp_like(
        num_papers=120,
        num_authors=80,
        num_query_labels=12,
        label_frequency=4,
        seed=seed,
    )


def fingerprint(result, bounds_info):
    """Everything a path must agree on, timing fields excluded."""
    counters = {
        key: value
        for key, value in result.stats.to_dict().items()
        if not key.endswith("_seconds")
    }
    evaluations = bounds_info["evaluations"] if bounds_info else 0
    return {
        "weight": result.weight,
        "optimal": result.optimal,
        "edges": list(result.tree.edges),
        "nodes": sorted(result.tree.nodes),
        "trace": [(p.best_weight, p.lower_bound) for p in result.trace],
        "counters": counters,
        "bound_evaluations": evaluations,
    }


def solve_direct(graph, labels, algorithm):
    solver = ALGORITHMS[algorithm](graph, labels)
    context = solver.build_context()
    prepared = solver.prepare(context)
    result = solver.run_search(context, prepared)
    bounds = prepared[0] if prepared is not None else None
    return fingerprint(result, bounds.cache_info() if bounds else None)


def solve_indexed(graph, labels, algorithm):
    outcome = GraphIndex(graph).execute(labels, algorithm=algorithm)
    assert outcome.ok, outcome.error
    return fingerprint(outcome.result, outcome.trace.bounds_cache)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
def test_never_frozen_frozen_and_indexed_agree(algorithm, k):
    for seed in SEEDS:
        labels = random.Random(seed * 10 + k).sample(query_label_pool(12), k)
        never_frozen = make_graph(seed)
        assert never_frozen.snapshot() is None
        frozen = make_graph(seed)
        frozen.freeze()
        expected = solve_direct(never_frozen, labels, algorithm)
        where = f"seed {seed}, labels {labels}"
        assert solve_direct(frozen, labels, algorithm) == expected, where
        assert solve_indexed(make_graph(seed), labels, algorithm) == expected, where
