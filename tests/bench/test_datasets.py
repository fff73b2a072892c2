"""Dataset registry tests."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.bench import datasets
from repro.graph.components import is_connected


@pytest.fixture(autouse=True)
def fresh_cache():
    datasets.clear_cache()
    yield
    datasets.clear_cache()


class TestRegistry:
    @pytest.mark.parametrize("name", datasets.DATASET_NAMES)
    def test_every_dataset_builds(self, name):
        g = datasets.get_dataset(name, "tiny")
        assert g.num_nodes > 0
        assert is_connected(g)
        g.validate()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            datasets.get_dataset("orkut")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            datasets.get_dataset("dblp", "galactic")

    def test_memoized(self):
        a = datasets.get_dataset("dblp", "tiny")
        b = datasets.get_dataset("dblp", "tiny")
        assert a is b

    def test_scales_grow(self):
        tiny = datasets.get_dataset("dblp", "tiny")
        small = datasets.get_dataset("dblp", "small")
        assert small.num_nodes > tiny.num_nodes


class TestDeterminism:
    def test_same_graph_under_different_hash_seeds(self):
        # Each build runs in a fresh interpreter with its own string-hash
        # salt; neither the dataset seed nor the figure workloads' query
        # seed may depend on it.
        script = (
            "from repro.bench import datasets\n"
            "from repro.bench.workloads import make_workload\n"
            "from repro.store.manifest import graph_fingerprint\n"
            "print(graph_fingerprint(datasets.get_dataset('dblp', 'tiny')))\n"
            "_, queries = make_workload('dblp', scale='tiny', knum=4, kwf=8,"
            " num_queries=5)\n"
            "print(queries.queries)\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(run.stdout.strip().splitlines())
        fingerprint, queries = outputs[0]
        assert fingerprint and queries != "()"
        assert outputs[0] == outputs[1]


class TestKwfPools:
    def test_pool_names(self):
        pool = datasets.kwf_pool(8)
        assert len(pool) == datasets.POOL_SIZE
        assert pool[0] == "kwf8:0"

    def test_invalid_kwf(self):
        with pytest.raises(ValueError):
            datasets.kwf_pool(7)

    @pytest.mark.parametrize("kwf", datasets.KWF_VALUES)
    def test_pool_frequencies_attached(self, kwf):
        g = datasets.get_dataset("dblp", "tiny")
        for label in datasets.kwf_pool(kwf):
            assert g.label_frequency(label) == min(kwf, g.num_nodes)
