"""Regenerate ``golden.json``: graph fingerprints and DPBF optima.

The golden weights come from :class:`repro.core.dpbf.DPBFSolver`, an
exact solver that shares no search code with the progressive engine.
DPBF needs about 18 s per ``large_k4`` query and 10 s per ``proof_k6``
query on a 2-cpu host, so the table is computed once and committed,
not on every run.  It covers every query of every workload.

Usage, from the repository root::

    python3 perfbench/make_golden.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def compute(name: str) -> dict:
    from repro.core.dpbf import DPBFSolver

    import common
    import workloads

    spec = workloads.SPECS["full"][name]
    graph = spec.graph()
    record = common.check_graph(spec, graph, None)
    query_list = workloads.queries(spec)
    record["query_digest"] = workloads.digest(query_list)
    optimum = {}
    for labels in query_list:
        key = workloads.query_key(labels)
        if key in optimum:
            continue
        started = time.perf_counter()
        optimum[key] = DPBFSolver(graph, labels).solve().weight
        print(
            f"{name} {key} {optimum[key]} "
            f"({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
            flush=True,
        )
    record["optimum"] = optimum
    return record


def main(argv) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import common
    import workloads

    names = argv or sorted(workloads.SPECS["full"])
    for name in names:
        record = compute(name)
        # Re-read before writing: several workloads may be computed by
        # separate invocations.
        golden = {}
        if os.path.exists(common.GOLDEN_PATH):
            with open(common.GOLDEN_PATH) as handle:
                golden = json.load(handle)
        golden[name] = record
        with open(common.GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
