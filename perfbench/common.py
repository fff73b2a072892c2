"""Statistics, answer checks and per-layer folding shared by the runners."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
from typing import Dict, Optional, Sequence

import tracing
import workloads

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

INF = float("inf")


class BenchmarkFailure(Exception):
    """A wrong answer, a pin mismatch or an invalid run: report no numbers."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> float:
    """The highest percentile that still has >= 10 samples beyond it.

    That is p99 from 1000 samples; from 20 samples or fewer, where it
    would fall below the median, it is the maximum.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-1] if len(ordered) <= 20 else ordered[len(ordered) - 11]


def tail_percentile(count: int) -> float:
    """Which percentile :func:`tail` reads for ``count`` samples."""
    return 100.0 if count <= 20 else 100.0 * (count - 10) / count


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Progress timelines
# ----------------------------------------------------------------------
def timeline_marks(points, final_weight: float, started: float, finished: float) -> dict:
    """First-answer, optimum-found and ratio<=2 times from progress points.

    ``points`` are ``(clock, best_weight, lower_bound)`` in arrival order;
    each mark falls back to the final answer's time when no earlier
    point reached it.
    """
    first = optimum = ratio2 = None
    for clock, best, lower in points:
        if best == INF:
            continue
        if first is None:
            first = clock
        if optimum is None and abs(best - final_weight) <= 1e-9 * max(1.0, final_weight):
            optimum = clock
        if ratio2 is None and (best <= 0.0 or (lower > 0.0 and best <= 2.0 * lower)):
            ratio2 = clock
    return {
        "first_answer": (finished if first is None else first) - started,
        "optimum_found": (finished if optimum is None else optimum) - started,
        "ratio2": (finished if ratio2 is None else ratio2) - started,
    }


# ----------------------------------------------------------------------
# Pinned inputs and golden optima
# ----------------------------------------------------------------------
def load_golden(spec, scale: str) -> Optional[dict]:
    if scale != "full":
        return None
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[spec.name]


def check_graph(spec, graph, golden: Optional[dict]) -> dict:
    """Fingerprint the generated graph; it must match the pinned one."""
    from repro.store.manifest import graph_fingerprint

    record = {
        "fingerprint": graph_fingerprint(graph),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
    }
    if golden is not None:
        for key, value in record.items():
            if golden[key] != value:
                raise BenchmarkFailure(
                    f"{spec.name}: graph {key} {value!r} differs from the "
                    f"pinned {golden[key]!r}; the generator changed"
                )
    return record


def golden_optima(spec, graph, golden: Optional[dict]) -> Dict[str, float]:
    """Reference optima of the workload's queries.

    Full scale reads the committed DPBF table; tiny scale runs DPBF
    live, since it takes milliseconds there.
    """
    query_list = workloads.queries(spec)
    if golden is None:
        from repro.core.dpbf import DPBFSolver

        return {
            workloads.query_key(q): DPBFSolver(graph, q).solve().weight
            for q in query_list
        }
    if workloads.digest(query_list) != golden["query_digest"]:
        raise BenchmarkFailure(
            f"{spec.name}: the query list changed; regenerate golden.json"
        )
    return dict(golden["optimum"])


def check_result(graph, labels, result, optima: Dict[str, float]) -> None:
    """Certify one answer and compare it with its reference optimum."""
    from repro.verify.certify import certify_result

    expected = optima.get(workloads.query_key(labels))
    certificate = certify_result(
        graph, result, labels=labels, expected_weight=expected
    )
    if not certificate.ok:
        raise BenchmarkFailure(
            f"answer for {list(labels)} failed certification: "
            + "; ".join(certificate.violations)
        )
    if not result.optimal:
        raise BenchmarkFailure(f"answer for {list(labels)} is not proven optimal")
    if expected is not None and not math.isclose(
        result.weight, expected, rel_tol=1e-9, abs_tol=1e-9
    ):
        raise BenchmarkFailure(
            f"answer for {list(labels)} weighs {result.weight}, "
            f"golden optimum is {expected}"
        )


# ----------------------------------------------------------------------
# Per-layer folding
# ----------------------------------------------------------------------
def work_counters(traces) -> dict:
    """Exact work counters summed over the given query traces."""
    totals = {
        "states_popped": 0,
        "states_pushed": 0,
        "states_pruned": 0,
        "peak_live_states": 0,
        "feasible_built": 0,
        "incumbent_improvements": 0,
        "label_sweeps": 0,
        "label_hits": 0,
        "bound_evaluations": 0,
        "bound_memo_hits": 0,
        "bound_memo_misses": 0,
        "table_entries": 0,
    }
    for trace in traces:
        stats = trace.stats or {}
        for key in ("states_popped", "states_pushed", "states_pruned",
                    "feasible_built", "incumbent_improvements", "table_entries"):
            totals[key] += int(stats.get(key, 0))
        totals["peak_live_states"] = max(
            totals["peak_live_states"], int(stats.get("peak_live_states", 0))
        )
        totals["label_sweeps"] += trace.cache_misses
        totals["label_hits"] += trace.cache_hits
        bounds = trace.bounds_cache or {}
        totals["bound_evaluations"] += int(bounds.get("evaluations", 0))
        totals["bound_memo_hits"] += int(bounds.get("hits", 0))
        totals["bound_memo_misses"] += int(bounds.get("misses", 0))
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Spans whose self time is work that no layer span covers: the
# benchmark's own query root, the executor's hand-off and the code of
# ``GraphIndex.execute`` around the layers it calls.
CATCH_ALL = ("query", "executor", "index.execute")


def unaccounted_s(spans, queries: set) -> float:
    """Total self time of the catch-all spans of the given queries."""
    totals = tracing.layer_totals(spans, queries)
    return sum(totals.get(name, {}).get("self", 0.0) for name in CATCH_ALL)


def layer_metrics(spans, queries: set, counters: dict, evictions: int) -> dict:
    """The per-layer metrics of the traced pass.

    Times are per-query means of span self time, so they add up to the
    mean query wall time; counts are the exact totals over the
    workload's counted prefix (``counters``).
    """
    totals = tracing.layer_totals(spans, queries)
    n = max(1, len(queries))

    def per_query(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0) / n

    lookups = counters["label_sweeps"] + counters["label_hits"]
    memo = counters["bound_memo_hits"] + counters["bound_memo_misses"]
    return {
        "graph.label_sweeps": counters["label_sweeps"],
        "graph.label_sweep_s": per_query("graph.label_sweep"),
        "graph.teleport_s": per_query("graph.teleport"),
        "cache.hit_ratio": _ratio(counters["label_hits"], lookups),
        "cache.evictions": evictions,
        "cache.lookup_s": per_query("cache.distances"),
        "context.build_s": per_query("context.build"),
        "allpaths.build_s": per_query("allpaths.build"),
        "allpaths.table_entries": counters["table_entries"],
        "bounds.evaluations": counters["bound_evaluations"],
        "bounds.memo_hit_ratio": _ratio(counters["bound_memo_hits"], memo),
        "engine.search_s": per_query("engine.search"),
        "engine.states_popped": counters["states_popped"],
        "engine.states_pushed": counters["states_pushed"],
        "engine.states_pruned": counters["states_pruned"],
        "engine.peak_live_states": counters["peak_live_states"],
        "feasible.built": counters["feasible_built"],
        "feasible.s": per_query("feasible"),
        "feasible.useful_ratio": _ratio(
            counters["incumbent_improvements"], counters["feasible_built"]
        ),
        "index.execute_s": per_query("index.execute"),
        "executor.self_s": per_query("executor"),
    }
