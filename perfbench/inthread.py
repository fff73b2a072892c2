"""Closed-loop, one-client runs of ``large_k4`` and ``proof_k6``.

Queries go through ``QueryExecutor(isolation="thread", max_workers=1)``;
the next one is submitted when the previous answer is back.  Each
query's timeline is taken on the benchmark's clock: submission, every
``on_progress`` call, and the returned outcome.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import List, Optional

import common
import tracing
import workloads

# An untraced run times spare set-ups before and after its measured
# one, at least one each time and cheap ones until SETUP_SECONDS / 2
# are spent, so that they sample the host at both ends of the run (its
# speed drifts over tens of seconds).  ``setup_s`` is their median.
SETUP_SECONDS = 2.0


def setup(spec, graph, seed: int):
    """Index (freeze), label warm-up and executor: what ``setup_s`` times."""
    from repro import GraphIndex, QueryExecutor

    copy = graph.copy()  # stands in for loading; not timed
    gc.collect()  # the previous set-up's garbage is not this one's cost
    started = time.perf_counter()
    kwargs = {"max_cached_labels": spec.cached_labels} if spec.cached_labels else {}
    index = GraphIndex(copy, **kwargs)
    for label in workloads.warm_labels(spec, seed):
        index.cache.distances(label)
    executor = QueryExecutor(index, isolation="thread", max_workers=1)
    return index, executor, time.perf_counter() - started


def _spare_setups(spec, graph, seed: int) -> List[float]:
    """Time set-ups, each let go before the next one starts."""
    times: List[float] = []
    while not times or sum(times) < SETUP_SECONDS / 2:
        index, executor, seconds = setup(spec, graph, seed)
        executor.shutdown()
        del index, executor  # not alive during the next set-up
        times.append(seconds)
    return times


def _schedule(spec, seed: int, seconds: float):
    """Yield query-list positions, in whole seeded passes.

    A pass starts only while another one is predicted to end within
    ``seconds`` (the first always runs), so every run measures each
    query of the list equally often.
    """
    started = time.perf_counter()
    pass_index = 0
    while True:
        pass_started = time.perf_counter()
        yield from workloads.pass_order(spec, seed, pass_index)
        pass_index += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return


def measure(spec, graph, seed: int, seconds: float, recorder: Optional[tracing.Recorder]):
    """One measured pass: fresh setup, then the closed loop."""
    index, executor, setup_seconds = setup(spec, graph, seed)
    query_list = workloads.queries(spec)
    records: List[dict] = []
    # Work counters are summed over the first pass, which every run
    # completes, so the totals repeat exactly for one seed.
    counted = spec.num_queries
    before = index.cache.counters()
    cache = None
    try:
        for position in _schedule(spec, seed, seconds):
            labels = query_list[position]
            qid = len(records)
            points = []

            def on_progress(point, _points=points):
                _points.append((time.perf_counter(), point.best_weight, point.lower_bound))

            root = recorder.begin("query", query=qid) if recorder else None
            started = time.perf_counter()
            future = executor.submit(labels, query_id=qid, on_progress=on_progress)
            # Done-callbacks run in registration order, so this one fires
            # after the executor's own (and the traced executor span's).
            settled = threading.Event()
            future.add_done_callback(lambda _f: settled.set())
            settled.wait()
            outcome = future.result()
            finished = time.perf_counter()
            if recorder:
                recorder.end(root)
            records.append(
                {
                    "labels": labels,
                    "outcome": outcome,
                    "latency": finished - started,
                    "marks": common.timeline_marks(
                        points,
                        outcome.result.weight if outcome.ok else common.INF,
                        started,
                        finished,
                    ),
                }
            )
            if len(records) == counted:
                # Label-cache counters, not the traces' per-query hit
                # counts: a query's own insert can evict one of its
                # labels before that label is read.
                after = index.cache.counters()
                cache = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
    finally:
        executor.shutdown()
    return {"setup": setup_seconds, "records": records, "counted": counted, "cache": cache}


def verify(graph, records, optima) -> int:
    """Certify every answer; returns the number of failed queries."""
    failed = 0
    for record in records:
        outcome = record["outcome"]
        if not outcome.ok:
            failed += 1
            continue
        common.check_result(graph, record["labels"], outcome.result, optima)
    return failed


def run(spec, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    graph = spec.graph()
    golden = common.load_golden(spec, scale)
    graph_info = common.check_graph(spec, graph, golden)
    optima = common.golden_optima(spec, graph, golden)

    report = {"graph": graph_info, "query_digest": workloads.digest(workloads.queries(spec))}
    if not trace:
        setup_times = _spare_setups(spec, graph, seed)
        run_ = measure(spec, graph, seed, seconds, None)
        setup_times += [run_["setup"]] + _spare_setups(spec, graph, seed)
        passes = {"plain": run_}
    else:
        plain = measure(spec, graph, seed, seconds / 2.0, None)
        recorder = tracing.Recorder()
        tracing.install(recorder)
        traced = measure(spec, graph, seed, seconds / 2.0, recorder)
        passes = {"plain": plain, "traced": traced}
        setup_times = [plain["setup"]]

    failed = 0
    for measured in passes.values():
        failed += verify(graph, measured["records"], optima)
    main = passes["plain"]
    records = main["records"]
    latencies = [r["latency"] for r in records]
    wall = sum(latencies)
    counters = _counters(main)
    report.update(
        attempted=sum(len(m["records"]) for m in passes.values()),
        failed=failed,
        golden_checked=sum(
            workloads.query_key(r["labels"]) in optima for r in records
        ),
        counters=counters,
        counted=main["counted"],
        samples=len(records),
        latency_samples=len(records),
        end_to_end={
            "setup_s": common.median(setup_times),
            "queries_per_s": len(records) / wall,
            "latency_p50_s": common.median(latencies),
            "first_answer_p50_s": common.median([r["marks"]["first_answer"] for r in records]),
            "optimum_found_p50_s": common.median([r["marks"]["optimum_found"] for r in records]),
            "ratio2_p50_s": common.median([r["marks"]["ratio2"] for r in records]),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        open_loop={
            "latency_p99_s": common.tail(latencies),
            "latency_tail_percentile": common.tail_percentile(len(latencies)),
            "failed_frac": failed / max(1, len(records)),
        },
        setup_samples=len(setup_times),
    )
    if trace:
        report["per_layer"] = _traced_layers(passes, recorder)
    return report


def _counters(measured) -> dict:
    """Exact work counters over the counted prefix of one pass."""
    records = measured["records"][: measured["counted"]]
    counters = common.work_counters(r["outcome"].trace for r in records)
    counters["label_sweeps"] = measured["cache"]["misses"]
    counters["label_hits"] = measured["cache"]["hits"]
    return counters


def _traced_layers(passes, recorder) -> dict:
    plain, traced = passes["plain"], passes["traced"]
    spans = list(recorder.spans)
    problems = tracing.nesting_violations(spans)
    if problems:
        raise common.BenchmarkFailure("traced spans do not nest: " + "; ".join(problems[:5]))
    records = traced["records"]
    queries = set(range(len(records)))
    layers = common.layer_metrics(
        spans, queries, _counters(traced), traced["cache"]["evictions"]
    )

    roots = [s for s in spans if s[tracing.NAME] == "query"]
    root_wall = sum(s[tracing.END] - s[tracing.START] for s in roots)
    unaccounted = common.unaccounted_s(spans, queries)
    waits = _queue_waits(spans)
    paired = min(len(records), len(plain["records"]))
    plain_wall = sum(r["latency"] for r in plain["records"][:paired])
    traced_wall = sum(r["latency"] for r in records[:paired])
    freeze = [s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == "graph.freeze"]
    layers.update(
        {
            "graph.freeze_s": common.median(freeze),
            "executor.queue_wait_p50_s": common.median(waits),
            "executor.queue_wait_p99_s": common.tail(waits),
            "fleet.transport_s": 0.0,
            "fleet.respawns": 0,
            "server.overhead_s": 0.0,
            "server.frames_per_query": 0.0,
            "loadgen.send_lag_p99_s": 0.0,
            "trace.unaccounted_frac": unaccounted / root_wall if root_wall else 0.0,
            "trace.overhead_frac": traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
        }
    )
    return layers


def _queue_waits(spans) -> List[float]:
    """Submit-to-execute-start wait per query, from the executor spans."""
    starts = {s[tracing.SPAN_ID]: s for s in spans if s[tracing.NAME] == "executor"}
    waits = []
    for span in spans:
        parent = starts.get(span[tracing.PARENT])
        if parent is not None and span[tracing.NAME] in ("index.execute", "fleet.execute"):
            waits.append(span[tracing.START] - parent[tracing.START])
    return waits
