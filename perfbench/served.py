"""``served_fleet``: closed- and open-loop load on ``GSTServer`` over a fleet.

The server runs in a child process (``python3 perfbench/served.py
...``) so the load generator never shares an interpreter lock with
it.  It builds the index, starts ``GSTServer`` with a 2-worker
shared-memory fleet, warms every worker's label cache, reports its
port, and serves until a ``stop`` line arrives on its stdin; a
``setup`` line there times a spare set-up.

The generator (this process) alternates a closed loop of one query in
flight with seeded Poisson arrivals over two connections at each
ladder rate; both get a share of ``--seconds``.  Every open-loop
request is timed from its scheduled send time, so a stalled server
also delays the requests queued behind it; how late the generator
itself ran is reported, and a run whose generator lagged is rejected
rather than reported as a slow server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

WORKERS = 2
CONNECTIONS = 2
# A run alternates, ROUNDS times, a closed-loop window (one query in
# flight) with one window per ladder rate.  Latencies and the progress
# marks are read in the closed loop: per-query cost through the whole
# served stack, without queueing.  Its windows take CLOSED_SHARE of
# ``--seconds`` and run whole seeded passes over the query list, so
# every query is read equally often.  Throughput, the p99 tail and the
# highest sustainable rate come from the ladder, which gets the rest;
# its rates lie below the fleet's capacity (about 25/s on a 2-cpu
# host).
CLOSED_SHARE = 0.6
RATES = (5.0, 10.0, 15.0)
SHARES = (0.25, 0.5, 0.25)
ROUNDS = 4
MIDDLE = 1
LATENCY_LIMIT_S = 0.25
SEND_LAG_BOUND_S = 0.05  # a fifth of the latency limit
MAX_INFLIGHT = 1024
DRAIN_TIMEOUT_S = 30.0
SERVER_TIMEOUT_S = 120.0
# Set-ups of an untraced run: the served one, then this many spare
# ones before each round, so that they sample the host across the run
# (its speed drifts over tens of seconds).  setup_s is their median.
SPARE_SETUPS_PER_ROUND = 2
# Warm-up query size: the cheapest solve that still sweeps its labels.
WARM_K = 2


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def _warm(executor, spec, setup_index: int) -> None:
    """Load every pool label into every fleet worker's label cache.

    Each label pair goes out once per worker at the same time, so the
    copies land on different (idle) workers.
    """
    labels = spec.labels()
    for n in range(0, len(labels), WARM_K):
        chunk = labels[n:n + WARM_K]
        futures = [
            asyncio.wrap_future(
                executor.submit(chunk, query_id=f"warm-{setup_index}-{n}-{w}")
            )
            for w in range(WORKERS)
        ]
        for outcome in await asyncio.gather(*futures):
            if not outcome.ok:
                raise RuntimeError(f"warm-up query failed: {outcome.error}")


async def _setup(spec, graph, setup_index: int):
    """Index, server and fleet start, warm-up: what ``setup_s`` times."""
    from repro import GraphIndex, GSTServer

    copy = graph.copy()  # stands in for loading; not timed
    gc.collect()  # earlier garbage is not this set-up's cost
    started = time.perf_counter()
    server = GSTServer(
        GraphIndex(copy), isolation="fleet", workers=WORKERS, max_inflight=MAX_INFLIGHT
    )
    await server.start()
    await _warm(server.executor, spec, setup_index)
    return server, time.perf_counter() - started


async def _serve(spec, graph, recorder, traces: Dict) -> None:
    """Serve until a ``stop`` line arrives on stdin.

    A ``setup`` line makes, times and drains a spare server while the
    served one idles; ``stop`` lists the queries whose work counters
    to total.
    """
    import common

    server, seconds = await _setup(spec, graph, 0)
    setup_times = [seconds]
    _emit({"op": "ready", "port": server.port})
    loop = asyncio.get_running_loop()
    while True:
        command = json.loads(await loop.run_in_executor(None, sys.stdin.readline))
        if command["op"] == "stop":
            break
        spare, seconds = await _setup(spec, graph, len(setup_times))
        setup_times.append(seconds)
        await spare.drain()
        _emit({"op": "setup"})
    counted = command["count"]
    fleet = server.executor.worker_pool.stats()
    await server.drain()
    measured = [traces[q] for q in counted if q in traces]
    _emit(
        {
            "op": "done",
            "setup_s": setup_times,
            "respawns": sum(w["respawns"] for w in fleet["per_worker"]),
            "rss_server_mb": common.peak_rss_mb(),
            # Largest fleet worker (children are reaped by the drain).
            "rss_worker_mb": common.peak_rss_mb(resource.RUSAGE_CHILDREN),
            "spans": recorder.spans if recorder is not None else [],
            "counters": common.work_counters(measured) if recorder is not None else None,
        }
    )


def serve_main(argv: List[str]) -> int:
    import argparse

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import tracing
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    # The load generator shares the host's cores with this process and
    # its fleet; yielding to it keeps its send lag (which the run is
    # rejected on) from measuring the server's own CPU use.
    os.nice(5)
    spec = workloads.SPECS[args.scale]["served_fleet"]
    graph = spec.graph()
    recorder = None
    traces: Dict = {}
    if args.trace:
        # Installed before any fleet forks, so workers inherit the wrappers.
        recorder = tracing.Recorder()
        tracing.install(recorder)
        from repro.service.fleet import FleetPool

        execute = FleetPool.execute

        def keep_trace(pool, labels, **kwargs):
            outcome = execute(pool, labels, **kwargs)
            traces[kwargs.get("query_id")] = outcome.trace
            return outcome

        FleetPool.execute = keep_trace
    asyncio.run(_serve(spec, graph, recorder, traces))
    return 0


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
async def _read(reader, pending: Dict[int, dict]) -> None:
    from repro.server import protocol

    decoder = protocol.FrameDecoder()
    while True:
        data = await reader.read(1 << 16)
        if not data:
            return
        now = time.perf_counter()
        for frame in decoder.feed(data):
            record = pending.get(frame.get("id"))
            if record is None:
                continue  # HELLO
            kind = frame["type"]
            record["frames"] += 1
            if kind == protocol.PROGRESS:
                record["points"].append(
                    (now, protocol.load_number(frame["best_weight"]), frame["lower_bound"])
                )
                continue
            record["done"] = now
            record["settled"].set()
            del pending[frame["id"]]
            if kind == protocol.RESULT:
                record["frame"] = frame
                record["points"].append(
                    (now, protocol.load_number(frame["weight"]), frame["lower_bound"])
                )
            else:
                record["error"] = frame.get("code", kind)


async def _drive(port: int, steps, spec, seed: int, between_rounds) -> dict:
    import workloads
    from repro.server import protocol

    query_list = workloads.queries(spec)
    rng = random.Random(f"served_fleet:{seed}:arrivals")
    streams = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)
    ]
    pending: Dict[int, dict] = {}
    readers = [asyncio.ensure_future(_read(r, pending)) for r, _ in streams]
    records: List[dict] = []
    order: List[int] = []
    windows = []

    def send(window: int, due: float, labels, pass_index=None) -> dict:
        qid = len(records)
        record = {
            "qid": qid, "window": window, "labels": labels, "scheduled": due,
            "sent": time.perf_counter(), "done": None, "frames": 0,
            "points": [], "frame": None, "error": None, "pass": pass_index,
            "settled": asyncio.Event(),
        }
        pending[qid] = record
        records.append(record)
        streams[qid % CONNECTIONS][1].write(
            protocol.encode_frame(protocol.query_frame(qid, labels))
        )
        return record

    def expire(record: dict) -> None:
        """An unanswered request fails; a late answer is ignored."""
        record["error"] = "timeout"
        pending.pop(record["qid"], None)

    def next_labels():
        nonlocal order
        if not order:
            # Whole seeded passes over the list: every query is sent
            # equally often, so the mix does not drift.
            order = list(range(len(query_list)))
            rng.shuffle(order)
        return query_list[order.pop()]

    # Closed loop: whole seeded passes, continued across its windows.
    # Each window runs until its share of time is spent; the last one
    # finishes the current pass and starts another only while that is
    # predicted to end within its share.
    last_closed = max(w for w, (rate, _) in enumerate(steps) if rate is None)
    closed = {"order": [], "passes": 0, "queries": 0, "busy": 0.0}

    async def closed_loop(window: int, ends: float) -> None:
        while True:
            now = time.perf_counter()
            if not closed["order"]:
                per_pass = closed["busy"] / max(1, closed["queries"]) * len(query_list)
                if now >= ends or (window == last_closed and now + per_pass > ends):
                    return
                closed["order"] = workloads.pass_order(spec, seed, closed["passes"])
                closed["passes"] += 1
            elif now >= ends and window != last_closed:
                return
            labels = query_list[closed["order"].pop(0)]
            record = send(window, now, labels, closed["passes"] - 1)
            try:
                await asyncio.wait_for(record["settled"].wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                expire(record)
            closed["queries"] += 1
            closed["busy"] += time.perf_counter() - now

    try:
        for window, (rate, duration) in enumerate(steps):
            started = time.perf_counter() + 0.05
            await asyncio.sleep(0.05)
            if rate is None:
                # Each round starts with its closed loop.  Nothing is
                # in flight here, so a blocking call stalls no request.
                between_rounds()
                started = time.perf_counter()
                # One query in flight: no queueing.
                await closed_loop(window, started + duration)
            else:
                # A Poisson process conditioned on its count: arrival
                # times are sorted uniform draws, so every run offers
                # the same number of queries at each rate.
                count = round(rate * duration)
                for offset in sorted(rng.uniform(0.0, duration) for _ in range(count)):
                    due = started + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    send(window, due, next_labels())
            backlog = len(pending)
            deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            while pending and time.perf_counter() < deadline:
                await asyncio.sleep(0.005)
            for record in list(pending.values()):
                expire(record)
            windows.append({"rate": rate, "started": started, "backlog": backlog})
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return {"records": records, "windows": windows}


def _start_server(scale: str, trace: bool):
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "served.py"),
         "--scale", scale, "--trace", str(int(trace))],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    return proc


def _read_line(proc, timeout: float) -> dict:
    """The server's next JSON line, or a failure after ``timeout``."""
    box: List[Optional[str]] = [None]
    reader = threading.Thread(target=lambda: box.__setitem__(0, proc.stdout.readline()))
    reader.daemon = True
    reader.start()
    reader.join(timeout)
    if not box[0]:
        import common

        raise common.BenchmarkFailure("served_fleet: the server process did not answer")
    return json.loads(box[0])


def _session(spec, seed: int, scale: str, steps, trace: bool, spares: int) -> dict:
    """One server process: set up, drive the ladder, stop, collect.

    ``spares`` spare set-ups are timed before each round.
    """
    import common

    proc = _start_server(scale, trace)

    def command(message: dict) -> dict:
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
        return _read_line(proc, SERVER_TIMEOUT_S)

    def between_rounds() -> None:
        for _ in range(spares):
            command({"op": "setup"})

    try:
        ready = _read_line(proc, SERVER_TIMEOUT_S)
        driven = asyncio.run(_drive(ready["port"], steps, spec, seed, between_rounds))
        done = command(
            {"op": "stop", "count": [r["qid"] for r in driven["records"] if r["pass"] == 0]}
        )
        proc.wait(SERVER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise common.BenchmarkFailure(f"served_fleet: server exited with {proc.returncode}")
    driven.update(done=done)
    return driven


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def _references(graph, query_list, optima) -> Dict[tuple, tuple]:
    """In-thread answers: certified, golden-checked, and serialised."""
    from repro import GraphIndex
    from repro.server.protocol import result_frame

    import common

    index = GraphIndex(graph)
    expected = {}
    for labels in query_list:
        if labels in expected:
            continue
        result = index.execute(labels).raise_for_error()
        common.check_result(graph, labels, result, optima)
        tree = json.dumps(result_frame(None, result)["tree"], sort_keys=True)
        expected[labels] = (result.weight, tree)
    return expected


def _verify(records, expected) -> int:
    """Served trees must match the in-thread trees byte for byte."""
    import common

    failed = 0
    for record in records:
        frame = record["frame"]
        if record["error"] is not None or frame is None:
            failed += 1
            continue
        weight, tree = expected[record["labels"]]
        if (
            frame["status"] != "ok"
            or not frame["optimal"]
            or json.dumps(frame["tree"], sort_keys=True) != tree
        ):
            raise common.BenchmarkFailure(
                f"served answer for {list(record['labels'])} differs from the "
                f"in-thread answer (weight {frame['weight']} vs {weight})"
            )
    return failed


def _rate_summary(rate: Optional[float], session) -> dict:
    """One ladder rate (``None``: the closed loop), over all its windows."""
    import common

    records, elapsed, backlog = [], 0.0, 0
    for window, info in enumerate(session["windows"]):
        if info["rate"] != rate:
            continue
        mine = [r for r in session["records"] if r["window"] == window]
        records += mine
        finish = max((r["done"] or info["started"] for r in mine), default=info["started"])
        elapsed += finish - info["started"]
        backlog = max(backlog, info["backlog"])
    done = [r for r in records if r["done"] is not None and r["error"] is None]
    latencies = [r["done"] - r["scheduled"] for r in done]
    # A failed or unanswered request misses every latency limit.
    limited = latencies + [common.INF] * (len(records) - len(done))
    tail = common.tail(limited)
    return {
        "rate": rate,
        "samples": len(records),
        "completed_per_s": len(done) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_s": common.median(latencies),
        "latency_p99_s": tail,
        "tail_percentile": common.tail_percentile(len(limited)),
        "backlog": backlog,
        "send_lag_p99_s": common.tail([r["sent"] - r["scheduled"] for r in records]),
        # Backlog: requests beyond the ones the workers are serving.
        "meets_limit": rate is not None
        and tail <= LATENCY_LIMIT_S
        and backlog <= WORKERS + rate * LATENCY_LIMIT_S,
        "marks": [
            common.timeline_marks(
                r["points"], r["points"][-1][1], r["scheduled"], r["done"]
            )
            for r in done
        ],
        "done": done,
    }


def run(spec, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import common
    import workloads

    graph = spec.graph()
    golden = common.load_golden(spec, scale)
    report = {"graph": common.check_graph(spec, graph, golden)}
    optima = common.golden_optima(spec, graph, golden)
    query_list = workloads.queries(spec)
    report["query_digest"] = workloads.digest(query_list)
    expected = _references(graph, query_list, optima)
    del graph

    # The traced run makes a plain and a traced session of half length.
    length = seconds / 2.0 if trace else seconds
    steps = []
    for _ in range(ROUNDS):
        steps.append((None, length * CLOSED_SHARE / ROUNDS))
        steps += [
            (rate, length * (1.0 - CLOSED_SHARE) * share / ROUNDS)
            for rate, share in zip(RATES, SHARES)
        ]
    if trace:
        sessions = [
            _session(spec, seed, scale, steps, False, 0),
            _session(spec, seed, scale, steps, True, 0),
        ]
    else:
        sessions = [_session(spec, seed, scale, steps, False, SPARE_SETUPS_PER_ROUND)]

    failed = 0
    attempted = 0
    for session in sessions:
        failed += _verify(session["records"], expected)
        attempted += len(session["records"])
    main = sessions[0]
    closed = _rate_summary(None, main)
    summaries = [_rate_summary(rate, main) for rate in RATES]
    lags = [r["sent"] - r["scheduled"] for s in sessions for r in s["records"]]
    send_lag = common.tail(lags)
    if send_lag > SEND_LAG_BOUND_S:
        raise common.BenchmarkFailure(
            f"served_fleet: invalid run, the generator sent late "
            f"(send lag tail {send_lag * 1e3:.1f} ms > {SEND_LAG_BOUND_S * 1e3:.0f} ms)"
        )
    # The highest rate up to which every rung meets the limit.
    max_rate = 0.0
    for summary in summaries:
        if not summary["meets_limit"]:
            break
        max_rate = summary["rate"]
    mid = summaries[MIDDLE]
    done_stats = main["done"]
    first_pass = [r for r in closed["done"] if r["pass"] == 0]
    report.update(
        attempted=attempted,
        failed=failed,
        golden_checked=sum(workloads.query_key(q) in optima for q in expected),
        samples=mid["samples"],
        latency_samples=len(closed["done"]),
        counted=len(first_pass),
        counters={
            "states_popped": sum(r["frame"]["stats"]["states_popped"] for r in first_pass)
        },
        setup_samples=len(done_stats["setup_s"]),
        ladder=[
            {k: ("closed" if v is None else v) for k, v in s.items() if k not in ("marks", "done")}
            for s in [closed] + summaries
        ],
        end_to_end={
            "setup_s": common.median(done_stats["setup_s"]),
            "queries_per_s": mid["completed_per_s"],
            "latency_p50_s": closed["latency_p50_s"],
            "first_answer_p50_s": common.median([m["first_answer"] for m in closed["marks"]]),
            "optimum_found_p50_s": common.median([m["optimum_found"] for m in closed["marks"]]),
            "ratio2_p50_s": common.median([m["ratio2"] for m in closed["marks"]]),
            "peak_rss_mb": done_stats["rss_server_mb"] + done_stats["rss_worker_mb"],
        },
        open_loop={
            "latency_p99_s": mid["latency_p99_s"],
            "latency_tail_percentile": mid["tail_percentile"],
            "max_rate_qps": max_rate,
            "failed_frac": failed / max(1, attempted),
            "send_lag_p99_s": send_lag,
        },
    )
    if trace:
        report["per_layer"] = _traced_layers(sessions, report)
    return report


def _traced_layers(sessions, report) -> dict:
    import common
    import tracing

    plain, traced = sessions
    spans = traced["done"]["spans"]
    problems = tracing.nesting_violations(spans)
    if problems:
        raise common.BenchmarkFailure("traced spans do not nest: " + "; ".join(problems[:5]))
    records = {r["qid"]: r for r in traced["records"] if r["frame"] is not None}
    queries = set(records)
    layers = common.layer_metrics(spans, queries, traced["done"]["counters"], 0)
    by_query: Dict[int, Dict[str, list]] = {}
    for span in spans:
        if span[tracing.QUERY] in queries:
            by_query.setdefault(span[tracing.QUERY], {})[span[tracing.NAME]] = span
    waits, overheads = [], []
    selfs = tracing.self_times(spans)
    transport = []
    for qid, named in by_query.items():
        executor, fleet = named.get("executor"), named.get("fleet.execute")
        if executor is None or fleet is None:
            continue
        record = records[qid]
        client = record["done"] - record["sent"]
        waits.append(fleet[tracing.START] - executor[tracing.START])
        transport.append(selfs[fleet[tracing.SPAN_ID]])
        overheads.append(client - (fleet[tracing.END] - fleet[tracing.START]))
    # Overhead: closed-loop latency per query, traced against plain.
    plain_mean, traced_mean = _closed_means(plain), _closed_means(traced)
    paired = [labels for labels in traced_mean if labels in plain_mean]
    plain_wall = sum(plain_mean[labels] for labels in paired)
    traced_wall = sum(traced_mean[labels] for labels in paired)
    client_wall = sum(records[q]["done"] - records[q]["sent"] for q in queries)
    freeze = [s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == "graph.freeze"]
    n = max(1, len(transport))
    layers.update(
        {
            "graph.freeze_s": common.median(freeze),
            "executor.queue_wait_p50_s": common.median(waits),
            "executor.queue_wait_p99_s": common.tail(waits),
            "fleet.transport_s": sum(transport) / n,
            "fleet.respawns": traced["done"]["respawns"],
            "server.overhead_s": sum(overheads) / n,
            "server.frames_per_query": sum(r["frames"] for r in records.values()) / max(1, len(records)),
            "loadgen.send_lag_p99_s": report["open_loop"]["send_lag_p99_s"],
            "trace.unaccounted_frac": (
                common.unaccounted_s(spans, queries) / client_wall if client_wall else 0.0
            ),
            "trace.overhead_frac": traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
        }
    )
    return layers


def _closed_means(session) -> Dict[tuple, float]:
    """Mean closed-loop latency of each query of the list."""
    sums: Dict[tuple, list] = {}
    for record in session["records"]:
        if record["pass"] is not None and record["done"] is not None:
            entry = sums.setdefault(record["labels"], [0.0, 0])
            entry[0] += record["done"] - record["scheduled"]
            entry[1] += 1
    return {labels: total / count for labels, (total, count) in sums.items()}


if __name__ == "__main__":
    sys.exit(serve_main(sys.argv[1:]))
