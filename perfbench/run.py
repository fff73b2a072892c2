"""Benchmark of the GST engine and its serving stack: three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, and why each was chosen:

``large_k4``
    dblp-like graph of 50k nodes, 32 k=4 queries over a 16-label pool
    of frequency-8 labels, in a closed loop of one client through
    ``QueryExecutor(isolation="thread", max_workers=1)``.  Set-up
    preloads 12 of the 16 labels into a 12-label LRU label cache, so
    about a quarter of label lookups miss it (``cache.hit_ratio``
    reports the measured share).  Preprocessing-bound: the per-label
    sweeps and the teleport Dijkstra of the AllPaths tables take most
    of each query, so label-cache and AllPaths changes show here.
``proof_k6``
    dblp-like graph of 5k nodes, 12 exact k=6 queries, same closed
    loop, warm label cache.  Proof-bound: feasible-tree construction
    and the search take nearly all the time and the first answer comes
    early; a preprocessing change should not move it.
``served_fleet``
    imdb-like graph of 1.5k nodes, 60 k=5 queries, warm caches, served
    by ``GSTServer`` over TCP with a 2-worker shared-memory fleet.  A
    run alternates a closed loop of one client, where the end-to-end
    latencies are read, with seeded Poisson arrivals from one generator
    over two connections at 5, 10 and 15 queries/s, where throughput
    (at 10/s), the p99 tail and the highest sustainable rate are read.
    The only workload through protocol, executor queueing and fleet
    transport.  Solves of about 50 ms keep the run-to-run spread near
    that of the in-thread workloads: with the 7 ms k<=4 solves first
    tried, host load swung the served medians by 30-60% between runs
    on a 2-cpu VM.

The closed-loop workloads run whole passes over their query list in a
seeded order: a pass starts only while it is predicted to end within
``--seconds``, and the first always runs.  ``served_fleet`` splits
``--seconds`` between its closed loop (whole passes, as above) and
its three rates.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once plainly and once with spans recorded around each layer's
public functions (``tracing.py``) and prints the per-layer metrics,
including the tracing overhead against the plain pass.  Every answer
is certified, and compared with a DPBF optimum where one is known,
before any number is printed; any mismatch exits non-zero.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("large_k4", "proof_k6", "served_fleet"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the reduced inputs the self-test uses")
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(args, report) -> None:
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    graph = report["graph"]
    print(f"graph fingerprint {graph['fingerprint']} nodes {graph['nodes']} edges {graph['edges']}")
    print(f"query digest {report['query_digest']}; {report['golden_checked']} "
          "answers checked against DPBF optima")
    print(f"queries attempted {report['attempted']} failed {report['failed']} "
          f"failed_frac {report['failed'] / max(1, report['attempted']):.6g}")
    for name, value in report["end_to_end"].items():
        print(f"metric {name} {_fmt(value)}")
    print(f"samples: setup_s {report['setup_samples']} set-ups, "
          f"latency medians {report['latency_samples']} queries")
    extra = report["open_loop"]
    print(f"metric latency_p99_s {_fmt(extra['latency_p99_s'])} "
          f"(p{extra['latency_tail_percentile']:.4g}: the highest percentile "
          f"with 10 samples beyond it, of {report['samples']})")
    if "max_rate_qps" in extra:
        print(f"metric max_rate_qps {_fmt(extra['max_rate_qps'])}")
        print(f"metric loadgen.send_lag_p99_s {_fmt(extra['send_lag_p99_s'])}")
        for step in report["ladder"]:
            print("ladder " + " ".join(f"{k} {_fmt(v)}" for k, v in step.items()))
    else:
        print("metric max_rate_qps n/a (closed loop)")
    for name, value in report["counters"].items():
        print(f"counter {name} {value} (over {report['counted']} queries)")
    for name, value in report.get("per_layer", {}).items():
        print(f"layer {name} {_fmt(value)}")


def main(argv) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import common
    import inthread
    import served
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    spec = workloads.SPECS[args.scale][args.workload]
    runner = served if args.workload == "served_fleet" else inthread
    try:
        report = runner.run(spec, args.seed, args.seconds, bool(args.trace), args.scale)
    except common.BenchmarkFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(args, report)
    if args.trace:
        values, listed = report["per_layer"], declared["per_layer"]
        values["loadgen.latency_p99_s"] = report["open_loop"]["latency_p99_s"] if runner is served else 0.0
        values["loadgen.max_rate_qps"] = report["open_loop"].get("max_rate_qps", 0.0)
        values["loadgen.failed_frac"] = report["open_loop"]["failed_frac"]
    else:
        values, listed = report["end_to_end"], declared["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
