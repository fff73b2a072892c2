"""Reduced-size self-test of the benchmark itself (about a minute).

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs every workload on its tiny inputs and checks that:

* each run prints every declared metric, by name, with its unit, and
  the human-readable report names every end-to-end metric of the
  design (including the open-loop ones);
* traced spans nest: every self time is >= 0 and every child lies
  inside its parent, and the per-layer self times account for the
  in-thread query wall time to within 10% (the self time of the
  catch-all spans, ``common.CATCH_ALL``, counts as unaccounted);
* the exact work counters repeat across two runs with one seed, also
  under another ``PYTHONHASHSEED``;
* without the program's sources next to it, the benchmark exits
  non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("large_k4", "proof_k6", "served_fleet")
REPORTED = (
    "setup_s", "queries_per_s", "latency_p50_s", "latency_p99_s",
    "first_answer_p50_s", "optimum_found_p50_s", "ratio2_p50_s",
    "max_rate_qps", "failed_frac", "peak_rss_mb",
)


def bench(workload: str, trace: int, seed: int = 1, cwd: str = ROOT, env=None):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "2",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, **(env or {})),
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_run(workload: str, trace: int, declared: dict) -> str:
    done = bench(workload, trace)
    check(done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["attempted"] >= 1, "correct/attempted")
    listed = declared["per_layer" if trace else "end_to_end"]
    check(
        set(result["metrics"]) == {m["name"] for m in listed},
        f"{workload} trace={trace}: metric names differ from BENCHMARK.json",
    )
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        check(entry["unit"] == metric["unit"], f"unit of {metric['name']}")
        check(isinstance(entry["value"], (int, float)), f"value of {metric['name']}")
        if not trace:
            check(entry["value"] > 0, f"{workload}: {metric['name']} is 0")
    report = "\n".join(lines[:-1])
    for name in REPORTED:
        check(f" {name} " in report, f"{workload}: report lacks {name}")
    if trace and workload != "served_fleet":
        unaccounted = result["metrics"]["trace.unaccounted_frac"]["value"]
        check(0 <= unaccounted <= 0.10, f"{workload}: {unaccounted:.1%} of wall time unaccounted")
    return report


def check_spans() -> None:
    """Nesting and self times of one traced in-process pass."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inthread
    import tracing
    import workloads

    spec = workloads.SPECS["tiny"]["large_k4"]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    inthread.measure(spec, spec.graph(), 1, 1.0, recorder)
    check(not tracing.nesting_violations(recorder.spans), "spans do not nest")
    check(min(tracing.self_times(recorder.spans).values()) >= -1e-9, "negative self time")
    names = {span[tracing.NAME] for span in recorder.spans}
    for layer in ("query", "executor", "index.execute", "context.build",
                  "cache.distances", "graph.label_sweep", "allpaths.build",
                  "graph.teleport", "engine.search", "feasible", "graph.freeze"):
        check(layer in names, f"no {layer} span recorded")


def check_counters_repeat() -> None:
    for workload in ("large_k4", "proof_k6"):
        runs = [
            bench(workload, 0, seed=3, env={"PYTHONHASHSEED": salt})
            for salt in ("1", "2")
        ]
        counters = [
            [line for line in run.stdout.splitlines() if line.startswith("counter ")]
            for run in runs
        ]
        check(counters[0] and counters[0] == counters[1], f"{workload}: counters differ")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("proof_k6", 0, cwd=bare)
        check(done.returncode != 0, "bare directory: exit code 0")
        check("correct" not in done.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, declared)
            print(f"ok   {workload} trace={trace}")
    check_counters_repeat()
    print("ok   work counters repeat")
    check_spans()
    print("ok   spans nest")
    check_bare_directory()
    print("ok   bare directory fails")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
