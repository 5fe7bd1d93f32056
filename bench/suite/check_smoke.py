#!/usr/bin/env python3
"""The bench_suite_smoke test.

    check_smoke.py BENCH_SUITE BENCHMARK_JSON OUT_DIR

Runs `bench_suite --smoke --out OUT_DIR` (every workload, one short window
per phase, untraced and traced) and fails unless
  - bench_suite exits 0, so every correctness check passed;
  - bench_suite --catalog names the same workloads and metrics as
    BENCHMARK.json, with the same units, directions and bounds;
  - OUT_DIR/results.jsonl reports every BENCHMARK.json metric for every
    workload with its unit, and a failed_frac of 0;
  - the traced runs wrote each workload's trace, metrics and span files.
"""
import json
import os
import shutil
import subprocess
import sys


def fail(message):
    sys.exit(f"bench_suite_smoke: {message}")


def main():
    binary, benchmark_json, out_dir = sys.argv[1:4]
    with open(benchmark_json) as f:
        benchmark = json.load(f)

    catalog = json.loads(
        subprocess.run([binary, "--catalog"], check=True, capture_output=True, text=True).stdout
    )
    if [w["name"] for w in benchmark["workloads"]] != catalog["workloads"]:
        fail(f"workloads differ: BENCHMARK.json {benchmark['workloads']} vs {catalog['workloads']}")
    for kind in ("end_to_end", "per_layer"):
        if benchmark[kind] != catalog[kind]:
            fail(f"{kind} metrics differ from bench_suite --catalog:\n"
                 f"  BENCHMARK.json: {benchmark[kind]}\n  bench_suite:    {catalog[kind]}")

    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run([binary, "--smoke", "--seed", "1", "--out", out_dir], timeout=240)
    if proc.returncode != 0:
        fail(f"bench_suite --smoke exited {proc.returncode}")

    rows = {}
    with open(os.path.join(out_dir, "results.jsonl")) as f:
        for line in f:
            row = json.loads(line)
            rows[(row["workload"], row["metric"])] = row
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    for workload in catalog["workloads"]:
        for metric in metrics:
            row = rows.get((workload, metric["name"]))
            if row is None:
                fail(f"{workload}: no {metric['name']} in results.jsonl")
            if row["unit"] != metric["unit"]:
                fail(f"{workload}: {metric['name']} in {row['unit']}, BENCHMARK.json says {metric['unit']}")
        if rows[(workload, "failed_frac")]["value"] != 0:
            fail(f"{workload}: failed_frac {rows[(workload, 'failed_frac')]['value']}")
        for artifact in ("trace.json", "metrics.jsonl", "spans.json"):
            path = os.path.join(out_dir, f"{workload}.{artifact}")
            if not os.path.getsize(path):
                fail(f"{path} is empty")
            if artifact.endswith(".json"):
                with open(path) as f:
                    json.load(f)
    print(f"bench_suite_smoke: {len(catalog['workloads'])} workloads x {len(metrics)} metrics OK")


if __name__ == "__main__":
    main()
