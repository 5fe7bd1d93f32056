#!/usr/bin/env python3
"""Keeps BENCH_suite.json, the committed trajectory of bench_suite runs.

    python3 tools/bench_record.py add --commit SHA [--note TEXT] DIR...
    python3 tools/bench_record.py emit --commit SHA OUT_DIR
    python3 tools/bench_record.py show [--metrics NAME,...] [SHA...]

Each DIR is one `python3 bench/suite/run.py --seed N --out DIR` run; its
DIR/results.jsonl rows (commit, workload, metric, value, unit, n, q1, q3,
valid) are stored as written, one run per seed, under one entry per
commit; `--commit` names the entry and overrides the rows' commit field.
`add` also stores the fold: per (workload, metric), the median of the
runs' valid values with the quartiles across runs, and n = the number of
runs folded.
`emit` writes the stored runs back as OUT_DIR/runK/results.jsonl, the
layout `bench_suite --compare` reads. `show` prints the folded values
of the given commits (default: every entry) side by side.
"""
import argparse
import json
import os
import statistics
import sys

DEFAULT_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_suite.json"
)


def load(path):
    if not os.path.exists(path):
        return {"entries": []}
    with open(path) as f:
        return json.load(f)


def save(path, bench):
    """Writes one row per line, so a new entry diffs as added lines."""
    def rows(rs, pad):
        return "[\n" + ",\n".join(pad + json.dumps(r) for r in rs) + "]"

    entries = []
    for e in bench["entries"]:
        runs = ",\n".join("   " + rows(run, "    ") for run in e["runs"])
        entries.append(
            f' {{"commit": {json.dumps(e["commit"])},\n'
            f'  "note": {json.dumps(e["note"])},\n'
            f'  "runs": [\n{runs}],\n'
            f'  "fold": {rows(e["fold"], "   ")}}}'
        )
    with open(path, "w") as f:
        f.write('{"entries": [\n' + ",\n".join(entries) + "]}\n")


def read_run(run_dir):
    rows = []
    with open(os.path.join(run_dir, "results.jsonl")) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fold(commit, runs):
    """Median across runs per (workload, metric), in first-seen order."""
    by_key = {}
    for run in runs:
        for row in run:
            if not row.get("valid", True):
                continue
            key = (row["workload"], row["metric"])
            by_key.setdefault(key, {"unit": row["unit"], "values": []})
            by_key[key]["values"].append(row["value"])
    folded = []
    for (workload, metric), v in by_key.items():
        q1, q3 = quartiles(v["values"])
        folded.append({
            "commit": commit, "workload": workload, "metric": metric,
            "value": statistics.median(v["values"]), "unit": v["unit"],
            "n": len(v["values"]), "q1": q1, "q3": q3,
        })
    return folded


def find(bench, commit):
    matches = [e for e in bench["entries"] if e["commit"].startswith(commit)]
    if len(matches) != 1:
        sys.exit(f"bench_record: {len(matches)} entries match commit '{commit}'")
    return matches[0]


def cmd_add(args):
    bench = load(args.file)
    if any(e["commit"] == args.commit for e in bench["entries"]):
        sys.exit(f"bench_record: an entry for {args.commit} exists already")
    runs = [read_run(d) for d in args.dirs]
    for run in runs:
        for row in run:
            row["commit"] = args.commit
    bench["entries"].append({
        "commit": args.commit,
        "note": args.note,
        "runs": runs,
        "fold": fold(args.commit, runs),
    })
    save(args.file, bench)


def cmd_emit(args):
    entry = find(load(args.file), args.commit)
    for i, run in enumerate(entry["runs"], start=1):
        run_dir = os.path.join(args.out_dir, f"run{i}")
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "results.jsonl"), "w") as f:
            for row in run:
                f.write(json.dumps(row) + "\n")


def cmd_show(args):
    bench = load(args.file)
    entries = [find(bench, c) for c in args.commits] or bench["entries"]
    wanted = set(args.metrics.split(",")) if args.metrics else None
    keys = []
    values = {}
    for e in entries:
        for row in e["fold"]:
            key = (row["workload"], row["metric"], row["unit"])
            if wanted and row["metric"] not in wanted:
                continue
            if key not in values:
                keys.append(key)
                values[key] = {}
            values[key][e["commit"]] = row["value"]
    print("\t".join(["workload", "metric", "unit"] + [e["commit"][:8] for e in entries]))
    for key in keys:
        cells = [values[key].get(e["commit"]) for e in entries]
        print("\t".join(list(key) + ["-" if c is None else f"{c:.4g}" for c in cells]))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--file", default=DEFAULT_FILE)
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser("add")
    add.add_argument("--commit", required=True)
    add.add_argument("--note", default="")
    add.add_argument("dirs", nargs="+")
    add.set_defaults(func=cmd_add)
    emit = sub.add_parser("emit")
    emit.add_argument("--commit", required=True)
    emit.add_argument("out_dir")
    emit.set_defaults(func=cmd_emit)
    show = sub.add_parser("show")
    show.add_argument("--metrics", default="")
    show.add_argument("commits", nargs="*")
    show.set_defaults(func=cmd_show)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
