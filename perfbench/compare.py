#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them.

Subcommands (run from a repository root):

  collect  Run perfbench/run.py for workloads x seeds; append one JSON line
           per run ({"workload", "seed", "trace", "result"}) to --out.
             compare.py collect --out runs.jsonl --seeds 1-10
  spread   Per (workload, metric): median, quartiles and IQR/median of one
           set, checked against each metric's BENCHMARK.json bound (a spread
           above bound/3 is flagged).
             compare.py spread runs.jsonl
  pairs    Alternate runs of two checkouts (parent first on even pairs,
           change first on odd ones), same seed per pair, into two sets.
             compare.py pairs --parent DIR --change DIR --seeds 1-10 --out-dir D
  compare  Apply the pairing rule to two sets (rows paired by workload and
           seed) and report each (metric, workload) row as improved,
           unchanged, worse or unresolved.
             compare.py compare parent.jsonl change.jsonl

The rule, per row, with the metric's bound from BENCHMARK.json:
  improved    at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), and the medians differ, in the
              better direction, by more than the parent's IQR;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  neither, and the parent's IQR is wider than the bound, unless
              every change run is better than every parent run (unchanged);
  unchanged   otherwise.

Every run uses BENCHMARK.json's run_seconds and covers all its workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
# Fewest pairs from which a row can be called improved.
MIN_PAIRS = 10


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_table(spec):
    table = {}
    for m in spec["end_to_end"]:
        table[m["name"]] = dict(m)
    for m in spec["per_layer"]:
        table[m["name"]] = dict(m, bound=None)
    return table


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(root, spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    # Each checkout builds into its own default directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed,
                                                              proc.returncode))
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_collect(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for seed in parse_seeds(args.seeds):
                row = run_once(ROOT, spec, workload, seed, args.trace)
                out.write(json.dumps(row) + "\n")
                out.flush()
                print("%s seed %d done" % (workload, seed), flush=True)


def grouped(runs):
    groups = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            groups.setdefault((run["workload"], name), []).append(
                (run["seed"], m["value"]))
    return groups


def cmd_spread(args):
    table = metric_table(load_spec())
    worst = 0.0
    print("%-20s %-30s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med", "bound"))
    for (workload, name), pairs in sorted(grouped(load_runs(args.runs)).items()):
        values = [v for _, v in pairs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = table.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "OK" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
        print("%-20s %-30s %5d %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            workload, name, len(values), q1, med, q3, spread,
            "" if bound is None else "%.2f" % bound, flag))
    print("worst end-to-end spread (setup_s excluded): %.2f of its bound" % worst)


def verdict(parent, change, better, bound):
    """Returns the row's verdict; parent/change are lists of (seed, value)."""
    p = dict(parent)
    c = dict(change)
    seeds = sorted(set(p) & set(c))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for s in seeds if sign * (c[s] - p[s]) > 0)
    pv, cv = [p[s] for s in seeds], [c[s] for s in seeds]
    pq1, pmed, pq3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    gap = sign * (cmed - pmed)
    iqr = pq3 - pq1
    if len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds) and gap > iqr:
        return "improved", len(seeds), wins, pmed, cmed
    if bound is not None and pmed and -gap > bound * abs(pmed):
        return "worse", len(seeds), wins, pmed, cmed
    # A spread wider than the bound leaves the row unresolved, unless every
    # change run beat every parent run: then it cannot be a loss.
    every_better = all(sign * (x - y) > 0 for x in cv for y in pv)
    if bound is not None and pmed and iqr > bound * abs(pmed) and not every_better:
        return "unresolved", len(seeds), wins, pmed, cmed
    return "unchanged", len(seeds), wins, pmed, cmed


def cmd_compare(args):
    table = metric_table(load_spec())
    parent = grouped(load_runs(args.parent))
    change = grouped(load_runs(args.change))
    print("%-20s %-30s %5s %5s %14s %14s  %s" % (
        "workload", "metric", "pairs", "wins", "parent med", "change med", "verdict"))
    counts = {}
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        meta = table.get(name, {"better": "lower", "bound": None})
        v, n, wins, pmed, cmed = verdict(parent[key], change[key], meta["better"],
                                         meta.get("bound"))
        counts[v] = counts.get(v, 0) + 1
        print("%-20s %-30s %5d %5d %14.6g %14.6g  %s" % (workload, name, n, wins, pmed,
                                                         cmed, v))
    print(", ".join("%s: %d" % kv for kv in sorted(counts.items())))


def cmd_pairs(args):
    spec = load_spec(args.parent)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {side: os.path.join(args.out_dir, side + ".jsonl")
             for side in ("parent", "change")}
    files = {side: open(path, "a") for side, path in paths.items()}
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for i, seed in enumerate(parse_seeds(args.seeds)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    root = args.parent if side == "parent" else args.change
                    row = run_once(root, spec, workload, seed, args.trace)
                    files[side].write(json.dumps(row) + "\n")
                    files[side].flush()
                print("%s pair %d (seed %d) done" % (workload, i, seed), flush=True)
    finally:
        for f in files.values():
            f.close()
    args.parent, args.change = paths["parent"], paths["change"]
    cmd_compare(args)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("spread")
    p.add_argument("runs")
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.set_defaults(func=cmd_pairs)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
