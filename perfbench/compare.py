#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs.

  python3 perfbench/compare.py run --out DIR --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]
      Runs the benchmark once per seed (from the repository root) and keeps
      each run's result line as DIR/<workload>-<seed>.json.

  python3 perfbench/compare.py spread DIR
      For each workload and metric of one set: median, quartiles and the
      spread (third minus first quartile, over the median).

  python3 perfbench/compare.py diff PARENT_DIR CHANGE_DIR
      For each workload and end-to-end metric: both medians and quartiles,
      the pair wins of the change (pairs share a seed) and a verdict against
      the bound in BENCHMARK.json: "inside" the bound, "worse" beyond it, or
      "unresolved" when the parent's own spread is wider than the bound and
      not every change run beats every parent run.

Quartiles are those of Python's statistics.quantiles(values, n=4).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(args):
    opts = dict(zip(args[0::2], args[1::2]))
    out = opts["--out"]
    workload = opts["--workload"]
    spec = bench_spec()
    seconds = opts.get("--seconds", str(spec["run_seconds"]))
    trace = opts.get("--trace", "0")
    os.makedirs(out, exist_ok=True)
    for seed in parse_seeds(opts["--seeds"]):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
        last = proc.stdout.strip().splitlines()[-1]
        with open(os.path.join(out, f"{workload}-{seed}.json"), "w") as f:
            f.write(last + "\n")
        res = json.loads(last)
        print(f"{workload} seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)


def load_set(path):
    """{workload: {seed: result}} from a directory of <workload>-<seed>.json."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        workload, seed = name[:-len(".json")].rsplit("-", 1)
        with open(os.path.join(path, name)) as f:
            runs.setdefault(workload, {})[int(seed)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(args):
    runs = load_set(args[0])
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        failed = [r["failed"] / r["attempted"] for r in results]
        print(f"{workload}: {len(results)} runs, all correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(set(failed))}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            print(f"  {metric:24s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread(values):.3f}")


def cmd_diff(args):
    parent, change = load_set(args[0]), load_set(args[1])
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench_spec()["end_to_end"]}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, {len(seeds)} pairs")
        for metric, bound in bounds.items():
            sign = 1.0 if better[metric] == "lower" else -1.0
            pv = [r["metrics"][metric]["value"] for r in p_runs.values()]
            cv = [r["metrics"][metric]["value"] for r in c_runs.values()]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(1 for s in seeds
                       if sign * c_runs[s]["metrics"][metric]["value"]
                       < sign * p_runs[s]["metrics"][metric]["value"])
            gap = sign * (cq[1] - pq[1]) / pq[1]
            if max(sign * v for v in cv) < min(sign * v for v in pv):
                verdict = "inside (every change run better)"
            elif spread(pv) > bound:
                verdict = "unresolved (parent spread %.3f > bound %.2f)" % (spread(pv), bound)
            elif gap > bound:
                verdict = "worse"
            else:
                verdict = "inside"
            print(f"  {metric:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"worse by {gap:+.3f} (bound {bound})  wins {wins}/{len(seeds)}  {verdict}")


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in ("run", "spread", "diff"):
        sys.exit(__doc__)
    {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    main()
