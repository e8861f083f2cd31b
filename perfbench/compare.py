#!/usr/bin/env python3
"""Collect, summarise and compare result sets of the benchmark.

A result set is a directory holding one file per run,
``<workload>/seed<N>.json``: the last line the benchmark printed.

  python3 perfbench/compare.py collect DIR [--root CHECKOUT] [--runs 10]
                 [--first-seed 1] [--workload NAME ...] [--trace 0|1]
  python3 perfbench/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT
                 PARENT_DIR CHANGE_DIR [--runs 10] [--first-seed 1] ...
  python3 perfbench/compare.py summary DIR
  python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR

``collect`` runs the command of BENCHMARK.json from the root of a checkout
(this one by default; it builds into the checkout's ``.bench_build``) once
per workload and seed. ``pairs`` does the same for two checkouts,
alternating which side runs first from seed to seed: host speed drifts over
minutes, so two sets collected one after the other can differ by more than
a change does. ``summary`` prints, per workload and metric, the median, the
quartiles and their distance as a share of the median beside the metric's
bound, and the share of failed operations.
``compare`` pairs the runs of two sets by seed and gives each metric a
verdict:

* better: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile distance;
* worse: the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved: anything else.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(bench):
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(set_dir):
    """{workload: {seed: result}}"""
    out = {}
    for workload in sorted(os.listdir(set_dir)):
        wdir = os.path.join(set_dir, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if name.startswith("seed") and name.endswith(".json"):
                with open(os.path.join(wdir, name)) as f:
                    out.setdefault(workload, {})[int(name[4:-5])] = json.load(f)
    return out


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def run_one(root, set_dir, workload, seed, trace):
    bench = spec()
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    wdir = os.path.join(set_dir, workload)
    os.makedirs(wdir, exist_ok=True)
    with open(os.path.join(wdir, f"seed{seed}.json"), "w") as f:
        f.write(lines[-1] + "\n")
    print(f"{set_dir}: {workload} seed {seed}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)


def seeds_and_workloads(args):
    names = args.workload or [w["name"] for w in spec()["workloads"]]
    return names, range(args.first_seed, args.first_seed + args.runs)


def collect(args):
    names, seeds = seeds_and_workloads(args)
    for workload in names:
        for seed in seeds:
            run_one(args.root, args.dir, workload, seed, args.trace)


def pairs(args):
    names, seeds = seeds_and_workloads(args)
    sides = [(args.parent_root, args.parent_dir), (args.change_root, args.change_dir)]
    for workload in names:
        for i, seed in enumerate(seeds):
            for root, set_dir in (sides if i % 2 == 0 else sides[::-1]):
                run_one(root, set_dir, workload, seed, args.trace)


def summary(args):
    metrics = metric_specs(spec())
    for workload, runs in load(args.dir).items():
        results = list(runs.values())
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed share {failed}")
        for metric in results[0]["metrics"]:
            vs = values(results, metric)
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "  OK" if spread <= bound / 3 else ("  WIDE" if spread <= bound else "  OVER")
            bound_s = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {metric:28s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {bound_s}{flag}")


def compare(args):
    metrics = metric_specs(spec())
    parent, change = load(args.parent), load(args.change)
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        seeds = sorted(set(p) & set(c))
        print(f"{workload}: {len(seeds)} pairs")
        for metric in p[seeds[0]]["metrics"]:
            m = metrics.get(metric, {})
            sign = 1 if m.get("better", "higher") == "higher" else -1
            pv = [p[s]["metrics"][metric]["value"] for s in seeds]
            cv = [c[s]["metrics"][metric]["value"] for s in seeds]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
            bound = m.get("bound")
            if wins >= 0.9 * len(seeds) and sign * (cmed - pmed) > (pq3 - pq1):
                verdict = "better"
            elif bound is not None and sign * (cmed - pmed) < -bound * abs(pmed):
                verdict = "worse"
            else:
                verdict = "unresolved"
            same = "  (identical)" if pv == cv else ""
            print(f"  {metric:28s} parent {pmed:<12.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:<12.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"won {wins}/{len(seeds)}  {verdict}{same}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--root", default=ROOT)
    p = sub.add_parser("pairs")
    for name in ("parent_root", "change_root", "parent_dir", "change_dir"):
        p.add_argument(name)
    for sp in (c, p):
        sp.add_argument("--runs", type=int, default=10)
        sp.add_argument("--first-seed", type=int, default=1)
        sp.add_argument("--workload", action="append")
        sp.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s = sub.add_parser("summary")
    s.add_argument("dir")
    k = sub.add_parser("compare")
    k.add_argument("parent")
    k.add_argument("change")
    args = ap.parse_args()
    {"collect": collect, "pairs": pairs, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
