#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (interquartile range over median), as a
check that the benchmark is steady enough for its bounds.

Run from the repository root:

    python3 wirebench/spread.py --workloads cold-stdio --seeds 1-10

Without --workloads every workload of BENCHMARK.json runs. Runs go seed
by seed, each seed on every workload in turn, so a slow spell of a shared
host falls on all workloads alike. Each run's last stdout line is parsed;
the per-run records stay in wirebench/out. Exits non-zero if a run fails,
is incorrect, or a spread (other than setup_s) reaches a third of its
bound. With --against, a second set of seeds runs afterwards, and a
metric whose second median is worse than the first by more than its
bound fails as well.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workloads, seed_list, trace):
    """Runs one seed set; returns {workload: {metric: [values]}}."""
    values = {w: {} for w in workloads}
    for seed in seed_list:
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
            line = []
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
                line.append(f"{name}={m['value']:.6g}")
            print(f"{workload} seed {seed}: " + " ".join(line), flush=True)
    return values


def spread(vals):
    median = statistics.median(vals)
    if len(vals) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", help="a second seed set to compare medians with")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [run_set(bench, workloads, seeds(args.seeds), args.trace)]
    if args.against:
        sets.append(run_set(bench, workloads, seeds(args.against), args.trace))
    steady = True
    for workload in workloads:
        print(f"== {workload}")
        for name, vals in sets[0][workload].items():
            median, width = spread(vals)
            m = metrics.get(name, {})
            bound = m.get("bound")
            line = f"{name:24} median {median:14.6g}  spread {width:7.2%}  bound {bound}"
            if bound is not None and name != "setup_s" and width >= bound / 3:
                line += "  <-- spread over a third of the bound"
                steady = False
            if len(sets) > 1:
                second, width2 = spread(sets[1][workload][name])
                worse = (second - median) / median if median else 0.0
                if m.get("better") == "higher":
                    worse = -worse
                line += f"  | second median {second:.6g} ({worse:+.2%} worse), spread {width2:.2%}"
                if bound is not None and worse > bound:
                    line += "  <-- worse than the bound"
                    steady = False
                if bound is not None and name != "setup_s" and width2 >= bound / 3:
                    line += "  <-- second spread over a third of the bound"
                    steady = False
            print(line)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
