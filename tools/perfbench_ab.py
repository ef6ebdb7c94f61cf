#!/usr/bin/env python3
"""Alternating A/B runs of perfbench on two checkouts.

    python3 tools/perfbench_ab.py PARENT CHANGE --workload W[,W...]|all \\
        --seed S --pairs N --seconds T [--claim METRIC]

PARENT and CHANGE are checkout roots. Each must hold a perfbench build in
.bench_build/ (python3 perfbench/run.py makes it on its first call); the
script brings both up to date, then, for each workload in turn (`all` is
every workload of CHANGE/BENCHMARK.json), runs their .bench_build/perfbench
--trace 0 in N pairs. The side that runs first flips from pair to pair, so
a host that slows down over time does not favour either.

For every workload and every end-to-end metric of CHANGE/BENCHMARK.json it
prints each side's median and quartiles over the pairs, the change/parent
ratio of the medians, the number of pairs the change won and a verdict
against the metric's bound:
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  otherwise, the parent's quartile spread (q3 - q1, relative to
              its median) is wider than the bound, and not every run of
              the change beats every run of the parent;
  ok          otherwise.
With --claim METRIC it also prints, per workload, whether the change
meets a claimed gain on that end-to-end metric: `claim met` when the change
won at least 9 in 10 of the pairs (a tie counts for neither side) and its
median is better than the parent's by more than the parent's q3 - q1,
`claim not met` otherwise.

It exits non-zero when a run fails or a pair's deterministic lines (hit
ratio, latency quantiles, phases) differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def die(message):
    print(f"perfbench_ab: {message}", file=sys.stderr)
    sys.exit(2)


def binary(root):
    build = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        die(f"no perfbench build in {build}; run `python3 perfbench/run.py "
            "--workload poisson_steady --seed 1 --seconds 1 --trace 0` there")
    proc = subprocess.run(["cmake", "--build", build, "--target", "perfbench"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"building {build} failed")
    return os.path.join(build, "perfbench")


def run(path, workload, args):
    """One perfbench run: (deterministic outputs, end-to-end metrics)."""
    cmd = [path, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        die(f"{' '.join(cmd)} exited {proc.returncode}")
    detail = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        die(f"{' '.join(cmd)} reported failures: {detail['failures']}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return detail["deterministic"], metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, parent, change):
    """(change/parent median ratio, verdict) for one metric's runs."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if median == 0:
        ratio = 1.0 if change_median == 0 else float("inf")
    else:
        ratio = change_median / median
    worse_by = (1 - ratio) if higher else (ratio - 1)
    spread = (q3 - q1) / abs(median) if median else 0.0
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if worse_by > bound:
        return ratio, "worse"
    if spread > bound and not all_better:
        return ratio, "unresolved"
    return ratio, "ok"


def wins(metric, parent, change):
    """Pairs in which the change's run beat the parent's; ties count for
    neither side."""
    higher = metric["better"] == "higher"
    return sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))


def claim(metric, parent, change):
    """The claim line for one metric's runs: met when the change won at
    least 9/10 of the pairs and its median gain exceeds the parent's
    interquartile range."""
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gain = (change_median - median if metric["better"] == "higher"
            else median - change_median)
    won = wins(metric, parent, change)
    met = 10 * won >= 9 * len(parent) and gain > q3 - q1
    return (f"claim {metric['name']}: won {won}/{len(parent)}, median gain "
            f"{gain:.6g} vs parent q3 - q1 {q3 - q1:.6g}: "
            + ("claim met" if met else "claim not met"))


def compare(workload, sides, end_to_end, args):
    """Runs one workload's pairs and prints its table; returns the number
    of pairs whose deterministic lines differ."""
    samples = {"parent": [], "change": []}
    mismatches = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        outputs = {side: run(sides[side], workload, args) for side in order}
        for side in order:
            samples[side].append(outputs[side][1])
        same = outputs["parent"][0] == outputs["change"][0]
        mismatches += 0 if same else 1
        print(f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first): "
              f"tasks_per_s {outputs['parent'][1]['tasks_per_s']:.0f} -> "
              f"{outputs['change'][1]['tasks_per_s']:.0f}"
              + ("" if same else "  DETERMINISTIC LINES DIFFER"), flush=True)
        if not same:
            print(f"  parent: {outputs['parent'][0]}\n"
                  f"  change: {outputs['change'][0]}")

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s: median [q1, q3]")
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [s[name] for s in samples[side]] for side in samples}
        won = wins(metric, values["parent"], values["change"])
        cells = []
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles(values[side])
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        ratio, word = verdict(metric, values["parent"], values["change"])
        print(f"  {name:24} parent {cells[0]:34} change {cells[1]:34} "
              f"x{ratio:.3f}  won {won}/{args.pairs}  {word} "
              f"(bound {metric['bound']:g})")
        if name == args.claim:
            claimed = claim(metric, values["parent"], values["change"])
    if args.claim:
        print(f"  {workload} {claimed}")
    print(flush=True)
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--claim", metavar="METRIC",
                        help="an end-to-end metric the change claims to "
                             "improve")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"unknown metric {args.claim!r}; "
                     f"BENCHMARK.json has {', '.join(metrics)}")
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = (known if args.workload == "all"
                 else [w for w in args.workload.split(",") if w])
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; "
                         f"BENCHMARK.json has {', '.join(known)}")
    sides = {"parent": binary(args.parent), "change": binary(args.change)}
    mismatches = sum(compare(w, sides, benchmark["end_to_end"], args)
                     for w in workloads)
    if mismatches:
        print(f"{mismatches} pair(s) with differing deterministic lines",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
