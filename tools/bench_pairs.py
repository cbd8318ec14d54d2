"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload analyze_vowels --seed 1 --pairs 10

Each pair runs `bench/run.py` once in each checkout, in its own process,
the parent first in even pairs and the change first in odd ones.  For every
end-to-end metric named in the change's BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither), and whether the medians differ by more than the parent's
interquartile spread, and the change/parent ratio of the medians.  Every
run's value is printed too, so that a report can quote them.

It exits non-zero, naming the run, when a run reports `correct: false` or
more failed operations than the other side's run in its pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, args):
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["correct"], result["attempted"], result["failed"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None, help="run length; default: BENCHMARK.json's run_seconds")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error(f"--pairs must be at least 2 to give quartiles, got {args.pairs}")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    faults = []
    for i in range(args.pairs):
        failed = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values, correct, attempted, failed[side] = run(getattr(args, side), args)
            runs[side].append(values)
            print(f"pair {i + 1} {side}: correct={correct} attempted={attempted} failed={failed[side]} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items() if v is not None), flush=True)
            if correct is not True:
                faults.append(f"pair {i + 1} {side}: correct={correct}")
        for side, other in (("parent", "change"), ("change", "parent")):
            if failed[side] > failed[other]:
                faults.append(f"pair {i + 1} {side}: {failed[side]} failed operations, {other} {failed[other]}")
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        if None in par or None in chg:
            print(f"  {name}: missing in some run")
            continue
        q = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in (("parent", par), ("change", chg))}
        wins = sum(sign * (c - b) > 0 for b, c in zip(par, chg))
        gap = statistics.median(chg) - statistics.median(par)
        spread = q["parent"][2] - q["parent"][0]
        ratio = f"{abs(gap) / spread:.1f}x the parent's quartile spread" if spread else "the parent's quartiles meet"
        median_ratio = f"{q['change'][1] / q['parent'][1]:.4f}" if q["parent"][1] else "undefined (parent median 0)"
        print(f"  {name} [{metric['unit']}]: parent {q['parent'][1]:.4g} [{q['parent'][0]:.4g}, {q['parent'][2]:.4g}]"
              f" -> change {q['change'][1]:.4g} [{q['change'][0]:.4g}, {q['change'][2]:.4g}];"
              f" change better in {wins}/{args.pairs}; median change {gap:+.4g} ({ratio});"
              f" change/parent {median_ratio}")
        print(f"    parent {' '.join(f'{v:.4g}' for v in par)}\n    change {' '.join(f'{v:.4g}' for v in chg)}")
    if faults:
        sys.exit("\n".join(["runs at fault:"] + faults))


if __name__ == "__main__":
    main()
