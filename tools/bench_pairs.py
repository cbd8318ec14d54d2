"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload analyze_vowels --seed 1 --pairs 10

Each pair runs `bench/run.py` once in each checkout, in its own process,
the parent first in even pairs and the change first in odd ones.  For every
end-to-end metric named in the change's BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither), and whether the medians differ by more than the parent's
interquartile spread.  Every run's value is printed too, so that a report
can quote them.
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
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values, correct, attempted, failed = run(getattr(args, side), args)
            runs[side].append(values)
            print(f"pair {i + 1} {side}: correct={correct} attempted={attempted} failed={failed} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items() if v is not None), flush=True)
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
        print(f"  {name} [{metric['unit']}]: parent {q['parent'][1]:.4g} [{q['parent'][0]:.4g}, {q['parent'][2]:.4g}]"
              f" -> change {q['change'][1]:.4g} [{q['change'][0]:.4g}, {q['change'][2]:.4g}];"
              f" change better in {wins}/{args.pairs}; median change {gap:+.4g} ({ratio})")
        print(f"    parent {' '.join(f'{v:.4g}' for v in par)}\n    change {' '.join(f'{v:.4g}' for v in chg)}")


if __name__ == "__main__":
    main()
