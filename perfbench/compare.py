"""Compare a parent and a change checkout with the benchmark's own rules.

    python3 perfbench/compare.py collect --parent DIR --change DIR
                                 --workload NAME [--pairs 10] --out results.jsonl
    python3 perfbench/compare.py judge results.jsonl [...]

``collect`` runs this copy of perfbench/run.py in both checkouts, one pair
per seed, alternating which side goes first, and appends each run's result
line to the JSONL file. ``judge`` reads those lines and prints one row per
workload. For each end-to-end metric of BENCHMARK.json it reports:

* gain       - the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range, with no more failed commands;
* regressed  - the change's median is worse than the parent's by more than
               the metric's bound;
* unresolved - the parent's or the change's spread (IQR over median)
               exceeds the bound, unless every change run beats every parent
               run;
* same       - none of the above.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

from run import load_benchmark

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def collect(args) -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    run_py = os.path.join(HERE, "run.py")
    with open(args.out, "a", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = [("parent", args.parent), ("change", args.change)]
            if pair % 2:
                sides.reverse()
            for position, (side, root) in enumerate(sides):
                proc = subprocess.run(
                    [sys.executable, run_py, "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"],
                    cwd=root, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 else None
                machine = next((json.loads(line.split(" ", 1)[1])
                                for line in lines if line.startswith("machine ")),
                               None)
                record = {"workload": args.workload, "pair": pair, "seed": seed,
                          "side": side, "position": position,
                          "exit_code": proc.returncode, "machine": machine,
                          "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"pair {pair} {side}: exit {proc.returncode}",
                      file=sys.stderr)
    return 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: dict, parent: dict, change: dict,
            fails: tuple[int, int]) -> str:
    """parent/change map pair -> value for one metric on one workload."""
    pairs = sorted(set(parent) & set(change))
    if len(pairs) < MIN_PAIRS:
        return f"too few pairs ({len(pairs)})"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p = [parent[i] for i in pairs]
    c = [change[i] for i in pairs]
    mp, mc = statistics.median(p), statistics.median(c)
    worse = sign * (mc - mp) / abs(mp)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    q1, _, q3 = statistics.quantiles(p, n=4)
    text = (f"{100.0 * -worse:+.1f}%, spread {spread(p):.3f}/{spread(c):.3f}")
    if (wins >= WIN_SHARE * len(pairs) and sign * (mp - mc) > q3 - q1
            and fails[1] <= fails[0]):
        return f"gain {text} ({wins}/{len(pairs)} wins)"
    if worse > metric["bound"]:
        return f"regressed {text}"
    if max(spread(p), spread(c)) > metric["bound"]:
        if all(sign * (b - a) < 0 for a in p for b in c):
            return f"better {text} (every run)"
        return f"unresolved {text} (spread > bound)"
    return f"same {text}"


def judge(args) -> int:
    bench = load_benchmark()
    values = defaultdict(lambda: defaultdict(dict))  # (wl, metric) side pair
    fails = defaultdict(lambda: [0, 0])
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                res = rec["result"]
                side = 0 if rec["side"] == "parent" else 1
                if res is None:
                    fails[rec["workload"]][side] += 1
                    continue
                fails[rec["workload"]][side] += res["failed"]
                for name, m in res["metrics"].items():
                    values[(rec["workload"], name)][rec["side"]][rec["pair"]] = m["value"]
    workloads = sorted({wl for wl, _ in values})
    for wl in workloads:
        cells = []
        for metric in bench["end_to_end"]:
            sides = values[(wl, metric["name"])]
            cells.append(f"{metric['name']}: " + verdict(
                metric, sides["parent"], sides["change"], tuple(fails[wl])))
        print(f"{wl:<20} failed {fails[wl][0]}/{fails[wl][1]} | "
              + " | ".join(cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--out", required=True)
    j = sub.add_parser("judge")
    j.add_argument("results", nargs="+")
    args = ap.parse_args(argv)
    return collect(args) if args.mode == "collect" else judge(args)


if __name__ == "__main__":
    sys.exit(main())
