"""Compare the benchmark on a parent commit and on a change.

    python3 perfbench/compare.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        [--out runs.json]
    python3 perfbench/compare.py --runs runs.json

The first form runs ten pairs of end-to-end runs on every
workload in BENCHMARK.json.  Both sides use this copy of the benchmark (so
the benchmark code and settings are identical) and the pair's index as
the seed; which side runs first alternates from pair to pair.  The second
form re-reads saved runs.

One row per workload and end-to-end metric gives each side's median and
quartiles and a verdict:

* ``win``: at least ten pairs were run, the change is better in at least
  9/10 of them (ties count for neither side), and the medians differ by
  more than the parent's spread between quartiles;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's spread between quartiles, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``same``: none of the above.

A side whose runs report failed iterations is flagged, and the change
cannot win a workload on which it fails more often than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
PAIRS = 10  # the fewest the win rule accepts


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def invoke(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run of this benchmark's code against a checkout's program."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float,
            change_fails_more: bool = False) -> tuple[str, int]:
    """(verdict, pairs won by the change) for one metric on one workload.

    parent[i] and change[i] are the two sides of pair i.
    """
    sign = 1 if better == "lower" else -1  # positive gap: change is better
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for g in gaps if g > 0)
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    all_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if (not change_fails_more and len(gaps) >= PAIRS
            and wins >= 0.9 * len(gaps) and gain > 0 and gain > p3 - p1):
        return "win", wins
    if (p3 - p1) / p_med > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * p_med:
        return "REGRESSION", wins
    return "same", wins


def run_pairs(parent: Path, change: Path, workloads: list, seconds: int) -> list:
    runs = []
    for i in range(PAIRS):
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        for workload in workloads:
            for side, checkout in sides:
                result = invoke(checkout, workload, i, seconds, 0)
                runs.append({"pair": i, "side": side, "workload": workload, **result})
                print(f"pair {i} {workload} {side}: "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      file=sys.stderr)
    return runs


def table(runs: list, spec: dict) -> list[str]:
    lines = [f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'delta':>8} {'wins':>6}  verdict"]
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r for r in mine}
        pairs = [i for i in pairs if (i, "parent") in by and (i, "change") in by]
        if not pairs:
            lines.append(f"{workload:<14} no complete pair of runs: not compared")
            continue
        fails = {side: sum(by[(i, side)]["failed"] for i in pairs) for side in ("parent", "change")}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [by[(i, "parent")]["metrics"][name]["value"] for i in pairs]
            change = [by[(i, "change")]["metrics"][name]["value"] for i in pairs]
            v, wins = verdict(parent, change, metric["better"], metric["bound"],
                              fails["change"] > fails["parent"])
            p, c = quartiles(parent), quartiles(change)
            delta = (c[1] - p[1]) / p[1]
            lines.append(
                f"{workload:<14} {name:<12} "
                f"{p[1]:>9.4g} [{p[0]:.4g}, {p[2]:.4g}]".ljust(58)
                + f" {c[1]:>9.4g} [{c[0]:.4g}, {c[2]:.4g}]".ljust(31)
                + f" {delta:>+8.1%} {wins:>3}/{len(pairs):<2}  {v}")
        if fails["parent"] or fails["change"]:
            lines.append(f"{workload:<14} failed iterations: parent {fails['parent']}, "
                         f"change {fails['change']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--runs", type=Path, help="re-read runs saved with --out")
    parser.add_argument("--out", type=Path, help="save the runs as JSON")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.runs:
        runs = json.loads(args.runs.read_text())["runs"]
    elif args.parent and args.change:
        runs = run_pairs(args.parent.resolve(), args.change.resolve(),
                         [w["name"] for w in spec["workloads"]], spec["run_seconds"])
        if args.out:
            args.out.write_text(json.dumps({"parent": str(args.parent), "change": str(args.change),
                                            "runs": runs}, indent=1) + "\n")
    else:
        parser.error("give --parent and --change, or --runs")
    print("\n".join(table(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
