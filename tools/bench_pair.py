"""Benchmark two source trees in alternating pairs and record a BENCH_*.json file.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pair.py PARENT_TREE CHANGE_TREE --out BENCH.json \\
        --workload design-grid:10 --workload analyze-long-log:3 --seeds 1 2 --seconds 10

The two checkouts' resolved directory paths must have the same length;
the recorder exits 2 otherwise.  On a 2-vCPU Xeon, two checkouts of
identical sources whose paths differed by three characters read 3-7%
apart on ``simulate-schedules`` ``wall_s`` in 6 of 6 pairs; with paths
of equal length they read the same.

The file records the parent tree's commit: ``git rev-parse`` gives it in
a git checkout, ``--parent-commit`` for a tree exported without ``.git``
(``git archive``); with neither the recorder exits 2 before any run.

Each pair runs ``python3 benchmark/run.py --trace 0`` once in each tree,
from that tree's root, and the side that runs first alternates from pair
to pair.  Runs go one at a time.  For every workload and seed the file
keeps each end-to-end metric's median over one side's runs and its
quartiles (inclusive method), the failed operations of each side, and
every pair's values of each side with the side that ran first, so a
claim about each pair can be checked from the file.  Each end-to-end
metric that the change tree's ``BENCHMARK.json`` bounds also gets how
many pairs the change won on it (strictly better, in the metric's
``better`` direction), ``change / parent - 1`` of the medians,
whether the change is worse than the parent by more than the bound (a
line on standard error names each one that is), and ``gain_shown``: the
change won at least nine tenths of the pairs, ties counting for neither
side, and its median is better than the parent's by more than the
distance between the parent's quartiles.  A run that exits
non-zero stops the recorder with its standard error.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    """One benchmark run in ``tree``: its machine line and its result object."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pair: {workload} seed {seed} in {tree} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next((line for line in lines if line.startswith("machine: ")), "")
    return machine, json.loads(lines[-1])


def host(machine: str) -> str:
    """``machine: nproc=2 cpu='X' python=3.11.7 numpy=2.4.6`` as ``2 vCPU X, Python 3.11.7, numpy 2.4.6``."""
    found = re.fullmatch(r"machine: nproc=(\d+) cpu=(.*) python=(\S+) numpy=(\S+)", machine)
    if not found:
        return machine
    nproc, cpu, python, numpy = found.groups()
    return f"{nproc} vCPU {ast.literal_eval(cpu)}, Python {python}, numpy {numpy}"


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, inclusive method."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def lengths_differ(parent: Path, change: Path, tool: str) -> bool:
    """Whether the two checkouts' resolved paths differ in length; if so,
    ``tool`` says so on standard error."""
    lengths = [len(str(tree.resolve())) for tree in (parent, change)]
    if lengths[0] == lengths[1]:
        return False
    print(f"{tool}: the checkout paths differ in length (parent {lengths[0]}, "
          f"change {lengths[1]} characters); use paths of one length", file=sys.stderr)
    return True


def end_to_end_bounds(tree: Path) -> dict[str, dict]:
    """The ``end_to_end`` entries of ``tree``'s BENCHMARK.json, by metric name."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def summarize(pairs: list[dict[str, dict]], bounds: dict[str, dict] | None = None) -> dict:
    """One workload and seed: ``pairs`` holds one result object per side and pair,
    and under ``first`` the side that ran first.

    A metric named in ``bounds`` also gets the pairs the change won on it,
    whether that and the medians show a gain and, unless its parent median
    is zero, its relative change of the medians and whether that is worse
    than its ``bound``, all honouring ``better``.
    """
    entry = {
        "runs": {side: len(pairs) for side in SIDES},
        "failed": {
            side: f"{sum(p[side]['failed'] for p in pairs)} of "
                  f"{sum(p[side]['attempted'] for p in pairs)}"
            for side in SIDES
        },
        "metrics": {},
    }
    for name, metric in pairs[0]["parent"]["metrics"].items():
        record = {"unit": metric["unit"]}
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        for side in SIDES:
            record[side] = round(statistics.median(values[side]), 6)
            record[f"{side}_quartiles"] = [round(q, 6) for q in quartiles(values[side])]
        spec = (bounds or {}).get(name)
        if spec:
            sign = 1 if spec["better"] == "lower" else -1
            won = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
            record["pairs_change_won"] = f"{won} of {len(pairs)}"
            low, median, high = quartiles(values["parent"])
            margin = sign * (median - statistics.median(values["change"]))
            record["gain_shown"] = 10 * won >= 9 * len(pairs) and margin > high - low
        if spec and record["parent"]:
            ratio = record["change"] / record["parent"] - 1
            record["change_vs_parent"] = round(ratio, 6)
            record["beyond_bound"] = sign * ratio > spec["bound"]
        entry["metrics"][name] = record
    entry["pairs"] = [
        {"first": p.get("first"), **{
            side: {name: round(metric["value"], 6) for name, metric in p[side]["metrics"].items()}
            for side in SIDES
        }}
        for p in pairs
    ]
    return entry


def parent_commit(tree: Path) -> str | None:
    """The tree's short commit id, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def workload_pairs(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    count = int(pairs) if pairs else 1
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text}: the pair count must be positive")
    return name, count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", type=workload_pairs, action="append", required=True,
                        metavar="NAME[:PAIRS]", help="a workload and its pairs per seed")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit", metavar="COMMIT",
                        help="the parent tree's commit, for a tree that is not a git checkout")
    args = parser.parse_args(argv)

    if lengths_differ(args.parent, args.change, "bench_pair"):
        return 2
    parent = args.parent_commit or parent_commit(args.parent)
    if not parent:
        print(f"bench_pair: {args.parent} is not a git checkout; name its commit with "
              "--parent-commit", file=sys.stderr)
        return 2
    bounds = end_to_end_bounds(args.change)
    machine = ""
    workloads = {}
    for workload, count in args.workload:
        for seed in args.seeds:
            pairs = []
            for pair in range(count):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                results = {"first": order[0]}
                for side in order:
                    tree = args.parent if side == "parent" else args.change
                    machine, results[side] = run_once(tree, workload, seed, args.seconds)
                pairs.append(results)
                print(f"{workload} seed {seed} pair {pair + 1}/{count}: wall_s "
                      + ", ".join(f"{side} {results[side]['metrics']['wall_s']['value']:.6f}"
                                  for side in SIDES), file=sys.stderr)
            entry = summarize(pairs, bounds)
            workloads.setdefault(workload, {})[f"seed {seed}"] = entry
            for name, record in entry["metrics"].items():
                if record.get("beyond_bound"):
                    print(f"bench_pair: {workload} seed {seed}: {name} {record['parent']} -> "
                          f"{record['change']} ({record['change_vs_parent']:+.1%}) is worse "
                          f"than its bound of {bounds[name]['bound']:.0%}", file=sys.stderr)

    counts = ", ".join(f"{name} {count}" for name, count in args.workload)
    record = {
        "command": "python3 benchmark/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds} --trace 0",
        "host": host(machine),
        "parent": parent,
        "note": "Each value is the median over one side's runs; parent and change runs "
                "alternate, and the side that runs first alternates from pair to pair. "
                "Times are the benchmark's scaled CPU times (see benchmark/README.md). "
                "Quartiles are over runs (inclusive method). 'pairs' holds each pair's "
                "values in run order, with the side that ran first. "
                f"Pairs per seed: {counts}.",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
