#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT --label NAME [--head REV]
        [--workloads W ...] [--seeds S ...] [--pairs 10] [--seconds 4]
        [--trace] [--out-dir DIR]

Each revision is extracted with `git archive` into a temporary directory,
and `perfbench/run.py` runs from each tree in turn: in odd pairs the
parent runs first, in even pairs the head does, since the second run of a
pair can read slower. The last line of each run's stdout is its result.
For every workload, seed and end-to-end metric of the head's
BENCHMARK.json, the file holds each side's median and quartiles, the
pairs the head won, the median of the paired ratios head / parent
(overall, and split by which side ran first), and a verdict against the
metric's bound: `regression` when the head's median is worse by more than
the bound; `gain` when it is better by more than the parent's spread
between quartiles and the head won nine tenths of the pairs; `unresolved`
when that spread is wider than the bound and some head run does not read
better than every parent run; else `within bound`. It also holds every
run's `correct`, `failed` and `attempted`, the Python version, the CPU
count and both revisions.
`--trace` adds one traced run per side. It lists the count metrics
(calls, retransmissions, trips, trace records and bytes) that differ, and
keeps each side's traced per-layer seconds (`engine.self_s`,
`cli.emit_s`, `electrical.solve_s`, ...), which show the layer a saving
comes from. Traced runs are slower than untraced ones, so these compare
the two sides with each other only.

Stdlib only; nothing is imported from canvolt. Exits 1 when any run is
not correct, after writing the file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "head")
COUNT_UNITS = ("count", "bytes")
SECONDS_UNITS = ("s",)
# a gain needs the head to win this share of the pairs
GAIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> dict:
    """The committed tree of `rev` under `into`; returns its identity."""
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"), "src_tree": git("rev-parse", f"{rev}:src")}


def run(tree: Path, command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from `tree`: its result line, or why it has none."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the tree's own src/
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "exit": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    result["exit"] = proc.returncode
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    return result


def of_units(result: dict, units: tuple) -> dict:
    """The values of a run's metrics in these units, by name."""
    return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] in units}


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, pairs: list) -> dict:
    """One end-to-end metric over the pairs `[(parent first?, parent, head)]`."""
    lower = metric["better"] == "lower"
    parent = [p for _, p, _ in pairs]
    head = [h for _, _, h in pairs]
    ratios = [h / p if p else math.nan for _, p, h in pairs]
    by_order = {
        order: statistics.median(r) if r else None
        for order, r in (
            ("parent_first", [x for (first, _, _), x in zip(pairs, ratios) if first]),
            ("head_first", [x for (first, _, _), x in zip(pairs, ratios) if not first]),
        )
    }
    won = sum((h < p) if lower else (h > p) for _, p, h in pairs)
    sides = {}
    for side, xs in zip(SIDES, (parent, head)):
        q1, median, q3 = quartiles(xs)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "values": xs}
    p, h = sides["parent"]["median"], sides["head"]["median"]
    worse_by = ((h - p) if lower else (p - h)) / p if p else math.nan
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    apart = max(head) < min(parent) if lower else min(head) > max(parent)
    if worse_by > metric["bound"]:
        verdict = "regression"
    elif -worse_by * p > spread and won >= GAIN_SHARE * len(pairs):
        verdict = "gain"
    elif spread > metric["bound"] * p and not apart:
        verdict = "unresolved"  # the parent's own runs spread wider than the bound
    else:
        verdict = "within bound"
    return {
        **sides,
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(pairs),
        "pairs_won": won,
        "ratio_median": statistics.median(ratios),
        "ratio_median_by_order": by_order,
        "change": (h - p) / p if p else math.nan,
        "verdict": verdict,
    }


def measure(trees: dict, bench: dict, workload: str, seed: int, args) -> dict:
    """The pairs of one workload and seed, and with `--trace` one traced run per side."""
    runs, values = [], []
    for pair in range(1, args.pairs + 1):
        parent_first = pair % 2 == 1
        got = {}
        for position, side in enumerate(SIDES if parent_first else SIDES[::-1], 1):
            r = got[side] = run(trees[side], bench["command"], workload, seed, args.seconds, 0)
            runs.append({"pair": pair, "side": side, "position": position,
                         **{k: r[k] for k in ("correct", "attempted", "failed", "exit", "error") if k in r}})
            print(f"{workload} seed {seed} pair {pair} {side}: correct={r['correct']}", file=sys.stderr)
        if all(got[side]["correct"] for side in SIDES):
            values.append((parent_first, got["parent"]["metrics"], got["head"]["metrics"]))
    entry = {"runs": runs, "metrics": {}}
    if values:
        entry["metrics"] = {
            m["name"]: compare(m, [(first, p[m["name"]]["value"], h[m["name"]]["value"]) for first, p, h in values])
            for m in bench["end_to_end"]
        }
    if args.trace:
        traced = {side: run(trees[side], bench["command"], workload, seed, args.seconds, 1) for side in SIDES}
        entry["traced"] = {side: {k: r[k] for k in ("correct", "attempted", "failed", "exit", "error") if k in r}
                           for side, r in traced.items()}
        if all(r["correct"] for r in traced.values()):
            counts = {side: of_units(r, COUNT_UNITS) for side, r in traced.items()}
            entry["counts_differ"] = {
                n: {side: counts[side].get(n) for side in SIDES}
                for n in sorted(counts["parent"].keys() | counts["head"].keys())
                if counts["parent"].get(n) != counts["head"].get(n)
            }
            entry["traced_seconds"] = {side: of_units(r, SECONDS_UNITS) for side, r in traced.items()}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the revision measured (default HEAD)")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", action="store_true", help="also one traced run per side")
    parser.add_argument("--out-dir", default=str(ROOT))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revs = {side: extract(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.head))}
        bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        results = {}
        for workload in workloads:
            for seed in args.seeds:
                results.setdefault(workload, {})[str(seed)] = measure(trees, bench, workload, seed, args)
    all_correct = all(
        r["correct"] for seeds in results.values() for entry in seeds.values()
        for r in entry["runs"] + list(entry.get("traced", {}).values())
    )

    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "parent": revs["parent"],
        "head": revs["head"],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "order": "the parent runs first in odd pairs, the head in even ones",
        "correct": all_correct,
        "workloads": results,
    }, indent=1, sort_keys=True) + "\n")
    for workload, seeds in results.items():
        for seed, entry in seeds.items():
            for name, m in entry["metrics"].items():
                print(f"{workload} seed {seed} {name}: {m['parent']['median']:.6g} -> {m['head']['median']:.6g} "
                      f"{m['unit']} ({m['change']:+.1%}), won {m['pairs_won']}/{m['pairs']}, {m['verdict']}")
    print(f"wrote {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
