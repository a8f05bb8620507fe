"""Interleaved parent/change pairs of the benchmark, summarized per workload and metric.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME [--workload ...]
        --seed S [--pairs 10] [--seconds 30] [--traced-seed N] --out BENCH_N.json

Each DIR is a clean tree of one side, for example ``git archive`` of its
commit unpacked.  Pair i runs ``perfbench/run.py --workload W --seed S+i
--seconds N --trace 0`` in both trees, the parent first in even pairs and the
change first in odd ones, each run after removing the tree's ``__pycache__``
directories, so both sides pay the same cold start.

For each end-to-end metric of ``BENCHMARK.json`` the summary holds each
side's median and quartiles over the pairs, the change/parent ratio of the
medians, the pairs the change won and lost, the parent's IQR over its median,
and a verdict:

- ``better``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the parent's IQR is wider than the bound, unless every
  change run beats every parent run;
- ``unchanged`` otherwise.

``--traced-seed`` adds one traced pass per tree (``--trace 1 --seconds 3``):
its layer metrics, and whether every count metric is equal on both sides.
The output file keeps the keys it already holds for other workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WIN_SHARE = 0.9


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its summary line and its metrics line."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare paired runs of one metric (``better`` is 'lower' or 'higher')."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    if wins >= math.ceil(WIN_SHARE * len(parent)) and gain > iqr:
        word = "better"
    elif -gain > bound * p["median"]:
        word = "worse"
    elif iqr > bound * p["median"] and not (max(sign * v for v in change)
                                            < min(sign * v for v in parent)):
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": p, "change": c, "change_over_parent_median": c["median"] / p["median"],
            "change_better_pairs": wins, "change_worse_pairs": losses,
            "parent_iqr_over_median": iqr / p["median"], "bound": bound, "verdict": word}


def pairs(args, workload: str, metrics: list) -> tuple[list, dict]:
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        entry = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            out = run_bench(getattr(args, side), workload, seed, args.seconds, 0)
            if "error" in out:
                entry[side] = {"error": out["error"]}
                continue
            res, summary = out["result"], out["record"]["summary"]
            entry[side] = {m["name"]: summary.get(m["name"]) for m in metrics}
            entry[side].update(attempted=res["attempted"], failed=res["failed"],
                               correct=res["correct"])
            entry.setdefault("environment", {})[side] = out["record"]["environment"]
        print(json.dumps({k: v for k, v in entry.items() if k != "environment"}), flush=True)
        runs.append(entry)
    done = [r for r in runs if all("error" not in r[s] for s in SIDES)]
    summary = {
        "pairs": len(done),
        "failed": {s: sum(r[s]["failed"] for r in done) for s in SIDES},
        "attempted": {s: sum(r[s]["attempted"] for r in done) for s in SIDES},
        "correct": all(r[s]["correct"] for r in done for s in SIDES),
    }
    for m in metrics:
        paired = [(r["parent"][m["name"]], r["change"][m["name"]]) for r in done
                  if r["parent"][m["name"]] is not None and r["change"][m["name"]] is not None]
        if len(paired) >= 2:
            summary[m["name"]] = verdict([a for a, _ in paired], [b for _, b in paired],
                                         m["better"], m["bound"])
    return runs, summary


def traced(args, workload: str, units: dict) -> dict:
    layers = {}
    for side in SIDES:
        out = run_bench(getattr(args, side), workload, args.traced_seed, 3, 1)
        layers[side] = out.get("record", {}).get("summary", {}).get("layers", out.get("error"))
    counts = sorted(n for n, u in units.items() if u == "count")
    ok = all(isinstance(layers[s], dict) for s in SIDES)
    return {"seed": args.traced_seed, "layers": layers,
            "counts_equal": ok and all(layers["parent"].get(n) == layers["change"].get(n)
                                       for n in counts)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i runs seed + i")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                      "--trace 0, per side and pair")
    for workload in args.workload:
        runs, summary = pairs(args, workload, spec["end_to_end"])
        env = next((r["environment"] for r in runs if "environment" in r), None)
        if env is not None:
            doc["environment"] = env
        doc.setdefault("summary", {})[workload] = summary
        doc.setdefault("runs", {})[workload] = [
            {k: v for k, v in r.items() if k != "environment"} for r in runs]
        if args.traced_seed is not None:
            doc.setdefault("traced_layers", {})[workload] = traced(args, workload, units)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload in args.workload:
        for name, s in doc["summary"][workload].items():
            if isinstance(s, dict) and "verdict" in s:
                print(f"{workload} {name}: {s['change_over_parent_median']:.3f} "
                      f"({s['change_better_pairs']}/{doc['summary'][workload]['pairs']} won) "
                      f"{s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
