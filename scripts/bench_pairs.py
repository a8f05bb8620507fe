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
medians, the pairs the change won and lost, the pairs in which the side that
ran first read worse (a count near all or none of the pairs shows a run-order
effect, not a tree effect), the parent's IQR over its median, and a verdict:

- ``better``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the medians differ by less than the metric's resolution
  floor (``RESOLUTION``: 1 % for ``peak_rss_mb``, which moves by that much
  when the program only imports one more name), or the parent's IQR is wider
  than the bound, unless every change run beats every parent run;
- ``unchanged`` otherwise.

The written environment holds each side's record and this process's
``PYTHONDONTWRITEBYTECODE``, which the passes inherit: when it is set, no
pass writes a bytecode cache, so every pass compiles ``src/levyfilter`` from
source.

After each run the passes' output digests are read from the tree's
``.bench_out/<workload>/result.json``; each pair records both sides'
digests and whether they agree at that seed, and the summary counts the
pairs that agree, so a claim that a change keeps every output bit is one
command.

``--traced-seed`` adds one traced pass per tree (``--trace 1 --seconds 3``):
its layer metrics, and whether every count metric is equal on both sides.
The output file keeps the keys it already holds for other workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
OTHER = {"parent": "change", "change": "parent"}
WIN_SHARE = 0.9
# relative median shifts below which a metric cannot tell the sides apart
RESOLUTION = {"peak_rss_mb": 0.01}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its summary line, its metrics
    line and the distinct output digests of its passes."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    result = json.loads((tree / ".bench_out" / workload / "result.json").read_text())
    digests = sorted({p["digest"] for p in result["passes"] if "digest" in p})
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1]), "digests": digests}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, better: str, bound: float, floor: float = 0.0) -> dict:
    """Compare paired runs of one metric (``better`` is 'lower' or 'higher');
    a median shift below ``floor`` of the parent's median is unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    if abs(gain) < floor * p["median"]:
        word = "unresolved"
    elif wins >= math.ceil(WIN_SHARE * len(parent)) and gain > iqr:
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
            "parent_iqr_over_median": iqr / p["median"], "bound": bound,
            "resolution": floor, "verdict": word}


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
                               correct=res["correct"], digests=out["digests"])
            entry.setdefault("environment", {})[side] = out["record"]["environment"]
        if all("digests" in entry.get(side, {}) for side in SIDES):
            entry["digests_equal"] = bool(entry["parent"]["digests"]) and (
                entry["parent"]["digests"] == entry["change"]["digests"])
        print(json.dumps({k: v for k, v in entry.items() if k != "environment"}), flush=True)
        runs.append(entry)
    done = [r for r in runs if all("error" not in r[s] for s in SIDES)]
    summary = {
        "pairs": len(done),
        "failed": {s: sum(r[s]["failed"] for r in done) for s in SIDES},
        "attempted": {s: sum(r[s]["attempted"] for r in done) for s in SIDES},
        "correct": all(r[s]["correct"] for r in done for s in SIDES),
        "digests_equal_pairs": sum(r["digests_equal"] for r in done),
    }
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        rows = [r for r in done if r["parent"][name] is not None and r["change"][name] is not None]
        if len(rows) >= 2:
            summary[name] = verdict([r["parent"][name] for r in rows],
                                    [r["change"][name] for r in rows],
                                    m["better"], m["bound"], RESOLUTION.get(name, 0.0))
            summary[name]["first_run_worse_pairs"] = sum(
                sign * (r[r["first"]][name] - r[OTHER[r["first"]]][name]) > 0
                for r in rows)
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
            doc["environment"] = {**env, "PYTHONDONTWRITEBYTECODE":
                                  os.environ.get("PYTHONDONTWRITEBYTECODE")}
        doc.setdefault("summary", {})[workload] = summary
        doc.setdefault("runs", {})[workload] = [
            {k: v for k, v in r.items() if k != "environment"} for r in runs]
        if args.traced_seed is not None:
            doc.setdefault("traced_layers", {})[workload] = traced(args, workload, units)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload in args.workload:
        summary = doc["summary"][workload]
        print(f"{workload} digests equal in {summary['digests_equal_pairs']}/{summary['pairs']} pairs")
        for name, s in summary.items():
            if isinstance(s, dict) and "verdict" in s:
                print(f"{workload} {name}: {s['change_over_parent_median']:.3f} "
                      f"({s['change_better_pairs']}/{summary['pairs']} won, first run worse "
                      f"in {s['first_run_worse_pairs']}) {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
