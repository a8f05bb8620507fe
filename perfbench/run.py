"""levyfilter benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/levyfilter``; the program is imported
from that source tree.  Each pass runs in a fresh interpreter
(``perfbench/worker.py``), so every pass pays the cold import that a CLI
invocation pays, and no in-process cache carries over between passes.  Every
pass of a run uses the same seed, so its outputs must be byte-identical and
its counters must repeat exactly; a pass that raises, exits nonzero, fails
its workload's check or disagrees with the other passes is a failed
operation.  Passes start while the next one is expected to end inside
``--seconds`` (at least three, or four when traced).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: medians
over the passes of set-up time, pass time and peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes), the tracing overhead (traced minus
untraced median pass time), and per-module import times from
``python -X importtime``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record, with the environment.  Records and
spans are also written under ``.bench_out/<workload>/``.

Workloads (see ``workloads.py`` for sizes and checks):

- ``converge_example6``: ``levyfilter converge`` in-process on example6,
  3 eps x 8 replications x 2000 particles x 100 steps, threads = CPU count.
  The paper's headline study; noise refill and the per-step filter loop
  dominate, the thread pool is contended, averaging does no work.
- ``kalman_bootstrap``: ``kalman_oracle`` with ess_frac=1.0, 500 particles,
  200 steps: one serial jump-free filter that resamples after every step.
  Bypasses replication batching and the thread pool; does most of the
  resample and re-keying work.
- ``euler_lattice``: example6 without OU or closed-form facts at eps=0.02,
  a 7-node Euler-route averaging lattice and one coupled full/homog filter
  pair (5 Euler substeps per step).  Averaging, ``simulate_frozen_fast`` and
  expression evaluation dominate; noise refill is minor.  Called through the
  library because ``levyfilter filter --homog-mode lattice`` passes no grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 165.0
MACHINE_NOTE = ("the bounds in BENCHMARK.json were fixed on a VM with 2 CPUs shared with "
                "other tenants and no CPU frequency pinning, whose speed drifts over minutes; "
                "single passes vary, compare medians of interleaved runs")


def _median(values):
    return statistics.median(values) if values else None


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levyfilter").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker_env():
    env = dict(os.environ)
    env.pop("LEVYFILTER_THREADS", None)   # would override the workload's --threads
    return env


def run_pass(args, index, traced, deadline):
    pass_dir = ROOT / ".bench_out" / args.workload / f"pass-{index}"
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), "--pass-dir", str(pass_dir)]
    cmd += ["--trace"] * traced + ["--tiny"] * args.tiny
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rec = {"traced": traced, "failures": ["pass timed out"]}
    else:
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            rec = {"traced": traced, "failures": ["worker printed no record"]}
        if proc.returncode != 0:
            rec["failures"].append(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    rec["wall_s"] = time.perf_counter() - start
    return rec


def import_times(repeats=3):
    """Cumulative import seconds per levyfilter module, median of fresh interpreters."""
    env = _worker_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = {m: [] for m in MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import levyfilter.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=20)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("levyfilter."):
                mod = parts[2].split(".", 1)[1]
                if mod in samples:
                    samples[mod].append(int(parts[1]) * 1e-6)
    return {f"{m}.import_s": _median(v) for m, v in samples.items() if len(v) == repeats}


def agree(passes, key):
    """Indices of passes whose ``key`` differs from the most common value."""
    values = [p.get(key) for p in passes]
    common = Counter(v for v in values if v is not None).most_common(1)
    want = common[0][0] if common else None
    return [i for i, v in enumerate(values) if v != want]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "levyfilter" / "__init__.py").is_file():
        print(f"no levyfilter source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    shutil.rmtree(ROOT / ".bench_out" / args.workload, ignore_errors=True)

    traced_run = bool(args.trace)
    min_passes = 4 if traced_run else 3
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S - (15.0 if traced_run else 0.0)   # room for import_times
    passes = []
    while time.monotonic() < deadline:
        if len(passes) >= min_passes:
            expected = _median([p["wall_s"] for p in passes])
            if time.monotonic() - start + expected > args.seconds:
                break
        passes.append(run_pass(args, len(passes), traced_run and len(passes) % 2 == 1, deadline))

    for i in agree(passes, "digest"):
        passes[i]["failures"].append("outputs differ from the other passes at the same seed")
    traced = [p for p in passes if p["traced"] and "layers" in p]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in sorted(n for n, u in units.items() if u == "count"):
        for i in agree([p["layers"] for p in traced], name):
            traced[i]["failures"].append(f"counter {name} does not repeat across passes")

    failed = sum(1 for p in passes if p["failures"])
    ok = [p for p in passes if "run_s" in p]   # completed, whether or not the check held
    run_s = [p["run_s"] for p in ok if not p["traced"]]
    summary = {
        "setup_s": _median([p["setup_s"] for p in ok]),
        "run_s": _median(run_s),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok if not p["traced"]]),
        "run_s_samples": len(run_s),
        "run_s_tail": _tail(run_s),
        "failed_frac": failed / len(passes),
    }
    if traced_run:
        traced_ok = [p for p in traced if "run_s" in p]
        layers = {}
        for name in units:
            vals = [p["layers"][name] for p in traced_ok if name in p["layers"]]
            if vals and len(vals) == len(traced_ok):
                layers[name] = _median(vals)
        layers.update(import_times())
        traced_run_s = _median([p["run_s"] for p in traced_ok])
        if traced_run_s is not None and summary["run_s"] is not None:
            layers["trace.run_s_traced"] = traced_run_s
            layers["trace.run_s_untraced"] = summary["run_s"]
            layers["trace.overhead_s"] = traced_run_s - summary["run_s"]
        summary["layers"] = layers
        wanted, values = units, layers
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = summary

    first = next((p for p in passes if "sizes" in p), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": {
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": first.get("sizes", {}).get("threads", 1),
            "python": platform.python_version(), **first.get("versions", {}),
            "git_sha": _git_sha(), "source_sha256": _source_sha256(),
            "machine": platform.machine(), "note": MACHINE_NOTE,
        },
        "sizes": first.get("sizes"),
        "summary": summary,
        "passes": passes,
    }
    out = ROOT / ".bench_out" / args.workload / "result.json"
    out.write_text(json.dumps(record, indent=1))
    slim = {k: v for k, v in record.items() if k != "passes"}
    slim["failures"] = [f for p in passes for f in p["failures"]]
    print(json.dumps(slim))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted.items()
                    if values.get(n) is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
