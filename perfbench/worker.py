"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --pass-dir DIR [--trace] [--tiny]

Times the set-up (import plus preset or config) and the workload, checks the
outputs, and prints one JSON record as its last line.  Traced passes also
write their spans to ``DIR/spans.json``, never into the program's artifacts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Patcher, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.tiny)

    start = time.perf_counter()
    state = workload.setup(sizes)
    setup_s = time.perf_counter() - start

    import levyfilter
    import numpy
    import scipy

    if not Path(levyfilter.__file__).resolve().is_relative_to(src):
        print(f"levyfilter was imported from {levyfilter.__file__}, not {src}", file=sys.stderr)
        return 2

    record = {
        "seed": args.seed, "traced": args.trace, "sizes": sizes, "setup_s": setup_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "failures": [],
    }
    tracer = Tracer() if args.trace else None
    patcher = Patcher()
    result = None
    try:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        result = workload.run(state, sizes, args.seed, args.pass_dir / "out", patcher)
        record["run_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # a failed operation is counted, the run goes on
        record["failures"].append(traceback.format_exc(limit=-3))
    finally:
        patcher.restore()
        if tracer:
            tracer.uninstall()

    if result is not None:
        try:
            record["failures"].extend(workload.check(result, sizes))
            record["digest"] = workload.digest(result)
        except Exception:  # a check that cannot run is a failed check
            record["failures"].append(traceback.format_exc(limit=-3))
    if tracer:
        record["layers"] = layer_metrics(tracer, sizes.get("threads", 1))
        (args.pass_dir / "spans.json").write_text(json.dumps(tracer.span_records()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
