"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload at tiny size through the real entry point, checks that
each metric of BENCHMARK.json is printed with its unit (every per-layer metric
by every workload, 0 where its boundary is not reached), that a corrupted
output counts as a failure, and that the benchmark refuses to run without a
source tree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_convergence_csv  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def tiny_results():
    """The last stdout line of every workload run at tiny size, traced and untraced."""
    results = {}
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), proc)
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_metrics_with_their_units(tiny_results, workload, trace):
    result, proc = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= (4 if trace else 3)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == spec
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if workload != "converge_example6":   # its eps-ordering check needs full size
        assert result["correct"] and result["failed"] == 0, proc.stdout


def _write_table(path, gaps=(0.02, 0.008, 0.003), mart=(1.0, 1.0, 1.0)):
    header = ("epsilon,mean_gap_tanh,se_gap_tanh,ks_pi_tanh,ks_signal,"
              "martingale_mean,martingale_se,max_rho0_inverse")
    rows = [f"{e},{g},0.001,0.2,0.05,{m},0.01,3.5" for e, g, m in zip((0.5, 0.1, 0.02), gaps, mart)]
    path.write_text("\n".join([header, *rows]) + "\n")


def test_convergence_checker_counts_corrupted_outputs(tmp_path):
    csv = tmp_path / "convergence.csv"
    eps = [0.5, 0.1, 0.02]
    _write_table(csv)
    assert check_convergence_csv(csv, eps) == []
    _write_table(csv, gaps=(0.02, float("nan"), 0.003))
    assert any("non-finite" in f for f in check_convergence_csv(csv, eps))
    _write_table(csv, mart=(1.0, 1.07, 1.0))
    assert any("martingale" in f for f in check_convergence_csv(csv, eps))
    _write_table(csv, gaps=(0.002, 0.008, 0.003))
    assert any("gap" in f for f in check_convergence_csv(csv, eps))
    csv.write_text("epsilon,mean_gap_tanh\n0.5,oops\n")
    assert check_convergence_csv(csv, eps)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "kalman_bootstrap", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_lookup_sites_and_restores_them():
    import levyfilter.averaging
    import levyfilter.experiments
    import levyfilter.sde

    original = levyfilter.sde.simulate_full
    tracer = Tracer()
    tracer.install()
    try:
        assert levyfilter.experiments.simulate_full is not original
        assert levyfilter.averaging.simulate_frozen_fast is levyfilter.sde.simulate_frozen_fast
        assert "sde.simulate_frozen_fast" in tracer.installed
    finally:
        tracer.uninstall()
    assert levyfilter.experiments.simulate_full is original


def test_self_time_is_per_thread_and_missing_boundaries_are_absent_or_zero():
    tracer = Tracer()
    tracer.installed = {"filtering.run_filter", "filtering.estimate", "filtering.resample"}
    main, other = threading.get_ident(), threading.get_ident() + 1

    class Out:
        n_particles, times, ess = 10, [0, 1, 2], [10.0, 5.0, 8.0]

    # run_filter [0, 1] in the main thread with an estimate child [0.2, 0.5];
    # a concurrent estimate in another thread must not reduce its self time
    tracer.spans = [
        (1, "filtering.run_filter", 0.0, 1.0, None, main, {"particle_steps": 20, "min_ess_frac": 0.5}),
        (2, "filtering.estimate", 0.2, 0.5, 1, main, None),
        (3, "filtering.estimate", 0.1, 0.9, None, other, None),
    ]
    out = layer_metrics(tracer, threads=2)
    assert out["filtering.loop_self_s"] == pytest.approx(0.7)
    assert out["filtering.estimate_s"] == pytest.approx(1.1)
    assert out["filtering.particle_steps"] == 20
    assert "filtering.propagate_s" not in out and "noise.generators" not in out
    assert out["filtering.resamples"] == 0 and out["filtering.resample_s"] == 0   # never reached
