"""The study scripts under ``scripts/`` run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(("script", "args", "codes"), [
    ("converge_example6.py", [], (0,)),
    ("signal_homogenization.py", ["--paths", "200", "--T", "0.2"], (0,)),
    # exit 1 flags a mean more than 3 SE from one, which a small run may show
    ("martingale_sanity.py", ["--runs", "200", "--inverse-runs", "2", "--T", "0.2"], (0, 1)),
    ("bench_pairs.py", ["--help"], (0,)),
], ids=["converge_example6", "signal_homogenization", "martingale_sanity", "bench_pairs"])
def test_a_script_runs_without_a_traceback(script, args, codes):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.strip()
