"""The three benchmark workloads: their input sizes, the timed call, and the
correctness check of each.

``setup`` imports the package and builds the workload's preset or config (the
cost every CLI invocation pays); ``run`` is the timed pass; ``check`` returns
a list of failed conditions, empty when the outputs are correct.  Nothing
here imports numpy or levyfilter at module level, so the import lands inside
the timed set-up.

Check tolerances are fixed from the statistics, never from a seed's outcome:
Monte Carlo means must lie within ``SE_MULTIPLE`` standard errors of their
exact value, and the particle filter's RMSE against Kalman-Bucy within
``SE_MULTIPLE`` sampling standard deviations of an N-particle mean.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from contextlib import redirect_stdout
from pathlib import Path

SE_MULTIPLE = 5.0


class Capture:
    """Keeps the return values of one levyfilter function while a pass runs.

    Installed in every pass, traced or not: the checks need per-node averages
    and filter outputs that the public results do not carry.
    """

    def __init__(self, patcher, module: str, path: str):
        self.values: list = []

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.values.append(result)
                return result

            return wrapper

        self.present = patcher.replace(module, path, make)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class ConvergeExample6:
    name = "converge_example6"

    def sizes(self, tiny: bool) -> dict:
        threads = os.cpu_count() or 1
        if tiny:
            return {"eps": [0.5, 0.02], "replications": 2, "particles": 100, "T": 0.2,
                    "dt": 0.01, "signal_paths": 200, "martingale_runs": 200, "threads": threads}
        return {"eps": [0.5, 0.1, 0.02], "replications": 8, "particles": 2000, "T": 1.0,
                "dt": 0.01, "signal_paths": 5000, "martingale_runs": 5000, "threads": threads}

    def setup(self, sizes):
        import levyfilter.cli

        levyfilter.cli.PRESETS["example6"]()
        return levyfilter.cli

    def run(self, cli, sizes, seed, out_dir: Path, patcher):
        argv = [
            "converge", "--preset", "example6",
            "--eps", ",".join(repr(e) for e in sizes["eps"]),
            "--replications", str(sizes["replications"]),
            "--particles", str(sizes["particles"]),
            "--psi", "tanh", "--T", repr(sizes["T"]), "--dt", repr(sizes["dt"]),
            "--signal-paths", str(sizes["signal_paths"]),
            "--martingale-runs", str(sizes["martingale_runs"]),
            "--threads", str(sizes["threads"]),
            "--seed", str(seed), "--out", str(out_dir),
        ]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"exit_code": code, "out_dir": out_dir}

    def check(self, result, sizes) -> list[str]:
        if result["exit_code"] != 0:
            return [f"levyfilter converge exited {result['exit_code']}"]
        return check_convergence_csv(Path(result["out_dir"]) / "convergence.csv", sizes["eps"])

    def digest(self, result) -> str:
        out = Path(result["out_dir"])
        names = ["convergence.csv", "convergence.json", "gap_vs_eps.svg", "ks_vs_eps.svg"]
        return _digest(*((out / n).read_bytes() for n in names))


def check_convergence_csv(path: Path, epsilons) -> list[str]:
    """Finite table, mean-one martingale within SE_MULTIPLE SEs, gap shrinking in eps."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        table = [{k: float(v) for k, v in row.items()} for row in rows]
    except (OSError, ValueError) as exc:
        return [f"unreadable {path.name}: {exc}"]
    failures = []
    if [r["epsilon"] for r in table] != [float(e) for e in epsilons]:
        failures.append(f"{path.name} rows do not match eps {epsilons}")
    for r in table:
        bad = sorted(k for k, v in r.items() if not math.isfinite(v))
        if bad:
            failures.append(f"non-finite {bad} at eps={r['epsilon']}")
            continue
        dev = abs(r["martingale_mean"] - 1.0)
        if not dev <= SE_MULTIPLE * r["martingale_se"]:
            failures.append(
                f"martingale mean {r['martingale_mean']:.4f} is {dev / r['martingale_se']:.1f} "
                f"SE from 1 at eps={r['epsilon']}"
            )
    by_eps = {r["epsilon"]: r for r in table}
    lo, hi = min(epsilons), max(epsilons)
    if lo in by_eps and hi in by_eps and not by_eps[lo]["mean_gap_tanh"] < by_eps[hi]["mean_gap_tanh"]:
        failures.append(
            f"tanh gap at eps={lo} ({by_eps[lo]['mean_gap_tanh']:.5f}) is not below "
            f"the gap at eps={hi} ({by_eps[hi]['mean_gap_tanh']:.5f})"
        )
    return failures


class KalmanBootstrap:
    name = "kalman_bootstrap"

    def sizes(self, tiny: bool) -> dict:
        if tiny:
            return {"particles": 100, "T": 0.02, "dt": 1e-3, "ess_frac": 1.0}
        return {"particles": 500, "T": 0.2, "dt": 1e-3, "ess_frac": 1.0}

    def setup(self, sizes):
        import levyfilter

        levyfilter.make_linear_gaussian()
        return levyfilter

    def run(self, levyfilter, sizes, seed, out_dir, patcher):
        filters = Capture(patcher, "filtering", "run_filter")
        res = levyfilter.experiments.kalman_oracle(
            T=sizes["T"], dt=sizes["dt"], n_particles=sizes["particles"],
            ess_frac=sizes["ess_frac"], seed=seed,
        )
        return {"oracle": res, "filters": filters}

    def check(self, result, sizes) -> list[str]:
        res, filters = result["oracle"], result["filters"]
        failures = []
        tol = SE_MULTIPLE * math.sqrt(float(res.oracle_var.max()) / sizes["particles"])
        if not res.rmse <= tol:
            failures.append(f"RMSE {res.rmse:.4f} against Kalman-Bucy exceeds {tol:.4f}")
        steps = len(res.times) - 1
        if not filters.present or len(filters.values) != 1:
            failures.append("expected exactly one run_filter call")
        elif len(filters.values[0].resample_steps) != steps - 1:
            failures.append(
                f"{len(filters.values[0].resample_steps)} resamples, expected {steps - 1}"
            )
        return failures

    def digest(self, result) -> str:
        res = result["oracle"]
        return _digest(res.filter_mean.tobytes(), res.oracle_mean.tobytes())


class EulerLattice:
    name = "euler_lattice"

    def sizes(self, tiny: bool) -> dict:
        return {
            "eps": 0.02, "x_grid": [-3.0, 3.0] if tiny else [-6.0, -3.0, 0.0, 3.0, 6.0],
            "n_samples": 1000, "burn_in": 5.0, "stride": 10, "chain_dt": 0.01,
            "particles": 100 if tiny else 2000, "T": 0.1 if tiny else 1.0, "dt": 0.01,
        }

    def setup(self, sizes):
        import levyfilter

        cfg = levyfilter.preset_to_config(levyfilter.PRESETS["example6"]())
        del cfg["model"]["ou_fast"], cfg["model"]["closed_form"]
        cfg["model"]["epsilon"] = sizes["eps"]
        return levyfilter, levyfilter.preset_from_config(cfg)

    def run(self, state, sizes, seed, out_dir, patcher):
        lf, preset = state
        from levyfilter.filtering import FullDynamics

        nodes = Capture(patcher, "averaging", "average_coefficients")
        root = lf.RngStream(seed)
        scheme = lf.default_scheme(preset.model, sizes["dt"])
        path = lf.simulate_full(preset.model, preset.observation, sizes["T"], scheme, root.child(0))
        rec = path.observations()
        hmodel = lf.build_homogenized(
            preset, mode="lattice", x_grid=sizes["x_grid"], stream=root.child(2),
            burn_in=sizes["burn_in"], n_samples=sizes["n_samples"], stride=sizes["stride"],
            dt=sizes["chain_dt"],
        )
        width = FullDynamics(preset.model, scheme).noise_width
        psis = [lf.psi_from_string("tanh")]
        outs = {
            mode: lf.run_filter(
                rec, mode=mode, preset=preset, n_particles=sizes["particles"], psis=psis,
                stream=root.child(1), hmodel=hmodel, scheme=scheme if mode == "full" else None,
                noise_width=width,
            )
            for mode in ("full", "homog")
        }
        return {"nodes": nodes, "hmodel": hmodel, "filters": outs, "psi": psis[0]}

    def check(self, result, sizes) -> list[str]:
        import numpy as np

        failures = []
        nodes, psi = result["nodes"], result["psi"]
        grid = result["hmodel"].meta["grid"]
        if not nodes.present or len(nodes.values) != len(grid):
            failures.append(f"expected {len(grid)} averaged lattice nodes")
        for pt in nodes.values:
            x = float(pt.x[0])
            if not abs(pt.bbar1[0]) <= SE_MULTIPLE * pt.se_bbar1[0]:
                failures.append(f"bbar1={pt.bbar1[0]:.4f} at x={x} exceeds "
                                f"{SE_MULTIPLE:g} SE ({pt.se_bbar1[0]:.4f})")
            if not np.all(pt.abar == 1.0):
                failures.append(f"abar={pt.abar.ravel().tolist()} at x={x}, expected exactly 1")
            if not np.all(pt.hbar == np.arctan(pt.x)):
                failures.append(f"hbar={pt.hbar.tolist()} at x={x}, expected exactly arctan(x)")
        for mode, out in result["filters"].items():
            pi = out.pi[:, 0]
            if not (np.all(np.isfinite(pi)) and np.all((pi >= psi.lower) & (pi <= psi.upper))):
                failures.append(f"{mode} filter pi leaves [{psi.lower}, {psi.upper}]")
        return failures

    def digest(self, result) -> str:
        outs = result["filters"]
        tab = [p.bbar1.tobytes() for p in result["nodes"].values]
        return _digest(outs["full"].pi.tobytes(), outs["homog"].pi.tobytes(), *tab)


WORKLOADS = {w.name: w for w in (ConvergeExample6(), KalmanBootstrap(), EulerLattice())}
