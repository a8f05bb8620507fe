"""End-to-end acceptance checks at desk scale.

One test per headline property of the package: ergodic sampling of the fast
process, exactness of the averaged coefficients, weak convergence of the
signal law and of the filter as the timescale separation grows, mean-one
likelihoods, agreement with the Kalman-Bucy filter on the linear model,
structural filter invariants, and byte-level determinism of the study CLI.
Each test prints a PASS/FAIL line with the measured numbers.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from levyfilter import (
    PRESETS,
    RngStream,
    average_coefficients,
    estimate_invariant_measure,
    filter_convergence_study,
    kalman_bucy,
    kalman_oracle,
    make_grid,
    martingale_check,
    preset_from_config,
    preset_to_config,
    psi_from_string,
    run_filter,
    signal_convergence_study,
    simulate_reference_observations,
    strictly_decreasing,
)
from levyfilter.cli import main
from levyfilter.filtering import estimate, init_ensemble, resample


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_invariant_measure_moments():
    # Fast process of the benchmark model: unit-rate OU with diffusion sqrt(2),
    # so the invariant law is standard normal.
    preset = PRESETS["example6"]()
    assert preset.model.ou_fast.sigma == pytest.approx(math.sqrt(2.0))
    t0 = time.perf_counter()
    measure = estimate_invariant_measure(
        preset.model, np.array([0.0]), burn_in=10.0, n_samples=100_000,
        stream=RngStream(0),
    )
    elapsed = time.perf_counter() - t0
    mean = float(measure.samples.mean())
    var = float(measure.samples.var(ddof=1))
    ok = abs(mean) < 0.02 and abs(var - 1.0) < 0.05 and elapsed < 10.0
    assert _report(
        "invariant measure",
        ok,
        f"|mean|={abs(mean):.4f} (<0.02), |var-1|={abs(var - 1.0):.4f} (<0.05), "
        f"{elapsed:.2f}s (<10s)",
    )


def test_averaged_coefficients_accuracy():
    # b1 is odd in the fast variable, so its average is 0; sigma1 is constant,
    # so the diffusion average is exact; h does not depend on the fast
    # variable, so its average is arctan(x) with zero sampling error.
    preset = PRESETS["example6"]()
    t0 = time.perf_counter()
    x = np.array([0.7])
    measure = estimate_invariant_measure(
        preset.model, x, burn_in=10.0, n_samples=2 ** 16, stream=RngStream(0)
    )
    pt = average_coefficients(preset.model, preset.observation, x, measure)
    elapsed = time.perf_counter() - t0
    drift_ok = abs(pt.bbar1[0]) <= 3.0 * pt.se_bbar1[0] + 1e-12
    diff_ok = pt.abar[0, 0] == 1.0
    target = math.atan(0.7)
    same_layout = float(
        np.asarray(preset.observation.h(x[None, :], measure.samples))[0, 0]
    )
    sensor_ok = (
        pt.hbar[0] == same_layout
        and abs(pt.hbar[0] - target) <= np.spacing(target)
        and pt.se_hbar[0] == 0.0
    )
    ok = drift_ok and diff_ok and sensor_ok and elapsed < 10.0
    assert _report(
        "averaged coefficients",
        ok,
        f"|bbar1|={abs(pt.bbar1[0]):.5f} vs 3SE={3 * pt.se_bbar1[0]:.5f}, "
        f"abar=={float(pt.abar[0, 0])} (exact), hbar-arctan={pt.hbar[0] - target:.1e} "
        f"(<=1 ulp, SE=0), {elapsed:.2f}s (<10s)",
    )


def test_signal_law_convergence():
    # Terminal slow laws of the full and reduced models approach each other as
    # the timescale separation grows.
    preset = PRESETS["example6"]()
    t0 = time.perf_counter()
    rows = signal_convergence_study(
        preset, [0.5, 0.1, 0.02], n_paths=5000, T=1.0, seed=0
    )
    elapsed = time.perf_counter() - t0
    ks = [row["ks"] for row in rows]
    ok = strictly_decreasing(ks) and ks[-1] < 0.05 and elapsed < 120.0
    assert _report(
        "signal-law convergence",
        ok,
        "KS=" + " > ".join(f"{v:.4f}" for v in ks)
        + f", KS(0.02)={ks[-1]:.4f} (<0.05), {elapsed:.1f}s (<2min)",
    )


def test_likelihood_is_mean_one():
    preset = PRESETS["example6"]()
    t0 = time.perf_counter()
    rep = martingale_check(preset, epsilon=0.1, n_runs=10_000, T=1.0, seed=0)
    dev = abs(rep.mean_forward - 1.0)
    bench_ok = dev < 3.0 * rep.se_forward

    # Analytic cross-check: silent sensor, constant acceptance 1/2, unit jump
    # mass on the compensated region.  The likelihood is 0.5^J * exp(T/2) with
    # J Poisson(T), whose mean is exactly one.
    cfg = copy.deepcopy(preset_to_config(preset))
    cfg["observation"]["h"] = ["0.0"]
    cfg["observation"]["h_bound"] = 0.0
    cfg["observation"]["lambda"] = {"kind": "const", "value": 0.5}
    cfg["observation"]["nu3_large"] = {"intensity": 0.0, "marks": "point(0.0)"}
    cfg["model"]["closed_form"]["hbar"] = ["0.0"]
    analytic = preset_from_config(cfg)
    rep2 = martingale_check(analytic, epsilon=0.1, n_runs=10_000, T=1.0, seed=0)
    dev2 = abs(rep2.mean_forward - 1.0)
    analytic_ok = dev2 < 3.0 * rep2.se_forward
    elapsed = time.perf_counter() - t0

    ok = bench_ok and analytic_ok and elapsed < 60.0
    assert _report(
        "mean-one likelihood",
        ok,
        f"benchmark {rep.mean_forward:.4f}±{rep.se_forward:.4f} "
        f"(dev {dev / rep.se_forward:.2f} SE), analytic case "
        f"{rep2.mean_forward:.4f}±{rep2.se_forward:.4f} "
        f"(dev {dev2 / rep2.se_forward:.2f} SE), {elapsed:.1f}s (<1min)",
    )


def test_linear_model_matches_kalman_bucy():
    t0 = time.perf_counter()
    res = kalman_oracle(T=1.0, dt=1e-3, n_particles=10_000, seed=0)
    rmse_ok = res.rmse < 0.05
    # the Riccati variance settles at the positive root of sigma^2 - 2aP - P^2
    times = make_grid(5.0, 1e-3)
    _, P = kalman_bucy(
        times, np.zeros(len(times) - 1), a=1.0, c=0.0,
        sigma=math.sqrt(3.0), m0=0.0, P0=0.0,
    )
    root = res.stationary_var
    var_ok = abs(P[-1] - root) / root < 0.01
    elapsed = time.perf_counter() - t0
    ok = rmse_ok and var_ok and elapsed < 60.0
    assert _report(
        "linear-model oracle",
        ok,
        f"RMSE={res.rmse:.4f} (<0.05), |P(5)-root|/root={abs(P[-1] - root) / root:.2e} "
        f"(<1%), {elapsed:.1f}s (<1min)",
    )


def test_filter_convergence_in_epsilon():
    preset = PRESETS["example6"]()
    t0 = time.perf_counter()
    report = filter_convergence_study(
        preset, [0.5, 0.1, 0.02], replications=200, n_particles=2000,
        psis=["tanh"], T=1.0, dt=0.01, seed=0, threads=4,
    )
    elapsed = time.perf_counter() - t0
    gaps = [float(r["mean_gap"][0]) for r in report.rows]
    ses = [float(r["se_gap"][0]) for r in report.rows]
    ks = [float(r["ks_pi"][0]) for r in report.rows]
    decrements_ok = all(
        gaps[i] - gaps[i + 1] > math.hypot(ses[i], ses[i + 1])
        for i in range(len(gaps) - 1)
    )
    gap_ok = strictly_decreasing(gaps) and decrements_ok
    ks_ok = all(ks[i + 1] <= ks[i] for i in range(len(ks) - 1)) and ks[-1] < ks[0]
    ok = gap_ok and ks_ok and elapsed < 900.0
    assert _report(
        "filter convergence",
        ok,
        "gap=" + " > ".join(f"{g:.5f}±{s:.5f}" for g, s in zip(gaps, ses))
        + ", KS(pi)=" + " >= ".join(f"{v:.3f}" for v in ks)
        + f", {elapsed:.0f}s (<15min)",
    )


def test_filter_invariants():
    preset = PRESETS["example6"]()
    psis = ["tanh", "poly(1,0,0)"]
    bounds_ok = mass_pos_ok = norm_ok = True
    for seed in range(5):
        obs = simulate_reference_observations(
            preset.observation, 0.5, 0.01, RngStream(10 + seed, 0)
        )
        out = run_filter(
            obs, "full", preset, 256, psis, RngStream(20 + seed, 0), ess_frac=0.6
        )
        bounds_ok &= bool(np.all(out.pi[:, 0] >= -1.0) and np.all(out.pi[:, 0] <= 1.0))
        mass_pos_ok &= bool(np.all(np.isfinite(out.log_rho1)))  # rho(1) > 0
        norm_ok &= bool(np.all(out.pi[:, 1] == 1.0))            # pi(1) == 1

    # resampling preserves the unnormalized mass to 1e-12 relative
    resample_ok = True
    worst = 0.0
    one = [psi_from_string("poly(1,0,0)")]
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(8, 200))
        ens = init_ensemble(n, np.zeros(1), None, [RngStream(500 + trial, 0)])
        ens.x[0] = rng.normal(size=(n, 1))
        ens.log_weights[0] = rng.normal(size=n) * 2.0
        _, w, den = weights = (np.empty((1, 1)), np.empty((1, n)), np.empty(1))
        before = estimate(ens, one, weights)["log_rho1"][0]
        resample(ens, 0, (w[0], den[0], before))
        after = estimate(ens, one)["log_rho1"][0]
        rel = abs(math.exp(after - before) - 1.0)
        worst = max(worst, rel)
        resample_ok &= rel <= 1e-12

    ok = bounds_ok and mass_pos_ok and norm_ok and resample_ok
    assert _report(
        "filter invariants",
        ok,
        f"bounds={bounds_ok}, rho(1)>0={mass_pos_ok}, pi(1)==1={norm_ok}, "
        f"resample mass drift={worst:.1e} (<=1e-12)",
    )


def test_thread_count_determinism(tmp_path):
    def run(out, threads):
        return main([
            "converge", "--eps", "0.5,0.1,0.02", "--replications", "20",
            "--particles", "2000", "--T", "1.0", "--dt", "0.01",
            "--psi", "tanh", "--signal-paths", "1000",
            "--martingale-runs", "1000", "--seed", "0",
            "--threads", str(threads), "--out", str(out),
        ])

    t0 = time.perf_counter()
    a, b = tmp_path / "serial", tmp_path / "pooled"
    rc_ok = run(a, 1) == 0 and run(b, 4) == 0
    names = ["convergence.csv", "gap_vs_eps.svg", "ks_vs_eps.svg"]
    same = {n: (a / n).read_bytes() == (b / n).read_bytes() for n in names}
    elapsed = time.perf_counter() - t0
    ok = rc_ok and all(same.values())
    assert _report(
        "thread-count determinism",
        ok,
        f"exit codes ok={rc_ok}, byte-identical={same}, {elapsed:.0f}s",
    )
