"""Numerical studies: homogenization of the signal law, likelihood-martingale
diagnostics, a linear-Gaussian oracle, and filter convergence as the
timescale separation vanishes.

The filter study runs its replications as the rows of one batched filter
pass per (epsilon, mode).  Every replication derives its own stream from
(study seed, epsilon index, replication index) and a filter row does not
depend on the other rows, so the numbers are a deterministic function of the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import HomogenizedModel, build_homogenized
from .filtering import (
    PsiSpec,
    _batch_log_weight,
    _log_thinning,
    full_noise_width,
    psi_from_string,
    run_filter,
    run_filter_batch,
)
from .models import ModelPreset, make_linear_gaussian, with_epsilon
from .noise import RngStream
from .sde import (
    StepScheme,
    default_scheme,
    simulate_full,
    simulate_homogenized_ensemble,
    simulate_signal_ensemble,
)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def strictly_decreasing(values) -> bool:
    vals = list(values)
    return all(y < x for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# signal-law homogenization


def signal_convergence_study(
    preset: ModelPreset,
    epsilons,
    n_paths: int,
    T: float,
    dt_slow: float = 0.01,
    seed: int = 0,
    hmodel: HomogenizedModel | None = None,
) -> list[dict]:
    """KS distance between terminal slow laws of the full and reduced models.

    Each epsilon gets independent ensembles of both laws; the reduced-model
    ensemble is resampled per epsilon so sampling noise does not correlate
    across rows.
    """
    if hmodel is None:
        hmodel = build_homogenized(preset)
    root = RngStream(int(seed))
    rows = []
    for i, eps in enumerate(epsilons):
        meps = with_epsilon(preset, float(eps)).model
        scheme = default_scheme(meps, dt_slow)
        _, XT, _ = simulate_signal_ensemble(meps, T, scheme, n_paths, root.child(2 * i))
        _, X0 = simulate_homogenized_ensemble(hmodel, T, dt_slow, n_paths, root.child(2 * i + 1))
        ks = max(
            ks_statistic(XT[:, j], X0[:, j]) for j in range(XT.shape[1])
        )
        rows.append({"epsilon": float(eps), "ks": ks, "n_paths": int(n_paths), "T": float(T)})
    return rows


# ---------------------------------------------------------------------------
# likelihood martingale diagnostics


@dataclass
class MartingaleReport:
    epsilon: float
    n_runs: int
    mean_forward: float          # E[likelihood] under the reference law (full model)
    se_forward: float
    mean_forward_homog: float    # same, with the reduced model's averaged sensor
    se_forward_homog: float
    max_rho0_inverse: float      # max over runs of 1 / reduced-model likelihood
    inverse_runs: int = 0
    mean_inverse: float = math.nan   # E[1/likelihood] under the physical law
    se_inverse: float = math.nan


def martingale_check(
    preset: ModelPreset,
    epsilon: float,
    n_runs: int,
    T: float,
    dt: float = 0.01,
    seed: int = 0,
    hmodel: HomogenizedModel | None = None,
    inverse_runs: int | None = None,
) -> MartingaleReport:
    """Monte Carlo check that the likelihood has unit mean.

    Forward route: signal ensembles and synthetic reference-law observations
    (independent Brownian increments, unthinned jump events); the likelihood
    of each run should average to one.  Inverse route: paths simulated under
    the physical law carry E[1/likelihood] = 1.  Reported standard errors are
    plain ensemble SEs, so each route needs at least two runs:
    ``inverse_runs`` is 0 (route off) or at least 2.
    """
    P = _at_least_two("n_runs", n_runs)
    inverse_runs = 0 if not inverse_runs else _at_least_two("inverse_runs", inverse_runs)
    peps = with_epsilon(preset, float(epsilon))
    model, obs = peps.model, peps.observation
    if hmodel is None:
        hmodel = build_homogenized(peps)
    root = RngStream(int(seed))
    scheme = default_scheme(model, dt)

    times, HX, HZ = simulate_signal_ensemble(model, T, scheme, P, root.child(0), keep_history=True)
    K = len(times) - 1
    gen_obs = root.child(1).generator()
    dbar = gen_obs.standard_normal((K, P, obs.d)) * math.sqrt(dt)
    _, HX0 = simulate_homogenized_ensemble(hmodel, T, dt, P, root.child(2), keep_history=True)

    # Gaussian and compensator terms one step at a time, so state-dependent
    # thinning never holds more than a (P, quadrature nodes) block
    no_t, no_u = np.zeros(0), np.zeros((0, obs.nu3_small.mark_dim))
    logl = np.zeros(P)
    logl0 = np.zeros(P)
    for k in range(K):
        t = float(times[k + 1])
        hv = np.asarray(obs.h(HX[k + 1], HZ[k + 1]), dtype=float)
        logl += _batch_log_weight(obs, hv, HX[k + 1], dbar[k], dt, t, no_t, no_u)
        hv0 = np.asarray(hmodel.hbar(HX0[k + 1]), dtype=float)
        logl0 += _batch_log_weight(obs, hv0, HX0[k + 1], dbar[k], dt, t, no_t, no_u)

    intensity = obs.nu3_small.total_intensity
    if intensity > 0:
        # reference-law events, each charged to its own run at its step's right endpoint
        gen_ev = root.child(3).generator()
        counts = gen_ev.poisson(intensity * T, size=P)
        M = int(counts.sum())
        ev_times = gen_ev.uniform(0.0, T, size=M)
        ev_marks = obs.nu3_small.mark_sampler.sample(gen_ev, M)
        run_id = np.repeat(np.arange(P), counts)
        step = np.searchsorted(times[1:], ev_times, side="left")
        np.add.at(logl, run_id, _log_thinning(obs, ev_times, HX[step + 1, run_id, :], ev_marks))
        np.add.at(logl0, run_id, _log_thinning(obs, ev_times, HX0[step + 1, run_id, :], ev_marks))

    lik = np.exp(logl)
    lik0 = np.exp(logl0)
    mean_forward = float(lik.mean())
    se_forward = float(lik.std(ddof=1) / math.sqrt(P))
    mean_forward_homog = float(lik0.mean())
    se_forward_homog = float(lik0.std(ddof=1) / math.sqrt(P))
    max_rho0_inverse = float(np.exp(-logl0.min()))

    inv_vals = np.empty(inverse_runs)
    for r in range(inverse_runs):
        path = simulate_full(model, obs, T, scheme, root.child(4).child(r))
        rec = path.observations()
        xr = path.X[1:]
        hser = np.asarray(obs.h(xr, path.Z[1:]), dtype=float)
        ll = _batch_log_weight(
            obs, hser, xr, rec.bbar_increments, dt, rec.times[1:], no_t, no_u
        )
        idx = rec.small_step_index()
        np.add.at(ll, idx, _log_thinning(obs, rec.small_times, xr[idx], rec.small_marks))
        inv_vals[r] = math.exp(-float(np.sum(ll)))
    mean_inverse = float(inv_vals.mean()) if inverse_runs else math.nan
    se_inverse = (
        float(inv_vals.std(ddof=1) / math.sqrt(inverse_runs)) if inverse_runs else math.nan
    )

    return MartingaleReport(
        epsilon=float(epsilon), n_runs=P,
        mean_forward=mean_forward, se_forward=se_forward,
        mean_forward_homog=mean_forward_homog, se_forward_homog=se_forward_homog,
        max_rho0_inverse=max_rho0_inverse,
        inverse_runs=inverse_runs, mean_inverse=mean_inverse, se_inverse=se_inverse,
    )


# ---------------------------------------------------------------------------
# linear-Gaussian oracle


@dataclass
class OracleResult:
    times: np.ndarray
    filter_mean: np.ndarray     # (K+1,)
    oracle_mean: np.ndarray     # (K+1,)
    oracle_var: np.ndarray      # (K+1,)
    rmse: float
    terminal_filter_var: float
    stationary_var: float


def kalman_bucy(times, dY, a: float, c: float, sigma: float, m0: float, P0: float):
    """Euler integration of the Kalman-Bucy mean/variance ODEs for
    dX = (c - aX)dt + sigma dV, dY = X dt + dB."""
    K = len(times) - 1
    m = np.empty(K + 1)
    P = np.empty(K + 1)
    m[0], P[0] = m0, P0
    for k in range(K):
        dt = times[k + 1] - times[k]
        m[k + 1] = m[k] + (c - a * m[k]) * dt + P[k] * (dY[k] - m[k] * dt)
        P[k + 1] = P[k] + (-2.0 * a * P[k] + sigma ** 2 - P[k] ** 2) * dt
    return m, P


def kalman_oracle(
    a: float = 1.0,
    c: float = 0.0,
    sigma: float = math.sqrt(3.0),
    x0: float = 0.0,
    T: float = 1.0,
    dt: float = 1e-3,
    n_particles: int = 10_000,
    ess_frac: float = 0.5,
    seed: int = 0,
) -> OracleResult:
    """Particle filter versus the Kalman-Bucy filter on the linear model.

    Both consume the same simulated observation increments, so the comparison
    isolates particle error.  The stationary Riccati variance is
    -a + sqrt(a^2 + sigma^2).
    """
    preset = make_linear_gaussian(a=a, c=c, sigma=sigma, x0=x0)
    root = RngStream(int(seed))
    scheme = StepScheme(dt_slow=dt, fast_mode="exact_ou")
    path = simulate_full(preset.model, preset.observation, T, scheme, root.child(0))
    rec = path.observations()
    psis = [psi_from_string("poly(0,1,0)"), psi_from_string("poly(0,0,1)")]
    out = run_filter(
        rec, mode="full", preset=preset, n_particles=n_particles, psis=psis,
        stream=root.child(1), scheme=scheme, ess_frac=ess_frac,
    )
    dY = rec.bbar_increments[:, 0]        # jump-free: the raw observation increments
    m, P = kalman_bucy(rec.times, dY, a, c, sigma, m0=x0, P0=0.0)
    filter_mean = out.pi[:, 0]
    rmse = float(np.sqrt(np.mean((filter_mean - m) ** 2)))
    terminal_var = float(out.pi[-1, 1] - out.pi[-1, 0] ** 2)
    return OracleResult(
        times=rec.times, filter_mean=filter_mean, oracle_mean=m, oracle_var=P,
        rmse=rmse, terminal_filter_var=terminal_var,
        stationary_var=-a + math.sqrt(a * a + sigma * sigma),
    )


# ---------------------------------------------------------------------------
# filter convergence in epsilon


@dataclass
class ConvergenceReport:
    epsilons: list
    psi_names: list
    rows: list                  # one dict per epsilon
    meta: dict = field(default_factory=dict)

    def column(self, key: str):
        return [row[key] for row in self.rows]


def _at_least_two(name: str, count) -> int:
    """``count`` as an int, checked to be at least 2: a standard error (and a
    KS distance) needs two samples."""
    n = int(count)
    if n < 2:
        raise ValueError(f"{name} must be at least 2 (a standard error needs two), got {n}")
    return n


def _check_epsilons(epsilons) -> list[float]:
    eps = [float(e) for e in epsilons]
    bad = [e for e in eps if not e > 0]
    if bad:
        raise ValueError(f"every epsilon must be > 0, got {bad}")
    return eps


def filter_convergence_study(
    preset: ModelPreset,
    epsilons,
    replications: int,
    n_particles: int,
    psis,
    T: float,
    dt: float = 0.01,
    ess_frac: float = 0.5,
    seed: int = 0,
    threads: int = 1,
    hmodel: HomogenizedModel | None = None,
) -> ConvergenceReport:
    """Coupled comparison of the full filter and the reduced filter.

    Each replication simulates one truth-plus-observation path of the full
    model, then runs both filters on those observations with a shared
    propagation-noise stream (common random numbers: the reduced filter reads
    the same slow-Brownian columns the full filter uses), which strips most
    particle noise out of the terminal gap |pi_full(psi) - pi_homog(psi)|.
    The replications are the rows of one batched filter pass per epsilon and
    mode.  ``threads`` is accepted for callers that still pass a worker
    count and has no effect: the study runs on one thread.
    Reported per epsilon: the mean coupled gap and its SE per functional, and
    the KS distance between the replication samples of the two terminal
    estimates (a coupling-free, distribution-level comparison).
    """
    R = _at_least_two("replications", replications)
    epsilons = _check_epsilons(epsilons)
    psis = [p if isinstance(p, PsiSpec) else psi_from_string(p) for p in psis]
    if hmodel is None:
        hmodel = build_homogenized(preset)
    root = RngStream(int(seed))
    rows = []
    for ie, eps in enumerate(epsilons):
        peps = with_epsilon(preset, float(eps))
        scheme = default_scheme(peps.model, dt)
        rep_streams = [root.child(ie).child(r) for r in range(R)]
        recs = [
            simulate_full(peps.model, peps.observation, T, scheme, s.child(0)).observations()
            for s in rep_streams
        ]
        common = dict(
            preset=peps, n_particles=n_particles, psis=psis,
            streams=[s.child(1) for s in rep_streams], ess_frac=ess_frac,
            noise_width=full_noise_width(peps.model, scheme),
        )
        out_full = run_filter_batch(recs, "full", scheme=scheme, **common)
        out_homog = run_filter_batch(recs, "homog", hmodel=hmodel, **common)
        full_T = np.array([o.pi[-1] for o in out_full])
        homog_T = np.array([o.pi[-1] for o in out_homog])
        gaps = np.abs(full_T - homog_T)
        rows.append({
            "epsilon": float(eps),
            "mean_gap": gaps.mean(axis=0),
            "se_gap": gaps.std(axis=0, ddof=1) / math.sqrt(R),
            "ks_pi": np.asarray([
                ks_statistic(full_T[:, i], homog_T[:, i]) for i in range(len(psis))
            ]),
        })
    return ConvergenceReport(
        epsilons=epsilons,
        psi_names=[p.name for p in psis],
        rows=rows,
        meta={
            "replications": R, "n_particles": int(n_particles), "T": float(T),
            "dt": float(dt), "ess_frac": float(ess_frac), "seed": int(seed),
        },
    )


def convergence_study(
    preset: ModelPreset,
    epsilons,
    replications: int,
    n_particles: int,
    psis,
    T: float,
    dt: float = 0.01,
    ess_frac: float = 0.5,
    seed: int = 0,
    threads: int = 1,
    signal_paths: int = 2000,
    martingale_runs: int = 2000,
) -> ConvergenceReport:
    """Filter convergence plus signal-law KS and martingale diagnostics per epsilon."""
    _at_least_two("replications", replications)
    _at_least_two("martingale_runs", martingale_runs)
    _check_epsilons(epsilons)
    hmodel = build_homogenized(preset)
    report = filter_convergence_study(
        preset, epsilons, replications, n_particles, psis, T, dt=dt,
        ess_frac=ess_frac, seed=seed, threads=threads, hmodel=hmodel,
    )
    signal_rows = signal_convergence_study(
        preset, epsilons, signal_paths, T, dt_slow=dt, seed=seed + 1, hmodel=hmodel,
    )
    for row, srow in zip(report.rows, signal_rows):
        row["ks_signal"] = srow["ks"]
    for row, eps in zip(report.rows, report.epsilons):
        mart = martingale_check(
            preset, eps, martingale_runs, T, dt=dt, seed=seed + 2, hmodel=hmodel,
        )
        row["martingale_mean"] = mart.mean_forward
        row["martingale_se"] = mart.se_forward
        row["max_rho0_inverse"] = mart.max_rho0_inverse
    report.meta.update({
        "signal_paths": int(signal_paths), "martingale_runs": int(martingale_runs),
    })
    return report
