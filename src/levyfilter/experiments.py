"""Numerical studies: homogenization of the signal law, likelihood-martingale
diagnostics, a linear-Gaussian oracle, and filter convergence as the
timescale separation vanishes.

The filter study simulates each epsilon's replication paths as one stack,
path r of epsilon e on the stream (study seed, e, r), and runs every
epsilon's full and reduced filters in one lockstep pass whose row r reads
the particle stream (study seed, 0, r) at every epsilon: common random
numbers across epsilon.  No path or filter row depends on the other rows,
so the numbers are a deterministic function of the seed.  The signal KS and
the martingale check share one streamed pass over the law ensembles, which
step through the filter's dynamics objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import HomogenizedModel, build_homogenized
from .errors import ConfigError
from .filtering import (
    PsiSpec,
    _batch_log_weight,
    _filter_pass,
    psi_from_string,
    run_filter,
)
from .models import ModelPreset, make_linear_gaussian, with_epsilon
from .noise import RngStream
from .sde import (
    _events_by_step,
    _homogenized_law,
    _law_steps,
    _signal_law,
    default_scheme,
    make_grid,
    require_jump_free,
    simulate_full,
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
    """KS distance between terminal slow laws of the full and reduced models:
    ``_law_pass`` on ``RngStream(seed)``, so every epsilon's ensemble reads the
    same noises and is compared with one reduced-model ensemble.  Every
    epsilon is checked before any ensemble runs."""
    n_paths = _at_least_two("n_paths", n_paths)
    presets = [with_epsilon(preset, float(eps)) for eps in epsilons]
    if hmodel is None:
        hmodel = build_homogenized(preset)
    ks, _ = _law_pass(preset, hmodel, presets, T, dt_slow, RngStream(int(seed)), ks_paths=n_paths)
    return [{"epsilon": p.model.epsilon, "ks": k, "n_paths": n_paths, "T": float(T)}
            for p, k in zip(presets, ks)]


def _law_pass(preset, hmodel, presets, T, dt, root, ks_paths: int = 0, runs: int = 0):
    """The reduced ensemble of ``hmodel`` (``root.child(2)``) and the full
    ensembles of ``presets``, ``preset`` at E epsilons (all on ``root.child(0)``),
    advanced in lockstep with max(ks_paths, runs) rows each.  Returns (ks,
    logl): ``ks[e]`` is the KS distance (max over coordinates) between the
    terminal slow states of the first ``ks_paths`` rows of ``presets[e]`` and
    of the reduced model; ``logl`` (1 + E, runs) the log-likelihoods of the
    first ``runs`` rows under ``preset``'s reference-law observations
    (``child(5)`` increments, ``child(3)`` unthinned events), row 0 with the
    averaged sensor.  No KS paths compute no KS; no runs draw nothing for
    the observations and evaluate no sensor."""
    P, obs = max(ks_paths, runs), preset.observation
    laws = [_homogenized_law(hmodel, root.child(2))]
    laws += [_signal_law(p.model, default_scheme(p.model, dt), root.child(0)) for p in presets]
    logl = np.zeros((1 + len(presets), runs))
    if runs:
        # reference-law events of every run, charged to their run by the weight
        # kernel at their step's right endpoint
        gen_ev = root.child(3).generator()
        counts = gen_ev.poisson(obs.nu3_small.total_intensity * T, size=runs)
        ev_times = gen_ev.uniform(0.0, T, size=int(counts.sum()))
        ev_marks = obs.nu3_small.mark_sampler.sample(gen_ev, len(ev_times))
        events = _events_by_step(make_grid(T, dt), np.repeat(np.arange(runs), counts),
                                 ev_times, ev_marks)
        # not child(1): under a root of id 0 that is the fast stream child(0).child(1)
        gen_obs = root.child(5).generator()
    # the steps overwrite the states they yield
    for k, (t, ((X0, _), *fulls)) in enumerate(_law_steps(laws, T, dt, P)):
        if k == 0 or not runs:   # the common start carries no increment
            continue
        dbar = gen_obs.standard_normal((runs, obs.d)) * math.sqrt(dt)
        states = [(X0[:runs], hmodel.hbar(X0[:runs]))]
        states += [(X[:runs], obs.h(X[:runs], Z[:runs])) for X, Z in fulls]
        for row, (X, hv) in enumerate(states):
            hv = np.asarray(hv, dtype=float)
            _batch_log_weight(obs, hv, X, dbar, dt, float(t), events.get(k - 1, ()), logl[row])
    ks = [max(ks_statistic(X[:ks_paths, j], X0[:ks_paths, j]) for j in range(X0.shape[1]))
          for X, _ in fulls] if ks_paths else []
    return ks, logl


def _mean_se(x) -> tuple[float, float]:
    """Sample mean and its plain standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


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
    epsilon: float | list[float],
    n_runs: int,
    T: float,
    dt: float = 0.01,
    seed: int = 0,
    hmodel: HomogenizedModel | None = None,
    inverse_runs: int | None = None,
) -> MartingaleReport | list[MartingaleReport]:
    """Monte Carlo check that the likelihood has unit mean.

    Forward route: signal ensembles and synthetic reference-law observations
    (independent Brownian increments, unthinned jump events); the likelihood
    of each run should average to one.  Inverse route: paths simulated under
    the physical law carry E[1/likelihood] = 1.  Reported standard errors are
    plain ensemble SEs, so each route needs at least two runs:
    ``inverse_runs`` is 0 (route off) or at least 2.

    ``epsilon`` is one value or a list (one report each, bitwise the single
    call) sharing the epsilon-free reduced-model reference.  The forward route
    is ``_law_pass`` with no KS paths: it streams, so memory is
    O(n_runs + events) whatever the number of steps.
    """
    P = _at_least_two("n_runs", n_runs)
    inverse_runs = 0 if not inverse_runs else _at_least_two("inverse_runs", inverse_runs)
    single = np.ndim(epsilon) == 0
    presets = [with_epsilon(preset, e) for e in ([epsilon] if single else epsilon)]
    obs = preset.observation
    if hmodel is None:
        hmodel = build_homogenized(preset)
    root = RngStream(int(seed))
    _, logl = _law_pass(preset, hmodel, presets, T, dt, root, runs=P)
    lik = np.exp(logl)
    homog = (*_mean_se(lik[0]), float(np.exp(-logl[0].min())))   # reduced-model fields

    reports = []
    for peps, lik_full in zip(presets, lik[1:]):
        inv = np.empty(inverse_runs)
        paths = simulate_full(
            peps.model, obs, T, default_scheme(peps.model, dt),
            [root.child(4).child(r) for r in range(inverse_runs)],
        ) if inverse_runs else []
        for r, path in enumerate(paths):
            rec = path.observations()
            xr = path.X[1:]
            hser = np.asarray(obs.h(xr, path.Z[1:]), dtype=float)
            on_steps = (rec.small_step_index(), rec.small_times, rec.small_marks)
            ll = _batch_log_weight(obs, hser, xr, rec.bbar_increments, dt, rec.times[1:], on_steps)
            inv[r] = math.exp(-float(np.sum(ll)))
        reports.append(MartingaleReport(
            peps.model.epsilon, P, *_mean_se(lik_full), *homog, inverse_runs,
            *(_mean_se(inv) if inverse_runs else (math.nan, math.nan))))
    return reports[0] if single else reports


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
    scheme = default_scheme(preset.model, dt)
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


def _at_least_two(name: str, count) -> int:
    """``count`` as an int, checked to be at least 2: a standard error (and a
    KS distance) needs two samples."""
    n = int(count)
    if n < 2:
        raise ConfigError(f"{name} must be at least 2 (a standard error needs two), got {n}",
                          key=name)
    return n


def _check_epsilons(epsilons) -> list[float]:
    """The epsilons of a study as floats, each > 0 and none repeated (two rows for one)."""
    eps = [float(e) for e in epsilons]
    bad = [e for e in eps if not e > 0]
    if bad:
        raise ConfigError(f"every epsilon must be > 0, got {bad}", key="eps")
    if len(set(eps)) < len(eps):
        raise ConfigError(f"every epsilon must appear once, got {eps}", key="eps")
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
    propagation-noise stream (common random numbers: when ``hmodel.l_factor``
    equals the model's ``l1`` the reduced filter reads the same slow-Brownian
    blocks the full filter uses, resampled or not; otherwise a warning says
    the filters are not coupled), which strips most particle noise out of the
    terminal gap |pi_full(psi) - pi_homog(psi)|.
    Per epsilon, one ``simulate_full`` call advances every replication's path
    (``child(e).child(r).child(0)``); then one ``_filter_pass`` runs the 2E
    filters with the replications as rows, row r reading
    ``child(0).child(r).child(1)`` at every epsilon, so a step's block of a
    (source, shape) key is drawn once per replication and shared by every
    filter that reads it.  The pass evaluates the functionals at the last
    step only, the one the study reads.  ``threads`` is accepted for callers
    that still pass a worker count and has no effect.
    Reported per epsilon: the mean coupled gap and its SE per functional, and
    the KS distance between the replication samples of the two terminal
    estimates (a coupling-free, distribution-level comparison).
    """
    R = _at_least_two("replications", replications)
    epsilons = _check_epsilons(epsilons)
    require_jump_free(preset.model.nu1, preset.model.nu2)
    psis = [p if isinstance(p, PsiSpec) else psi_from_string(p) for p in psis]
    if hmodel is None:
        hmodel = build_homogenized(preset)
    root = RngStream(int(seed))
    presets = [with_epsilon(preset, eps) for eps in epsilons]
    schemes = [default_scheme(p.model, dt) for p in presets]
    cases = []
    for ie, (peps, scheme) in enumerate(zip(presets, schemes)):
        paths = simulate_full(peps.model, peps.observation, T, scheme,
                              [root.child(ie).child(r).child(0) for r in range(R)])
        records = [path.observations() for path in paths]
        cases += [(records, mode, peps, hmodel, scheme) for mode in ("full", "homog")]
    outs = _filter_pass(cases, n_particles, psis, [root.child(0).child(r).child(1) for r in range(R)],
                        ess_frac, _last_pi_only=True)
    rows = []
    for eps, out_full, out_homog in zip(epsilons, outs[0::2], outs[1::2]):
        full_T = np.array([o.pi[-1] for o in out_full])
        homog_T = np.array([o.pi[-1] for o in out_homog])
        gaps = np.abs(full_T - homog_T)
        rows.append({
            "epsilon": eps,
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


def convergence_seeds(seed: int) -> tuple[int, int]:
    """Root seeds of ``convergence_study``: its filter study's, its law pass's."""
    return int(seed), int(seed) + 2


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
    hmodel: HomogenizedModel | None = None,
) -> ConvergenceReport:
    """Filter convergence plus signal-law KS and martingale diagnostics per epsilon.

    The diagnostics share one ``_law_pass`` on ``RngStream(seed + 2)``: the
    martingale fields are ``martingale_check(seed=seed + 2)`` bitwise while
    ``signal_paths <= martingale_runs``, and ``ks_signal`` is
    ``signal_convergence_study(seed=seed + 2)`` when the counts are equal.
    ``hmodel`` defaults to ``build_homogenized(preset)``."""
    _at_least_two("replications", replications)
    signal_paths = _at_least_two("signal_paths", signal_paths)
    martingale_runs = _at_least_two("martingale_runs", martingale_runs)
    _check_epsilons(epsilons)
    law_stream = RngStream(convergence_seeds(seed)[1])   # a bad seed fails before the filter study
    if hmodel is None:
        hmodel = build_homogenized(preset)
    report = filter_convergence_study(
        preset, epsilons, replications, n_particles, psis, T, dt=dt,
        ess_frac=ess_frac, seed=seed, threads=threads, hmodel=hmodel,
    )
    presets = [with_epsilon(preset, eps) for eps in report.epsilons]
    ks, logl = _law_pass(preset, hmodel, presets, T, dt, law_stream,
                         ks_paths=signal_paths, runs=martingale_runs)
    for row, ks_signal, lik_full in zip(report.rows, ks, np.exp(logl[1:])):
        row["ks_signal"] = ks_signal
        row["martingale_mean"], row["martingale_se"] = _mean_se(lik_full)
        row["max_rho0_inverse"] = float(np.exp(-logl[0].min()))
    report.meta.update({"signal_paths": signal_paths, "martingale_runs": martingale_runs})
    return report
