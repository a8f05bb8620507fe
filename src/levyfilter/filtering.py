"""Particle approximation of the jump-robust nonlinear filter.

The filter runs under the reference law, where the h-shifted continuous
observation part is a Brownian motion independent of the signal and the
observation jump events arrive at the base rate.  Particles therefore
propagate with the plain signal dynamics; all observation information enters
through the log-weight increment

    h . dBbar - |h|^2 dt / 2 + sum_events log lambda + dt * int (1-lambda) nu3(du),

with states taken at the right endpoint of each step, which makes the
unnormalized mass a mean-one discrete-time martingale exactly.  Only
small-region events enter the weights: with the acceptance law constant on
the complement region the large-jump factor is state-independent and cancels
from every normalized estimate.

Propagation noise comes from one stream per (run stream, resample
generation): each step draws the next (N, width) block from it, one row per
particle in particle order, so the output is independent of how the work is
scheduled.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .averaging import HomogenizedModel
from .errors import ModelViolationError
from .models import ModelPreset, ObservationModel, SlowFastModel, ThinningLaw, check_thinning
from .noise import NoiseSource, RngStream
from .sde import (
    ObservationRecord,
    StepScheme,
    _fast_scheme_params,
    default_scheme,
    euler_step,
    signal_step,
)

_INDICATOR_WIDTH = 1e-2
_POLY_CLIP = 1e6


# ---------------------------------------------------------------------------
# test functionals


@dataclass(frozen=True)
class PsiSpec:
    """A bounded functional of the slow state, applied to its first coordinate."""

    name: str
    fn: object
    lower: float
    upper: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float)[..., 0])


def psi_from_string(spec: str) -> PsiSpec:
    """Parse 'tanh', 'arctan', 'indicator(a,b)' or 'poly(c0,c1,c2)'.

    Indicators are mollified with a tanh ramp of width 1e-2 so they stay
    continuous and strictly inside [0, 1]; polynomials are clipped to
    +-1e6, which declares the bound that makes them admissible.
    """
    s = spec.strip()
    if s == "tanh":
        return PsiSpec("tanh", np.tanh, -1.0, 1.0)
    if s == "arctan":
        return PsiSpec("arctan", np.arctan, -math.pi / 2, math.pi / 2)
    m = re.match(r"^indicator\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$", s)
    if m:
        a, b = float(m.group(1)), float(m.group(2))
        if not a < b:
            raise ValueError(f"indicator needs a < b, got {spec!r}")

        def ind(v, a=a, b=b):
            return 0.5 * (np.tanh((v - a) / _INDICATOR_WIDTH) - np.tanh((v - b) / _INDICATOR_WIDTH))

        return PsiSpec(s.replace(" ", ""), ind, 0.0, 1.0)
    m = re.match(r"^poly\(\s*([^,()]+)\s*,\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$", s)
    if m:
        c0, c1, c2 = (float(m.group(i)) for i in (1, 2, 3))

        def poly(v, c0=c0, c1=c1, c2=c2):
            return np.clip(c0 + c1 * v + c2 * v * v, -_POLY_CLIP, _POLY_CLIP)

        return PsiSpec(s.replace(" ", ""), poly, -_POLY_CLIP, _POLY_CLIP)
    raise ValueError(f"unknown test functional {spec!r}")


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class ParticleEnsemble:
    """State arrays plus the propagation-noise stream that drives them.

    Each resample generation draws its noise from one generator, built on
    first use from the child stream (PARTICLES, resample generation) of the
    run stream; ``resample`` drops it so the next generation is re-keyed.
    Successive draws of one generator equal the rows of a single large draw,
    so step k of a generation gets row k of a (K, N, width) block of standard
    normals, rows in particle order: values depend only on (run stream,
    resample generation, step within the generation).
    """

    x: np.ndarray                      # (N, n)
    z: np.ndarray | None               # (N, m) in full mode, None in homog mode
    log_weights: np.ndarray            # (N,)
    time: float
    base_stream: RngStream
    resample_count: int = 0
    _noise_width: int = 1
    _noise: np.random.Generator | None = field(default=None, repr=False)

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    def next_noise(self) -> np.ndarray:
        """(N, width) standard normals for one step, from the generation's stream."""
        if self._noise is None:
            stream = self.base_stream.child(NoiseSource.PARTICLES).child(self.resample_count)
            self._noise = stream.generator()
        return self._noise.standard_normal((self.n_particles, self._noise_width))


def init_ensemble(
    n_particles: int,
    x0: np.ndarray,
    z0: np.ndarray | None,
    stream: RngStream,
    noise_width: int,
) -> ParticleEnsemble:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    x0 = np.asarray(x0, dtype=float)
    return ParticleEnsemble(
        x=np.tile(x0, (n_particles, 1)),
        z=None if z0 is None else np.tile(np.asarray(z0, dtype=float), (n_particles, 1)),
        log_weights=np.zeros(n_particles),
        time=0.0,
        base_stream=stream,
        _noise_width=noise_width,
    )


# ---------------------------------------------------------------------------
# dynamics


@dataclass
class FullDynamics:
    """Signal dynamics of the two-timescale model, one coarse step at a time."""

    model: SlowFastModel
    scheme: StepScheme

    def __post_init__(self):
        self.dt_fast = _fast_scheme_params(self.model, self.scheme)
        if self.model.nu1.total_intensity > 0 or self.model.nu2.total_intensity > 0:
            raise ValueError(
                "particle propagation currently supports jump-free signal dynamics"
            )

    @property
    def noise_width(self) -> int:
        m = self.model
        if self.dt_fast is None:
            return m.l1 + 1
        return m.l1 + self.scheme.substeps * m.l2

    def step(self, ens: ParticleEnsemble, dt: float):
        m = self.model
        col = ens.next_noise()
        dV = col[:, : m.l1] * math.sqrt(dt)
        if self.dt_fast is None:
            fast_noise = col[:, m.l1: m.l1 + 1]
        else:
            dW = col[:, m.l1:].reshape(-1, self.scheme.substeps, m.l2)
            fast_noise = dW * math.sqrt(self.dt_fast / m.epsilon)
        ens.x, ens.z = signal_step(m, self.dt_fast, ens.x, ens.z, dV, fast_noise, dt)


@dataclass
class HomogDynamics:
    """Reduced-model dynamics for the particles of the limit filter."""

    hmodel: HomogenizedModel

    def __post_init__(self):
        if self.hmodel.nu1.total_intensity > 0:
            raise ValueError(
                "particle propagation currently supports jump-free signal dynamics"
            )

    @property
    def noise_width(self) -> int:
        return self.hmodel.l_factor

    def step(self, ens: ParticleEnsemble, dt: float):
        h = self.hmodel
        col = ens.next_noise()
        dV = col[:, : h.l_factor] * math.sqrt(dt)
        ens.x = euler_step(ens.x, h.bbar1(ens.x), h.sigmabar1(ens.x), dV, dt)


def propagate(ens: ParticleEnsemble, dynamics, dt: float) -> ParticleEnsemble:
    """Advance every particle by one step of the signal dynamics (in place).

    Propagation never touches the weights: under the reference law the
    observation carries no drift information into the signal itself.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    dynamics.step(ens, dt)
    ens.time += dt
    if not np.all(np.isfinite(ens.x)):
        raise ModelViolationError(f"particle states became non-finite at t={ens.time:.6g}")
    return ens


# ---------------------------------------------------------------------------
# weights


def log_weight_increment(
    h_value,
    d_bbar,
    dt: float,
    event_times,
    event_marks,
    thinning,
    x,
    t: float,
    nu3_small,
) -> float:
    """Reference implementation of the one-step log-weight for a single state.

    ``h_value`` is the sensor at the step's right endpoint, ``d_bbar`` the
    increment of the h-shifted observation Brownian part over the step, and
    the events are the small-region observation jumps inside the step.
    """
    h = np.asarray(h_value, dtype=float).reshape(-1)
    db = np.asarray(d_bbar, dtype=float).reshape(-1)
    if h.shape != db.shape:
        raise ValueError(f"h has shape {h.shape} but the increment has shape {db.shape}")
    out = float(h @ db) - 0.5 * dt * float(h @ h)
    x = np.asarray(x, dtype=float)
    for tj, uj in zip(event_times, event_marks):
        lam = np.asarray(thinning(tj, x, np.asarray(uj, dtype=float).reshape(1, -1)))
        out += math.log(float(check_thinning(lam.reshape(-1)[0])))
    intensity = nu3_small.total_intensity
    if intensity > 0:
        if isinstance(thinning, ThinningLaw) and thinning.kind == "const":
            out += dt * intensity * (1.0 - thinning.params[0])
        else:
            comp = nu3_small.integrate(lambda u: 1.0 - thinning(t, x, u))
            out += dt * float(comp)
    return out


def _log_thinning(obs: ObservationModel, t, x, u) -> np.ndarray:
    """log lambda(t, x, u) at observation events, checked to lie in (0, 1)."""
    return np.log(check_thinning(obs.thinning(t, x, u)))


def _batch_log_weight(
    obs: ObservationModel,
    h_vals: np.ndarray,          # (..., d) sensor at right endpoints
    x_right: np.ndarray,         # (..., n) state at right endpoints
    d_bbar: np.ndarray,          # (..., d)
    dt: float,
    t_right,                     # scalar or (...) right-endpoint times
    event_times: np.ndarray,
    event_marks: np.ndarray,
) -> np.ndarray:
    """One-step log-weights, broadcast over the leading axes of the states.

    The Gaussian and compensator terms are per row.  Each event in
    ``event_times``/``event_marks`` is charged to every row, as in the filter,
    where all particles saw it; callers whose events belong to single rows
    pass none here and add ``_log_thinning`` at those rows themselves.
    """
    incr = np.sum(h_vals * d_bbar, axis=-1) - 0.5 * dt * np.sum(h_vals * h_vals, axis=-1)
    for tj, uj in zip(event_times, event_marks):
        incr = incr + _log_thinning(obs, tj, x_right, uj[None, :])
    intensity = obs.nu3_small.total_intensity
    if intensity > 0:
        thinning = obs.thinning
        if thinning.kind == "const":
            incr = incr + dt * intensity * (1.0 - thinning.params[0])
        else:
            nodes, weights = obs.nu3_small.mark_sampler.quadrature()
            t_col = np.asarray(t_right, dtype=float)[..., None]
            lam = np.asarray(thinning(t_col, x_right[..., None, :], nodes), dtype=float)
            incr = incr + dt * intensity * ((1.0 - lam) @ weights)
    return incr


# ---------------------------------------------------------------------------
# estimates and resampling


def estimate(ens: ParticleEnsemble, psis: list[PsiSpec]) -> dict:
    """Normalized estimates, unnormalized mass, and effective sample size.

    pi(psi) is a convex combination of psi values, so it stays inside the
    functional's declared range; psi identically one yields exactly 1.0
    because numerator and denominator are then the same float reduction.
    """
    logw = ens.log_weights
    if not np.all(np.isfinite(logw)):
        raise ModelViolationError("non-finite log-weights in the ensemble")
    mx = float(logw.max())
    w = np.exp(logw - mx)
    den = float(np.sum(w))
    pi = np.empty(len(psis))
    for i, psi in enumerate(psis):
        pi[i] = float(np.sum(w * psi(ens.x))) / den
    log_rho1 = mx + math.log(den / len(w))
    ess = den * den / float(np.sum(w * w))
    return {"pi": pi, "log_rho1": log_rho1, "ess": ess}


def resample(ens: ParticleEnsemble) -> ParticleEnsemble:
    """Systematic resampling; preserves the unnormalized mass exactly.

    Offspring counts of a weight p differ from N p by less than one in either
    direction.  Survivors keep equal log-weights at the current mass level,
    and the ensemble is re-keyed to the stream of the new resample
    generation, so the future noise of survivor copies is independent.
    """
    N = ens.n_particles
    logw = ens.log_weights
    mx = float(logw.max())
    w = np.exp(logw - mx)
    den = float(np.sum(w))
    log_rho1 = mx + math.log(den / N)
    p = w / den
    offsets_gen = (
        ens.base_stream.child(NoiseSource.RESAMPLING).child(ens.resample_count).generator()
    )
    u0 = offsets_gen.uniform()
    positions = (u0 + np.arange(N)) / N
    cdf = np.cumsum(p)
    cdf[-1] = 1.0  # guard against cumulative roundoff at the top end
    idx = np.searchsorted(cdf, positions, side="left")
    ens.x = ens.x[idx].copy()
    if ens.z is not None:
        ens.z = ens.z[idx].copy()
    ens.log_weights = np.full(N, log_rho1)
    ens.resample_count += 1
    ens._noise = None
    return ens


# ---------------------------------------------------------------------------
# the filter


@dataclass
class FilterOutput:
    times: np.ndarray           # (K+1,)
    psi_names: list
    pi: np.ndarray              # (K+1, n_psi)
    log_rho1: np.ndarray        # (K+1,)
    ess: np.ndarray             # (K+1,)
    resample_steps: list
    mode: str
    n_particles: int

    @property
    def rho1(self) -> np.ndarray:
        return np.exp(self.log_rho1)

    def to_csv(self, fh) -> None:
        if isinstance(fh, (str, os.PathLike)):
            with open(fh, "w") as handle:
                return self.to_csv(handle)
        names = [re.sub(r"[^0-9a-zA-Z_.+-]+", "_", name).strip("_") for name in self.psi_names]
        header = ["t"] + [f"pi_{n}" for n in names] + ["rho1", "ess"]
        fh.write(",".join(header) + "\n")
        rho = self.rho1
        for k, t in enumerate(self.times):
            row = [t, *self.pi[k], rho[k], self.ess[k]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def run_filter(
    observations: ObservationRecord,
    mode: str,
    preset: ModelPreset,
    n_particles: int,
    psis: list,
    stream: RngStream,
    hmodel: HomogenizedModel | None = None,
    scheme: StepScheme | None = None,
    ess_frac: float = 0.5,
    noise_width: int | None = None,
) -> FilterOutput:
    """Run the particle filter along one observation record.

    ``mode='full'`` propagates the two-timescale signal; ``mode='homog'``
    propagates the reduced model (``hmodel`` required) and evaluates the
    averaged sensor in the weights.  One propagation step is taken per
    observation step.  Resampling is triggered after the weight update when
    ESS < ess_frac * N.  ``noise_width`` can widen each step's (N, width)
    noise block (one row per particle) beyond what the dynamics consume, which
    lets a full and a reduced filter share their slow-noise columns for
    coupled comparisons.  Output is a deterministic function of
    (observations, parameters, stream).
    """
    if mode not in ("full", "homog"):
        raise ValueError(f"mode must be 'full' or 'homog', got {mode!r}")
    if not 0.0 < ess_frac <= 1.0:
        raise ValueError(f"ess_frac must lie in (0, 1], got {ess_frac}")
    if not psis:
        raise ValueError("need at least one test functional")
    psis = [p if isinstance(p, PsiSpec) else psi_from_string(p) for p in psis]
    obs = preset.observation
    K = observations.steps
    dt = observations.dt
    grid_gaps = np.diff(observations.times)
    if np.max(np.abs(grid_gaps - dt)) > 1e-9 * max(1.0, dt):
        raise ValueError("observation grid is not uniform")

    if mode == "full":
        model = preset.model
        if scheme is None:
            scheme = default_scheme(model, dt)
        if abs(scheme.dt_slow - dt) > 1e-9 * max(1.0, dt):
            raise ValueError(
                f"scheme dt_slow={scheme.dt_slow} must match the observation spacing {dt}"
            )
        dynamics = FullDynamics(model, scheme)
        x0, z0 = model.x0, model.z0
        sensor = None
    else:
        if hmodel is None:
            raise ValueError("homog mode needs a homogenized model")
        dynamics = HomogDynamics(hmodel)
        x0, z0 = hmodel.x0, None
        sensor = hmodel.hbar

    width = dynamics.noise_width if noise_width is None else int(noise_width)
    if width < dynamics.noise_width:
        raise ValueError(
            f"noise_width={width} is narrower than the dynamics need ({dynamics.noise_width})"
        )
    ens = init_ensemble(n_particles, x0, z0, stream, width)

    small_idx = observations.small_step_index()
    order = np.argsort(small_idx, kind="stable")
    small_idx = small_idx[order]
    ev_times = observations.small_times[order]
    ev_marks = observations.small_marks[order]

    times = observations.times
    n_psi = len(psis)
    pi = np.empty((K + 1, n_psi))
    log_rho1 = np.empty(K + 1)
    ess_series = np.empty(K + 1)
    resample_steps: list[int] = []

    row = estimate(ens, psis)
    pi[0], log_rho1[0], ess_series[0] = row["pi"], row["log_rho1"], row["ess"]

    lo = 0
    for k in range(K):
        propagate(ens, dynamics, dt)
        hi = lo
        while hi < len(small_idx) and small_idx[hi] == k:
            hi += 1
        if mode == "full":
            h_vals = np.asarray(obs.h(ens.x, ens.z), dtype=float)
        else:
            h_vals = np.asarray(sensor(ens.x), dtype=float)
        ens.log_weights = ens.log_weights + _batch_log_weight(
            obs, h_vals, ens.x, observations.bbar_increments[k], dt,
            float(times[k + 1]), ev_times[lo:hi], ev_marks[lo:hi],
        )
        lo = hi
        row = estimate(ens, psis)
        pi[k + 1], log_rho1[k + 1], ess_series[k + 1] = row["pi"], row["log_rho1"], row["ess"]
        if row["ess"] < ess_frac * n_particles and k < K - 1:
            resample(ens)
            resample_steps.append(k + 1)

    return FilterOutput(
        times=times.copy(), psi_names=[p.name for p in psis], pi=pi,
        log_rho1=log_rho1, ess=ess_series, resample_steps=resample_steps,
        mode=mode, n_particles=n_particles,
    )
