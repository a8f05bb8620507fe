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

The filter runs R observation records at once on (R, N, .) ensembles, one
row per record: propagation, the weight update and the estimates are array
operations over every row, while each row keeps its own observation events,
resample decisions and noise.  Propagation noise comes from one stream per
(row's run stream, row's resample generation): each step draws the next
(N, width) block from it, one line per particle in particle order, so a row's
output is the single-record filter's, independent of which rows share its
stack and of how the work is scheduled.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .averaging import HomogenizedModel
from .errors import ModelViolationError
from .models import ModelPreset, ObservationModel, SlowFastModel, check_thinning
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
    """State arrays of one or more observation records plus their noise streams.

    Arrays carry the row axes ``rows`` in front of the particle axis: () for
    one record, (R,) for a stack of R records advanced together.  ``streams``
    and ``resample_count`` are arrays of shape ``rows`` holding each row's run
    stream and resample generation.  Each row and resample generation draws
    its noise from one generator, built on first use from the child stream
    (PARTICLES, resample generation) of the row's run stream; ``resample``
    drops it so the row's next generation is re-keyed.  Successive draws of
    one generator equal the rows of a single large draw, so step k of a
    generation gets row k of a (K, N, width) block of standard normals, rows
    in particle order: a row's values depend only on (its run stream, its
    resample generation, step within the generation), never on the other rows.
    """

    x: np.ndarray                      # (*rows, N, n)
    z: np.ndarray | None               # (*rows, N, m) in full mode, None in homog mode
    log_weights: np.ndarray            # (*rows, N)
    time: float
    streams: np.ndarray                # (*rows,) RngStream objects
    resample_count: np.ndarray         # (*rows,) ints
    _noise_width: int = 1
    _noise: np.ndarray | None = field(default=None, repr=False)  # (*rows,) generators

    @property
    def rows(self) -> tuple:
        return self.log_weights.shape[:-1]

    @property
    def n_particles(self) -> int:
        return self.log_weights.shape[-1]

    def next_noise(self) -> np.ndarray:
        """(*rows, N, width) standard normals for one step, each row from its
        generation's stream."""
        if self._noise is None:
            self._noise = np.full(self.rows, None, dtype=object)
        out = np.empty(self.rows + (self.n_particles, self._noise_width))
        for i, block in enumerate(out.reshape(-1, self.n_particles, self._noise_width)):
            gen = self._noise.flat[i]
            if gen is None:
                stream = self.streams.flat[i].child(NoiseSource.PARTICLES)
                gen = stream.child(int(self.resample_count.flat[i])).generator()
                self._noise.flat[i] = gen
            gen.standard_normal(out=block)
        return out


def init_ensemble(
    n_particles: int,
    x0: np.ndarray,
    z0: np.ndarray | None,
    stream: RngStream | list[RngStream],
    noise_width: int,
) -> ParticleEnsemble:
    """N particles at (x0, z0) with equal weights.

    ``stream`` is one run stream, or a list of R run streams for a stack of R
    records whose arrays gain a leading row axis of length R.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if isinstance(stream, RngStream):
        streams = np.empty((), dtype=object)
        streams[()] = stream
    else:
        streams = np.empty(len(stream), dtype=object)
        streams[:] = list(stream)
        if streams.size == 0:
            raise ValueError("need at least one run stream")
    rows = streams.shape

    def tile(v):
        return np.tile(np.asarray(v, dtype=float), rows + (n_particles, 1))

    return ParticleEnsemble(
        x=tile(x0),
        z=None if z0 is None else tile(z0),
        log_weights=np.zeros(rows + (n_particles,)),
        time=0.0,
        streams=streams,
        resample_count=np.zeros(rows, dtype=int),
        _noise_width=noise_width,
    )


# ---------------------------------------------------------------------------
# dynamics


def full_noise_width(model: SlowFastModel, scheme: StepScheme) -> int:
    """Noise columns per particle and step of the full filter under ``scheme``.

    The l1 slow Brownian columns come first, then one standard normal for an
    exact OU transition or substeps x l2 Euler increments of the fast part.
    A reduced filter run at this width reads the same slow columns, which is
    how the full and reduced filters share common random numbers.
    """
    if scheme.fast_mode == "exact_ou":
        return model.l1 + 1
    return model.l1 + scheme.substeps * model.l2


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
        return full_noise_width(self.model, self.scheme)

    def step(self, ens: ParticleEnsemble, dt: float):
        m = self.model
        col = ens.next_noise()
        dV = col[..., : m.l1] * math.sqrt(dt)
        if self.dt_fast is None:
            fast_noise = col[..., m.l1: m.l1 + 1]
        else:
            dW = col[..., m.l1:].reshape(col.shape[:-1] + (self.scheme.substeps, m.l2))
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
        dV = col[..., : h.l_factor] * math.sqrt(dt)
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

    Each row of the ensemble reduces along its particle axis on its own:
    ``pi`` has shape (*rows, n_psi), ``log_rho1`` and ``ess`` shape ``rows``
    (floats for a single record).  pi(psi) is a convex combination of psi
    values, so it stays inside the functional's declared range; psi
    identically one yields exactly 1.0 because numerator and denominator are
    then the same float reduction.
    """
    logw = ens.log_weights
    if not np.all(np.isfinite(logw)):
        raise ModelViolationError("non-finite log-weights in the ensemble")
    mx = logw.max(axis=-1, keepdims=True)
    w = np.exp(logw - mx)
    den = w.sum(axis=-1)
    pi = np.empty(ens.rows + (len(psis),))
    for i, psi in enumerate(psis):
        pi[..., i] = (w * psi(ens.x)).sum(axis=-1) / den
    # math.log per row, as resample uses, so both agree on the mass level bitwise
    mass = [m + math.log(d / ens.n_particles) for m, d in zip(mx.flat, den.flat)]
    ess = den * den / (w * w).sum(axis=-1)
    if not ens.rows:
        return {"pi": pi, "log_rho1": float(mass[0]), "ess": float(ess)}
    return {"pi": pi, "log_rho1": np.array(mass), "ess": ess}


def resample(ens: ParticleEnsemble, row: tuple | int = ()) -> ParticleEnsemble:
    """Systematic resampling of one row; preserves its unnormalized mass exactly.

    ``row`` indexes the row axes (the default () is the whole ensemble of a
    single record).  Offspring counts of a weight p differ from N p by less
    than one in either direction.  Survivors keep equal log-weights at the
    current mass level, and the row is re-keyed to the stream of its new
    resample generation, so the future noise of survivor copies is
    independent.  Other rows are untouched.
    """
    N = ens.n_particles
    logw = ens.log_weights[row]
    mx = float(logw.max())
    w = np.exp(logw - mx)
    den = float(np.sum(w))
    log_rho1 = mx + math.log(den / N)
    p = w / den
    generation = int(ens.resample_count[row])
    offsets_gen = ens.streams[row].child(NoiseSource.RESAMPLING).child(generation).generator()
    u0 = offsets_gen.uniform()
    positions = (u0 + np.arange(N)) / N
    cdf = np.cumsum(p)
    cdf[-1] = 1.0  # guard against cumulative roundoff at the top end
    idx = np.searchsorted(cdf, positions, side="left")
    ens.x[row] = ens.x[row][idx]
    if ens.z is not None:
        ens.z[row] = ens.z[row][idx]
    ens.log_weights[row] = log_rho1
    ens.resample_count[row] = generation + 1
    if ens._noise is not None:
        ens._noise[row] = None
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

    A stack of one for ``run_filter_batch``, which documents the arguments;
    the output is a deterministic function of (observations, parameters,
    stream).
    """
    return run_filter_batch(
        [observations], mode, preset, n_particles, psis, [stream], hmodel=hmodel,
        scheme=scheme, ess_frac=ess_frac, noise_width=noise_width,
    )[0]


def run_filter_batch(
    records: list[ObservationRecord],
    mode: str,
    preset: ModelPreset,
    n_particles: int,
    psis: list,
    streams: list[RngStream],
    hmodel: HomogenizedModel | None = None,
    scheme: StepScheme | None = None,
    ess_frac: float = 0.5,
    noise_width: int | None = None,
) -> list[FilterOutput]:
    """Run one particle filter per observation record, all records advanced together.

    Record r gets an ensemble row of ``n_particles`` particles driven by its
    own run stream ``streams[r]``; the rows share only the time grid, so row r
    of the output is bitwise the filter of record r alone on stream r, and the
    per-step Python overhead is paid once per step instead of once per record.
    ``mode='full'`` propagates the two-timescale signal; ``mode='homog'``
    propagates the reduced model (``hmodel`` required) and evaluates the
    averaged sensor in the weights.  One propagation step is taken per
    observation step.  A row resamples after the weight update when its
    ESS < ess_frac * N.  ``noise_width`` can widen each step's (N, width)
    noise block (one row per particle) beyond what the dynamics consume, which
    lets a full and a reduced filter share their slow-noise columns for
    coupled comparisons.
    """
    if mode not in ("full", "homog"):
        raise ValueError(f"mode must be 'full' or 'homog', got {mode!r}")
    if not 0.0 < ess_frac <= 1.0:
        raise ValueError(f"ess_frac must lie in (0, 1], got {ess_frac}")
    if not psis:
        raise ValueError("need at least one test functional")
    if not records or len(records) != len(streams):
        raise ValueError(
            f"need one run stream per record, got {len(records)} records and {len(streams)} streams"
        )
    psis = [p if isinstance(p, PsiSpec) else psi_from_string(p) for p in psis]
    obs = preset.observation
    times = records[0].times
    if any(not np.array_equal(rec.times, times) for rec in records[1:]):
        raise ValueError("the observation records must share one time grid")
    K = records[0].steps
    dt = records[0].dt
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(1.0, dt):
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
    R = len(records)
    ens = init_ensemble(n_particles, x0, z0, list(streams), width)

    # small-region events of step k as (row, times, marks), in record order
    events: list[list] = [[] for _ in range(K)]
    for r, rec in enumerate(records):
        step_of_event = rec.small_step_index()
        for k in np.flatnonzero(np.bincount(step_of_event, minlength=K)[:K]):
            mine = step_of_event == k
            events[k].append((r, rec.small_times[mine], rec.small_marks[mine]))
    d_bbar = np.stack([rec.bbar_increments for rec in records], axis=1)[:, :, None, :]  # (K, R, 1, d)
    no_t, no_u = np.zeros(0), np.zeros((0, obs.nu3_small.mark_dim))

    # step-major series, one line per step with a column per row
    pi = np.empty((K + 1, R, len(psis)))
    log_rho1 = np.empty((K + 1, R))
    ess_series = np.empty((K + 1, R))
    resample_steps: list[list[int]] = [[] for _ in range(R)]
    threshold = ess_frac * n_particles

    est = estimate(ens, psis)
    pi[0], log_rho1[0], ess_series[0] = est["pi"], est["log_rho1"], est["ess"]

    for k in range(K):
        propagate(ens, dynamics, dt)
        if mode == "full":
            h_vals = np.asarray(obs.h(ens.x, ens.z), dtype=float)
        else:
            h_vals = np.asarray(sensor(ens.x), dtype=float)
        t_right = float(times[k + 1])
        incr = _batch_log_weight(obs, h_vals, ens.x, d_bbar[k], dt, t_right, no_t, no_u)
        # a row with events sees them charged before its compensator term,
        # exactly as a single-record kernel call orders the sum
        for r, ev_t, ev_m in events[k]:
            incr[r] = _batch_log_weight(
                obs, h_vals[r], ens.x[r], d_bbar[k, r, 0], dt, t_right, ev_t, ev_m
            )
        ens.log_weights += incr
        est = estimate(ens, psis)
        pi[k + 1], log_rho1[k + 1], ess_series[k + 1] = est["pi"], est["log_rho1"], est["ess"]
        if k < K - 1:
            for r, ess in enumerate(est["ess"].tolist()):
                if ess < threshold:
                    resample(ens, r)
                    resample_steps[r].append(k + 1)

    return [
        FilterOutput(
            times=times.copy(), psi_names=[p.name for p in psis], pi=pi[:, r].copy(),
            log_rho1=log_rho1[:, r].copy(), ess=ess_series[:, r].copy(),
            resample_steps=resample_steps[r], mode=mode, n_particles=n_particles,
        )
        for r in range(R)
    ]
