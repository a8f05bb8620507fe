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
from every normalized estimate.  One kernel, ``_batch_log_weight``, computes
this increment for the filter and for both routes of the likelihood-martingale
check; it charges a step's events, stacked as (rows, times, marks), before
the compensator.

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
    _events_by_step,
    _fast_scheme_params,
    _stack_events,
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
    one record, (R,) for a stack of R records advanced together.  ``streams``,
    ``resample_count`` and ``generation_start`` are arrays of shape ``rows``
    holding each row's run stream, resample generation and the step at which
    that generation began.  Each row and resample generation draws its noise
    from one generator, built on first use from the child stream
    (PARTICLES, resample generation) of the row's run stream; ``resample``
    drops it so the row's next generation is re-keyed.  Successive draws of
    one generator equal the rows of a single large draw, so step k of a
    generation gets row k of a (K, N, width) block of standard normals, rows
    in particle order: a row's block is a function of its key (run stream,
    resample generation, generation start) and the step, never of the other
    rows.
    """

    x: np.ndarray                      # (*rows, N, n)
    z: np.ndarray | None               # (*rows, N, m) in full mode, None in homog mode
    log_weights: np.ndarray            # (*rows, N)
    time: float
    streams: np.ndarray                # (*rows,) RngStream objects
    resample_count: np.ndarray         # (*rows,) ints
    generation_start: np.ndarray       # (*rows,) ints, steps drawn before the generation
    _noise_width: int = 1
    _steps: int = 0                    # steps drawn so far
    _noise: list = field(init=False, repr=False)   # generator per row, rows flattened

    def __post_init__(self):
        self._noise = [None] * self.streams.size

    @property
    def rows(self) -> tuple:
        return self.log_weights.shape[:-1]

    @property
    def n_particles(self) -> int:
        return self.log_weights.shape[-1]

    def next_noise(self, cache: dict | None = None) -> np.ndarray:
        """(*rows, N, width) standard normals for one step, each row from its
        generation's stream.  The block is read-only.

        ``cache`` is one step's dict shared by the ensembles of a pass, all on
        the same N and width: it maps a row key to (generator, block, row) of
        the first row that drew it.  A row whose key is there adopts that
        generator and reads that row instead of drawing; an ensemble whose
        rows all read one block's rows in order returns that block itself.
        """
        N, width = self.n_particles, self._noise_width
        cache = {} if cache is None else cache
        gens, out, hits = self._noise, np.empty(self.rows + (N, width)), []
        rows = out.reshape(-1, N, width)
        keys = zip(self.streams.flat, self.resample_count.flat, self.generation_start.flat)
        for i, (stream, generation, start) in enumerate(keys):
            key = (stream.root_seed, stream.stream_id, int(generation), int(start))
            if key in cache:
                gens[i], block, j = cache[key]
                hits.append((i, block, j))
                continue
            if gens[i] is None:
                gens[i] = stream.child(NoiseSource.PARTICLES).child(int(generation)).generator()
            gens[i].standard_normal(out=rows[i])
            cache[key] = (gens[i], out, i)
        self._steps += 1
        if len(hits) == len(gens) and hits[0][1].shape == out.shape and all(
                b is hits[0][1] and i == j for i, b, j in hits):
            return hits[0][1]
        for i, block, j in hits:
            rows[i] = block.reshape(-1, N, width)[j]
        out.flags.writeable = False
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
        generation_start=np.zeros(rows, dtype=int),
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

    def step(self, ens: ParticleEnsemble, col: np.ndarray, dt: float):
        m = self.model
        dV = col[..., : m.l1] * math.sqrt(dt)
        if self.dt_fast is None:
            fast_noise = col[..., m.l1: m.l1 + 1]
        else:
            fast = col[..., m.l1: self.noise_width]     # a wider block's extra columns unread
            dW = fast.reshape(col.shape[:-1] + (self.scheme.substeps, m.l2))
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

    def step(self, ens: ParticleEnsemble, col: np.ndarray, dt: float):
        h = self.hmodel
        dV = col[..., : h.l_factor] * math.sqrt(dt)
        ens.x = euler_step(ens.x, h.bbar1(ens.x), h.sigmabar1(ens.x), dV, dt)


def propagate(ens: ParticleEnsemble, dynamics, dt: float, noise: np.ndarray) -> ParticleEnsemble:
    """Advance every particle by one step of the signal dynamics (in place).

    ``noise`` is the step's block from ``ens.next_noise``.  Propagation never
    touches the weights: under the reference law the observation carries no
    drift information into the signal itself.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    dynamics.step(ens, noise, dt)
    ens.time += dt
    if not np.all(np.isfinite(ens.x)):
        raise ModelViolationError(f"particle states became non-finite at t={ens.time:.6g}")
    return ens


# ---------------------------------------------------------------------------
# weights


def _batch_log_weight(
    obs: ObservationModel,
    h_vals: np.ndarray,          # (R, ..., d) sensor at right endpoints
    x_right: np.ndarray,         # (R, ..., n) state at right endpoints
    d_bbar: np.ndarray,          # (R, ..., d)
    dt: float,
    t_right,                     # scalar or (R, ...) right-endpoint times
    events,                      # () or a stack (rows, times, marks)
) -> np.ndarray:
    """One-step log-weights of R rows, broadcast over the states of each row.

    The one implementation of the Girsanov log-weight: the filter calls it
    with its records as rows, the forward martingale check with its runs and
    the inverse check with the steps of one path.  ``events`` is () or a
    stack (rows, times, marks): event i adds log lambda at its mark to every
    state of row ``rows[i]``, in stack order, after the Gaussian term and
    before the compensator.
    """
    # d = 1 skips the reductions: a sum over one term is that term
    total = (lambda a: a[..., 0]) if h_vals.shape[-1] == 1 else (lambda a: np.sum(a, axis=-1))
    incr = total(h_vals * d_bbar) - 0.5 * dt * total(h_vals * h_vals)
    if len(events):
        rows, ev_t, ev_u = events
        x = x_right[rows]
        pad = (1,) * (x.ndim - 2)     # the state axes of a row
        lam = obs.thinning(ev_t.reshape(ev_t.shape + pad), x,
                           ev_u.reshape(ev_u.shape[:1] + pad + ev_u.shape[1:]))
        np.add.at(incr, rows, np.log(check_thinning(lam)))
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
    w = np.subtract(logw, mx)
    np.exp(w, out=w)
    den = w.sum(axis=-1)
    pi = np.empty(ens.rows + (len(psis),))
    for i, psi in enumerate(psis):
        pi[..., i] = (w * psi(ens.x)).sum(axis=-1) / den
    ess = den * den / np.multiply(w, w, out=w).sum(axis=-1)
    # math.log per row, as resample uses, so both agree on the mass level bitwise
    N = ens.n_particles
    if not ens.rows:
        return {"pi": pi, "log_rho1": float(mx[0]) + math.log(float(den) / N), "ess": float(ess)}
    mass = [m + math.log(d / N) for m, d in zip(mx.flat, den.flat)]
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
    if np.ndim(ens.resample_count[row]) != 0:
        raise ValueError(f"resample takes one row of the row axes {ens.rows}, got row={row!r}")
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
    ens.generation_start[row] = ens._steps
    # drop the row's generator; ``_noise`` holds the rows flattened
    ens._noise[int(np.arange(len(ens._noise)).reshape(ens.rows)[row])] = None
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
) -> FilterOutput | tuple[FilterOutput, FilterOutput]:
    """Run the particle filter along one observation record.

    A stack of one for ``run_filter_batch``, which documents the arguments;
    ``mode='both'`` returns the (full, homog) pair.  The output is a
    deterministic function of (observations, parameters, stream).
    """
    out = run_filter_batch(
        [observations], mode, preset, n_particles, psis, [stream], hmodel=hmodel,
        scheme=scheme, ess_frac=ess_frac, noise_width=noise_width,
    )
    return (out[0][0], out[1][0]) if mode == "both" else out[0]


@dataclass
class _ModeRun:
    """One filter of a pass: a mode on one set of records, its ensemble and its series."""

    mode: str
    dynamics: object
    sensor: object               # ensemble -> (*rows, N, d) sensor values
    obs: ObservationModel
    events: dict                 # small-region events by step, stacked over the records
    d_bbar: np.ndarray           # (K, R, 1, d)
    ens: ParticleEnsemble
    pi: np.ndarray               # (K+1, R, n_psi), one line per step, a column per row
    log_rho1: np.ndarray         # (K+1, R)
    ess: np.ndarray              # (K+1, R)
    resample_steps: list         # per row

    def record(self, k: int, psis: list) -> np.ndarray:
        est = estimate(self.ens, psis)
        self.pi[k], self.log_rho1[k], self.ess[k] = est["pi"], est["log_rho1"], est["ess"]
        return est["ess"]

    def outputs(self, times: np.ndarray, psis: list) -> list[FilterOutput]:
        return [FilterOutput(
            times=times.copy(), psi_names=[p.name for p in psis], pi=self.pi[:, r].copy(),
            log_rho1=self.log_rho1[:, r].copy(), ess=self.ess[:, r].copy(),
            resample_steps=steps, mode=self.mode, n_particles=self.ens.n_particles,
        ) for r, steps in enumerate(self.resample_steps)]


def _mode_setup(mode: str, preset: ModelPreset, hmodel, scheme, dt: float) -> tuple:
    """(dynamics, x0, z0, sensor) of one filter mode on observations spaced ``dt``."""
    obs = preset.observation
    if mode == "full":
        model = preset.model
        if scheme is None:
            scheme = default_scheme(model, dt)
        if abs(scheme.dt_slow - dt) > 1e-9 * max(1.0, dt):
            raise ValueError(
                f"scheme dt_slow={scheme.dt_slow} must match the observation spacing {dt}")
        return (FullDynamics(model, scheme), model.x0, model.z0,
                lambda ens: np.asarray(obs.h(ens.x, ens.z), dtype=float))
    if hmodel is None:
        raise ValueError("homog mode needs a homogenized model")
    return (HomogDynamics(hmodel), hmodel.x0, None,
            lambda ens: np.asarray(hmodel.hbar(ens.x), dtype=float))


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
) -> list[FilterOutput] | tuple[list[FilterOutput], list[FilterOutput]]:
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

    ``mode='both'`` runs the full and the reduced filter in one step loop at
    the wider of their two widths and returns (full outputs, homog outputs),
    each bitwise what the single-mode call at that width returns; a row whose
    two modes are in the same resample generation, begun at the same step,
    draws its block once.  Every mode is a one-case or two-case call of
    ``_filter_pass``.
    """
    if mode not in ("full", "homog", "both"):
        raise ValueError(f"mode must be 'full', 'homog' or 'both', got {mode!r}")
    modes = ("full", "homog") if mode == "both" else (mode,)
    outs = _filter_pass([(records, m, preset, hmodel, scheme) for m in modes],
                        n_particles, psis, streams, ess_frac, noise_width)
    return tuple(outs) if mode == "both" else outs[0]


def _filter_pass(cases, n_particles, psis, streams, ess_frac=0.5, noise_width=None) -> list:
    """One filter per case, all advanced in one step loop on the run streams
    ``streams``; returns one list of ``FilterOutput`` per case.

    A case is (records, mode, preset, hmodel, scheme), mode 'full' or
    'homog', with ``records[r]`` on ``streams[r]`` and one time grid for all.
    Every ensemble draws blocks at the widest case's width (or
    ``noise_width``) through one cache per step, so a key's block is drawn
    once and a case's outputs are bitwise the case run alone at that width.
    """
    if not 0.0 < ess_frac <= 1.0:
        raise ValueError(f"ess_frac must lie in (0, 1], got {ess_frac}")
    if not psis:
        raise ValueError("need at least one test functional")
    R = len(streams)
    for records, *_ in cases:
        if not records or len(records) != R:
            raise ValueError(
                f"need one run stream per record, got {len(records)} records and {R} streams")
    psis = [p if isinstance(p, PsiSpec) else psi_from_string(p) for p in psis]
    first = cases[0][0][0]
    times, K, dt = first.times, first.steps, first.dt
    if any(not np.array_equal(rec.times, times) for records, *_ in cases for rec in records):
        raise ValueError("the observation records must share one time grid")
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(1.0, dt):
        raise ValueError("observation grid is not uniform")

    setups = [_mode_setup(mode, preset, hmodel, scheme, dt)
              for _, mode, preset, hmodel, scheme in cases]
    need = max(dynamics.noise_width for dynamics, *_ in setups)
    width = need if noise_width is None else int(noise_width)
    if width < need:
        raise ValueError(f"noise_width={width} is narrower than the dynamics need ({need})")
    runs = [
        _ModeRun(
            mode=mode, dynamics=dynamics, sensor=sensor, obs=preset.observation,
            events=_events_by_step(times, *_stack_events(
                [rec.small_times for rec in records], [rec.small_marks for rec in records])),
            d_bbar=np.stack([rec.bbar_increments for rec in records], axis=1)[:, :, None, :],
            ens=init_ensemble(n_particles, x0, z0, list(streams), width),
            pi=np.empty((K + 1, R, len(psis))), log_rho1=np.empty((K + 1, R)),
            ess=np.empty((K + 1, R)), resample_steps=[[] for _ in range(R)],
        )
        for (records, mode, preset, _, _), (dynamics, x0, z0, sensor) in zip(cases, setups)
    ]
    threshold = ess_frac * n_particles

    for run in runs:
        run.record(0, psis)
    for k in range(K):
        cache, t_right = {}, float(times[k + 1])
        for run in runs:
            ens = run.ens
            propagate(ens, run.dynamics, dt, ens.next_noise(cache))
            ens.log_weights += _batch_log_weight(
                run.obs, run.sensor(ens), ens.x, run.d_bbar[k], dt, t_right, run.events.get(k, ()))
            ess = run.record(k + 1, psis)
            if k < K - 1:
                for r, row_ess in enumerate(ess.tolist()):
                    if row_ess < threshold:
                        resample(ens, r)
                        run.resample_steps[r].append(k + 1)
    return [run.outputs(times, psis) for run in runs]
