"""Particle approximation of the jump-robust nonlinear filter.

The filter runs under the reference law, where the h-shifted continuous
observation part is a Brownian motion independent of the signal and the
observation jump events arrive at the base rate.  Particles therefore
propagate with the plain signal dynamics; all observation information enters
through the log-weight increment

    h . dBbar - |h|^2 dt / 2 + sum_events log lambda + dt * nu3(U3) * (1 - lambda),

with states taken at the right endpoint of each step, which makes the
unnormalized mass a mean-one discrete-time martingale exactly.  Only
small-region events enter the weights; large-region events are not charged.
That is exact when the acceptance law is constant, as on both presets: the
large-region factor is then state-independent and cancels from every
normalized estimate.  A law that reads the state (``logistic``) also thins
the large-region events that ``simulate_full`` draws, by lambda(t, x), and
this filter drops their sum of log lambda and their compensator, so it is
not the exact filter for such a model.  One kernel, ``_batch_log_weight``,
computes this increment for the filter and for both routes of the
likelihood-martingale check; it charges a step's events, stacked as (rows,
times, marks), before the compensator.

The filter runs R observation records at once on (R, N, .) ensembles, one
row per record: propagation, the weight update and the estimates are array
operations over every row, while each row keeps its own observation events,
resample decisions and noise.  A step reads the next block of each noise
source its dynamics declare, one stream per (row's run stream, source) for the
whole run; resampling re-keys nothing, as later blocks are independent of the
ancestor indices.  So a row's output is the single-record filter's in any
stack, and a full and a reduced filter on one run stream read the same slow
blocks when the reduced ``l_factor`` equals ``l1`` (else a warning says so).
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .averaging import HomogenizedModel
from .errors import ConfigError, ModelViolationError
from .models import ModelPreset, ObservationModel, check_thinning
from .noise import NoiseSource, RngStream, keyed_normals
from .sde import (
    Arena,
    FullDynamics,
    HomogDynamics,
    ObservationRecord,
    _SIGNAL_SOURCES,
    _check_finite,
    _events_by_step,
    _stack_events,
    require_jump_free,
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

        def poly(v, c0=c0, c1=c1, c2=c2):       # np.clip's values, without its wrapper
            return np.minimum(np.maximum(c0 + c1 * v + c2 * v * v, -_POLY_CLIP), _POLY_CLIP)

        return PsiSpec(s.replace(" ", ""), poly, -_POLY_CLIP, _POLY_CLIP)
    raise ValueError(f"unknown test functional {spec!r}")


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class ParticleEnsemble:
    """State arrays of a stack of R observation records plus their noise streams.

    Arrays carry a row axis of length R in front of the particle axis, one row
    per record; ``streams`` holds each row's run stream.  Block s of every step
    of row r is the next draw of one stream (PARTICLES, 0,
    ``_SIGNAL_SOURCES[s]``) below ``streams[r]``, read for all rows at once by
    ``keyed_normals``: ``resample`` re-keys nothing, and its calls on row r
    read successive uniforms of that row's stream (RESAMPLING).
    """

    x: np.ndarray                      # (R, N, n)
    z: np.ndarray | None               # (R, N, m) in full mode, None in homog mode
    log_weights: np.ndarray            # (R, N)
    time: float
    streams: list                      # R run streams
    _noise: list = field(init=False, repr=False)     # (streams, generators, ids) per source
    _offsets: list = field(init=False, repr=False)   # resampling generator per row
    _grid: np.ndarray = field(init=False, repr=False)   # 0, ..., N-1 for resample

    def __post_init__(self):
        particles = [s.child(NoiseSource.PARTICLES).child(0) for s in self.streams]
        sources = [[p.child(source) for p in particles] for source in _SIGNAL_SOURCES]
        self._noise = [(ss, [None] * len(ss), tuple((s.root_seed, s.stream_id) for s in ss))
                       for ss in sources]
        self._offsets = [None] * len(self.streams)
        self._grid = np.arange(self.n_particles, dtype=float)

    @property
    def n_particles(self) -> int:
        return self.log_weights.shape[-1]

    def next_noise(self, shapes: tuple, cache: dict) -> tuple:
        """One step's blocks of the dynamics' ``shapes``, (R, *shape) each, by
        ``keyed_normals`` through ``cache``, the step's dict for the whole pass."""
        return tuple([keyed_normals(streams, (ids, shape), gens, cache)
                      for shape, (streams, gens, ids) in zip(shapes, self._noise)])


def check_filter_sizes(n_particles: int, ess_frac: float | None = None) -> None:
    """The size rules of every filter, checked by ``init_ensemble``, by
    ``_filter_pass`` and by the CLI before it writes: at least one particle, and
    a resampling threshold ``ess_frac`` (when given) in (0, 1]."""
    if n_particles < 1:
        raise ConfigError(f"need at least one particle, got {n_particles}", key="particles")
    if ess_frac is not None and not 0.0 < ess_frac <= 1.0:
        raise ConfigError(f"ess_frac must lie in (0, 1], got {ess_frac}", key="ess_frac")


def init_ensemble(
    n_particles: int,
    x0: np.ndarray,
    z0: np.ndarray | None,
    streams: list[RngStream],
) -> ParticleEnsemble:
    """N particles at (x0, z0) with equal weights in each of R rows, row r on
    the run stream ``streams[r]``."""
    check_filter_sizes(n_particles)
    if not streams:
        raise ValueError("need at least one run stream")
    shape = (len(streams), n_particles)

    def tile(v):
        return np.tile(np.asarray(v, dtype=float), shape + (1,))

    return ParticleEnsemble(
        x=tile(x0),
        z=None if z0 is None else tile(z0),
        log_weights=np.zeros(shape),
        time=0.0,
        streams=list(streams),
    )


def propagate(ens: ParticleEnsemble, dynamics, noise: tuple) -> ParticleEnsemble:
    """Advance every particle, and ``ens.time``, by one step of ``dynamics`` (in place).

    ``noise`` is the step's blocks from ``ens.next_noise``; the dynamics write
    the ensemble's own state arrays and return them.  Propagation never
    touches the weights: under the reference law the observation carries no
    drift information into the signal itself.  A non-finite state raises
    ``IntegrationFailureError`` at the step's time.
    """
    ens.x, ens.z = dynamics.step(ens.x, ens.z, noise)
    ens.time += dynamics.dt
    _check_finite([a for a in (ens.x, ens.z) if a is not None], ens.time)
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
    out=None,                    # (R, ...) log-weights to add to and return, or None
    scratch=None,                # Arena of the products
) -> np.ndarray:
    """One-step log-weights of R rows, broadcast over the states of each row.

    The one implementation of the Girsanov log-weight: the filter calls it
    with its records as rows, the forward martingale check with its runs and
    the inverse check with the steps of one path.  ``events`` is () or a
    stack (rows, times, marks): event i adds log lambda at its time to every
    state of row ``rows[i]``, in stack order, after the Gaussian term and
    before the compensator.  The acceptance law lambda(t, x) reads no mark,
    so the compensator int (1 - lambda) nu3_small(du) is the measure's mass
    times 1 - lambda(t_right, x_right), one law evaluation per state.
    """
    work = (None, None) if scratch is None else (scratch.take(1, h_vals.shape),
                                                 scratch.take(2, h_vals.shape))
    incr = np.multiply(h_vals, d_bbar, out=work[0])
    square = np.multiply(h_vals, h_vals, out=work[1])
    if h_vals.shape[-1] == 1:     # d = 1 skips the reductions: a sum over one term is that term
        incr, square = incr[..., 0], square[..., 0]
    else:
        incr, square = np.add.reduce(incr, -1), np.add.reduce(square, -1)
    incr -= np.multiply(square, 0.5 * dt, out=square)
    if len(events):
        rows, ev_t, _ = events
        x = x_right[rows]
        lam = obs.thinning(ev_t.reshape(ev_t.shape + (1,) * (x.ndim - 2)), x)
        np.add.at(incr, rows, np.log(check_thinning(lam)))
    intensity = obs.nu3_small.total_intensity
    if intensity > 0:
        incr += dt * intensity * (1.0 - obs.thinning(t_right, x_right))
    return incr if out is None else np.add(out, incr, out=out)


# ---------------------------------------------------------------------------
# estimates and resampling


def estimate(ens: ParticleEnsemble, psis: list[PsiSpec], out=(None,) * 3, scratch=None) -> dict:
    """Normalized estimates, unnormalized mass, and effective sample size.

    Each row of the ensemble reduces along its particle axis on its own:
    ``pi`` has shape (R, n_psi), ``log_rho1`` and ``ess`` shape (R,).
    pi(psi) is a convex combination of psi values, so it stays inside the
    functional's declared range; psi identically one yields exactly 1.0
    because numerator and denominator are then the same float reduction.
    Buffers ``out`` (R, 1), (R, N), (R,) receive mx = max logw, w = exp(logw
    - mx) and den = sum w: row r's (w[r], den[r], log_rho1[r]) is what
    ``resample`` reads.  ``scratch`` is the ``Arena`` of the products w psi and w w.
    """
    logw, (mx, w, den) = ens.log_weights, out
    mx = np.maximum.reduce(logw, -1, out=mx, keepdims=True)
    # min and max do no arithmetic and keep a NaN: both finite prove every entry finite
    if not (math.isfinite(np.minimum.reduce(logw, None))
            and math.isfinite(np.maximum.reduce(mx, None))):
        raise ModelViolationError("non-finite log-weights in the ensemble")
    w = np.exp(np.subtract(logw, mx, out=w), out=w)
    den = np.add.reduce(w, -1, out=den)
    work = (scratch or Arena()).take(1, w.shape)
    pi = np.empty((len(den), len(psis)))
    for i, psi in enumerate(psis):
        np.divide(np.add.reduce(np.multiply(w, psi(ens.x), out=work), -1), den, out=pi[:, i])
    ess = den * den / np.add.reduce(np.multiply(w, w, out=work), -1)
    # math.log per row keeps every recorded mass's bits (np.log may round differently)
    N = ens.n_particles
    mass = [m + math.log(d / N) for m, d in zip(mx[:, 0].tolist(), den.tolist())]
    return {"pi": pi, "log_rho1": np.array(mass), "ess": ess}


def resample(ens: ParticleEnsemble, row: int, weights: tuple) -> ParticleEnsemble:
    """Systematic resampling of row ``row``; preserves its unnormalized mass exactly.

    ``weights`` is the row's (w, den, log_rho1) from ``estimate`` on the
    current log-weights.  Offspring counts of a weight p differ from N p by
    less than one in either direction.  Survivors keep equal log-weights at
    the current mass level.  Nothing is re-keyed: copies of a particle read
    different columns of the row's next blocks.  Other rows are untouched.
    """
    N = ens.n_particles
    w, den, log_rho1 = weights
    if ens._offsets[row] is None:
        ens._offsets[row] = ens.streams[row].child(NoiseSource.RESAMPLING).generator()
    positions = np.divide(np.add(ens._offsets[row].random(), ens._grid), N)   # uniform()'s draw
    cdf = np.add.accumulate(np.divide(w, den))
    cdf[-1] = 1.0  # guard against cumulative roundoff at the top end
    idx = cdf.searchsorted(positions, side="left")
    ens.x[row] = ens.x[row].take(idx, 0)
    if ens.z is not None:
        ens.z[row] = ens.z[row].take(idx, 0)
    ens.log_weights[row] = log_rho1
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
    scheme: float | None = None,
    ess_frac: float = 0.5,
    noise_width: int | None = None,
) -> FilterOutput | tuple[FilterOutput, FilterOutput]:
    """Run the particle filter along one observation record.

    A stack of one for ``run_filter_batch``, which documents the arguments;
    ``mode='both'`` returns the (full, homog) pair.  The output is a
    deterministic function of (observations, parameters, stream).  The
    benchmark workloads still pass ``scheme``, which must equal the records'
    spacing, and ``noise_width``, which has no effect; both go with ROADMAP item 3.
    """
    dt = observations.dt
    if scheme is not None and abs(scheme - dt) > 1e-9 * max(1.0, dt):
        raise ValueError(f"scheme {scheme} must match the observation spacing {dt}")
    out = run_filter_batch(
        [observations], mode, preset, n_particles, psis, [stream], hmodel=hmodel,
        ess_frac=ess_frac,
    )
    return (out[0][0], out[1][0]) if mode == "both" else out[0]


@dataclass
class _ModeRun:
    """One filter of a pass: a mode on one set of records, its ensemble and its series."""

    mode: str
    dynamics: object
    blocks: tuple                # the dynamics' noise blocks of one row's particles
    sensor: object               # (ensemble, out) -> (*rows, N, d) sensor values
    obs: ObservationModel
    events: dict                 # small-region events by step, stacked over the records
    d_bbar: np.ndarray           # (K, R, 1, d)
    ens: ParticleEnsemble
    pi: np.ndarray               # (K+1, R, n_psi), one line per step, a column per row
    log_rho1: np.ndarray         # (K+1, R)
    ess: np.ndarray              # (K+1, R)
    resample_steps: list         # per row

    def record(self, k: int, psis: list, weights: tuple, scratch: Arena) -> np.ndarray:
        est = estimate(self.ens, psis, weights, scratch)
        if psis:
            self.pi[k] = est["pi"]
        self.log_rho1[k], self.ess[k] = est["log_rho1"], est["ess"]
        return est["ess"]

    def outputs(self, times: np.ndarray, psis: list) -> list[FilterOutput]:
        return [FilterOutput(
            times=times.copy(), psi_names=[p.name for p in psis], pi=self.pi[:, r].copy(),
            log_rho1=self.log_rho1[:, r].copy(), ess=self.ess[:, r].copy(),
            resample_steps=steps, mode=self.mode, n_particles=self.ens.n_particles,
        ) for r, steps in enumerate(self.resample_steps)]


def _mode_setup(mode: str, preset: ModelPreset, hmodel, dt: float, scratch) -> tuple:
    """(dynamics, x0, z0, sensor) of one filter mode on observations spaced ``dt``."""
    obs = preset.observation
    if mode == "full":
        model = preset.model
        require_jump_free(model.nu1, model.nu2)
        return (FullDynamics(model, dt, scratch), model.x0, model.z0,
                lambda ens, out: obs.h(ens.x, ens.z, out=out))
    if hmodel is None:
        raise ValueError("homog mode needs a homogenized model")
    return (HomogDynamics(hmodel, dt, scratch), hmodel.x0, None,
            lambda ens, out: hmodel.hbar(ens.x, out=out))


def run_filter_batch(
    records: list[ObservationRecord],
    mode: str,
    preset: ModelPreset,
    n_particles: int,
    psis: list,
    streams: list[RngStream],
    hmodel: HomogenizedModel | None = None,
    ess_frac: float = 0.5,
) -> list[FilterOutput] | tuple[list[FilterOutput], list[FilterOutput]]:
    """Run one particle filter per observation record, all records advanced together.

    Record r gets an ensemble row of ``n_particles`` particles driven by its
    own run stream ``streams[r]``; the rows share only the time grid, so row r
    of the output is bitwise the filter of record r alone on stream r, and the
    per-step Python overhead is paid once per step instead of once per record.
    ``mode='full'`` propagates the two-timescale signal; ``mode='homog'``
    propagates the reduced model (``hmodel`` required) and evaluates the
    averaged sensor in the weights.  One propagation step, of the records'
    spacing, is taken per observation step.  A row resamples after the weight
    update when its ESS < ess_frac * N.  Both modes read the slow blocks of a run stream, the
    same ones when ``hmodel.l_factor`` equals the model's ``l1``, which
    couples a full and a reduced filter for comparisons.

    ``mode='both'`` runs the full and the reduced filter in one step loop and
    returns (full outputs, homog outputs), each bitwise what the single-mode
    call returns; a row draws its shared slow block once per step, resampled
    or not.  Every mode is a one-case or two-case call of ``_filter_pass``.
    """
    if mode not in ("full", "homog", "both"):
        raise ValueError(f"mode must be 'full', 'homog' or 'both', got {mode!r}")
    modes = ("full", "homog") if mode == "both" else (mode,)
    outs = _filter_pass([(records, m, preset, hmodel) for m in modes],
                        n_particles, psis, streams, ess_frac)
    return tuple(outs) if mode == "both" else outs[0]


def _filter_pass(cases, n_particles, psis, streams, ess_frac=0.5, _last_pi_only=False) -> list:
    """One filter per case, all advanced in one step loop on the run streams
    ``streams``; returns one list of ``FilterOutput`` per case.

    A case is (records, mode, preset, hmodel), mode 'full' or 'homog', with
    ``records[r]`` on ``streams[r]`` and one time grid for all: its spacing is
    every dynamics' step size.
    Every ensemble reads its blocks through one cache per step, so a key's
    block is drawn once and a case's outputs are bitwise the case run alone.
    The reduced filters of one ``hmodel`` hold the same particles until they
    resample, so they share one cloud, stepped and sensed once per step; one
    that resamples a row first copies it.  The pass works in one ``Arena``.
    Both modes with ``l_factor`` != ``l1`` warn.  ``_last_pi_only`` evaluates
    the functionals at the last step only (``pi`` NaN before), not mass or ESS.
    """
    check_filter_sizes(n_particles, ess_frac)
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

    scratch = Arena()
    setups = [_mode_setup(mode, preset, hmodel, dt, scratch) for _, mode, preset, hmodel in cases]
    if len({case[1] for case in cases}) == 2:
        for l_factor, l1 in {(h.l_factor, p.model.l1) for _, _, p, h in cases}:
            if l_factor != l1:
                warnings.warn(f"the reduced model's Brownian dimension l_factor={l_factor} is not "
                              f"the model's l1={l1}: the full and reduced filters read different "
                              "slow blocks and are not coupled", stacklevel=3)
    runs = [
        _ModeRun(
            mode=mode, dynamics=dynamics, blocks=dynamics.blocks(n_particles), sensor=sensor,
            obs=preset.observation,
            events=_events_by_step(*_stack_events(
                [(rec.small_step_index(), rec.small_times, rec.small_marks) for rec in records])),
            d_bbar=np.stack([rec.bbar_increments for rec in records], axis=1)[:, :, None, :],
            ens=init_ensemble(n_particles, x0, z0, streams),
            pi=np.full((K + 1, R, len(psis)), np.nan), log_rho1=np.empty((K + 1, R)),
            ess=np.empty((K + 1, R)), resample_steps=[[] for _ in range(R)],
        )
        for (records, mode, preset, _), (dynamics, x0, z0, sensor) in zip(cases, setups)
    ]
    shared = {}      # the reduced filters of one hmodel start on one cloud
    for run, (_, mode, _, hmodel) in zip(runs, cases):
        if mode == "homog":
            run.ens.x = shared.setdefault(id(hmodel), run.ens.x)
    threshold, before_last = ess_frac * n_particles, [] if _last_pi_only else psis
    # estimate's (mx, w, den) buffers, shared by the runs: a run's resamples read
    # them before the next run's estimate overwrites them
    weights = (np.empty((R, 1)), np.empty((R, n_particles)), np.empty(R))
    _, w, den = weights
    for run in runs:
        run.record(0, before_last, weights, scratch)
    for k in range(K):
        cache, t_right, clouds = {}, float(times[k + 1]), {}
        for run in runs:
            clouds.setdefault(id(run.ens.x), []).append(run)
        for group in clouds.values():
            for run in group:
                ens = run.ens
                noise = ens.next_noise(run.blocks, cache)
                if run is group[0]:       # the cloud steps and senses once, into slot 0
                    propagate(ens, run.dynamics, noise)
                    h = run.sensor(ens, scratch.take(0, ens.x.shape[:-1] + (run.obs.d,)))
                else:
                    ens.time += dt
                _batch_log_weight(run.obs, h, ens.x, run.d_bbar[k], dt, t_right,
                                  run.events.get(k, ()), ens.log_weights, scratch)
                ess = run.record(k + 1, psis if k == K - 1 else before_last, weights, scratch)
                for r, row_ess in enumerate(ess.tolist() if k < K - 1 else ()):
                    if row_ess < threshold:
                        if len(group) > 1 and any(o.ens.x is ens.x for o in group if o is not run):
                            ens.x = ens.x.copy()      # copy-on-resample
                        resample(ens, r, (w[r], den[r], run.log_rho1[k + 1, r]))
                        run.resample_steps[r].append(k + 1)
    return [run.outputs(times, psis) for run in runs]
