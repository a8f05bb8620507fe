"""Path simulation for the two-timescale signal and its observation, and the
one step (``FullDynamics``, ``HomogDynamics``) of paths, filter particles and law ensembles.

A dynamics object owns one step size, the coarse grid's spacing.  The slow
component is advanced by an Euler step on the coarse grid; the fast one by
``fast_step`` on the route the model fixes: one exact Gaussian transition per
coarse step if it declares an OU fast part, else Euler substeps no longer
than epsilon/10, which resolve its own timescale.  Every jump event is
drawn on its step by ``noise.poisson_steps``, so no consumer bins simulated
events; an ``ObservationRecord`` keeps times alone, binned by ``_bin_events``.
Observation jumps are thinned against the state-dependent acceptance law
using the left-limit state, and every compensated jump term subtracts its
quadrature compensator so that simulated martingale parts stay centered.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailureError
from .models import ObservationModel, SlowFastModel, check_thinning
from .noise import JumpRecord, NoiseSource, RngStream, brownian_increments, keyed_normals, poisson_steps

_GRID_RTOL = 1e-9
# independent chains per frozen slow state in simulate_frozen_fast: the cost of
# an Euler step is flat in the number of rows, so C replicas of n/C recorded
# states take about 1/C of the wall time of one chain of n
FROZEN_REPLICAS = 16
# byte budget of one chunk of frozen-chain Brownian increments, all rows together
_FROZEN_CHUNK_BYTES = 1 << 18
# steps per window of frozen-chain jump events: each row draws a window's events
# at once from its own generator, whatever the number of rows
_FROZEN_EVENT_WINDOW = 256
# the noise source of each block the full dynamics read, in ``blocks`` order
_SIGNAL_SOURCES = (NoiseSource.SLOW_BROWNIAN, NoiseSource.FAST_BROWNIAN)


def default_scheme(model: SlowFastModel, dt: float) -> float:
    """``dt``, the step size the benchmark workloads pass; goes with ROADMAP item 3."""
    return float(dt)


def _check_step(dt) -> None:
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")


def make_grid(T: float, dt: float) -> np.ndarray:
    """Times 0, dt, ..., T; requires T to be an integer multiple of dt."""
    if not (T > 0 and dt > 0):
        raise ValueError(f"need T > 0 and dt > 0, got T={T}, dt={dt}")
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > _GRID_RTOL * max(1.0, T):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    return dt * np.arange(steps + 1)


@dataclass
class ObservationRecord:
    """Everything the filter is allowed to see: the grid, the increments of
    the h-shifted observation Brownian part, and the raw jump events."""

    times: np.ndarray               # (K+1,)
    bbar_increments: np.ndarray     # (K, d)
    small_times: np.ndarray         # (Ms,)
    small_marks: np.ndarray         # (Ms, k3)
    large_times: np.ndarray         # (Ml,)
    large_marks: np.ndarray         # (Ml, k3')

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def small_step_index(self) -> np.ndarray:
        """Step k owning each small-region event (events in (t_k, t_{k+1}])."""
        return _bin_events(self.small_times, self.times)


@dataclass
class JointPath:
    """A simulated trajectory of (X, Z, Y) on the coarse grid.

    States are cadlag evaluated at grid times.  ``events`` holds every jump
    event of the path as sampled (the observation ones with their acceptance),
    from which the jump part of each step can be recomputed.
    """

    times: np.ndarray               # (K+1,)
    X: np.ndarray                   # (K+1, n)
    Z: np.ndarray                   # (K+1, m); m = 0 for reduced-model paths
    Y: np.ndarray                   # (K+1, d); d = 0 for signal-only paths
    bbar_increments: np.ndarray     # (K, d)
    events: dict
    epsilon: float | None

    def observations(self) -> ObservationRecord:
        small, large = self.events["obs_small"], self.events["obs_large"]
        return ObservationRecord(
            times=self.times,
            bbar_increments=self.bbar_increments,
            small_times=small.times[small.accepted],
            small_marks=small.marks[small.accepted],
            large_times=large.times[large.accepted],
            large_marks=large.marks[large.accepted],
        )

    def to_csv(self, fh) -> None:
        """Write `t,x_*,z_*,y_*` rows with 17 significant digits."""
        if isinstance(fh, (str, os.PathLike)):
            with open(fh, "w") as handle:
                return self.to_csv(handle)
        n, m, d = self.X.shape[1], self.Z.shape[1], self.Y.shape[1]
        header = ["t"]
        header += [f"x_{i}" for i in range(n)]
        header += [f"z_{j}" for j in range(m)]
        header += [f"y_{j}" for j in range(d)]
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(self.times):
            row = [t, *self.X[k], *self.Z[k], *self.Y[k]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _bin_events(event_times, times: np.ndarray) -> np.ndarray:
    """Index k of the step (t_k, t_{k+1}] of the grid ``times`` owning each
    event time; a time past the last node (the grid may end an ulp short of
    its horizon) belongs to the last step."""
    return np.minimum(np.searchsorted(times[1:], event_times, side="left"), len(times) - 2)


def _stack_events(stacks) -> tuple:
    """The events (steps, times, *payload) of R rows, row r's in ``stacks[r]``,
    as one stack (steps, rows, times, *payload) in row order."""
    rows = np.repeat(np.arange(len(stacks)), [len(s[0]) for s in stacks])
    steps, *columns = (np.concatenate(c) for c in zip(*stacks))
    return steps, rows, *columns


def _events_by_step(steps, rows, times, *payload) -> dict:
    """A stack of events (rows, times, *payload) by their ``steps``:
    {k: (rows, times, *payload)} in stack order within each step, so every
    row's events keep their order; steps without events are absent."""
    order = np.argsort(steps, kind="stable")
    steps, stack = steps[order], [a[order] for a in (rows, times, *payload)]
    cuts = (np.flatnonzero(np.diff(steps)) + 1).tolist()
    return {int(steps[a]): tuple(s[a:b] for s in stack)
            for a, b in zip([0, *cuts], [*cuts, len(steps)]) if b > a}


def _step_events(stream: RngStream, spec, dt: float, count: int, rate_scale: float = 1.0):
    """(steps, times, marks) of ``spec``'s events on the steps 0, ..., count - 1
    of size ``dt``, from ``stream``; a measure without mass builds no generator."""
    gen = stream.generator() if spec.total_intensity > 0 else None
    return poisson_steps(gen, spec, dt, 0, count, rate_scale)[1:]


def _check_finite(arrays, t: float):
    """Raise unless every entry is finite: min and max do no arithmetic and keep
    a NaN, so both finite prove it (``filtering.estimate``'s rule)."""
    for arr in arrays:
        if not (math.isfinite(np.minimum.reduce(arr, None))
                and math.isfinite(np.maximum.reduce(arr, None))):
            raise IntegrationFailureError(f"state became non-finite at t={t:.6g}", time=t)


class Arena:
    """Work arrays kept for reuse: ``take(i, shape)`` views slot i (grown on demand)
    as ``shape``; a fresh arena allocates, as a ufunc without ``out`` does.  A slot
    holds one thing at a time: 0 a step's slow noise, then a filter's sensor
    values; 1 and 2 the slow or reduced coefficients, then the weight kernel's
    products and ``estimate``'s (1); 3 the route-scaled fast noise; 4 and 5 the
    coefficients of an Euler substep."""

    def __init__(self):
        self.slots, self.views = {}, {}

    def take(self, i: int, shape: tuple) -> np.ndarray:
        view = self.views.get((i, shape))
        if view is None:
            size = math.prod(shape)
            if self.slots.get(i, np.empty(0)).size < size:
                self.slots[i] = np.empty(size)
                self.views = {key: v for key, v in self.views.items() if key[0] != i}
            view = self.views[i, shape] = self.slots[i][:size].reshape(shape)
        return view


def require_jump_free(*measures) -> None:
    """The rule of filter particles and law ensembles until they take jumps: no measure has mass."""
    if any(nu.total_intensity > 0 for nu in measures):
        raise ValueError("ensemble propagation supports jump-free signal dynamics only")


def euler_step(x, drift, diffusion, dV, dt: float, out=None, work=None):
    """Euler-Maruyama update x + drift dt + diffusion dV, batched over leading axes.

    ``diffusion`` has shape (..., n, l) and ``dV`` shape (..., l).  The slow
    step of the full model, the step of the reduced model and the fast
    substep all take it, so the slow and reduced steps agree operation for
    operation when their coefficients do.  One noise column takes a plain
    product, which is the einsum's one-term sum.  The sum goes to ``out`` (may
    be x), the products to ``work`` (may be drift); None allocates."""
    work = np.multiply(drift, dt, out=work)
    out = np.add(x, work, out=out)
    if dV.shape[-1] == 1:
        np.multiply(diffusion[..., 0], dV, out=work)
    else:
        np.einsum("...nl,...l->...n", diffusion, dV, out=work)
    out += work
    return out


def _constant(fn, *args):
    """``fn`` evaluated at ``args`` when it reads no variable (empty ``.variables``), else None."""
    return fn(*args) if getattr(fn, "variables", None) == frozenset() else None


def fast_scalars(model: SlowFastModel, s: float) -> tuple:
    """(scale, decay) of a fast step over fast-time span s: its increment is a
    standard normal times ``scale``, step_std(s) on exact OU and sqrt(s) on
    Euler; ``decay`` is exact OU's decay(s), None on Euler."""
    ou = model.ou_fast
    return (math.sqrt(s), None) if ou is None else (ou.step_std(s), ou.decay(s))


def fast_step(model: SlowFastModel, x, z, dW, s, decay=None, kicks=None, out=None, scratch=None,
              sigma2=None):
    """The one fast transition: z over fast-time span ``s`` (dt/epsilon on the
    slow clock), slow state frozen at x, batched over leading axes, given the
    route-scaled increment ``dW`` and ``decay`` of ``fast_scalars``.

    A model with ``ou_fast`` takes the exact transition decay z + dW; any other
    one Euler substep with compensated jumps: the nu2 compensator is one
    quadrature over the whole stack, and ``kicks`` is None or a stack (rows,
    times, marks): row ``rows[i]`` jumps by f2 at mark ``marks[i]``, added in
    event order.  Every term reads the left state, so ``out`` may be z (None
    allocates); Euler coefficients go to ``scratch`` slots; ``sigma2`` is a
    ``_constant`` diffusion."""
    if model.ou_fast is not None:
        z_new = np.multiply(z, decay, out=out)
        z_new += dW
        return z_new
    scratch = scratch or Arena()
    drift = model.b2(x, z, out=scratch.take(4, z.shape))
    diffusion = sigma2 if sigma2 is not None else model.sigma2(
        x, z, out=scratch.take(5, z.shape + (model.l2,)))
    comp = (s * model.nu2.integrate(lambda u: model.f2(x[..., None, :], z[..., None, :], u))
            if model.nu2.total_intensity > 0 else None)
    jumps = None if kicks is None else model.f2(x[kicks[0]], z[kicks[0]], kicks[2])
    z_new = euler_step(z, drift, diffusion, dW, s, out=out, work=drift)
    if comp is not None:
        z_new -= comp
    if jumps is not None:
        np.add.at(z_new, kicks[0], jumps)
    return z_new


def _path_draws(dynamics: FullDynamics, obs: ObservationModel, K: int, stream: RngStream) -> dict:
    """Every random input of one path, each noise from its own child stream of
    ``stream`` keyed by ``NoiseSource``, the signal's as K steps of ``dynamics.blocks(1)``,
    the events as (steps, times, marks): fast ones on the K substeps fine steps."""
    model, dt = dynamics.model, dynamics.dt
    small = _step_events(stream.child(NoiseSource.OBS_JUMPS_SMALL), obs.nu3_small, dt, K)
    large = _step_events(stream.child(NoiseSource.OBS_JUMPS_LARGE), obs.nu3_large, dt, K)
    thin_gen = stream.child(NoiseSource.THINNING).generator()
    return {
        "signal": [stream.child(source).generator().standard_normal((K,) + shape)
                   for source, shape in zip(_SIGNAL_SOURCES, dynamics.blocks(1))],
        "dB": brownian_increments(stream.child(NoiseSource.OBS_BROWNIAN), obs.d, dt, K),
        "slow": _step_events(stream.child(NoiseSource.SLOW_JUMPS), model.nu1, dt, K),
        "fast": _step_events(stream.child(NoiseSource.FAST_JUMPS), model.nu2,
                             dynamics.dt_fast or dt, K * dynamics.substeps, 1.0 / model.epsilon),
        "obs_small": small, "obs_large": large,
        # acceptance uniforms, one per base event, drawn small region first
        "u_obs_small": thin_gen.uniform(size=len(small[0])),
        "u_obs_large": thin_gen.uniform(size=len(large[0])),
    }


def simulate_full(
    model: SlowFastModel,
    obs: ObservationModel,
    T: float,
    dt: float,
    stream: RngStream | list[RngStream],
) -> JointPath | list[JointPath]:
    """Trajectories of the coupled system (slow, fast, observation) on ``make_grid(T, dt)``.

    ``stream`` is one stream, giving one ``JointPath``, or a list of R streams,
    giving R paths advanced together by one time loop over (R, .) arrays.
    Each driving noise of path r uses its own child stream of ``stream[r]``
    keyed by ``NoiseSource``, so refining one source never perturbs another,
    and path r is bitwise the single-stream call on ``stream[r]``: one stream
    runs as a stack of one, the signal advances by ``FullDynamics.step`` with
    the step's kicks, whose terms act on each row alone, and each step thins
    the observation events of every path by one call per region, small then
    large, at the left-limit states.  Every event is drawn on its step by
    ``poisson_steps``: slow and observation events on the K coarse steps, fast
    events on the K substeps fine steps of size dt_fast at rate 1/epsilon.
    """
    single = isinstance(stream, RngStream)
    streams = [stream] if single else list(stream)
    if not streams:
        raise ValueError("need at least one stream")
    times = make_grid(T, dt)
    K, R = len(times) - 1, len(streams)
    dynamics = FullDynamics(model, dt)
    n, m, d = model.n, model.m, obs.d

    draws = [_path_draws(dynamics, obs, K, s) for s in streams]
    signal = [np.concatenate(blocks, axis=-2) for blocks in zip(*(p["signal"] for p in draws))]
    dB = np.stack([p["dB"] for p in draws], axis=1)
    slow_at, fast_at = (_events_by_step(*_stack_events([p[key] for p in draws]))
                        for key in ("slow", "fast"))
    substeps = dynamics.substeps
    # per region, small then large: (key, jump shape, acceptance of the stacked
    # events, the events by step with their uniforms and stack positions)
    regions = []
    for key, shape in (("obs_small", obs.f3), ("obs_large", obs.g3)):
        steps, rows, ev_t, ev_u, uniforms = _stack_events([(*p[key], p["u_" + key]) for p in draws])
        at = _events_by_step(steps, rows, ev_t, ev_u, uniforms, np.arange(len(ev_t)))
        regions.append((key, shape, np.zeros(len(ev_t), dtype=bool), at))

    # path-major, so each path's arrays are contiguous, laid out as a single path's
    X = np.empty((R, K + 1, n)); X[:, 0] = model.x0
    Z = np.empty((R, K + 1, m)); Z[:, 0] = model.z0
    Y = np.zeros((R, K + 1, d))
    bbar = np.empty((R, K, d))

    for k in range(K):
        t, x, z, y = times[k], X[:, k], Z[:, k], Y[:, k]
        fast_kicks = [fast_at.get(k * substeps + j) for j in range(substeps)] if fast_at else None
        dynamics.step(x, z, [block[k] for block in signal], (slow_at.get(k), fast_kicks),
                      (X[:, k + 1], Z[:, k + 1]))

        # observation: continuous part plus thinned jumps, left-limit state
        bbar[:, k] = dB[k] + obs.h(x, z) * dt
        y_new = np.add(y, bbar[:, k], out=Y[:, k + 1])
        for _, shape, accepted, at in regions:
            if k in at:
                rows, ev_t, ev_u, uniforms, where = at[k]
                acc = uniforms < check_thinning(obs.thinning(ev_t, x[rows]))
                accepted[where] = acc
                np.add.at(y_new, rows[acc], shape(ev_t[acc], ev_u[acc]))
        if obs.nu3_small.total_intensity > 0:
            lam = np.asarray(obs.thinning(t, x))[..., None, None]   # over the nodes and d
            y_new -= dt * obs.nu3_small.integrate(lambda u: obs.f3(t, u) * lam)
        _check_finite((X[:, k + 1], Z[:, k + 1], y_new), times[k + 1])

    for p in draws:
        for key in ("slow", "fast"):
            p[key] = JumpRecord(*p[key][1:], np.ones(len(p[key][1]), dtype=bool))
    for key, _, accepted, _ in regions:
        cuts = np.cumsum([len(p[key][1]) for p in draws])[:-1]
        for p, acc in zip(draws, np.split(accepted, cuts)):
            p[key] = JumpRecord(*p[key][1:], acc)
    paths = [
        JointPath(
            times=times, X=X[r], Z=Z[r], Y=Y[r], bbar_increments=bbar[r],
            events={key: p[key] for key in ("slow", "fast", "obs_small", "obs_large")},
            epsilon=model.epsilon,
        )
        for r, p in enumerate(draws)
    ]
    return paths[0] if single else paths


def simulate_frozen_fast(
    model: SlowFastModel,
    x: np.ndarray,
    z_init: np.ndarray,
    steps,
    dt: float,
    stream: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Replica chains of the fast component at its own timescale, slow state frozen at x.

    Each step is one ``fast_step`` of span dt.  Every frozen state runs as
    ``FROZEN_REPLICAS`` independent chains from ``z_init``, stacked as extra
    rows of one ensemble; replica c draws from ``stream.child(c)``.  ``steps``
    lists the step indices (strictly increasing, from 1) whose states are
    kept, and every chain runs to the last of them.  Returns (times, Z): the
    kept times ``dt * steps`` and the kept states, Z of shape (C, S, m) for
    one state x (n,), or (G, C, S, m) for a stack (G, n) of states.  Node g of
    a stack draws from ``stream.child(g)`` and Z[g] is what a single-state
    call on that stream returns: every operation acts on each row alone.

    The chains are streamed: each row draws its standard normals from its own
    generator in chunks of at most ``_FROZEN_CHUNK_BYTES`` for all rows
    together (successive draws equal one large draw, so the chunk size never
    changes a bit), scaled in one pass, and only the kept states are stored.
    Each row draws its fast jump events from its own generator by
    ``poisson_steps``, ``_FROZEN_EVENT_WINDOW`` steps at a time (unlike the
    chunk size, the window size fixes the draws).  Memory is O(rows x S x m)
    plus the chunk and one window's events, whatever the chain length.
    """
    keep = [int(k) for k in np.asarray(steps).reshape(-1)]
    if not keep or keep[0] < 1 or any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError("steps must be strictly increasing step indices >= 1")
    _check_step(dt)
    K = keep[-1]
    x = np.asarray(x, dtype=float)
    stack = x.ndim == 2
    x = x.reshape(len(x) if stack else 1, model.n)
    C = FROZEN_REPLICAS
    node_streams = [stream.child(g) for g in range(len(x))] if stack else [stream]
    row_streams = [s.child(c) for s in node_streams for c in range(C)]
    rows = np.repeat(x, C, axis=0)     # row g C + c is replica c of node g
    R, m, l2 = len(rows), model.m, model.l2
    gens = [s.child(NoiseSource.FAST_BROWNIAN).generator() for s in row_streams]
    jump_gens = ([s.child(NoiseSource.FAST_JUMPS).generator() for s in row_streams]
                 if model.nu2.total_intensity > 0 else [])
    kicks = {}

    Z = np.empty((R, len(keep), m))
    z = np.empty((R, m))
    z[:] = np.asarray(z_init, dtype=float).reshape(m)
    chunk = max(1, _FROZEN_CHUNK_BYTES // (8 * R * l2))
    (scale, decay), sigma2 = fast_scalars(model, dt), _constant(model.sigma2, model.x0, model.z0)
    scratch = Arena()
    i = 0
    for k0 in range(0, K, chunk):
        width = min(chunk, K - k0)
        dW = np.empty((width, R, l2))
        for r, gen in enumerate(gens):
            dW[:, r] = gen.standard_normal(size=(width, l2))
        dW *= scale
        for k in range(k0, k0 + width):
            if jump_gens and k % _FROZEN_EVENT_WINDOW == 0:
                window = min(_FROZEN_EVENT_WINDOW, K - k)
                kicks = _events_by_step(*_stack_events(
                    [poisson_steps(g, model.nu2, dt, k, window)[1:] for g in jump_gens]))
            fast_step(model, rows, z, dW[k - k0], dt, decay, kicks.get(k), z, scratch, sigma2)
            _check_finite((z,), dt * (k + 1))
            if k + 1 == keep[i]:
                Z[:, i] = z
                i += 1
    Z = Z.reshape((len(x), C) + Z.shape[1:])
    return dt * np.asarray(keep, dtype=float), (Z if stack else Z[0])


def simulate_reference_observations(
    obs: ObservationModel, T: float, dt: float, stream: RngStream
) -> ObservationRecord:
    """Observation data under the reference law: the h-shifted Brownian part is
    a plain Brownian motion and jump events arrive unthinned at the base rates.
    """
    times = make_grid(T, dt)
    K = len(times) - 1
    bbar = brownian_increments(stream.child(NoiseSource.OBS_BROWNIAN), obs.d, dt, K)
    _, small_times, small_marks = _step_events(stream.child(NoiseSource.OBS_JUMPS_SMALL),
                                               obs.nu3_small, dt, K)
    _, large_times, large_marks = _step_events(stream.child(NoiseSource.OBS_JUMPS_LARGE),
                                               obs.nu3_large, dt, K)
    return ObservationRecord(times, bbar, small_times, small_marks, large_times, large_marks)


# ---------------------------------------------------------------------------
# the dynamics: the one step of paths, filter particles and law ensembles

@dataclass
class FullDynamics:
    """The one coarse step, of size ``dt`` (> 0), of the slow/fast signal for
    paths, filter particles and law ensembles, in ``scratch``.  It alone splits
    the step into ``substeps`` ``fast_step``s: on exact OU one over the whole
    step (``dt_fast`` None), on Euler the fewest of length ``dt_fast`` no longer
    than epsilon/10 (the fast timescale).  The step's scalars and the fields
    that read no variable (``_constant``) are resolved once, here."""

    model: SlowFastModel
    dt: float
    scratch: Arena = field(default_factory=Arena, repr=False, compare=False)

    def __post_init__(self):
        model, dt = self.model, self.dt
        _check_step(dt)
        if model.ou_fast is not None:
            self.substeps, self.dt_fast = 1, None
        else:
            self.substeps = max(1, math.ceil(dt / (model.epsilon / 10.0)))
            self.dt_fast = dt / self.substeps
        s = (self.dt_fast or dt) / model.epsilon     # the fast span of one substep
        self._scalars = (math.sqrt(dt), s, *fast_scalars(model, s))
        self._sigma1 = _constant(model.sigma1, model.x0, model.z0)
        self._sigma2 = _constant(model.sigma2, model.x0, model.z0)
        self._nu1 = model.nu1.total_intensity > 0

    def blocks(self, count: int) -> tuple:
        """Standard normal blocks a step of ``count`` states reads: slow (count,
        l1), then fast (substeps, count, l2)."""
        m = self.model
        return (count, m.l1), (self.substeps, count, m.l2)

    @property
    def noise_width(self) -> int:
        """Standard normals per state and step."""
        return sum(math.prod(shape) for shape in self.blocks(1))

    def step(self, x, z, noise, kicks=(None, None), out=None):
        """The next (x, z) from the standard normal ``blocks`` in ``noise``, behind
        any row axes, written into ``out`` (default (x, z)), which it returns.

        The slow Euler step, its jumps and its nu1 compensator, and every fast
        substep read the slow state at the start of the step.  ``kicks`` is
        (slow, fast): slow None or the stack (rows, times, marks) of the step's
        slow jumps, fast None or one such stack per substep (see
        ``fast_step``).  A term (coefficients into ``scratch``) is evaluated
        before the state it reads is written, so the fast substeps go after the
        slow coefficients and before the slow update.
        """
        model, scratch, dt = self.model, self.scratch, self.dt
        (slow, fast), (slow_kicks, fast_kicks) = noise, kicks
        x_new, z_new = (x, z) if out is None else out
        sqdt, s, scale, decay = self._scalars
        fast = np.multiply(fast, scale, out=scratch.take(3, fast.shape))   # route-scaled
        dV = np.multiply(slow, sqdt, out=scratch.take(0, slow.shape))
        drift = model.b1(x, z, out=scratch.take(1, x.shape))
        diffusion = self._sigma1 if self._sigma1 is not None else model.sigma1(
            x, z, out=scratch.take(2, x.shape + (model.l1,)))
        jumps = None if slow_kicks is None else model.f1(x[slow_kicks[0]], slow_kicks[2])
        comp = (dt * model.nu1.integrate(lambda u: model.f1(x[..., None, :], u))
                if self._nu1 else None)
        for j in range(self.substeps):
            kick = None if fast_kicks is None else fast_kicks[j]
            z = z_new = fast_step(model, x, z, fast[..., j, :, :], s, decay, kick, z_new, scratch,
                                  self._sigma2)
        x_new = euler_step(x, drift, diffusion, dV, dt, out=x_new, work=drift)
        if jumps is not None:
            np.add.at(x_new, slow_kicks[0], jumps)
        if comp is not None:
            x_new -= comp
        return x_new, z_new


@dataclass
class HomogDynamics:
    """One step, of size ``dt`` (> 0), of the reduced slow model for a state ensemble."""

    hmodel: object
    dt: float
    scratch: Arena = field(default_factory=Arena, repr=False, compare=False)

    def __post_init__(self):
        h = self.hmodel
        _check_step(self.dt)
        require_jump_free(h.nu1)
        self._sqdt = math.sqrt(self.dt)
        self._bbar1, self._sigmabar1 = (_constant(f, h.x0) for f in (h.bbar1, h.sigmabar1))

    def blocks(self, count: int) -> tuple:
        return ((count, self.hmodel.l_factor),)

    def step(self, x, z, noise):
        """The next x from the block in ``noise``, written into x; returns (x, z)."""
        h, scratch, dt = self.hmodel, self.scratch, self.dt
        dV = np.multiply(noise[0], self._sqdt, out=scratch.take(0, noise[0].shape))
        drift = self._bbar1 if self._bbar1 is not None else h.bbar1(x)
        diffusion = self._sigmabar1 if self._sigmabar1 is not None else h.sigmabar1(x)
        return euler_step(x, drift, diffusion, dV, dt, out=x, work=scratch.take(1, x.shape)), z


def _signal_law(model: SlowFastModel, dt: float, stream: RngStream) -> tuple:
    require_jump_free(model.nu1, model.nu2)
    return FullDynamics(model, dt), model.x0, model.z0, list(map(stream.child, _SIGNAL_SOURCES))


def _homogenized_law(hmodel, dt: float, stream: RngStream) -> tuple:
    return HomogDynamics(hmodel, dt), hmodel.x0, None, [stream.child(NoiseSource.HOMOG_BROWNIAN)]


def _law_steps(laws: list, T: float, dt: float, n_paths: int):
    """Weightless ensembles of ``n_paths`` states per law (dynamics of step ``dt``,
    x0, z0, block streams) in lockstep, in one ``Arena``: yields (t, [(X, Z), ...]) at every
    grid time, copies at the start, then the ensembles' own arrays, which the
    next step overwrites.  A step reads block s of a law from ``streams[s]`` through
    one ``keyed_normals`` cache and steps without kicks; each is bitwise its own run."""
    times, P, scratch = make_grid(T, dt), int(n_paths), Arena()
    states = [(np.tile(x0, (P, 1)), None if z0 is None else np.tile(z0, (P, 1)))
              for _, x0, z0, _ in laws]
    yield times[0], [tuple(None if a is None else a.copy() for a in state) for state in states]
    gens = [[[None] for _ in streams] for *_, streams in laws]
    for dynamics, *_ in laws:
        dynamics.scratch = scratch
    for t in times[1:]:
        cache = {}
        for i, ((dynamics, _, _, streams), law_gens) in enumerate(zip(laws, gens)):
            noise = [keyed_normals([s], (((s.root_seed, s.stream_id),), shape), g, cache)[0]
                     for s, shape, g in zip(streams, dynamics.blocks(P), law_gens)]
            states[i] = dynamics.step(*states[i], noise)
            _check_finite([a for a in states[i] if a is not None], t)
        yield t, list(states)


def simulate_signal_ensemble(
    model: SlowFastModel, T: float, dt: float, n_paths: int, stream: RngStream
):
    """Many independent signal paths advanced together (no observation):
    (times, X, Z), the terminal states X (P, n) and Z (P, m).

    Requires a jump-free slow/fast pair; the noise blocks come from
    ``stream``'s SLOW_BROWNIAN and FAST_BROWNIAN children.
    """
    for _, ((X, Z),) in _law_steps([_signal_law(model, dt, stream)], T, dt, n_paths):
        pass
    return make_grid(T, dt), X, Z


def simulate_homogenized_ensemble(hmodel, T: float, dt: float, n_paths: int, stream: RngStream):
    """Many independent reduced-model paths advanced together (jump-free):
    (times, X), the terminal states X (P, n)."""
    for _, ((X, _),) in _law_steps([_homogenized_law(hmodel, dt, stream)], T, dt, n_paths):
        pass
    return make_grid(T, dt), X
