"""Path simulation for the two-timescale signal and its observation.

The slow component is advanced by an Euler step on the coarse grid; the fast
component is advanced inside each coarse step either by Euler substeps at its
own (accelerated) scale or, for models that declare an OU fast part, by exact
Gaussian transitions.  Observation jumps are thinned against the
state-dependent acceptance law using the left-limit state, and every
compensated jump term subtracts its quadrature compensator so that simulated
martingale parts stay centered.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailureError, StiffnessError
from .models import ObservationModel, OuFast, SlowFastModel, check_thinning
from .noise import JumpEvent, NoiseSource, RngStream, brownian_increments, sample_poisson_jumps

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class StepScheme:
    """Coarse step for the slow component plus the fast-substep policy."""

    dt_slow: float
    dt_fast: float | None = None     # defaults to dt_slow (one substep)
    fast_mode: str = "euler"         # "euler" | "exact_ou"

    def __post_init__(self):
        if not self.dt_slow > 0:
            raise ValueError(f"dt_slow must be > 0, got {self.dt_slow}")
        if self.fast_mode not in ("euler", "exact_ou"):
            raise ValueError(f"fast_mode must be 'euler' or 'exact_ou', got {self.fast_mode!r}")
        if self.dt_fast is not None:
            ratio = self.dt_slow / self.dt_fast
            if not self.dt_fast > 0 or abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    f"dt_fast must divide dt_slow, got dt_fast={self.dt_fast}, dt_slow={self.dt_slow}"
                )

    @property
    def substeps(self) -> int:
        if self.dt_fast is None:
            return 1
        return int(round(self.dt_slow / self.dt_fast))


def euler_scheme(model: SlowFastModel, dt_slow: float) -> StepScheme:
    """Euler substeps: the fewest equal ones that fill dt_slow and are no longer than epsilon/10."""
    substeps = max(1, math.ceil(dt_slow / (model.epsilon / 10.0)))
    return StepScheme(dt_slow=dt_slow, dt_fast=dt_slow / substeps, fast_mode="euler")


def default_scheme(model: SlowFastModel, dt_slow: float) -> StepScheme:
    """Exact OU transitions when declared, else Euler substeps at epsilon/10."""
    if model.ou_fast is not None:
        return StepScheme(dt_slow=dt_slow, fast_mode="exact_ou")
    return euler_scheme(model, dt_slow)


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
    Y: np.ndarray | None = None     # (K+1, d) raw observation path, when available

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def small_step_index(self) -> np.ndarray:
        """Step k owning each small-region event (events in (t_k, t_{k+1}])."""
        return np.searchsorted(self.times[1:], self.small_times, side="left")


@dataclass
class JointPath:
    """A simulated trajectory of (X, Z, Y) on the coarse grid.

    States are cadlag evaluated at grid times; the raw jump contributions per
    step are kept so tests can separate continuous and jump parts.
    """

    times: np.ndarray               # (K+1,)
    X: np.ndarray                   # (K+1, n)
    Z: np.ndarray                   # (K+1, m); m = 0 for reduced-model paths
    Y: np.ndarray                   # (K+1, d); d = 0 for signal-only paths
    bbar_increments: np.ndarray     # (K, d)
    x_jump_totals: np.ndarray       # (K, n)
    y_jump_totals: np.ndarray       # (K, d)
    events: dict
    epsilon: float | None

    def observations(self) -> ObservationRecord:
        small = [e for e in self.events.get("obs_small", []) if e.accepted]
        large = [e for e in self.events.get("obs_large", []) if e.accepted]
        k3s = small[0].mark.shape[0] if small else 1
        k3l = large[0].mark.shape[0] if large else 1
        return ObservationRecord(
            times=self.times,
            bbar_increments=self.bbar_increments,
            small_times=np.asarray([e.time for e in small], dtype=float),
            small_marks=(np.stack([e.mark for e in small]) if small else np.zeros((0, k3s))),
            large_times=np.asarray([e.time for e in large], dtype=float),
            large_marks=(np.stack([e.mark for e in large]) if large else np.zeros((0, k3l))),
            Y=self.Y if self.Y.shape[1] else None,
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


def _bin_events(events: list, times: np.ndarray) -> np.ndarray:
    """Index of the step (t_k, t_{k+1}] owning each event."""
    if not events:
        return np.zeros(0, dtype=int)
    ts = np.asarray([e.time for e in events])
    return np.searchsorted(times[1:], ts, side="left")


def _check_finite(arrays, t: float):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise IntegrationFailureError(f"state became non-finite at t={t:.6g}", time=t)


def _fast_scheme_params(model: SlowFastModel, scheme: StepScheme):
    """Resolve the fast-substep policy against the model's epsilon."""
    if scheme.fast_mode == "exact_ou":
        if model.ou_fast is None:
            raise ValueError("scheme requests exact OU transitions but the model declares none")
        return None
    dt_fast = scheme.dt_fast if scheme.dt_fast is not None else scheme.dt_slow
    if dt_fast > model.epsilon / 10.0 * (1.0 + 1e-12):
        raise StiffnessError(
            f"dt_fast={dt_fast:.6g} exceeds epsilon/10={model.epsilon / 10.0:.6g}; "
            "refine dt_fast or use exact OU transitions"
        )
    return dt_fast


def euler_step(x, drift, diffusion, dV, dt: float):
    """Euler-Maruyama update x + drift dt + diffusion dV, batched over leading axes.

    ``diffusion`` has shape (..., n, l) and ``dV`` shape (..., l).  The slow
    step of the full model, the step of the reduced model and the fast
    substep all take it, so the slow and reduced steps agree operation for
    operation when their coefficients do.
    """
    if np.ndim(diffusion) == 2:   # one path: matmul is the fastest form; batches: einsum
        return x + drift * dt + diffusion @ dV
    return x + drift * dt + np.einsum("...nl,...l->...n", diffusion, dV)


def fast_euler_substep(model: SlowFastModel, x, z, dW, ds: float):
    """One jump-free Euler substep of the fast component, slow state frozen at x.

    ``ds`` is the substep in fast time (dt/epsilon on the slow clock) and
    ``dW`` the fast-time Brownian increment, of variance ds.
    """
    return euler_step(z, model.b2(x, z), model.sigma2(x, z), dW, ds)


def ou_transition(ou: OuFast, s: float) -> tuple[float, float]:
    """Exact OU transition over fast time s as (decay, scale): z -> decay z + scale xi,
    with xi standard normal."""
    return ou.decay(s), ou.step_std(s)


def signal_step(model: SlowFastModel, dt_fast: float | None, x, z, dV, fast_noise, dt: float):
    """One coarse step of the jump-free slow/fast pair, batched over leading axes.

    The slow Euler step and every fast substep read the slow state at the
    start of the step.  ``fast_noise`` holds (..., 1) standard normals for the
    exact OU transition (``dt_fast`` None) or the (..., substeps, l2)
    fast-time Brownian increments of the Euler substeps, of variance
    dt_fast/epsilon.  Returns (x_new, z_new).
    """
    x_new = euler_step(x, model.b1(x, z), model.sigma1(x, z), dV, dt)
    if dt_fast is None:
        decay, scale = ou_transition(model.ou_fast, dt / model.epsilon)
        return x_new, decay * z + scale * fast_noise
    for j in range(fast_noise.shape[-2]):
        z = fast_euler_substep(model, x, z, fast_noise[..., j, :], dt_fast / model.epsilon)
    return x_new, z


def simulate_full(
    model: SlowFastModel,
    obs: ObservationModel,
    T: float,
    scheme: StepScheme,
    stream: RngStream,
) -> JointPath:
    """One trajectory of the coupled system (slow, fast, observation).

    Each driving noise uses its own child stream of ``stream`` keyed by
    ``NoiseSource``, so refining one source never perturbs another.
    """
    times = make_grid(T, scheme.dt_slow)
    K = len(times) - 1
    dt = scheme.dt_slow
    eps = model.epsilon
    dt_fast = _fast_scheme_params(model, scheme)
    n, m, d = model.n, model.m, obs.d

    dV = brownian_increments(stream.child(NoiseSource.SLOW_BROWNIAN), model.l1, dt, K)
    dB = brownian_increments(stream.child(NoiseSource.OBS_BROWNIAN), d, dt, K)
    if dt_fast is None:
        decay, scale = ou_transition(model.ou_fast, dt / eps)
        xi = stream.child(NoiseSource.FAST_BROWNIAN).generator().normal(size=(K, 1))
    else:
        substeps = int(round(dt / dt_fast))
        ds = dt_fast / eps
        dW = brownian_increments(
            stream.child(NoiseSource.FAST_BROWNIAN), model.l2, ds, K * substeps
        )

    slow_events = (
        sample_poisson_jumps(stream.child(NoiseSource.SLOW_JUMPS), model.nu1, T)
        if model.nu1.total_intensity > 0 else []
    )
    fast_events = (
        sample_poisson_jumps(stream.child(NoiseSource.FAST_JUMPS), model.nu2, T, rate_scale=1.0 / eps)
        if model.nu2.total_intensity > 0 else []
    )
    small_base = (
        sample_poisson_jumps(stream.child(NoiseSource.OBS_JUMPS_SMALL), obs.nu3_small, T)
        if obs.nu3_small.total_intensity > 0 else []
    )
    large_base = (
        sample_poisson_jumps(stream.child(NoiseSource.OBS_JUMPS_LARGE), obs.nu3_large, T)
        if obs.nu3_large.total_intensity > 0 else []
    )
    thin_gen = stream.child(NoiseSource.THINNING).generator()
    small_u = thin_gen.uniform(size=len(small_base))
    large_u = thin_gen.uniform(size=len(large_base))

    slow_step = _bin_events(slow_events, times)
    fast_step = _bin_events(fast_events, times)
    small_out: list[JumpEvent] = []
    large_out: list[JumpEvent] = []
    # (base events, acceptance uniforms, owning step, accepted record, jump shape)
    obs_jumps = (
        (small_base, small_u, _bin_events(small_base, times), small_out, obs.f3),
        (large_base, large_u, _bin_events(large_base, times), large_out, obs.g3),
    )

    X = np.empty((K + 1, n)); X[0] = model.x0
    Z = np.empty((K + 1, m)); Z[0] = model.z0
    Y = np.zeros((K + 1, d))
    bbar = np.empty((K, d))
    x_jumps = np.zeros((K, n))
    y_jumps = np.zeros((K, d))

    for k in range(K):
        t, x, z = times[k], X[k], Z[k]

        # slow component: Euler with compensated jumps, state frozen at t_k
        x_new = euler_step(x, model.b1(x, z), model.sigma1(x, z), dV[k], dt)
        for idx in np.nonzero(slow_step == k)[0]:
            jump = model.f1(x, slow_events[idx].mark[None, :])[0]
            x_new = x_new + jump
            x_jumps[k] += jump
        if model.f1 is not None and model.nu1.total_intensity > 0:
            x_new = x_new - dt * model.nu1.integrate(lambda u: model.f1(x, u))

        # observation: continuous part plus thinned jumps, left-limit state
        hv = obs.h(x, z)
        bbar[k] = dB[k] + hv * dt
        y_new = Y[k] + bbar[k]
        for base, uniforms, owner, out, shape in obs_jumps:
            for idx in np.nonzero(owner == k)[0]:
                ev = base[idx]
                lam = float(check_thinning(obs.thinning(ev.time, x, ev.mark)))
                accepted = bool(uniforms[idx] < lam)
                out.append(JumpEvent(ev.time, ev.mark, accepted))
                if accepted:
                    jump = shape(ev.time, ev.mark[None, :])[0]
                    y_new = y_new + jump
                    y_jumps[k] += jump
        if obs.nu3_small.total_intensity > 0:
            comp = obs.nu3_small.integrate(
                lambda u: obs.f3(t, u) * obs.thinning(t, x, u)[..., None]
            )
            y_new = y_new - dt * comp

        # fast component across the coarse step, slow state frozen at t_k
        if dt_fast is None:
            z_new = decay * z + scale * xi[k]
        else:
            z_new = z
            base = k * substeps
            in_step = np.nonzero(fast_step == k)[0]
            for j in range(substeps):
                sub_lo = t + j * dt_fast
                sub_hi = sub_lo + dt_fast
                z_sub = fast_euler_substep(model, x, z_new, dW[base + j], ds)
                if model.f2 is not None and model.nu2.total_intensity > 0:
                    z_sub = z_sub - ds * model.nu2.integrate(
                        lambda u: model.f2(x, z_new, u)
                    )
                for idx in in_step:
                    ev_t = fast_events[idx].time
                    if sub_lo < ev_t <= sub_hi:
                        z_sub = z_sub + model.f2(x, z_new, fast_events[idx].mark[None, :])[0]
                z_new = z_sub

        X[k + 1] = x_new
        Z[k + 1] = z_new
        Y[k + 1] = y_new
        _check_finite((x_new, z_new, y_new), times[k + 1])

    return JointPath(
        times=times, X=X, Z=Z, Y=Y, bbar_increments=bbar,
        x_jump_totals=x_jumps, y_jump_totals=y_jumps,
        events={
            "slow": slow_events, "fast": fast_events,
            "obs_small": small_out, "obs_large": large_out,
        },
        epsilon=eps,
    )


def simulate_frozen_fast(
    model: SlowFastModel,
    x: np.ndarray,
    z_init: np.ndarray,
    T: float,
    dt: float,
    stream: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Fast component at its own timescale with the slow state frozen at x.

    Plain Euler with compensated jumps; returns (times, Z) on the fine grid.
    ``x`` is one state (n,), giving Z of shape (K+1, m), or a stack (G, n) of
    states advanced together as one ensemble, giving Z of shape (G, K+1, m).
    Node g of a stack draws from ``stream.child(g)`` and its path Z[g] is the
    one a single-state call on that stream returns: one state runs as a stack
    of one, and every operation acts on each node's row alone.
    """
    times = make_grid(T, dt)
    K = len(times) - 1
    x = np.asarray(x, dtype=float)
    stack = x.ndim == 2
    x = x.reshape(len(x) if stack else 1, model.n)
    streams = [stream.child(g) for g in range(len(x))] if stack else [stream]
    dW = np.empty((K, len(x), model.l2))
    for g, s in enumerate(streams):
        dW[:, g] = brownian_increments(s.child(NoiseSource.FAST_BROWNIAN), model.l2, dt, K)
    has_jumps = model.f2 is not None and model.nu2.total_intensity > 0
    kicks: dict = {}   # step -> [(node, mark)] in node, then time order
    for g, s in enumerate(streams if has_jumps else []):
        events = sample_poisson_jumps(s.child(NoiseSource.FAST_JUMPS), model.nu2, T)
        for k, ev in zip(_bin_events(events, times), events):
            kicks.setdefault(k, []).append((g, ev.mark))
    # node-major, so every node's path Z[g] has the memory layout of a single
    # state's and later elementwise math on its samples takes the same numpy loops
    Z = np.empty((len(x), K + 1, model.m))
    Z[:, 0] = np.asarray(z_init, dtype=float).reshape(model.m)
    for k in range(K):
        z = Z[:, k]
        z_new = fast_euler_substep(model, x, z, dW[k], dt)
        if has_jumps:
            # per node, so each node's compensator is its single-state value bitwise
            for g in range(len(x)):
                z_new[g] -= dt * model.nu2.integrate(lambda u: model.f2(x[g], z[g], u))
            for g, mark in kicks.get(k, ()):
                z_new[g] += model.f2(x[g], z[g], mark[None, :])[0]
        Z[:, k + 1] = z_new
        _check_finite((z_new,), times[k + 1])
    return times, (Z if stack else Z[0])


def simulate_reference_observations(
    obs: ObservationModel, T: float, dt: float, stream: RngStream
) -> ObservationRecord:
    """Observation data under the reference law: the h-shifted Brownian part is
    a plain Brownian motion and jump events arrive unthinned at the base rates.
    """
    times = make_grid(T, dt)
    K = len(times) - 1
    bbar = brownian_increments(stream.child(NoiseSource.OBS_BROWNIAN), obs.d, dt, K)
    small = (
        sample_poisson_jumps(stream.child(NoiseSource.OBS_JUMPS_SMALL), obs.nu3_small, T)
        if obs.nu3_small.total_intensity > 0 else []
    )
    large = (
        sample_poisson_jumps(stream.child(NoiseSource.OBS_JUMPS_LARGE), obs.nu3_large, T)
        if obs.nu3_large.total_intensity > 0 else []
    )
    return ObservationRecord(
        times=times,
        bbar_increments=bbar,
        small_times=np.asarray([e.time for e in small], dtype=float),
        small_marks=(np.stack([e.mark for e in small]) if small else np.zeros((0, obs.nu3_small.mark_dim))),
        large_times=np.asarray([e.time for e in large], dtype=float),
        large_marks=(np.stack([e.mark for e in large]) if large else np.zeros((0, obs.nu3_large.mark_dim))),
        Y=None,
    )


# ---------------------------------------------------------------------------
# vectorized ensembles (law-level sampling for the studies)


def simulate_signal_ensemble(
    model: SlowFastModel,
    T: float,
    scheme: StepScheme,
    n_paths: int,
    stream: RngStream,
    keep_history: bool = False,
):
    """Many independent signal paths advanced together (no observation).

    Requires a jump-free slow/fast pair; draws are batch-indexed per step, so
    the ensemble is reproducible as a whole.
    Returns (times, X) with X of shape (K+1, P, n) when keep_history else
    (P, n) terminal states, plus the matching Z array.
    """
    if model.nu1.total_intensity > 0 or model.nu2.total_intensity > 0:
        raise ValueError("ensemble simulation supports jump-free signals only")
    times = make_grid(T, scheme.dt_slow)
    K = len(times) - 1
    dt = scheme.dt_slow
    dt_fast = _fast_scheme_params(model, scheme)
    P = int(n_paths)

    gen_v = stream.child(NoiseSource.SLOW_BROWNIAN).generator()
    gen_w = stream.child(NoiseSource.FAST_BROWNIAN).generator()
    X = np.broadcast_to(model.x0, (P, model.n)).copy()
    Z = np.broadcast_to(model.z0, (P, model.m)).copy()
    hist_x = np.empty((K + 1, P, model.n)) if keep_history else None
    hist_z = np.empty((K + 1, P, model.m)) if keep_history else None
    if keep_history:
        hist_x[0], hist_z[0] = X, Z

    substeps = scheme.substeps
    sqdt = math.sqrt(dt)
    for k in range(K):
        dV = gen_v.normal(0.0, sqdt, size=(P, model.l1))
        if dt_fast is None:
            fast_noise = gen_w.normal(size=(P, 1))
        else:
            dW = gen_w.normal(0.0, math.sqrt(dt_fast / model.epsilon), size=(substeps, P, model.l2))
            fast_noise = np.moveaxis(dW, 0, -2)
        X, Z = signal_step(model, dt_fast, X, Z, dV, fast_noise, dt)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Z))):
            raise IntegrationFailureError(
                f"ensemble state became non-finite at t={times[k + 1]:.6g}", time=times[k + 1]
            )
        if keep_history:
            hist_x[k + 1], hist_z[k + 1] = X, Z
    if keep_history:
        return times, hist_x, hist_z
    return times, X, Z


def simulate_homogenized_ensemble(
    hmodel, T: float, dt: float, n_paths: int, stream: RngStream, keep_history: bool = False
):
    """Many independent reduced-model paths advanced together (jump-free)."""
    if hmodel.nu1.total_intensity > 0:
        raise ValueError("ensemble simulation supports jump-free signals only")
    times = make_grid(T, dt)
    K = len(times) - 1
    P = int(n_paths)
    gen_v = stream.child(NoiseSource.HOMOG_BROWNIAN).generator()
    X = np.broadcast_to(hmodel.x0, (P, hmodel.n)).copy()
    hist = np.empty((K + 1, P, hmodel.n)) if keep_history else None
    if keep_history:
        hist[0] = X
    sqdt = math.sqrt(dt)
    for k in range(K):
        dV = gen_v.normal(0.0, sqdt, size=(P, hmodel.l_factor))
        X = euler_step(X, hmodel.bbar1(X), hmodel.sigmabar1(X), dV, dt)
        if not np.all(np.isfinite(X)):
            raise IntegrationFailureError(
                f"ensemble state became non-finite at t={times[k + 1]:.6g}", time=times[k + 1]
            )
        if keep_history:
            hist[k + 1] = X
    return (times, hist) if keep_history else (times, X)
