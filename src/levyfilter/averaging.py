"""Invariant-measure estimation and coefficient averaging for the fast scale.

The reduced slow model replaces (b1, sigma1 sigma1^T, h) by their averages
against the invariant law of the frozen-x fast component.  There are two
routes to those averages: the preset's closed-form values, or Monte Carlo on
a lattice of frozen slow states whose chains advance together as one
ensemble.  Each frozen state has ``FROZEN_REPLICAS`` independent replica
chains (``sde.simulate_frozen_fast``), each with its own burn-in, whose
recorded states are concatenated replica by replica (the micro-solver
ensemble of the heterogeneous multiscale method).  The chains step by the
model's one fast transition: exact OU when the model declares ``ou_fast``,
else Euler.  Standard errors come from batch means pooled over the
independent replicas on both routes (``_mean_se``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExtrapolationError
from .models import ModelPreset, ObservationModel, SlowFastModel
from .noise import LevyMeasureSpec, NoiseSource, RngStream
from .sde import FROZEN_REPLICAS, simulate_frozen_fast

MIN_SAMPLES = 1000
_BATCHES = 64


@dataclass
class EmpiricalMeasure:
    """Thinned samples of the frozen-x fast chains after burn-in.

    The S samples of one state are ``replicas`` chains concatenated replica by
    replica: replica c holds rows [c L, (c + 1) L) with L = ceil(S /
    replicas), the last one cut to fit.  A stack of G frozen states carries a
    leading node axis; ``node(g)`` is node g's own measure and ``warnings``
    lists every node's in node order.
    """

    samples: np.ndarray        # (S, m), or (G, S, m) for a stack
    frozen_x: np.ndarray       # (n,), or (G, n) for a stack
    burn_in: float
    stride: int
    dt: float
    mode: str                  # "exact_ou" | "euler"
    warnings: list = field(default_factory=list)
    replicas = FROZEN_REPLICAS   # independent chains behind each state's samples; not a field

    def __post_init__(self):
        if self.samples.shape[-2] < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples, got {self.samples.shape[-2]}"
            )

    def node(self, g: int) -> "EmpiricalMeasure":
        """Node g of a stack: the measure of that frozen state alone."""
        return replace(
            self, samples=self.samples[g], frozen_x=self.frozen_x[g],
            warnings=_stationarity_warnings(self.samples[g], self.replicas),
        )


def _stationarity_warnings(samples: np.ndarray, replicas: int) -> list[str]:
    """Flag drifting chains: the pooled first halves of every replica and their
    pooled second halves have means further apart than four combined
    batch-means standard errors.  Pooling per replica catches a transient that
    all replicas share, which halving the concatenation would miss.  A stack
    (G, S, m) gets each node's warnings in node order."""
    if samples.ndim == 3:
        return [w for node in samples for w in _stationarity_warnings(node, replicas)]
    length = -(-samples.shape[0] // replicas)
    chains = [samples[i: i + length] for i in range(0, samples.shape[0], length)]
    a = np.concatenate([c[: len(c) // 2] for c in chains])
    b = np.concatenate([c[len(c) // 2: 2 * (len(c) // 2)] for c in chains])
    gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
    se = np.sqrt(_batch_means_se(a) ** 2 + _batch_means_se(b) ** 2)
    worst = float(np.max(gap / np.maximum(se, 1e-300)))
    if worst > 4.0:
        return [
            f"half-chain means differ by {worst:.1f} combined standard errors; "
            "the chain may not have reached stationarity (increase burn_in)"
        ]
    return []


def estimate_invariant_measure(
    model: SlowFastModel,
    x,
    burn_in: float = 10.0,
    n_samples: int = 100_000,
    stride: int = 50,
    dt: float = 0.01,
    stream: RngStream | None = None,
) -> EmpiricalMeasure:
    """Sample the invariant law of the fast component with the slow state frozen at x.

    ``FROZEN_REPLICAS`` = C independent replicas run by the model's fast
    transition (``sde.simulate_frozen_fast``): a model that declares an OU fast
    part (``model.ou_fast``) steps by its exact Gaussian transition at the
    recording spacing stride dt, with no discretization bias
    (``mode='exact_ou'``); any other steps by Euler at dt, ``stride`` steps per
    record (``mode='euler'``).  Each replica burns in for the fewest steps of its
    span that cover ``burn_in`` (a ratio within 1e-9 of a whole number counts as
    that number), then records ceil(n_samples / C) states, and the
    samples are the replicas' records concatenated replica by replica, cut to
    exactly ``n_samples``.  Ergodicity of the frozen chain is an assumption; a
    stationarity diagnostic on the recorded samples appends a warning when the
    chains look like they are still drifting.

    ``x`` is one state (n,) or a stack (G, n) whose chains run together; node
    g of a stack uses ``stream.child(g)`` and is bitwise the single-state
    measure on that stream (see ``EmpiricalMeasure.node``).  A single state's
    replica c uses ``stream.child(c)``, so replica c of node g uses
    ``stream.child(g).child(c)``.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    if stride < 1 or not burn_in >= 0 or not dt > 0:
        raise ValueError("need stride >= 1, burn_in >= 0, dt > 0")
    x = np.asarray(x, dtype=float)
    x = x.reshape((len(x), model.n) if x.ndim == 2 else model.n)
    if stream is None:
        stream = RngStream(0, int(NoiseSource.AVERAGING))
    mode = "euler" if model.ou_fast is None else "exact_ou"
    span, every = (dt, stride) if mode == "euler" else (stride * dt, 1)
    ratio = burn_in / span
    burn = round(ratio) if abs(ratio - round(ratio)) <= 1e-9 * ratio else math.ceil(ratio)
    per_replica = -(-n_samples // FROZEN_REPLICAS)
    record = range(burn + every, burn + per_replica * every + 1, every)
    _, Z = simulate_frozen_fast(model, x, model.z0, record, span, stream)
    # (..., C, S/C, m) -> (..., C S/C, m), replica by replica
    samples = Z.reshape(Z.shape[:-3] + (-1, model.m))[..., :n_samples, :]
    measure = EmpiricalMeasure(
        samples=samples, frozen_x=x, burn_in=burn_in, stride=stride, dt=dt, mode=mode,
    )
    measure.warnings = _stationarity_warnings(samples, measure.replicas)
    return measure


@dataclass
class AveragedPoint:
    """Averaged coefficients at one frozen slow state."""

    x: np.ndarray
    bbar1: np.ndarray       # (n,)
    abar: np.ndarray        # (n, n)
    hbar: np.ndarray        # (d,)
    se_bbar1: np.ndarray    # (n,) standard error, see _mean_se
    se_hbar: np.ndarray     # (d,)
    n_samples: int


def _batch_means_se(values: np.ndarray) -> np.ndarray:
    """SE of the mean of a (possibly autocorrelated) sequence via batch means."""
    S = values.shape[0]
    nb = min(_BATCHES, max(2, S // 16))
    usable = (S // nb) * nb
    means = values[:usable].reshape(nb, -1, values.shape[1]).mean(axis=1)
    # center about the first batch mean so a constant sequence reports
    # exactly zero (std's internal mean-of-means rounds otherwise)
    centered = means - means[0]
    return centered.std(axis=0, ddof=1) / math.sqrt(nb)


def _mean_se(values: np.ndarray, replicas: int) -> np.ndarray:
    """SE of the mean of C = ``replicas`` independent chains concatenated (the
    last one cut): the count-weighted spread of the batch means over their number
    less one, min(4, L // 256) batches, at least one, per replica of L records
    (256 span many correlation times, so long replicas add degrees of freedom
    without biasing the SE low), about the first sample so a constant reads 0."""
    length = -(-len(values) // replicas)
    batches = min(4, max(1, length // 256))
    firsts = np.arange(0, len(values), length)
    sizes = np.minimum(length, len(values) - firsts)
    starts = (firsts[:, None] + np.arange(batches) * sizes[:, None] // batches).ravel()
    weights = np.diff(np.append(starts, len(values)))[:, None] / len(values)
    means = np.add.reduceat(values - values[0], starts, axis=0) / (weights * len(values))
    spread = (weights * (means - (weights * means).sum(axis=0)) ** 2).sum(axis=0)
    return np.sqrt(spread / (len(starts) - 1))


def _pivot_mean(samples: np.ndarray) -> np.ndarray:
    """Mean over axis 0, summed about the first sample.

    Better conditioned than a raw mean when the samples cluster away from
    zero, and exact (bitwise the common value) when all samples are equal,
    which a raw pairwise mean is not: partial sums like 3v round.
    An integrand that does not depend on the fast variable therefore averages
    to exactly its pointwise value.
    """
    pivot = samples[0]
    return pivot + (samples - pivot).mean(axis=0)


def average_coefficients(
    model: SlowFastModel,
    obs: ObservationModel,
    x,
    measure: EmpiricalMeasure,
) -> AveragedPoint:
    """Average b1, sigma1 sigma1^T and h over an empirical invariant measure."""
    x = np.asarray(x, dtype=float).reshape(model.n)
    frozen = measure.frozen_x
    if x.shape != frozen.shape or not np.allclose(x, frozen, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"measure was built at x={measure.frozen_x}, queried at x={x}"
        )
    Z = measure.samples
    S = Z.shape[0]
    xb = x[None, :]
    b_samples = np.asarray(model.b1(xb, Z), dtype=float)          # (S, n)
    s1 = np.asarray(model.sigma1(xb, Z), dtype=float)              # (S, n, l1)
    a_samples = np.einsum("sil,sjl->sij", s1, s1)                  # (S, n, n)
    h_samples = np.asarray(obs.h(xb, Z), dtype=float)              # (S, d)
    abar = _pivot_mean(a_samples)
    return AveragedPoint(
        x=x,
        bbar1=_pivot_mean(b_samples),
        abar=0.5 * (abar + abar.T),
        hbar=_pivot_mean(h_samples),
        se_bbar1=_mean_se(b_samples, measure.replicas),
        se_hbar=_mean_se(h_samples, measure.replicas),
        n_samples=S,
    )


def factor_diffusion(abar, sym_tol: float = 1e-8) -> np.ndarray:
    """Lower-triangular factor L with L L^T equal to the (symmetrized) input.

    Rejects asymmetric or indefinite inputs; eigenvalues in [-1e-10, 0) are
    treated as roundoff and clipped to zero, which makes rank-deficient
    averaged diffusions (legitimately degenerate directions) factorizable.
    The recomposition L L^T is checked against the clipped input to 1e-12
    (relative to the largest entry).
    """
    a = np.asarray(abar, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > sym_tol * scale:
        raise ValueError(f"matrix is not symmetric: max |a - a^T| = {asym:.3g}")
    a = 0.5 * (a + a.T)
    w, V = np.linalg.eigh(a)
    if w.min() < -1e-10 * scale:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {w.min():.3g}")
    a_psd = (V * np.clip(w, 0.0, None)) @ V.T
    a_psd = 0.5 * (a_psd + a_psd.T)

    n = a.shape[0]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s = a_psd[i, j] - L[i, :j] @ L[j, :j]
            if i == j:
                L[i, i] = math.sqrt(max(s, 0.0))
            else:
                L[i, j] = s / L[j, j] if L[j, j] > 1e-14 * math.sqrt(scale) else 0.0
    err = float(np.max(np.abs(L @ L.T - a_psd)))
    if err > 1e-12 * scale:
        raise ValueError(f"factorization failed: |L L^T - a| = {err:.3g}")
    return L


@dataclass
class HomogenizedModel:
    """Reduced slow model: averaged drift, diffusion factor, and sensor.

    The slow jump pair (f1, nu1) carries over unchanged from the full model.
    ``meta`` records how the averages were produced.
    """

    n: int
    d: int
    l_factor: int
    x0: np.ndarray
    bbar1: object           # (..., n)
    sigmabar1: object       # (..., n, n)
    hbar: object            # (..., d), takes out=None
    f1: object | None
    nu1: LevyMeasureSpec
    mode: str
    meta: dict = field(default_factory=dict)


def _const_field(value: np.ndarray):
    """x -> ``value`` over the batch axes of x, as a read-only view; it reads no variable."""
    value = np.asarray(value, dtype=float)

    def fn(x):
        return np.broadcast_to(value, np.shape(x)[:-1] + value.shape)

    fn.variables = frozenset()
    return fn


def build_homogenized(
    preset: ModelPreset,
    mode: str = "closed_form",
    x_grid=None,
    stream: RngStream | None = None,
    burn_in: float = 5.0,
    n_samples: int = 20_000,
    stride: int = 10,
    dt: float = 0.01,
) -> HomogenizedModel:
    """Assemble the reduced slow model from a preset.

    Two routes: ``closed_form`` uses the preset's declared averages;
    ``lattice`` estimates averages on a 1-D grid of slow states and
    interpolates linearly, raising on queries outside the covered range.  The
    requested grid is widened by a 10% guard band on each side so paths that
    drift slightly past the endpoints stay covered.  All grid chains run as
    one ensemble; node i draws from ``stream.child(i)``, so each node's
    averages do not depend on the rest of the grid.
    """
    model, obs = preset.model, preset.observation
    if stream is None:
        stream = RngStream(0, int(NoiseSource.AVERAGING))

    if mode == "closed_form":
        cf = preset.closed_form
        if cf is None:
            raise ValueError(
                f"preset {preset.name!r} declares no closed-form averages, which "
                "mode='closed_form' requires"
            )
        return HomogenizedModel(
            n=model.n, d=obs.d, l_factor=model.n, x0=model.x0.copy(),
            bbar1=_const_field(cf.bbar1), sigmabar1=_const_field(factor_diffusion(cf.abar)),
            hbar=cf.hbar, f1=model.f1, nu1=model.nu1, mode=mode,
            meta={"source": "closed_form", "preset": preset.name},
        )

    if mode != "lattice":
        raise ValueError(f"unknown homogenization mode {mode!r} (have: closed_form, lattice)")
    if model.n != 1:
        raise ValueError(
            f"lattice mode supports scalar slow components only; preset {preset.name!r} "
            f"has n={model.n} and needs closed-form averages"
        )
    grid = np.sort(np.asarray([] if x_grid is None else x_grid, dtype=float).reshape(-1))
    span = grid[-1] - grid[0] if len(grid) else 0.0
    if not span > 0:
        raise ValueError("lattice mode needs an x_grid with at least two distinct points")
    guard = 0.1 * span
    grid = np.concatenate([[grid[0] - guard], grid, [grid[-1] + guard]])
    meas = estimate_invariant_measure(
        model, grid[:, None], burn_in=burn_in, n_samples=n_samples, stride=stride,
        dt=dt, stream=stream,
    )
    points = [average_coefficients(model, obs, [xi], meas.node(i)) for i, xi in enumerate(grid)]
    b_tab = np.asarray([p.bbar1[0] for p in points])
    a_tab = np.asarray([p.abar[0, 0] for p in points])
    h_tab = np.stack([p.hbar for p in points])   # (G, d)
    lo, hi = grid[0], grid[-1]

    def guard_query(x):
        xq = np.asarray(x, dtype=float)[..., 0]
        if np.any(xq < lo) or np.any(xq > hi):
            worst = float(xq.min() if np.any(xq < lo) else xq.max())
            raise ExtrapolationError(
                f"query x={worst:.6g} outside the covered range [{lo:.6g}, {hi:.6g}]"
            )
        return xq

    def bbar1(x):
        return np.interp(guard_query(x), grid, b_tab)[..., None]

    def sigmabar1(x):
        return np.sqrt(np.clip(np.interp(guard_query(x), grid, a_tab), 0.0, None))[..., None, None]

    def hbar(x, out=None):
        xq = guard_query(x)
        cols = [np.interp(xq, grid, h_tab[:, j]) for j in range(h_tab.shape[1])]
        return np.stack(cols, axis=-1, out=out)

    return HomogenizedModel(
        n=1, d=obs.d, l_factor=1, x0=model.x0.copy(),
        bbar1=bbar1, sigmabar1=sigmabar1, hbar=hbar,
        f1=model.f1, nu1=model.nu1, mode=mode,
        meta={
            "source": "lattice", "grid": grid.tolist(), "n_samples": n_samples,
            "burn_in": burn_in, "stride": stride, "dt": dt, "guard_band": float(guard),
        },
    )
