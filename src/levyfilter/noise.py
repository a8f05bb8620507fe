"""Reproducible random streams and finite-activity jump-measure sampling.

Every driving noise of every simulated path gets its own stream, addressed by
an integer id.  Ids are allocated hierarchically: ``RngStream.child(key)``
shifts the parent id up by 64 bits and packs ``key`` below it, so two key
chains give one id exactly when they differ only in leading zero keys:
``RngStream(s).child(0).child(k)`` and ``RngStream(s).child(k)`` are one stream.
The bit stream behind a ``(root_seed, stream_id)`` pair is a pure function of
those two integers; nothing here mutates global numpy state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .errors import UnsupportedMeasureError

_KEY_BITS = 64
_KEY_SPACE = 1 << _KEY_BITS


class NoiseSource(IntEnum):
    """Codes for the independent noises driving one simulated path."""

    SLOW_BROWNIAN = 0      # V, drives the slow diffusion
    FAST_BROWNIAN = 1      # W, drives the fast diffusion
    OBS_BROWNIAN = 2       # B, observation noise
    SLOW_JUMPS = 3         # jump measure of the slow component
    FAST_JUMPS = 4         # accelerated jump measure of the fast component
    OBS_JUMPS_SMALL = 5    # observation jumps with marks in the small region
    OBS_JUMPS_LARGE = 6    # observation jumps with marks in the large region
    THINNING = 7           # acceptance uniforms for state-dependent thinning
    HOMOG_BROWNIAN = 8     # Brownian motion of the reduced slow model
    PARTICLES = 10         # filter propagation noise, one stream per row and source
    RESAMPLING = 11        # systematic-resampling offsets
    VALIDATION = 12        # state sampling in assumption checks
    AVERAGING = 13         # invariant-measure chains


@dataclass
class RngStream:
    """Handle on a reproducible random sequence, addressed by an integer id.

    ``generator()`` is a pure function of ``(root_seed, stream_id)``: PCG64
    over ``SeedSequence(root_seed, spawn_key=(stream_id, 0))``.  It does not
    advance anything, so calling it twice reproduces identical draws.
    Derived purposes get their own ``child()`` stream; an owner that needs
    successive fresh batches draws them from one generator.
    """

    root_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.root_seed) < _KEY_SPACE:
            raise ValueError(f"root_seed must be a 64-bit unsigned integer, got {self.root_seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be non-negative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.root_seed, spawn_key=(self.stream_id, 0))
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, key: int) -> "RngStream":
        """Independent stream addressed below this one; on a stream of id 0, child(0) is itself."""
        key = int(key)
        if not 0 <= key < _KEY_SPACE:
            raise ValueError(f"child key must lie in [0, 2**64), got {key}")
        return RngStream(self.root_seed, (self.stream_id << _KEY_BITS) | key)


# ---------------------------------------------------------------------------
# mark distributions and jump measures


_SAMPLER_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([^()]*)\s*\)\s*$")
_QUAD_POINTS = 128

_REGIONS = ("U1", "U2", "U3", "U3_complement")


@dataclass(frozen=True)
class MarkSampler:
    """Named mark distribution on R^k with a quadrature rule for expectations.

    Supported families: ``uniform(a,b)``, ``gauss(mu,sigma)``, ``exp(rate)``
    (all scalar marks) and ``point(v1,...,vk)`` (a deterministic atom).
    """

    kind: str
    params: tuple

    @staticmethod
    def parse(spec: str) -> "MarkSampler":
        match = _SAMPLER_RE.match(spec)
        if match is None:
            raise ValueError(f"unparseable mark distribution {spec!r}")
        kind, arg_src = match.group(1), match.group(2)
        try:
            params = tuple(float(tok) for tok in arg_src.split(",") if tok.strip())
        except ValueError as exc:
            raise ValueError(f"bad numeric parameter in {spec!r}") from exc
        return MarkSampler(kind, params)

    def __post_init__(self):
        kind, params = self.kind, self.params
        if kind == "uniform":
            if len(params) != 2 or not params[0] < params[1]:
                raise ValueError(f"uniform marks need a < b, got {params}")
        elif kind == "gauss":
            if len(params) != 2 or not params[1] > 0:
                raise ValueError(f"gauss marks need (mu, sigma>0), got {params}")
        elif kind == "exp":
            if len(params) != 1 or not params[0] > 0:
                raise ValueError(f"exp marks need rate > 0, got {params}")
        elif kind == "point":
            if len(params) < 1:
                raise ValueError("point marks need at least one coordinate")
        else:
            raise ValueError(f"unknown mark distribution family {kind!r}")
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"mark distribution parameters must be finite, got {params}")

    @property
    def dim(self) -> int:
        return len(self.params) if self.kind == "point" else 1

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` marks, shape (count, dim)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.kind == "uniform":
            a, b = self.params
            return gen.uniform(a, b, size=(count, 1))
        if self.kind == "gauss":
            mu, sig = self.params
            return gen.normal(mu, sig, size=(count, 1))
        if self.kind == "exp":
            return gen.exponential(1.0 / self.params[0], size=(count, 1))
        return np.tile(np.asarray(self.params, dtype=float), (count, 1))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Probability-weighted nodes: returns (nodes (Q, dim), weights (Q,))."""
        return _quadrature_rule(self.kind, self.params)

    def expectation(self, fn) -> np.ndarray | float:
        """E[fn(U)] where fn maps (Q, dim) mark arrays to (Q,) values or to
        (..., Q, k) fields, the node axis second to last.

        A weighted sum over the node axis, which reduces each leading row on
        its own: row r of a stacked (R, Q, k) field is bitwise its own (Q, k)
        call (``np.tensordot``, or a leading node axis, is not).
        """
        nodes, weights = self.quadrature()
        vals = np.asarray(fn(nodes), dtype=float)
        if vals.ndim == 1:
            return (vals * weights).sum()
        return (vals * weights[:, None]).sum(axis=-2)


@lru_cache(maxsize=64)
def _quadrature_rule(kind: str, params: tuple) -> tuple[np.ndarray, np.ndarray]:
    if kind == "uniform":
        a, b = params
        t, w = _gauss_legendre(_QUAD_POINTS)
        nodes = 0.5 * (b - a) * t + 0.5 * (a + b)
        weights = 0.5 * w  # integrates the uniform density on [a, b]
    elif kind == "gauss":
        mu, sig = params
        t, w = np.polynomial.hermite.hermgauss(_QUAD_POINTS)
        nodes = mu + math.sqrt(2.0) * sig * t
        weights = w / math.sqrt(math.pi)
    elif kind == "exp":
        t, w = np.polynomial.laguerre.laggauss(_QUAD_POINTS)
        nodes = t / params[0]
        weights = w
    else:
        return np.asarray([params], dtype=float), np.ones(1)
    nodes = nodes.reshape(-1, 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's method
    on the three-term recurrence of P_n, with no eigenvalue problem to solve."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)      # P_n'(x)
        x = x - p1 / dp
        # nodes lie in (-1, 1), so steps within a few ulps of 1 are rounding noise
        if np.max(np.abs(p1 / dp)) <= 4 * np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w * (2.0 / w.sum())


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite-activity jump measure: total mass plus a normalized mark law."""

    total_intensity: float
    mark_sampler: MarkSampler
    region_label: str

    def __post_init__(self):
        if not math.isfinite(self.total_intensity):
            raise UnsupportedMeasureError(
                f"jump measures must have finite total mass, got {self.total_intensity}"
            )
        if self.total_intensity < 0:
            raise ValueError(f"total_intensity must be >= 0, got {self.total_intensity}")
        if self.region_label not in _REGIONS:
            raise ValueError(f"region_label must be one of {_REGIONS}, got {self.region_label!r}")

    @property
    def mark_dim(self) -> int:
        return self.mark_sampler.dim

    def integrate(self, fn):
        """∫ fn(u) ν(du) over the region, via the mark quadrature."""
        return self.total_intensity * self.mark_sampler.expectation(fn)


def null_measure(region_label: str, dim: int = 1) -> LevyMeasureSpec:
    """A measure with zero mass (placeholder for absent jump terms)."""
    return LevyMeasureSpec(0.0, MarkSampler("point", (0.0,) * dim), region_label)


# ---------------------------------------------------------------------------
# path-level sampling


@dataclass(frozen=True, eq=False)
class JumpRecord:
    """The events of one path as arrays in time order; len() is their count.

    ``accepted`` is all True as sampled; thinning marks the rejected events.
    """

    times: np.ndarray       # (M,)
    marks: np.ndarray       # (M, k)
    accepted: np.ndarray    # (M,) bool

    def __len__(self) -> int:
        return len(self.times)


def brownian_increments(stream: RngStream, dim: int, dt: float, count: int) -> np.ndarray:
    """Increments of a standard Brownian motion on a regular grid, shape (count, dim).

    Pure in the stream state: the same (stream, dim, dt, count) always
    reproduces the same array.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gen = stream.generator()
    return gen.normal(0.0, math.sqrt(dt), size=(count, dim))


def keyed_normals(streams: list, key: tuple, gens: list, cache: dict) -> np.ndarray:
    """One step's read-only standard normals, a ``shape`` block per stream
    stacked (len(streams), *shape): row i is the next block of ``streams[i]``,
    drawn with generator ``gens[i]`` (None until built).  ``cache``, the step's
    dict shared by every reader, maps ``key`` ((root_seed, stream_id) per stream,
    shape), which a reader can build once per run, to its first reader's
    (generators, block): a later reader takes that block and adopts those
    generators, so a key is drawn once per step and a row's block depends on
    key and step."""
    if key in cache:
        gens[:], block = cache[key]
        return block
    block = np.empty((len(streams),) + key[1])
    for i, stream in enumerate(streams):
        if gens[i] is None:
            gens[i] = stream.generator()
        gens[i].standard_normal(out=block[i])
    block.flags.writeable = False
    cache[key] = (gens, block)
    return block


def poisson_steps(gen, spec: LevyMeasureSpec, dt: float, first: int, count: int,
                  rate_scale: float = 1.0, rows: int = 1) -> tuple:
    """Events of ``rows`` independent Poisson random measures of intensity
    rate_scale * ν on the steps (k dt, (k+1) dt], k = first, ..., first + count - 1,
    as one stack (rows, steps, times, marks) ordered by row, then by time.

    ``gen`` draws the total count, Poisson(rows count rate_scale |ν| dt), then
    each event's (row, step) cell, uniform, then its time dt (k + 1 - U) in its
    step, then its mark: independent Poisson counts per cell at a cost of
    O(1 + events), however many cells.  No mass (or no cell) draws nothing and
    leaves ``gen`` untouched (it may be None).  rate_scale carries the
    1/epsilon acceleration of fast jumps.
    """
    if not (dt > 0 and rate_scale > 0):
        raise ValueError(f"dt and rate_scale must be > 0, got {dt} and {rate_scale}")
    mean = spec.total_intensity * rate_scale * dt * count * rows
    if mean == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0), np.zeros((0, spec.mark_dim))
    total = int(gen.poisson(mean))
    cells = gen.integers(count * rows, size=total)
    late = 1.0 - gen.uniform(size=total)     # 1 - U, in (0, 1]
    order = np.lexsort((late, cells))
    row, step = np.divmod(cells[order], count)
    step += first
    return row, step, dt * (step + late[order]), spec.mark_sampler.sample(gen, total)
