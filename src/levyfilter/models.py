"""Model containers, built-in presets, and config (de)serialization.

A model is split into the signal pair (slow component with its fast driver)
and the observation channel.  All built-in presets express their coefficients
in the small config expression language, so every preset round-trips through
JSON exactly: rebuild from ``preset_to_config`` output and you get callbacks
that evaluate identically.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ModelViolationError
from .exprs import matrix_field, vector_field
from .noise import LevyMeasureSpec, MarkSampler, NoiseSource, RngStream, null_measure

# offsets from (x0, z0) of the states where a declared ou_fast must meet b2 and sigma2
_OU_PROBES = np.array([[0.0], [1.0], [-2.0]])


@dataclass(frozen=True)
class OuFast:
    """Exact transition data for a scalar OU fast component dz = -rate z dt + sigma dW."""

    rate: float
    sigma: float

    def __post_init__(self):
        if not (self.rate > 0 and self.sigma > 0):
            raise ValueError(f"OU fast data needs rate > 0 and sigma > 0, got {self}")

    def decay(self, s: float) -> float:
        return math.exp(-self.rate * s)

    def step_std(self, s: float) -> float:
        return self.sigma * math.sqrt((1.0 - math.exp(-2.0 * self.rate * s)) / (2.0 * self.rate))


@dataclass(frozen=True)
class ThinningLaw:
    """State-dependent acceptance probability for observation jumps.

    The law is a field lambda(t, x) of time and slow state; no family reads
    the mark.  Families: ``const`` (value in (0, 1]; the open upper end is
    required as soon as the jump measures actually charge marks, which
    ``ObservationModel`` enforces) and ``logistic``, lambda(t, x) = low +
    (high - low) / (1 + exp(-slope * x[0])), with low and high in (0, 1).
    Wherever the law is evaluated at a charged event its value must lie in
    (0, 1); see ``check_thinning``.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "const":
            if len(self.params) != 1 or not 0.0 < self.params[0] <= 1.0:
                raise ValueError(f"const thinning needs one value in (0,1], got {self.params}")
        elif self.kind == "logistic":
            if len(self.params) != 3:
                raise ValueError("logistic thinning needs (low, high, slope)")
            low, high, _ = self.params
            if not (0.0 < low < 1.0 and 0.0 < high < 1.0):
                raise ValueError(f"logistic thinning needs low, high in (0,1), got {self.params}")
        else:
            raise ValueError(f"unknown thinning family {self.kind!r}")

    @property
    def lower_bound(self) -> float:
        if self.kind == "const":
            return self.params[0]
        return min(self.params[0], self.params[1])

    def __call__(self, t, x):
        """lambda(t, x): a float for ``const``, an array over x's batch axes
        (all but the last) for ``logistic``."""
        if self.kind == "const":
            return self.params[0]
        low, high, slope = self.params
        with np.errstate(over="ignore"):   # exp overflow is the limit value low
            return low + (high - low) / (1.0 + np.exp(-slope * np.asarray(x, dtype=float)[..., 0]))

    @staticmethod
    def from_dict(doc: dict) -> "ThinningLaw":
        kind = doc.get("kind")
        params = {"const": ("value",), "logistic": ("low", "high", "slope")}.get(
            kind if isinstance(kind, str) else None
        )
        if params is None:
            raise ConfigError(f"unknown thinning kind {kind!r}", key="kind")
        where = f"observation.lambda ({kind})"
        _reject_unknown(doc, {"kind", *params}, where)
        _require(doc, set(params), where)
        return ThinningLaw(kind, tuple(float(doc[k]) for k in params))


def check_thinning(lam):
    """Return ``lam`` as an array after checking that every value lies in (0, 1).

    This is the admissible range of the acceptance law at a charged event:
    log lambda must stay finite and a rejection must stay possible.
    """
    lam = np.asarray(lam, dtype=float)
    bad = ~((lam > 0.0) & (lam < 1.0))
    if np.any(bad):
        raise ModelViolationError(f"thinning intensity {float(lam[bad].flat[0])} outside (0,1)")
    return lam


@dataclass
class SlowFastModel:
    """Coefficients and noise measures of the two-timescale signal.

    Coefficient callbacks take arrays whose last axis is the coordinate axis
    and broadcast over leading batch axes.
    """

    n: int
    m: int
    l1: int                 # columns of sigma1 (slow Brownian dimension)
    l2: int                 # columns of sigma2 (fast Brownian dimension)
    epsilon: float
    x0: np.ndarray
    z0: np.ndarray
    b1: object              # (x, z) -> (..., n)
    sigma1: object          # (x, z) -> (..., n, l1)
    b2: object              # (x, z) -> (..., m)
    sigma2: object          # (x, z) -> (..., m, l2)
    f1: object | None       # (x, u) -> (..., n)
    f2: object | None       # (x, z, u) -> (..., m)
    nu1: LevyMeasureSpec
    nu2: LevyMeasureSpec
    bounds: dict | None = None
    ou_fast: OuFast | None = None

    def __post_init__(self):
        if min(self.n, self.m, self.l1, self.l2) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.n)
        self.z0 = np.asarray(self.z0, dtype=float).reshape(self.m)
        if self.ou_fast is not None and (self.m != 1 or self.l2 != 1 or self.f2 is not None):
            raise ValueError("exact OU fast data requires a scalar jump-free fast component "
                             "of one noise column")
        if self.nu1.total_intensity > 0 and self.f1 is None:
            raise ValueError("nu1 carries mass but no jump coefficient f1 was given")
        if self.nu2.total_intensity > 0 and self.f2 is None:
            raise ValueError("nu2 carries mass but no jump coefficient f2 was given")
        _probe_shape("b1", self.b1(self.x0, self.z0), (self.n,))
        _probe_shape("sigma1", self.sigma1(self.x0, self.z0), (self.n, self.l1))
        _probe_shape("b2", self.b2(self.x0, self.z0), (self.m,))
        _probe_shape("sigma2", self.sigma2(self.x0, self.z0), (self.m, self.l2))
        if self.ou_fast is not None:    # the exact route's law must be b2 and sigma2's
            ou, x, z = self.ou_fast, self.x0 + _OU_PROBES, self.z0 + _OU_PROBES
            if not (np.allclose(self.b2(x, z), -ou.rate * z, rtol=1e-12, atol=0.0)
                    and np.allclose(self.sigma2(x, z), ou.sigma, rtol=1e-12, atol=0.0)):
                raise ConfigError(f"ou_fast (rate {ou.rate}, sigma {ou.sigma}) contradicts b2 "
                                  f"and sigma2, which must be -rate*z[0] and sigma at z = "
                                  f"{z[:, 0].tolist()}", key="ou_fast")
        if self.f1 is not None:
            u = np.zeros((2, self.nu1.mark_dim))
            _probe_shape("f1", self.f1(self.x0, u), (2, self.n))
        if self.f2 is not None:
            u = np.zeros((2, self.nu2.mark_dim))
            _probe_shape("f2", self.f2(self.x0, self.z0, u), (2, self.m))


@dataclass
class ObservationModel:
    """Sensor function, observation jump shapes, and the thinning law."""

    d: int
    h: object               # (x, z) -> (..., d)
    f3: object              # (t, u) -> (..., d), marks in the small region
    g3: object              # (t, u) -> (..., d), marks in the large region
    thinning: ThinningLaw
    nu3_small: LevyMeasureSpec
    nu3_large: LevyMeasureSpec
    h_bound: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("observation dimension must be >= 1")
        if self.nu3_small.region_label != "U3":
            raise ValueError("nu3_small must carry region label 'U3'")
        if self.nu3_large.region_label != "U3_complement":
            raise ValueError("nu3_large must carry region label 'U3_complement'")
        us = np.zeros((2, self.nu3_small.mark_dim))
        ul = np.zeros((2, self.nu3_large.mark_dim))
        _probe_shape("f3", self.f3(0.0, us), (2, self.d))
        _probe_shape("g3", self.g3(0.0, ul), (2, self.d))
        charged = self.nu3_small.total_intensity > 0 or self.nu3_large.total_intensity > 0
        if charged and self.thinning.kind == "const" and self.thinning.params[0] == 1.0:
            raise ValueError("const thinning 1 needs nu3_small and nu3_large without mass")


@dataclass(frozen=True)
class ClosedFormFacts:
    """Reference quantities known in closed form for a preset."""

    bbar1: np.ndarray           # (n,)
    abar: np.ndarray            # (n, n) averaged sigma1 sigma1^T
    hbar: object                # x -> (..., d), the averaged sensor


@dataclass
class ModelPreset:
    name: str
    model: SlowFastModel
    observation: ObservationModel
    closed_form: ClosedFormFacts | None
    config: dict


def _probe_shape(name: str, value, expected: tuple):
    got = np.asarray(value).shape
    if got != expected:
        raise ValueError(f"coefficient {name} returned shape {got}, expected {expected}")



# ---------------------------------------------------------------------------
# config schema


_MODEL_KEYS = {
    "name", "n", "m", "l1", "l2", "epsilon", "x0", "z0",
    "b1", "sigma1", "b2", "sigma2", "f1", "f2",
    "nu1", "nu2", "bounds", "ou_fast", "closed_form",
}
_OBS_KEYS = {"d", "h", "h_bound", "f3", "g3", "lambda", "nu3_small", "nu3_large"}
_MEASURE_KEYS = {"intensity", "marks"}
_BOUND_KEYS = {"L1", "L2"}
_OU_KEYS = {"rate", "sigma"}
_CLOSED_FORM_KEYS = {"bbar1", "abar", "hbar"}


def _reject_unknown(doc: dict, allowed: set, where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}", key=unknown[0])


def _require(doc: dict, required: set, where: str):
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"{where} section is missing {missing}", key=missing[0])


def _object(doc, where: str) -> dict:
    """``doc`` checked to be a JSON object; ``where`` is its dotted path, whose
    last part keys the error."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}",
                          key=where.rsplit(".", 1)[-1])
    return doc


def _parse(doc: dict, key: str, where: str, parse=float):
    """``parse(doc[key])``; a value it rejects is a ConfigError naming ``key``."""
    try:
        return parse(doc[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}.{key} {doc[key]!r}: {exc}", key=key) from exc


def _positive(value) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError("must be > 0")
    return value


def _measure_from_dict(doc: dict, region: str, where: str) -> LevyMeasureSpec:
    _object(doc, where)
    _reject_unknown(doc, _MEASURE_KEYS, where)
    _require(doc, _MEASURE_KEYS, where)
    marks = _parse(doc, "marks", where, MarkSampler.parse)
    return _parse(doc, "intensity", where, lambda v: LevyMeasureSpec(float(v), marks, region))


def model_from_dict(doc: dict) -> SlowFastModel:
    _reject_unknown(doc, _MODEL_KEYS, "model")
    _require(doc, {"n", "m", "l1", "l2", "epsilon", "x0", "z0", "b1", "sigma1", "b2", "sigma2"},
             "model")
    nu1 = _measure_from_dict(doc["nu1"], "U1", "model.nu1") if doc.get("nu1") else null_measure("U1")
    nu2 = _measure_from_dict(doc["nu2"], "U2", "model.nu2") if doc.get("nu2") else null_measure("U2")
    f1 = (_parse(doc, "f1", "model", lambda v: vector_field(v, ("x", "u")))
          if doc.get("f1") else None)
    f2 = (_parse(doc, "f2", "model", lambda v: vector_field(v, ("x", "z", "u")))
          if doc.get("f2") else None)
    bounds = doc.get("bounds")
    if bounds is not None:
        _reject_unknown(_object(bounds, "model.bounds"), _BOUND_KEYS, "model.bounds")
        bounds = {k: _parse(bounds, k, "model.bounds") for k in bounds}
    ou = doc.get("ou_fast")
    if ou is not None:
        _reject_unknown(_object(ou, "model.ou_fast"), _OU_KEYS, "model.ou_fast")
        _require(ou, _OU_KEYS, "model.ou_fast")
        ou = OuFast(*(_parse(ou, key, "model.ou_fast", _positive) for key in ("rate", "sigma")))
    try:
        return SlowFastModel(
            n=int(doc["n"]), m=int(doc["m"]), l1=int(doc["l1"]), l2=int(doc["l2"]),
            epsilon=float(doc["epsilon"]),
            x0=np.asarray(doc["x0"], dtype=float), z0=np.asarray(doc["z0"], dtype=float),
            b1=_parse(doc, "b1", "model", lambda v: vector_field(v, ("x", "z"))),
            sigma1=_parse(doc, "sigma1", "model", lambda v: matrix_field(v, ("x", "z"))),
            b2=_parse(doc, "b2", "model", lambda v: vector_field(v, ("x", "z"))),
            sigma2=_parse(doc, "sigma2", "model", lambda v: matrix_field(v, ("x", "z"))),
            f1=f1, f2=f2, nu1=nu1, nu2=nu2, bounds=bounds, ou_fast=ou,
        )
    except ValueError as exc:
        # a ConfigError from a nested section keeps the key it names
        raise ConfigError(f"invalid model section: {exc}",
                          key=getattr(exc, "key", None)) from exc


def observation_from_dict(doc: dict) -> ObservationModel:
    _reject_unknown(doc, _OBS_KEYS, "observation")
    _require(doc, _OBS_KEYS - {"h_bound"}, "observation")
    h_bound = doc.get("h_bound")
    try:
        return ObservationModel(
            d=int(doc["d"]),
            h=_parse(doc, "h", "observation", lambda v: vector_field(v, ("x", "z"))),
            f3=_parse(doc, "f3", "observation", lambda v: vector_field(v, ("t", "u"))),
            g3=_parse(doc, "g3", "observation", lambda v: vector_field(v, ("t", "u"))),
            thinning=ThinningLaw.from_dict(_object(doc["lambda"], "observation.lambda")),
            nu3_small=_measure_from_dict(doc["nu3_small"], "U3", "observation.nu3_small"),
            nu3_large=_measure_from_dict(doc["nu3_large"], "U3_complement", "observation.nu3_large"),
            h_bound=None if h_bound is None else float(h_bound),
        )
    except ValueError as exc:
        # a ConfigError from a nested section keeps the key it names
        raise ConfigError(f"invalid observation section: {exc}",
                          key=getattr(exc, "key", None)) from exc


def _closed_form_from_dict(doc: dict) -> ClosedFormFacts:
    _reject_unknown(_object(doc, "model.closed_form"), _CLOSED_FORM_KEYS, "model.closed_form")
    _require(doc, _CLOSED_FORM_KEYS, "model.closed_form")
    return ClosedFormFacts(
        bbar1=np.asarray(doc["bbar1"], dtype=float),
        abar=np.asarray(doc["abar"], dtype=float),
        hbar=_parse(doc, "hbar", "model.closed_form", lambda v: vector_field(v, ("x",))),
    )


def preset_from_config(cfg: dict) -> ModelPreset:
    """Build a preset from a parsed config document; unknown keys are rejected."""
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(cfg, {"model", "observation"}, "config")
    for section in ("model", "observation"):
        if section not in cfg or not isinstance(cfg[section], dict):
            raise ConfigError(f"config needs a {section!r} object", key=section)
    model = model_from_dict(cfg["model"])
    observation = observation_from_dict(cfg["observation"])
    cf_doc = cfg["model"].get("closed_form")
    closed = _closed_form_from_dict(cf_doc) if cf_doc else None
    name = cfg["model"].get("name", "custom")
    return ModelPreset(
        name=name, model=model, observation=observation, closed_form=closed,
        config=copy.deepcopy(cfg),
    )


def preset_to_config(preset: ModelPreset) -> dict:
    return copy.deepcopy(preset.config)


def load_config(path) -> ModelPreset:
    """The preset of a config file; a file that cannot be read or parsed is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}", key="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return preset_from_config(doc)


def with_epsilon(preset: ModelPreset, epsilon: float) -> ModelPreset:
    """Same preset at a different timescale separation; the compiled fields,
    observation model and closed form are shared, never mutated."""
    epsilon = float(epsilon)
    try:
        model = replace(preset.model, epsilon=epsilon)
    except ValueError as exc:
        raise ConfigError(f"invalid model section: {exc}", key="epsilon") from exc
    cfg = copy.deepcopy(preset.config)
    cfg["model"]["epsilon"] = epsilon
    return replace(preset, model=model, config=cfg)


# ---------------------------------------------------------------------------
# built-in presets


def build_example6(
    sigma1: float = 1.0,
    sigma2: float = math.sqrt(2.0),
    x0: float = 0.0,
    z0: float = 0.0,
    lambda_const: float = 0.6,
    epsilon: float = 0.1,
    small_jump_intensity: float = 1.0,
    large_jump_intensity: float = 0.5,
) -> ModelPreset:
    """Scalar benchmark: sin-of-fast drift, OU fast component, arctan sensor.

    The fast component is an OU process, so its frozen-x invariant law is
    N(0, sigma2^2/2) and the averaged drift vanishes; the averaged squared
    diffusion is the constant sigma1^2 and the averaged sensor is arctan
    itself.  Observation jumps use mark u on |u| < 1 (small region, thinned
    and compensated) and on 1 <= u < 2 (large region, thinned, uncompensated).
    """
    if not (sigma1 > 0 and sigma2 > 0):
        raise ValueError("sigma1 and sigma2 must be positive")
    if not 0.0 < lambda_const < 1.0:
        raise ValueError(f"lambda_const must lie in (0,1), got {lambda_const}")
    cfg = {
        "model": {
            "name": "example6",
            "n": 1, "m": 1, "l1": 1, "l2": 1,
            "epsilon": float(epsilon),
            "x0": [float(x0)], "z0": [float(z0)],
            "b1": ["sin(z[0])"],
            "sigma1": [[repr(float(sigma1))]],
            "b2": ["-z[0]"],
            "sigma2": [[repr(float(sigma2))]],
            "f1": None, "f2": None,
            "nu1": None, "nu2": None,
            "bounds": {"L1": 1.0, "L2": 1.0 + sigma1 ** 2},
            "ou_fast": {"rate": 1.0, "sigma": float(sigma2)},
            "closed_form": {
                "bbar1": [0.0],
                "abar": [[float(sigma1) ** 2]],
                "hbar": ["arctan(x[0])"],
            },
        },
        "observation": {
            "d": 1,
            "h": ["arctan(x[0])"],
            "h_bound": math.pi / 2.0,
            "f3": ["u[0]"],
            "g3": ["u[0]"],
            "lambda": {"kind": "const", "value": float(lambda_const)},
            "nu3_small": {"intensity": float(small_jump_intensity), "marks": "uniform(-1.0,1.0)"},
            "nu3_large": {"intensity": float(large_jump_intensity), "marks": "uniform(1.0,2.0)"},
        },
    }
    return preset_from_config(cfg)


def make_linear_gaussian(
    a: float = 1.0,
    c: float = 0.0,
    sigma: float = math.sqrt(3.0),
    x0: float = 0.0,
) -> ModelPreset:
    """Jump-free linear-Gaussian model dX = (c - aX)dt + sigma dV, dY = X dt + dB.

    The fast component is a decoupled unit OU process that feeds into nothing;
    it exists so the model fits the common container.  With no observation
    jumps the thinning law is never evaluated, so lambda = 1 is admissible.
    """
    if not (a > 0 and sigma > 0):
        raise ValueError("a and sigma must be positive")
    cfg = {
        "model": {
            "name": "linear_gaussian",
            "n": 1, "m": 1, "l1": 1, "l2": 1,
            "epsilon": 1.0,
            "x0": [float(x0)], "z0": [0.0],
            "b1": [f"{repr(float(c))} - {repr(float(a))}*x[0]"],
            "sigma1": [[repr(float(sigma))]],
            "b2": ["-z[0]"],
            "sigma2": [["1.0"]],
            "f1": None, "f2": None,
            "nu1": None, "nu2": None,
            "bounds": None,
            "ou_fast": {"rate": 1.0, "sigma": 1.0},
            "closed_form": None,
        },
        "observation": {
            "d": 1,
            "h": ["x[0]"],
            "h_bound": None,
            "f3": ["u[0]"],
            "g3": ["u[0]"],
            "lambda": {"kind": "const", "value": 1.0},
            "nu3_small": {"intensity": 0.0, "marks": "point(0.0)"},
            "nu3_large": {"intensity": 0.0, "marks": "point(0.0)"},
        },
    }
    return preset_from_config(cfg)


PRESETS = {
    "example6": build_example6,
    "linear_gaussian": make_linear_gaussian,
}


# ---------------------------------------------------------------------------
# assumption checks


@dataclass
class CheckResult:
    name: str
    satisfied: bool | None      # None when the check could not be evaluated
    statistic: float
    threshold: float | None
    detail: str

    def __str__(self):
        status = {True: "ok", False: "VIOLATED", None: "skipped"}[self.satisfied]
        return f"[{status}] {self.name}: {self.detail}"


@dataclass
class ValidationReport:
    entries: list
    warnings: list
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(e.satisfied is not False for e in self.entries)

    def summary(self) -> str:
        lines = [str(e) for e in self.entries]
        lines += [f"warning: {w}" for w in self.warnings]
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} ({self.sample_count} samples)")
        return "\n".join(lines)


def _pairwise_lipschitz(fn, pts_a, pts_b, dist):
    va = np.asarray(fn(*pts_a), dtype=float).reshape(len(dist), -1)
    vb = np.asarray(fn(*pts_b), dtype=float).reshape(len(dist), -1)
    return np.linalg.norm(va - vb, axis=1) / dist


def validate_assumptions(
    preset: ModelPreset,
    sample_count: int = 200,
    stream: RngStream | None = None,
    scale: float = 2.0,
) -> ValidationReport:
    """Sampled checks of the standing regularity assumptions.

    Lipschitz and growth conditions are probed on ``sample_count`` random
    state pairs drawn from N(0, scale^2); jump contributions enter through
    the mark quadrature of each measure, against ``model.bounds`` L1 and
    L2; the sensor is checked against ``observation.h_bound``.  A check whose
    constant is not declared is skipped with a warning.
    Nothing is ever altered: the report only describes what was found.
    """
    if sample_count < 1:
        raise ConfigError(f"samples must be at least 1, got {sample_count}", key="samples")
    model, obs = preset.model, preset.observation
    if stream is None:
        stream = RngStream(20260819, int(NoiseSource.VALIDATION))
    gen = stream.generator()
    ex = gen.normal(0.0, scale, size=(sample_count, model.n))
    ez = gen.normal(0.0, scale, size=(sample_count, model.m))
    ex2 = gen.normal(0.0, scale, size=(sample_count, model.n))
    ez2 = gen.normal(0.0, scale, size=(sample_count, model.m))
    ts = gen.uniform(0.0, 1.0, size=sample_count)
    dist = np.sqrt(np.sum((ex - ex2) ** 2, axis=1) + np.sum((ez - ez2) ** 2, axis=1))
    dist = np.maximum(dist, 1e-12)

    entries: list[CheckResult] = []
    warnings: list[str] = []
    bounds = model.bounds or {}

    def lip_stat():
        ratios = np.max([_pairwise_lipschitz(fn, (ex, ez), (ex2, ez2), dist)
                         for fn in (model.b1, model.sigma1, model.b2, model.sigma2)], axis=0)
        if model.f1 is not None and model.nu1.total_intensity > 0:
            def jump_gap(u):
                va = model.f1(ex[:, None, :], u)
                vb = model.f1(ex2[:, None, :], u)
                return np.sum((va - vb) ** 2, axis=-1).T  # (Q, pairs)
            l2 = np.sqrt(np.maximum(model.nu1.integrate(jump_gap), 0.0))
            ratios = np.maximum(ratios, l2 / dist)
        return float(np.max(ratios))

    if "L1" in bounds:
        stat = lip_stat()
        entries.append(CheckResult(
            "lipschitz_coefficients", bool(stat <= bounds["L1"] * (1 + 1e-9)), stat, bounds["L1"],
            f"max sampled Lipschitz ratio {stat:.6g} vs declared L1={bounds['L1']:.6g}"))
    else:
        warnings.append("no L1 declared; Lipschitz check skipped")

    if "L2" in bounds:
        growth_num = np.sum(np.asarray(model.b1(ex, ez)) ** 2, axis=-1)
        s1 = np.asarray(model.sigma1(ex, ez))
        growth_num = growth_num + np.sum(s1 ** 2, axis=(-2, -1))
        if model.f1 is not None and model.nu1.total_intensity > 0:
            growth_num = growth_num + model.nu1.integrate(
                lambda u: np.sum(model.f1(ex[:, None, :], u) ** 2, axis=-1).T)
        denom = 1.0 + np.sum(ex ** 2, axis=-1) + np.sum(ez ** 2, axis=-1)
        stat = float(np.max(growth_num / denom))
        entries.append(CheckResult(
            "linear_growth", bool(stat <= bounds["L2"] * (1 + 1e-9)), stat, bounds["L2"],
            f"max sampled growth ratio {stat:.6g} vs declared L2={bounds['L2']:.6g}"))
    else:
        warnings.append("no L2 declared; growth check skipped")

    hv = np.asarray(obs.h(ex, ez), dtype=float)
    hmax = float(np.max(np.linalg.norm(hv, axis=-1)))
    if obs.h_bound is not None:
        entries.append(CheckResult(
            "sensor_bounded", bool(hmax <= obs.h_bound * (1 + 1e-9)), hmax, obs.h_bound,
            f"max sampled |h| {hmax:.6g} vs declared bound {obs.h_bound:.6g}"))
    else:
        warnings.append("no sensor bound declared; boundedness check skipped")

    total_obs_mass = obs.nu3_small.total_intensity + obs.nu3_large.total_intensity
    if total_obs_mass > 0:
        lam = obs.thinning(ts, ex)
        lo, hi = float(np.min(lam)), float(np.max(lam))
        ok = bool(lo >= obs.thinning.lower_bound - 1e-12 and hi < 1.0)
        entries.append(CheckResult(
            "thinning_in_range", ok, hi, 1.0,
            f"sampled thinning range [{lo:.6g}, {hi:.6g}], declared lower bound "
            f"{obs.thinning.lower_bound:.6g}, must stay below 1"))
    else:
        warnings.append("observation jump measures carry no mass; thinning check vacuous")

    warnings.append(
        "ergodicity of the frozen fast component is assumed, not checked; "
        "see the stationarity diagnostic on empirical invariant measures")
    return ValidationReport(entries=entries, warnings=warnings, sample_count=sample_count)
