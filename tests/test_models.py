import copy
import json
import math

import numpy as np
import pytest

from levyfilter.errors import ConfigError, ModelViolationError
from levyfilter.models import (
    PRESETS,
    OuFast,
    ThinningLaw,
    build_example6,
    check_thinning,
    load_config,
    make_linear_gaussian,
    preset_from_config,
    preset_to_config,
    validate_assumptions,
    with_epsilon,
)
from levyfilter.noise import RngStream


def test_example6_config_round_trip():
    preset = build_example6()
    cfg = preset_to_config(preset)
    rebuilt = preset_from_config(cfg)
    assert preset_to_config(rebuilt) == cfg


def _section(cfg: dict, path: tuple) -> dict:
    for part in path:
        cfg = cfg[part]
    return cfg


def test_config_rejects_unknown_keys():
    cfg = preset_to_config(build_example6())
    bad = copy.deepcopy(cfg)
    bad["model"]["spurious"] = 1
    with pytest.raises(ConfigError) as exc:
        preset_from_config(bad)
    assert "spurious" in str(exc.value)

    bad = copy.deepcopy(cfg)
    bad["typo_section"] = {}
    with pytest.raises(ConfigError):
        preset_from_config(bad)

    # settings that no code read are gone, and a config carrying one is refused
    removed = [
        ((), "run", {"particles": 7, "seed": 3}),
        (("model", "closed_form"), "invariant_mean", [0.0]),
        (("model", "closed_form"), "invariant_cov", [[1.0]]),
        (("model", "bounds"), "L3", 0.1),
    ]
    for path, key, value in removed:
        bad = copy.deepcopy(cfg)
        _section(bad, path)[key] = value
        with pytest.raises(ConfigError) as exc:
            preset_from_config(bad)
        assert exc.value.key == key and key in str(exc.value)


@pytest.mark.parametrize("path, key", [
    (("model",), "sigma2"),
    (("model", "ou_fast"), "rate"),
    (("model", "ou_fast"), "sigma"),
    (("model", "closed_form"), "bbar1"),
    (("model", "closed_form"), "abar"),
    (("model", "closed_form"), "hbar"),
    (("observation",), "lambda"),
    (("observation", "nu3_small"), "marks"),
    (("observation", "nu3_large"), "intensity"),
    (("observation", "lambda"), "value"),
    (("observation", "lambda"), "kind"),
    # "key=value": the key is present but its value is malformed
    (("model", "nu1"), "intensity=abc"),
    (("model", "nu1"), "marks=weird(1)"),
    (("model", "nu2"), "intensity=-1"),
    (("model", "nu2"), "marks=gauss(0)"),
    (("model", "bounds"), "L1=big"),
    (("model", "bounds"), "L2=[]"),
    (("model", "ou_fast"), "rate=fast"),
    (("model", "ou_fast"), "sigma=-1"),
    (("observation", "nu3_small"), "intensity=abc"),
])
def test_config_errors_name_the_missing_key(path, key):
    cfg = copy.deepcopy(preset_to_config(build_example6()))
    key, malformed, value = key.partition("=")
    *parents, name = path
    if _section(cfg, tuple(parents))[name] is None:   # example6 declares no nu1, nu2
        _section(cfg, tuple(parents))[name] = {"intensity": 1.0, "marks": "gauss(0,1)"}
    if malformed:
        _section(cfg, path)[key] = value
    else:
        del _section(cfg, path)[key]
    with pytest.raises(ConfigError) as exc:
        preset_from_config(cfg)
    assert exc.value.key == key and key in str(exc.value)


@pytest.mark.parametrize("path, key, value", [
    (("observation",), "lambda", 0.6),
    (("observation",), "lambda", ["const", 0.6]),
    (("model",), "bounds", 1.0),
    (("model",), "bounds", "L1"),
    (("model",), "ou_fast", [1.0, 1.4]),
    (("model",), "closed_form", 3),
    (("observation",), "nu3_small", "uniform(-1,1)"),
])
def test_config_sections_that_are_not_objects_name_the_key(path, key, value):
    cfg = copy.deepcopy(preset_to_config(build_example6()))
    _section(cfg, path)[key] = value
    with pytest.raises(ConfigError) as exc:
        preset_from_config(cfg)
    assert exc.value.key == key and "must be an object" in str(exc.value)


@pytest.mark.parametrize("path, key, sources", [
    (("model",), "b1", ["1/0"]),
    (("model",), "b2", ["-z[0] + 1/(1-1)"]),
    (("model",), "sigma1", [["1.0 / (2 - 2.0)"]]),
    (("observation",), "f3", ["u[0] * (1 / 0)"]),
    (("model", "closed_form"), "hbar", ["arctan(x[0]) + 1 / (1 - 1)"]),
])
def test_failing_constant_expression_is_a_keyed_config_error(path, key, sources):
    cfg = copy.deepcopy(preset_to_config(build_example6()))
    _section(cfg, path)[key] = sources
    with pytest.raises(ConfigError) as exc:
        preset_from_config(cfg)
    assert exc.value.key == key and "division by zero" in str(exc.value)
    assert repr(sources[0][0] if key == "sigma1" else sources[0]) in str(exc.value)


def test_load_config_round_trip(tmp_path):
    cfg = preset_to_config(build_example6())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    preset = load_config(path)
    assert preset.model.epsilon == cfg["model"]["epsilon"]
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_with_epsilon_rebuilds_without_mutating():
    preset = build_example6()
    out = with_epsilon(preset, 0.02)
    assert out.model.epsilon == 0.02
    assert preset.model.epsilon == 0.1
    # the rebuilt config records the new epsilon; the original keeps its own
    assert out.config["model"]["epsilon"] == 0.02
    assert preset.config["model"]["epsilon"] == 0.1
    # compiled fields, the observation model and the closed form are reused
    for name in ("b1", "sigma1", "b2", "sigma2", "f1", "f2", "nu1", "nu2", "ou_fast"):
        assert getattr(out.model, name) is getattr(preset.model, name)
    assert out.observation is preset.observation
    assert out.closed_form is preset.closed_form
    # coefficients still evaluate after the rebuild
    x = np.zeros((2, 1))
    z = np.ones((2, 1))
    np.testing.assert_allclose(out.model.b1(x, z), np.sin(np.ones((2, 1))))
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="epsilon must be > 0"):
            with_epsilon(preset, bad)
    assert preset.model.epsilon == 0.1


def test_ou_fast_closed_forms():
    ou = OuFast(rate=1.0, sigma=math.sqrt(2.0))
    assert ou.decay(math.log(2.0)) == pytest.approx(0.5)
    # transition variance sigma^2 (1 - exp(-2 r s)) / (2 r) at s = ln 2
    assert ou.step_std(math.log(2.0)) ** 2 == pytest.approx(0.75)


def test_thinning_law_const_range():
    law = ThinningLaw("const", (0.6,))
    assert law.lower_bound == pytest.approx(0.6)
    assert law(0.0, np.zeros((3, 1))) == 0.6    # a float, whatever the batch
    ThinningLaw("const", (1.0,))  # admissible edge (used with massless measures)
    for bad in [0.0, -0.1, 1.5]:
        with pytest.raises(ValueError):
            ThinningLaw("const", (bad,))


def test_thinning_check_rejects_values_outside_open_interval():
    np.testing.assert_array_equal(check_thinning([0.3, 0.999]), [0.3, 0.999])
    for bad in [0.0, 1.0, 1.5, float("nan"), [0.5, 1.0]]:
        with pytest.raises(ModelViolationError):
            check_thinning(bad)


def test_const_thinning_one_needs_massless_measures():
    for region in ("nu3_small", "nu3_large"):
        cfg = copy.deepcopy(preset_to_config(build_example6()))
        cfg["observation"]["lambda"] = {"kind": "const", "value": 1.0}
        other = "nu3_large" if region == "nu3_small" else "nu3_small"
        cfg["observation"][other] = {"intensity": 0.0, "marks": "point(0.0)"}
        with pytest.raises(ConfigError, match="const thinning 1"):
            preset_from_config(cfg)
    # the massless case, as in the linear-Gaussian preset, stays admissible
    assert make_linear_gaussian().observation.thinning.params == (1.0,)


def test_thinning_law_logistic():
    law = ThinningLaw("logistic", (0.2, 0.8, 2.0))
    x = np.array([[-100.0], [0.0], [100.0]])
    out = law(0.0, x)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(0.2, abs=1e-6)
    assert out[1] == pytest.approx(0.5)
    assert out[2] == pytest.approx(0.8, abs=1e-6)
    with pytest.raises(ValueError):
        ThinningLaw("logistic", (0.0, 0.8, 1.0))
    with pytest.raises(ValueError):
        ThinningLaw("logistic", (0.2, 1.0, 1.0))


def test_model_requires_jump_coefficient_when_measure_has_mass():
    cfg = preset_to_config(build_example6())
    bad = copy.deepcopy(cfg)
    bad["model"]["nu1"] = {"intensity": 1.0, "marks": "uniform(-1,1)"}
    bad["model"].pop("f1", None)
    with pytest.raises(ConfigError):
        preset_from_config(bad)


def test_ou_fast_requires_scalar_fast_component():
    cfg = preset_to_config(build_example6())
    bad = copy.deepcopy(cfg)
    bad["model"]["m"] = 2
    bad["model"]["b2"] = ["-z[0]", "-z[1]"]
    bad["model"]["sigma2"] = [["1.0", "0.0"], ["0.0", "1.0"]]
    bad["model"]["z0"] = [0.0, 0.0]
    with pytest.raises(ConfigError):
        preset_from_config(bad)
    # the exact transition draws one normal per state: one noise column only
    bad = copy.deepcopy(cfg)
    bad["model"]["l2"] = 2
    bad["model"]["sigma2"] = [["1.0", "0.5"]]
    with pytest.raises(ConfigError, match="one noise column"):
        preset_from_config(bad)


@pytest.mark.parametrize("model_fields", [
    {"ou_fast": {"rate": 5.0, "sigma": 0.1}},             # variance 0.001 against b2/sigma2's 1
    {"ou_fast": {"rate": 2.0, "sigma": 1.4142135623730951}},    # the rate alone
    {"sigma2": [["1.5"]]},                                 # sigma2 alone
    {"b2": ["-z[0] + 0.1*sin(x[0])"]},                     # b2 reads the slow state
    {"b2": ["-z[0]*(1 + 1e-9)"]},                          # off by more than 1e-12
], ids=["both", "rate", "sigma", "x_dependent_b2", "near_rate"])
def test_ou_fast_must_agree_with_b2_and_sigma2(model_fields):
    # the exact route samples the declared OU law and every Euler consumer
    # reads b2 and sigma2: a config whose two disagree is refused at load
    bad = copy.deepcopy(preset_to_config(build_example6()))
    bad["model"].update(model_fields)
    with pytest.raises(ConfigError, match="contradicts b2 and sigma2") as exc:
        preset_from_config(bad)
    assert exc.value.key == "ou_fast"


def test_ou_fast_agreeing_with_b2_and_sigma2_loads():
    cfg = copy.deepcopy(preset_to_config(build_example6()))
    cfg["model"].update(b2=["-2.5*z[0]"], sigma2=[["0.5"]], ou_fast={"rate": 2.5, "sigma": 0.5})
    assert preset_from_config(cfg).model.ou_fast == OuFast(2.5, 0.5)


def test_presets_registry():
    assert set(PRESETS) == {"example6", "linear_gaussian"}
    for factory in PRESETS.values():
        preset = factory()
        assert preset.model.n >= 1


def test_validate_assumptions_example6_passes():
    report = validate_assumptions(build_example6(), sample_count=200, stream=RngStream(0))
    assert report.passed
    names = [e.name for e in report.entries]
    assert "lipschitz_coefficients" in names
    assert "sensor_bounded" in names
    assert any("ergodicity" in w for w in report.warnings)


def test_validate_assumptions_linear_preset():
    # no bounds are declared, so those checks are skipped with warnings
    report = validate_assumptions(make_linear_gaussian(), sample_count=100, stream=RngStream(1))
    assert report.passed
    assert any("sensor bound" in w for w in report.warnings)
    assert any("thinning check vacuous" in w for w in report.warnings)


def test_validate_assumptions_flags_wrong_bound():
    cfg = preset_to_config(build_example6())
    bad = copy.deepcopy(cfg)
    bad["model"]["bounds"]["L1"] = 0.05   # sin has slope up to 1
    report = validate_assumptions(preset_from_config(bad), sample_count=300, stream=RngStream(2))
    assert not report.passed
    entry = next(e for e in report.entries if e.name == "lipschitz_coefficients")
    assert entry.satisfied is False
