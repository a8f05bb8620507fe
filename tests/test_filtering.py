"""Particle filter: weights, resampling, invariants, and the reduced-model coupling."""

import math

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyfilter import (
    LevyMeasureSpec,
    MarkSampler,
    ModelViolationError,
    NoiseSource,
    RngStream,
    StepScheme,
    ThinningLaw,
    default_scheme,
    make_linear_gaussian,
    null_measure,
    run_filter,
    simulate_reference_observations,
    vector_field,
    matrix_field,
    PRESETS,
    preset_from_config,
    preset_to_config,
)
from levyfilter.averaging import HomogenizedModel, build_homogenized
from levyfilter.filtering import (
    FullDynamics,
    HomogDynamics,
    _batch_log_weight,
    _log_thinning,
    estimate,
    init_ensemble,
    propagate,
    psi_from_string,
    resample,
    run_filter_batch,
)
from levyfilter.models import check_thinning


# ---------------------------------------------------------------------------
# test functionals


def test_psi_tanh_and_arctan():
    psi = psi_from_string("tanh")
    assert psi.name == "tanh"
    assert psi(np.array([[0.3]])) == pytest.approx(math.tanh(0.3))
    assert (psi.lower, psi.upper) == (-1.0, 1.0)
    psi = psi_from_string("arctan")
    assert psi(np.array([[2.0], [-2.0]])) == pytest.approx(
        [math.atan(2.0), -math.atan(2.0)]
    )


def test_psi_indicator_is_a_soft_window():
    psi = psi_from_string("indicator(-1, 1)")
    assert psi.name == "indicator(-1,1)"
    inside = psi(np.array([[0.0]]))[0]
    outside = psi(np.array([[3.0]]))[0]
    assert inside > 0.999
    assert outside < 1e-6
    assert 0.0 <= outside <= inside <= 1.0


def test_psi_poly_and_clipping():
    psi = psi_from_string("poly(0, 1, 0)")
    assert psi(np.array([[0.7]]))[0] == 0.7
    assert psi(np.array([[3e6]]))[0] == 1e6  # declared bound
    const = psi_from_string("poly(1, 0, 0)")
    assert const(np.array([[123.0]]))[0] == 1.0


@pytest.mark.parametrize("bad", ["indicator(2, 1)", "bogus", "poly(1,2)", "indicator(1)"])
def test_psi_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        psi_from_string(bad)


# ---------------------------------------------------------------------------
# one-step log-weights


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
    """Reference one-step log-weight of a single state, term by term, for
    ``_batch_log_weight`` to be checked against.

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


def test_log_weight_jump_terms_closed_form():
    # One accepted jump under constant thinning 0.5, unit small-jump mass,
    # silent sensor: log-weight = log(0.5) + dt * 1 * (1 - 0.5).
    thin = ThinningLaw("const", (0.5,))
    nu3 = LevyMeasureSpec(1.0, MarkSampler.parse("point(0.0)"), "U3")
    got = log_weight_increment(
        h_value=np.zeros(1),
        d_bbar=np.zeros(1),
        dt=0.1,
        event_times=[0.05],
        event_marks=[np.array([0.3])],
        thinning=thin,
        x=np.array([0.2]),
        t=0.1,
        nu3_small=nu3,
    )
    assert got == pytest.approx(-0.6431471805599453, rel=1e-15)


def test_log_weight_gaussian_part():
    # h·dB - 0.5 dt |h|^2 = 1.2*0.3 - 0.5*0.1*1.44 = 0.288, no jump terms.
    got = log_weight_increment(
        h_value=np.array([1.2]),
        d_bbar=np.array([0.3]),
        dt=0.1,
        event_times=[],
        event_marks=[],
        thinning=ThinningLaw("const", (1.0,)),
        x=np.array([0.0]),
        t=0.1,
        nu3_small=null_measure("U3"),
    )
    assert got == pytest.approx(0.288, rel=1e-14)


def test_log_weight_rejects_bad_thinning_values():
    nu3 = null_measure("U3")
    with pytest.raises(ModelViolationError):
        log_weight_increment(
            h_value=np.zeros(1),
            d_bbar=np.zeros(1),
            dt=0.1,
            event_times=[0.05],
            event_marks=[np.array([0.3])],
            thinning=lambda t, x, u: 1.5,
            x=np.array([0.0]),
            t=0.1,
            nu3_small=nu3,
        )


def _batch_vs_scalar(obs, n_events, seed):
    rng = np.random.default_rng(seed)
    N, d, n = 7, obs.d, 1
    h_vals = rng.normal(size=(N, d))
    x_right = rng.normal(size=(N, n))
    d_bbar = rng.normal(size=d) * 0.1
    dt = 0.05
    ev_t = np.sort(rng.uniform(0.0, dt, size=n_events))
    ev_u = rng.uniform(-1.0, 1.0, size=(n_events, obs.nu3_small.mark_dim))

    def reference(i, db, t_right, rows_events):
        return log_weight_increment(
            h_vals[i], db, dt, ev_t[rows_events], ev_u[rows_events],
            obs.thinning, x_right[i], t_right, obs.nu3_small,
        )

    # filter: one observation increment, every event charged to every particle
    batch = _batch_log_weight(obs, h_vals, x_right, d_bbar, dt, dt, ev_t, ev_u)
    every = np.arange(n_events)
    scalar = np.array([reference(i, d_bbar, dt, every) for i in range(N)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    # diagnostics: one increment per row, each event charged to its own row
    # (per-run in a forward martingale step, per-step on an inverse path)
    row_bbar = rng.normal(size=(N, d)) * 0.1
    owner = rng.integers(0, N, size=n_events)
    no_t, no_u = ev_t[:0], ev_u[:0]
    t_steps = dt * np.arange(1, N + 1)
    for t_right in (dt, t_steps):
        rows = _batch_log_weight(obs, h_vals, x_right, row_bbar, dt, t_right, no_t, no_u)
        np.add.at(rows, owner, _log_thinning(obs, ev_t, x_right[owner], ev_u))
        scalar = np.array([
            reference(i, row_bbar[i], np.broadcast_to(t_right, N)[i], owner == i)
            for i in range(N)
        ])
        np.testing.assert_allclose(rows, scalar, rtol=1e-12)


def test_batch_weights_match_scalar_reference_const_thinning():
    obs = PRESETS["example6"]().observation
    assert obs.thinning.kind == "const"
    _batch_vs_scalar(obs, n_events=3, seed=0)
    _batch_vs_scalar(obs, n_events=0, seed=1)


def test_batch_weights_match_scalar_reference_state_dependent_thinning():
    import dataclasses

    obs = PRESETS["example6"]().observation
    obs = dataclasses.replace(obs, thinning=ThinningLaw("logistic", (0.2, 0.8, 1.5)))
    _batch_vs_scalar(obs, n_events=4, seed=2)


# ---------------------------------------------------------------------------
# ensembles and resampling


def _toy_ensemble(n=4, width=2):
    stream = RngStream(99, 0)
    ens = init_ensemble(n, np.zeros(1), None, stream, width)
    return ens


def test_particle_noise_is_one_draw_per_resample_generation():
    ens = _toy_ensemble(n=3, width=2)
    cols = np.stack([ens.next_noise() for _ in range(12)])
    assert not np.allclose(cols[:4], cols[4:8])
    assert not np.allclose(cols[4:8], cols[8:12])
    # deterministic replay from an identically keyed ensemble
    again = _toy_ensemble(n=3, width=2)
    cols2 = np.stack([again.next_noise() for _ in range(12)])
    np.testing.assert_array_equal(cols, cols2)
    # step k of a generation is row k of one (K, N, width) draw of its stream
    particles = RngStream(99, 0).child(NoiseSource.PARTICLES)
    block = particles.child(0).generator().standard_normal((12, 3, 2))
    for k in range(12):
        np.testing.assert_array_equal(cols[k], block[k])
    # resampling re-keys the ensemble to the next generation's stream
    resample(ens)
    block1 = particles.child(1).generator().standard_normal((1, 3, 2))
    np.testing.assert_array_equal(ens.next_noise(), block1[0])


def test_stacked_rows_draw_from_their_own_streams():
    # row r of a stack reads exactly the noise of a single ensemble on stream r,
    # and resampling one row re-keys that row only
    streams = [RngStream(99, 0), RngStream(99, 1), RngStream(7, 3)]
    stack = init_ensemble(5, np.zeros(1), None, streams, 2)
    assert stack.rows == (3,) and stack.x.shape == (3, 5, 1)
    singles = [init_ensemble(5, np.zeros(1), None, s, 2) for s in streams]
    for _ in range(3):
        block = stack.next_noise()
        assert block.shape == (3, 5, 2)
        for r, single in enumerate(singles):
            np.testing.assert_array_equal(block[r], single.next_noise())
    stack.log_weights[1] = np.log(np.arange(1.0, 6.0))
    singles[1].log_weights = stack.log_weights[1].copy()
    before = stack.x.copy()
    resample(stack, 1)
    resample(singles[1])
    assert list(stack.resample_count) == [0, 1, 0]
    np.testing.assert_array_equal(stack.x[[0, 2]], before[[0, 2]])
    np.testing.assert_array_equal(stack.log_weights[1], singles[1].log_weights)
    block = stack.next_noise()
    for r, single in enumerate(singles):
        np.testing.assert_array_equal(block[r], single.next_noise())


def test_systematic_resample_offspring_counts():
    ens = _toy_ensemble(n=4)
    ens.x = np.array([[1.0], [2.0], [3.0], [4.0]])
    neg_inf = float("-inf")
    ens.log_weights = np.array([math.log(0.75), math.log(0.25), neg_inf, neg_inf])
    resample(ens)
    values, counts = np.unique(ens.x[:, 0], return_counts=True)
    assert list(values) == [1.0, 2.0]
    assert list(counts) == [3, 1]
    # survivors share the mass level: log mean weight of the old ensemble
    assert np.all(ens.log_weights == ens.log_weights[0])
    assert ens.log_weights[0] == pytest.approx(math.log(0.25), rel=1e-15)
    assert ens.resample_count == 1


def test_resample_preserves_unnormalized_mass_bitwise():
    ens = _toy_ensemble(n=16)
    rng = np.random.default_rng(5)
    ens.x = rng.normal(size=(16, 1))
    ens.log_weights = rng.normal(size=16) * 0.8
    one = [psi_from_string("poly(1,0,0)")]
    before = estimate(ens, one)["log_rho1"]
    resample(ens)
    after = estimate(ens, one)["log_rho1"]
    assert after == before


def test_systematic_resample_offspring_within_one_of_proportional():
    rng = np.random.default_rng(17)
    for trial in range(20):
        N = int(rng.integers(3, 40))
        ens = _toy_ensemble(n=N)
        ens.x = np.arange(N, dtype=float)[:, None]
        raw = rng.uniform(0.05, 1.0, size=N)
        ens.log_weights = np.log(raw)
        p = raw / raw.sum()
        resample(ens)
        counts = np.bincount(ens.x[:, 0].astype(int), minlength=N)
        assert np.all(counts >= np.floor(N * p))
        assert np.all(counts <= np.ceil(N * p))


def test_estimate_is_permutation_invariant_up_to_roundoff():
    ens = _toy_ensemble(n=32)
    rng = np.random.default_rng(3)
    ens.x = rng.normal(size=(32, 1))
    ens.log_weights = rng.normal(size=32)
    psis = [psi_from_string("tanh")]
    base = estimate(ens, psis)
    perm = rng.permutation(32)
    ens.x = ens.x[perm]
    ens.log_weights = ens.log_weights[perm]
    permuted = estimate(ens, psis)
    assert permuted["pi"] == pytest.approx(base["pi"], rel=1e-12)
    assert permuted["log_rho1"] == pytest.approx(base["log_rho1"], rel=1e-12)
    assert permuted["ess"] == pytest.approx(base["ess"], rel=1e-12)


def test_estimate_rejects_non_finite_weights():
    ens = _toy_ensemble(n=4)
    ens.log_weights = np.array([0.0, float("nan"), 0.0, 0.0])
    with pytest.raises(ModelViolationError):
        estimate(ens, [psi_from_string("tanh")])


# ---------------------------------------------------------------------------
# full filter runs


def _example6_obs(T=0.25, dt=0.05, seed=42):
    preset = PRESETS["example6"]()
    return preset, simulate_reference_observations(
        preset.observation, T, dt, RngStream(seed, 0)
    )


def test_filter_mass_of_one_is_exactly_one():
    preset, obs = _example6_obs()
    out = run_filter(obs, "full", preset, 32, ["poly(1,0,0)"], RngStream(1, 0))
    assert np.all(out.pi[:, 0] == 1.0)


def test_filter_estimates_respect_functional_bounds():
    preset, obs = _example6_obs(T=0.5, dt=0.05)
    out = run_filter(
        obs, "full", preset, 64,
        ["tanh", "indicator(-0.5,0.5)"], RngStream(2, 0), ess_frac=0.99,
    )
    assert np.all(out.pi[:, 0] >= -1.0) and np.all(out.pi[:, 0] <= 1.0)
    assert np.all(out.pi[:, 1] >= 0.0) and np.all(out.pi[:, 1] <= 1.0)
    assert np.all(np.isfinite(out.log_rho1))
    assert np.all(out.ess >= 1.0) and np.all(out.ess <= 64.0)
    assert out.resample_steps  # ess_frac=0.99 forces at least one resample


def test_filter_runs_are_deterministic():
    preset, obs = _example6_obs(T=0.5, dt=0.05)
    a = run_filter(obs, "full", preset, 48, ["tanh"], RngStream(7, 0))
    b = run_filter(obs, "full", preset, 48, ["tanh"], RngStream(7, 0))
    np.testing.assert_array_equal(a.pi, b.pi)
    np.testing.assert_array_equal(a.log_rho1, b.log_rho1)
    assert a.resample_steps == b.resample_steps
    c = run_filter(obs, "full", preset, 48, ["tanh"], RngStream(8, 0))
    assert not np.array_equal(a.pi, c.pi)


def test_unnormalized_mass_is_mean_one_under_reference_law():
    # rho-hat(1) at the terminal time is a discrete-time martingale started at
    # one when the observations carry no signal; check the ensemble mean.
    preset = PRESETS["example6"]()
    n_runs = 400
    vals = np.empty(n_runs)
    for r in range(n_runs):
        obs = simulate_reference_observations(
            preset.observation, 0.25, 0.05, RngStream(1000, r)
        )
        out = run_filter(obs, "full", preset, 64, ["tanh"], RngStream(2000, r))
        vals[r] = math.exp(out.log_rho1[-1])
    se = vals.std(ddof=1) / math.sqrt(n_runs)
    assert abs(vals.mean() - 1.0) < 3.0 * se + 1e-12


def test_run_filter_default_scheme_fills_the_step_with_equal_substeps():
    # Euler fast mode at eps = 0.03, dt = 0.01: eps/10 does not divide dt, so
    # the default takes 4 substeps of 0.0025
    cfg = preset_to_config(PRESETS["example6"](epsilon=0.03))
    del cfg["model"]["ou_fast"]
    preset = preset_from_config(cfg)
    obs = simulate_reference_observations(preset.observation, 0.05, 0.01, RngStream(4, 0))
    scheme = default_scheme(preset.model, 0.01)
    assert scheme.substeps == 4
    implicit = run_filter(obs, "full", preset, 16, ["tanh"], RngStream(5, 0))
    explicit = run_filter(obs, "full", preset, 16, ["tanh"], RngStream(5, 0), scheme=scheme)
    np.testing.assert_array_equal(implicit.pi, explicit.pi)
    np.testing.assert_array_equal(implicit.log_rho1, explicit.log_rho1)


def test_run_filter_validation_errors():
    preset, obs = _example6_obs()
    stream = RngStream(3, 0)
    with pytest.raises(ValueError, match="mode"):
        run_filter(obs, "reduced", preset, 8, ["tanh"], stream)
    with pytest.raises(ValueError, match="homogenized model"):
        run_filter(obs, "homog", preset, 8, ["tanh"], stream)
    with pytest.raises(ValueError, match="ess_frac"):
        run_filter(obs, "full", preset, 8, ["tanh"], stream, ess_frac=0.0)
    with pytest.raises(ValueError, match="functional"):
        run_filter(obs, "full", preset, 8, [], stream)
    bad_scheme = StepScheme(dt_slow=0.1, fast_mode="exact_ou")
    with pytest.raises(ValueError, match="observation spacing"):
        run_filter(obs, "full", preset, 8, ["tanh"], stream, scheme=bad_scheme)
    with pytest.raises(ValueError, match="noise_width"):
        run_filter(obs, "full", preset, 8, ["tanh"], stream, noise_width=1)


def test_run_filter_batch_validation_errors():
    preset, obs = _example6_obs()
    stream = RngStream(3, 0)
    with pytest.raises(ValueError, match="one run stream per record"):
        run_filter_batch([obs, obs], "full", preset, 8, ["tanh"], [stream])
    with pytest.raises(ValueError, match="one run stream per record"):
        run_filter_batch([], "full", preset, 8, ["tanh"], [])
    _, longer = _example6_obs(T=0.5)
    with pytest.raises(ValueError, match="one time grid"):
        run_filter_batch([obs, longer], "full", preset, 8, ["tanh"], [stream, stream])


# ---------------------------------------------------------------------------
# batched records


_BATCH_PRESET = PRESETS["example6"](small_jump_intensity=25.0)
_BATCH_HMODEL = build_homogenized(_BATCH_PRESET)


def _reference_filter(rec, mode, preset, n, psis, stream, hmodel, ess_frac, width):
    """The single-record filter as a plain step loop over one (N,) ensemble:
    every event of a step goes through the weight kernel with that step's
    Gaussian and compensator terms."""
    psis = [psi_from_string(p) for p in psis]
    obs, dt, K = preset.observation, rec.dt, rec.steps
    if mode == "full":
        dynamics = FullDynamics(preset.model, default_scheme(preset.model, dt))
        ens = init_ensemble(n, preset.model.x0, preset.model.z0, stream, width)
    else:
        dynamics = HomogDynamics(hmodel)
        ens = init_ensemble(n, hmodel.x0, None, stream, width)
    step_of_event = rec.small_step_index()
    rows, resample_steps = [estimate(ens, psis)], []
    for k in range(K):
        propagate(ens, dynamics, dt)
        h_vals = obs.h(ens.x, ens.z) if mode == "full" else hmodel.hbar(ens.x)
        mine = step_of_event == k
        ens.log_weights = ens.log_weights + _batch_log_weight(
            obs, h_vals, ens.x, rec.bbar_increments[k], dt, float(rec.times[k + 1]),
            rec.small_times[mine], rec.small_marks[mine],
        )
        rows.append(estimate(ens, psis))
        if rows[-1]["ess"] < ess_frac * n and k < K - 1:
            resample(ens)
            resample_steps.append(k + 1)
    return (
        np.array([r["pi"] for r in rows]), np.array([r["log_rho1"] for r in rows]),
        np.array([r["ess"] for r in rows]), resample_steps,
    )


def _batch_against_single_records(n_rows, seed, mode, ess_frac, thinning="const"):
    """Run ``n_rows`` records as one stack, assert that every row is bitwise the
    single-record filter on its record and stream (``run_filter`` and the
    reference loop), and return the outputs."""
    preset = _BATCH_PRESET
    if thinning == "logistic":
        obs = dataclasses.replace(
            preset.observation, thinning=ThinningLaw("logistic", (0.2, 0.8, 1.5))
        )
        preset = dataclasses.replace(preset, observation=obs)
    records = [
        simulate_reference_observations(preset.observation, 0.3, 0.02, RngStream(seed, 2 * r))
        for r in range(n_rows)
    ]
    streams = [RngStream(seed, 2 * r + 1) for r in range(n_rows)]
    kwargs = dict(hmodel=_BATCH_HMODEL, ess_frac=ess_frac, noise_width=2)
    psis = ["tanh", "poly(0,1,0)"]
    outs = run_filter_batch(records, mode, preset, 24, psis, streams, **kwargs)
    assert len(outs) == n_rows
    for rec, stream, out in zip(records, streams, outs):
        one = run_filter(rec, mode, preset, 24, psis, stream, **kwargs)
        np.testing.assert_array_equal(out.pi, one.pi)
        np.testing.assert_array_equal(out.log_rho1, one.log_rho1)
        np.testing.assert_array_equal(out.ess, one.ess)
        assert out.resample_steps == one.resample_steps
        np.testing.assert_array_equal(out.times, one.times)
        pi, log_rho1, ess, resample_steps = _reference_filter(
            rec, mode, preset, 24, psis, stream, _BATCH_HMODEL, ess_frac, 2
        )
        np.testing.assert_array_equal(out.pi, pi)
        np.testing.assert_array_equal(out.log_rho1, log_rho1)
        np.testing.assert_array_equal(out.ess, ess)
        assert out.resample_steps == resample_steps
    return records, outs


@settings(max_examples=20)
@given(
    n_rows=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["full", "homog"]),
    ess_frac=st.sampled_from([0.5, 0.99]),
    thinning=st.sampled_from(["const", "logistic"]),
)
def test_batched_rows_are_bitwise_single_record_filters(n_rows, seed, mode, ess_frac, thinning):
    records, _ = _batch_against_single_records(n_rows, seed, mode, ess_frac, thinning)
    # at 25 small jumps per unit time the rows' events fall at different steps
    if n_rows > 1:
        assert len({tuple(np.unique(rec.small_step_index())) for rec in records}) > 1


@pytest.mark.parametrize("mode", ["full", "homog"])
def test_batched_rows_resample_at_their_own_steps(mode):
    _, outs = _batch_against_single_records(3, 1, mode, 0.99)
    assert all(out.resample_steps for out in outs)
    assert len({tuple(out.resample_steps) for out in outs}) == 3


# ---------------------------------------------------------------------------
# reduced-model coupling


def _linear_reduced_model(preset):
    """On the linear-Gaussian model the slow dynamics do not feel the fast
    component, so the reduced model with the same coefficient expressions
    reproduces the slow particle dynamics operation for operation."""
    model = preset.model
    sigma = float(model.sigma1(model.x0[None, :], model.z0[None, :])[0, 0, 0])
    return HomogenizedModel(
        n=1,
        d=1,
        l_factor=1,
        x0=model.x0.copy(),
        bbar1=vector_field(["0.0 - 1.0*x[0]"], ("x",)),
        sigmabar1=matrix_field([[repr(sigma)]], ("x",)),
        hbar=vector_field(["x[0]"], ("x",)),
        f1=None,
        nu1=null_measure("U1"),
        mode="manual",
    )


def test_dynamics_noise_widths():
    preset = PRESETS["example6"]()
    scheme = StepScheme(dt_slow=0.05, fast_mode="exact_ou")
    assert FullDynamics(preset.model, scheme).noise_width == preset.model.l1 + 1
    euler = StepScheme(dt_slow=0.05, fast_mode="euler", dt_fast=0.05 / 10)
    assert (
        FullDynamics(preset.model, euler).noise_width
        == preset.model.l1 + 10 * preset.model.l2
    )
    hmodel = _linear_reduced_model(make_linear_gaussian())
    assert HomogDynamics(hmodel).noise_width == 1


def test_full_and_reduced_filters_coincide_when_reduction_is_exact():
    # Shared stream + widened noise block => both filters consume identical
    # slow-noise columns; on the linear model the two state recursions are the
    # same arithmetic, so every estimate matches bitwise.
    preset = make_linear_gaussian()
    hmodel = _linear_reduced_model(preset)
    obs = simulate_reference_observations(
        preset.observation, 0.5, 0.05, RngStream(21, 0)
    )
    width = preset.model.l1 + 1  # what the full dynamics consume per step
    full = run_filter(
        obs, "full", preset, 64, ["tanh", "poly(0,1,0)"], RngStream(22, 0)
    )
    reduced = run_filter(
        obs, "homog", preset, 64, ["tanh", "poly(0,1,0)"], RngStream(22, 0),
        hmodel=hmodel, noise_width=width,
    )
    np.testing.assert_array_equal(full.pi, reduced.pi)
    np.testing.assert_array_equal(full.log_rho1, reduced.log_rho1)
    np.testing.assert_array_equal(full.ess, reduced.ess)
    assert full.resample_steps == reduced.resample_steps
    # without the widened block the reduced filter reads different columns
    narrow = run_filter(
        obs, "homog", preset, 64, ["tanh", "poly(0,1,0)"], RngStream(22, 0),
        hmodel=hmodel,
    )
    assert not np.array_equal(full.pi, narrow.pi)


# ---------------------------------------------------------------------------
# output container


def test_filter_output_csv_roundtrip(tmp_path):
    preset, obs = _example6_obs(T=0.25, dt=0.05)
    out = run_filter(
        obs, "full", preset, 16, ["tanh", "indicator(-1,1)"], RngStream(5, 0)
    )
    path = tmp_path / "filter.csv"
    out.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[1].startswith("pi_tanh")
    assert all(ch not in header[2] for ch in "(), ")
    assert header[-2:] == ["rho1", "ess"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(out.times), len(out.psi_names) + 3)
    np.testing.assert_allclose(data[:, 0], out.times, rtol=1e-12)
    np.testing.assert_allclose(data[:, 1], out.pi[:, 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(data[:, -1], out.ess, rtol=1e-12)
