"""Particle filter: weights, resampling, invariants, and the reduced-model coupling."""

import contextlib
import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyfilter import (
    IntegrationFailureError,
    LevyMeasureSpec,
    MarkSampler,
    ModelViolationError,
    NoiseSource,
    RngStream,
    ThinningLaw,
    make_linear_gaussian,
    null_measure,
    run_filter,
    simulate_full,
    simulate_reference_observations,
    vector_field,
    matrix_field,
    PRESETS,
    preset_from_config,
    preset_to_config,
)
from levyfilter.averaging import HomogenizedModel, build_homogenized
from levyfilter.experiments import filter_convergence_study
from levyfilter.filtering import (
    FullDynamics,
    HomogDynamics,
    ParticleEnsemble,
    _batch_log_weight,
    estimate,
    init_ensemble,
    propagate,
    psi_from_string,
    resample,
    run_filter_batch,
)
from levyfilter.models import check_thinning
from levyfilter.sde import euler_step
from test_sde import without_ou


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
    thinning,
    x,
    t: float,
    nu3_small,
) -> float:
    """Reference one-step log-weight of a single state, term by term, for
    ``_batch_log_weight`` to be checked against.

    ``h_value`` is the sensor at the step's right endpoint, ``d_bbar`` the
    increment of the h-shifted observation Brownian part over the step, and
    ``event_times`` the times of the small-region observation jumps inside
    the step; the acceptance law ``thinning`` is lambda(t, x).
    """
    h = np.asarray(h_value, dtype=float).reshape(-1)
    db = np.asarray(d_bbar, dtype=float).reshape(-1)
    if h.shape != db.shape:
        raise ValueError(f"h has shape {h.shape} but the increment has shape {db.shape}")
    out = float(h @ db) - 0.5 * dt * float(h @ h)
    x = np.asarray(x, dtype=float)
    for tj in event_times:
        out += math.log(float(check_thinning(thinning(tj, x))))
    if nu3_small.total_intensity > 0:
        # the compensator as a mark quadrature of the law, which reads no mark
        comp = nu3_small.integrate(lambda u: np.full(len(u), 1.0 - thinning(t, x)))
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
            thinning=lambda t, x: 1.5,
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
            h_vals[i], db, dt, ev_t[rows_events], obs.thinning, x_right[i], t_right, obs.nu3_small,
        )

    # filter: one record of N particles, every event charged to every particle
    every = np.arange(n_events)
    batch = _batch_log_weight(obs, h_vals[None], x_right[None], d_bbar, dt, dt,
                              (np.zeros(n_events, dtype=int), ev_t, ev_u))[0]
    scalar = np.array([reference(i, d_bbar, dt, every) for i in range(N)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    # diagnostics: one increment per row, each event charged to its own row
    # (per-run in a forward martingale step, per-step on an inverse path)
    row_bbar = rng.normal(size=(N, d)) * 0.1
    owner = rng.integers(0, N, size=n_events)
    t_steps = dt * np.arange(1, N + 1)
    for t_right in (dt, t_steps):
        rows = _batch_log_weight(obs, h_vals, x_right, row_bbar, dt, t_right, (owner, ev_t, ev_u))
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


def _toy_ensemble(n=4):
    """A one-row stack of n particles on the run stream RngStream(99, 0)."""
    return init_ensemble(n, np.zeros(1), None, [RngStream(99, 0)])


def _resample_rows(ens, rows):
    """Resample ``rows`` of ``ens`` with the weights ``estimate`` writes for
    them, as the filter does after a step."""
    R, N = ens.log_weights.shape
    weights = (np.empty((R, 1)), np.empty((R, N)), np.empty(R))
    est = estimate(ens, [], weights)
    for r in rows:
        resample(ens, r, (weights[1][r], weights[2][r], est["log_rho1"][r]))


# a slow block and a substep-major fast block, as the Euler-route full dynamics read
_TOY_SHAPES = ((3, 2), (2, 3, 1))


def test_particle_noise_is_one_draw_per_source_for_the_whole_run():
    # the row resamples after steps 1, 4, 7 and 10 and re-keys nothing: step k
    # still reads row k of one (K, *shape) draw of each source's stream
    ens = _toy_ensemble(n=3)
    rng = np.random.default_rng(4)
    steps = []
    for k in range(12):
        steps.append(ens.next_noise(_TOY_SHAPES, {}))
        if k % 3 == 1:
            ens.log_weights[0] = rng.normal(size=3)
            _resample_rows(ens, [0])
    for s in range(2):
        cols = np.stack([blocks[s] for blocks in steps])
        assert not np.allclose(cols[:4], cols[4:8])
        assert not np.allclose(cols[4:8], cols[8:12])
    # deterministic replay from an ensemble on the same stream that never resamples
    again = _toy_ensemble(n=3)
    for blocks in steps:
        for block, replay in zip(blocks, again.next_noise(_TOY_SHAPES, {})):
            np.testing.assert_array_equal(block, replay)
    particles = RngStream(99, 0).child(NoiseSource.PARTICLES).child(0)
    sources = (NoiseSource.SLOW_BROWNIAN, NoiseSource.FAST_BROWNIAN)
    for s, (source, shape) in enumerate(zip(sources, _TOY_SHAPES)):
        block = particles.child(source).generator().standard_normal((12,) + shape)
        for k in range(12):
            np.testing.assert_array_equal(steps[k][s], block[k][None])


def test_stacked_rows_draw_from_their_own_streams():
    # row r of a stack reads exactly the noise of a one-row stack on stream r,
    # and resampling one row moves that row's particles only
    streams = [RngStream(99, 0), RngStream(99, 1), RngStream(7, 3)]
    shapes = ((5, 2), (2, 5, 1))
    stack = init_ensemble(5, np.zeros(1), None, streams)
    assert stack.x.shape == (3, 5, 1) and stack.log_weights.shape == (3, 5)
    singles = [init_ensemble(5, np.zeros(1), None, [s]) for s in streams]

    def check_rows():
        blocks = stack.next_noise(shapes, {})
        assert [b.shape for b in blocks] == [(3, 5, 2), (3, 2, 5, 1)]
        for r, single in enumerate(singles):
            for block, alone in zip(blocks, single.next_noise(shapes, {})):
                np.testing.assert_array_equal(block[r], alone[0])

    for _ in range(3):
        check_rows()
    stack.log_weights[1] = np.log(np.arange(1.0, 6.0))
    singles[1].log_weights[0] = stack.log_weights[1]
    stack.x[:] = singles[1].x[0] = np.arange(5.0)[:, None]
    before = stack.x.copy()
    _resample_rows(stack, [1])
    _resample_rows(singles[1], [0])
    np.testing.assert_array_equal(stack.x[[0, 2]], before[[0, 2]])
    np.testing.assert_array_equal(stack.x[1], singles[1].x[0])
    assert not np.array_equal(stack.x[1], before[1])
    np.testing.assert_array_equal(stack.log_weights[1], singles[1].log_weights[0])
    check_rows()


def test_resampling_offsets_are_one_stream_per_row():
    # the g-th resample of a row reads uniform g of the row's RESAMPLING stream
    rng = np.random.default_rng(3)
    x, logw = rng.normal(size=(16, 1)), rng.normal(size=16)
    uniforms = RngStream(99, 0).child(NoiseSource.RESAMPLING).generator().uniform(size=3)
    ens = _toy_ensemble(n=16)
    for g, u0 in enumerate(uniforms):
        ens.x[0], ens.log_weights[0] = x, logw
        _resample_rows(ens, [0])
        w = np.exp(logw - logw.max())
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, (u0 + np.arange(16)) / 16, side="left")
        np.testing.assert_array_equal(ens.x[0], x[idx])


def test_systematic_resample_offspring_counts():
    ens = _toy_ensemble(n=4)
    ens.x[0] = np.array([[1.0], [2.0], [3.0], [4.0]])
    # the last two weights underflow to exactly zero against the largest
    ens.log_weights[0] = np.array([math.log(0.75), math.log(0.25), -1000.0, -1000.0])
    _resample_rows(ens, [0])
    values, counts = np.unique(ens.x[0, :, 0], return_counts=True)
    assert list(values) == [1.0, 2.0]
    assert list(counts) == [3, 1]
    # survivors share the mass level: log mean weight of the old ensemble
    assert np.all(ens.log_weights == ens.log_weights[0, 0])
    assert ens.log_weights[0, 0] == pytest.approx(math.log(0.25), rel=1e-15)


def test_resample_preserves_unnormalized_mass_bitwise():
    ens = _toy_ensemble(n=16)
    rng = np.random.default_rng(5)
    ens.x = rng.normal(size=(1, 16, 1))
    ens.log_weights = rng.normal(size=(1, 16)) * 0.8
    one = [psi_from_string("poly(1,0,0)")]
    before = estimate(ens, one)["log_rho1"]
    _resample_rows(ens, [0])
    after = estimate(ens, one)["log_rho1"]
    assert after.tobytes() == before.tobytes()


def test_systematic_resample_offspring_within_one_of_proportional():
    rng = np.random.default_rng(17)
    for trial in range(20):
        N = int(rng.integers(3, 40))
        ens = _toy_ensemble(n=N)
        ens.x[0] = np.arange(N, dtype=float)[:, None]
        raw = rng.uniform(0.05, 1.0, size=N)
        ens.log_weights[0] = np.log(raw)
        p = raw / raw.sum()
        _resample_rows(ens, [0])
        counts = np.bincount(ens.x[0, :, 0].astype(int), minlength=N)
        assert np.all(counts >= np.floor(N * p))
        assert np.all(counts <= np.ceil(N * p))


def test_estimate_is_permutation_invariant_up_to_roundoff():
    ens = _toy_ensemble(n=32)
    rng = np.random.default_rng(3)
    ens.x = rng.normal(size=(1, 32, 1))
    ens.log_weights = rng.normal(size=(1, 32))
    psis = [psi_from_string("tanh")]
    base = estimate(ens, psis)
    perm = rng.permutation(32)
    ens.x = ens.x[:, perm]
    ens.log_weights = ens.log_weights[:, perm]
    permuted = estimate(ens, psis)
    assert permuted["pi"] == pytest.approx(base["pi"], rel=1e-12)
    assert permuted["log_rho1"] == pytest.approx(base["log_rho1"], rel=1e-12)
    assert permuted["ess"] == pytest.approx(base["ess"], rel=1e-12)


class _ToyDynamics:
    """Moves every fast state by ``kick`` per step of 0.25 and leaves the slow state."""

    dt = 0.25

    def __init__(self, kick):
        self.kick = kick

    def step(self, x, z, noise):
        return x, z + self.kick


def test_non_finite_particle_states_fail_with_their_time():
    # propagate checks the slow and the fast state by the one rule of the
    # simulators: IntegrationFailureError carrying the time of the step; finite
    # states whose sum overflows pass, with no floating-point warning
    for bad in (np.nan, np.inf, -np.inf):
        ens = init_ensemble(3, np.zeros(1), np.zeros(1), [RngStream(1), RngStream(2)])
        ens.z[0, :2] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            propagate(ens, _ToyDynamics(1.0), ())
        with pytest.raises(IntegrationFailureError, match="t=0.5") as info:
            propagate(ens, _ToyDynamics(bad), ())
        assert info.value.time == 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_estimate_rejects_non_finite_weights(bad):
    ens = init_ensemble(4, np.zeros(1), None, [RngStream(99, r) for r in range(3)])
    ens.log_weights[1, 2] = bad
    with pytest.raises(ModelViolationError):
        estimate(ens, [psi_from_string("tanh")])


def test_estimate_takes_finite_weights_whose_sum_overflows():
    # every entry is finite, but a sum over them is not: no raise and no warning
    ens = init_ensemble(4, np.zeros(1), None, [RngStream(99, r) for r in range(2)])
    ens.log_weights[0], ens.log_weights[1] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate(ens, [psi_from_string("tanh")])
    np.testing.assert_array_equal(est["log_rho1"], [1e308, -1e308])
    np.testing.assert_array_equal(est["ess"], [4.0, 4.0])


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
    # the Euler route at eps = 0.03, dt = 0.01: eps/10 does not divide dt, so
    # the default takes 4 substeps of 0.0025
    preset = without_ou(PRESETS["example6"](epsilon=0.03))
    obs = simulate_reference_observations(preset.observation, 0.05, 0.01, RngStream(4, 0))
    assert FullDynamics(preset.model, 0.01).substeps == 4
    implicit = run_filter(obs, "full", preset, 16, ["tanh"], RngStream(5, 0))
    explicit = run_filter(obs, "full", preset, 16, ["tanh"], RngStream(5, 0), scheme=0.01)
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
    with pytest.raises(ValueError, match="observation spacing"):
        run_filter(obs, "full", preset, 8, ["tanh"], stream, scheme=0.1)


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


def _reference_filter(rec, mode, preset, n, psis, stream, hmodel, ess_frac):
    """The single-record filter as a plain step loop over a one-row stack:
    every event of a step goes through the weight kernel with that step's
    Gaussian and compensator terms, and a resample reads the step's weights."""
    psis = [psi_from_string(p) for p in psis]
    obs, dt, K = preset.observation, rec.dt, rec.steps
    if mode == "full":
        dynamics = FullDynamics(preset.model, dt)
        ens = init_ensemble(n, preset.model.x0, preset.model.z0, [stream])
    else:
        dynamics = HomogDynamics(hmodel, dt)
        ens = init_ensemble(n, hmodel.x0, None, [stream])
    step_of_event = rec.small_step_index()
    _, w, den = weights = (np.empty((1, 1)), np.empty((1, n)), np.empty(1))
    rows, resample_steps = [estimate(ens, psis, weights)], []
    for k in range(K):
        propagate(ens, dynamics, ens.next_noise(dynamics.blocks(n), {}))
        h_vals = obs.h(ens.x, ens.z) if mode == "full" else hmodel.hbar(ens.x)
        mine = step_of_event == k
        events = (np.zeros(mine.sum(), dtype=int), rec.small_times[mine], rec.small_marks[mine])
        ens.log_weights = ens.log_weights + _batch_log_weight(
            obs, h_vals, ens.x, rec.bbar_increments[k], dt, float(rec.times[k + 1]), events)
        rows.append(estimate(ens, psis, weights))
        if rows[-1]["ess"][0] < ess_frac * n and k < K - 1:
            resample(ens, 0, (w[0], den[0], rows[-1]["log_rho1"][0]))
            resample_steps.append(k + 1)
    return (
        np.array([r["pi"][0] for r in rows]), np.array([r["log_rho1"][0] for r in rows]),
        np.array([r["ess"][0] for r in rows]), resample_steps,
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
    kwargs = dict(hmodel=_BATCH_HMODEL, ess_frac=ess_frac)
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
            rec, mode, preset, 24, psis, stream, _BATCH_HMODEL, ess_frac
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


@pytest.mark.parametrize("ess_frac", [0.5, 0.97, 0.99, 1.0])
def test_coupled_pass_is_bitwise_two_single_mode_passes(ess_frac):
    # one step loop for both modes; rows whose modes resample at different
    # steps stop sharing their noise draw and must still match
    preset = _BATCH_PRESET
    records = [
        simulate_reference_observations(preset.observation, 1.0, 0.02, RngStream(8, 2 * r))
        for r in range(5)
    ]
    streams = [RngStream(8, 2 * r + 1) for r in range(5)]
    psis = ["tanh", "poly(0,1,0)"]
    kwargs = dict(hmodel=_BATCH_HMODEL, ess_frac=ess_frac)
    full, homog = run_filter_batch(records, "both", preset, 24, psis, streams, **kwargs)
    for mode, coupled in (("full", full), ("homog", homog)):
        alone = run_filter_batch(records, mode, preset, 24, psis, streams, **kwargs)
        for a, b in zip(coupled, alone):
            assert a.mode == b.mode == mode
            np.testing.assert_array_equal(a.pi, b.pi)
            np.testing.assert_array_equal(a.log_rho1, b.log_rho1)
            np.testing.assert_array_equal(a.ess, b.ess)
            assert a.resample_steps == b.resample_steps
    if ess_frac in (0.97, 0.99):
        assert any(f.resample_steps != h.resample_steps for f, h in zip(full, homog))
    # the single-record form returns the same pair
    one_full, one_homog = run_filter(records[1], "both", preset, 24, psis, streams[1], **kwargs)
    np.testing.assert_array_equal(one_full.pi, full[1].pi)
    np.testing.assert_array_equal(one_homog.pi, homog[1].pi)


def test_coupled_pass_draws_a_shared_block_once(monkeypatch):
    # both modes read one slow stream per row for the whole run, so at every
    # step, whether the full row resampled or not, the row holds one slow key:
    # the reduced ensemble reads the full ensemble's slow block and adopts its
    # generator, the fast block is the full ensemble's alone, and the pass
    # builds one generator per source for the row plus its resampling offsets
    slow = RngStream(1, 0).child(NoiseSource.PARTICLES).child(0).child(NoiseSource.SLOW_BROWNIAN)
    expected = slow.generator().standard_normal((4, 6, 1))
    built = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda s: built.append(s) or generator(s))
    preset = PRESETS["example6"]()
    full_shapes = FullDynamics(preset.model, 0.05).blocks(6)
    homog_shapes = ((6, 1),)
    full = init_ensemble(6, preset.model.x0, preset.model.z0, [RngStream(1, 0)])
    homog = init_ensemble(6, preset.model.x0, None, [RngStream(1, 0)])
    rng = np.random.default_rng(1)
    for k in range(4):
        cache = {}
        slow_f, fast_f = full.next_noise(full_shapes, cache)
        (slow_h,) = homog.next_noise(homog_shapes, cache)
        assert slow_h is slow_f and not slow_f.flags.writeable and not fast_f.flags.writeable
        assert len(cache) == 2 and homog._noise[0][1][0] is full._noise[0][1][0]
        np.testing.assert_array_equal(slow_h[0], expected[k])
        full.log_weights[0] = rng.normal(size=6)
        _resample_rows(full, [0])
    offsets = RngStream(1, 0).child(NoiseSource.RESAMPLING)
    assert [s.stream_id for s in built].count(offsets.stream_id) == 1
    assert len(built) == 3 and homog._noise[1][1] == [None]   # no fast generator


def test_resample_moves_only_its_row():
    # a resample of row 2 reads the weights estimate wrote for that row and
    # leaves the other rows' particles and weights alone
    stack = init_ensemble(4, np.zeros(1), None, [RngStream(5, r) for r in range(3)])
    stack.x = np.arange(12.0).reshape(3, 4, 1)
    stack.log_weights[2] = np.log([0.1, 0.1, 0.1, 0.7])
    before, logw = stack.x.copy(), stack.log_weights.copy()
    _, w, den = weights = (np.empty((3, 1)), np.empty((3, 4)), np.empty(3))
    est = estimate(stack, [], weights)
    np.testing.assert_array_equal(w, np.exp(logw - logw.max(axis=-1, keepdims=True)))
    resample(stack, 2, (w[2], den[2], est["log_rho1"][2]))
    np.testing.assert_array_equal(stack.x[:2], before[:2])
    np.testing.assert_array_equal(stack.log_weights[:2], logw[:2])
    assert not np.array_equal(stack.x[2], before[2]) and set(stack.x[2, :, 0]) <= {8, 9, 10, 11}
    assert np.all(stack.log_weights[2] == est["log_rho1"][2])


_finite = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@settings(max_examples=50)
@given(rows=st.integers(1, 5), n=st.integers(1, 3), data=st.data())
def test_one_column_paths_are_the_general_reductions(rows, n, data):
    # euler_step with one noise column and the Gaussian log-weight with d = 1
    # take plain products; they equal the einsum and the sums over a length-1 axis
    def arr(shape):
        return np.array(data.draw(st.lists(_finite, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    x, drift, diffusion, dV = arr((rows, n)), arr((rows, n)), arr((rows, n, 1)), arr((rows, 1))
    dt = data.draw(st.floats(1e-4, 1.0))
    np.testing.assert_array_equal(
        euler_step(x, drift, diffusion, dV, dt),
        x + drift * dt + np.einsum("...nl,...l->...n", diffusion, dV),
    )
    # a shared diffusion matrix broadcasts over the rows as the einsum does
    np.testing.assert_array_equal(
        euler_step(x, drift, diffusion[0], dV, dt),
        x + drift * dt + np.einsum("...nl,...l->...n", diffusion[0], dV),
    )
    obs = make_linear_gaussian().observation       # no observation jumps
    h_vals, d_bbar = arr((rows, 4, 1)), arr((rows, 1, 1))
    np.testing.assert_array_equal(
        _batch_log_weight(obs, h_vals, x, d_bbar, dt, 1.0, ()),
        np.sum(h_vals * d_bbar, axis=-1) - 0.5 * dt * np.sum(h_vals * h_vals, axis=-1),
    )


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
    dt = 0.05
    assert FullDynamics(preset.model, dt).noise_width == preset.model.l1 + 1
    assert FullDynamics(preset.model, dt).blocks(7) == ((7, preset.model.l1), (1, 7, 1))
    euler = without_ou(preset).model      # epsilon 0.1: 5 substeps of 0.01
    assert FullDynamics(euler, dt).noise_width == euler.l1 + 5 * euler.l2
    assert FullDynamics(euler, dt).blocks(7) == ((7, euler.l1), (5, 7, euler.l2))
    hmodel = _linear_reduced_model(make_linear_gaussian())
    assert HomogDynamics(hmodel, dt).blocks(7) == ((7, 1),)


def test_full_and_reduced_filters_coincide_when_reduction_is_exact():
    # both filters read the same slow blocks of one run stream; on the linear
    # model the two state recursions are the same arithmetic, so every
    # estimate matches bitwise, with no argument coupling the two runs
    preset = make_linear_gaussian()
    hmodel = _linear_reduced_model(preset)
    obs = simulate_reference_observations(
        preset.observation, 0.5, 0.05, RngStream(21, 0)
    )
    full = run_filter(
        obs, "full", preset, 64, ["tanh", "poly(0,1,0)"], RngStream(22, 0), ess_frac=0.99,
    )
    reduced = run_filter(
        obs, "homog", preset, 64, ["tanh", "poly(0,1,0)"], RngStream(22, 0), hmodel=hmodel,
        ess_frac=0.99,
    )
    np.testing.assert_array_equal(full.pi, reduced.pi)
    np.testing.assert_array_equal(full.log_rho1, reduced.log_rho1)
    np.testing.assert_array_equal(full.ess, reduced.ess)
    assert full.resample_steps == reduced.resample_steps
    assert full.resample_steps      # the runs resample


def _particle_source(stream):
    """The noise source of a particle block stream (run, PARTICLES, generation,
    source), or None for any other stream."""
    mask = (1 << 64) - 1
    if (stream.stream_id >> 128) & mask != NoiseSource.PARTICLES:
        return None
    return stream.stream_id & mask


def _count_particle_draws(monkeypatch) -> list:
    """Spy on generator builds: returns a list that collects (source, normals)
    for every particle block drawn."""
    draws = []
    generator = RngStream.generator

    class Counting:
        def __init__(self, gen, source):
            self.gen, self.source = gen, source

        def standard_normal(self, *args, out=None, **kwargs):
            draws.append((self.source, out.size))
            return self.gen.standard_normal(*args, out=out, **kwargs)

    def spy(stream):
        source = _particle_source(stream)
        return generator(stream) if source is None else Counting(generator(stream), source)

    monkeypatch.setattr(RngStream, "generator", spy)
    return draws


def test_reduced_filter_draws_no_fast_block(monkeypatch):
    preset, obs = _example6_obs(T=0.3)
    draws = _count_particle_draws(monkeypatch)
    out = run_filter(obs, "homog", preset, 32, ["tanh"], RngStream(4, 1),
                     hmodel=build_homogenized(preset), ess_frac=0.99)
    assert out.resample_steps and draws
    assert {source for source, _ in draws} == {NoiseSource.SLOW_BROWNIAN}


def uncoupled_example6():
    """example6 with n = 2 slow states driven by l1 = 1 Brownian motion: the
    closed-form reduced model has l_factor = n = 2."""
    cfg = preset_to_config(PRESETS["example6"]())
    cfg["model"].update(n=2, x0=[0.5, 0.0], b1=["sin(z[0])", "sin(z[0])"],
                        sigma1=[["1.0"], ["0.5"]], bounds=None)
    cfg["model"]["closed_form"].update(bbar1=[0.0, 0.0], abar=[[1.0, 0.5], [0.5, 0.25]])
    return preset_from_config(cfg)


def test_full_and_reduced_filters_share_slow_blocks_only_in_one_shape(monkeypatch):
    # the full filter reads slow blocks (N, l1), the reduced one (N, l_factor):
    # on example6 (l1 = l_factor = 1) a step's cache holds the shared slow key
    # and the fast key; on the variant with l_factor = 2 the slow keys differ,
    # the pair is not coupled and a warning says so; either way each filter of
    # the pass is bitwise its single-mode run
    keys = []
    next_noise = ParticleEnsemble.next_noise

    def spy_noise(self, shapes, cache):
        blocks = next_noise(self, shapes, cache)
        keys.append(len(cache))
        return blocks

    monkeypatch.setattr(ParticleEnsemble, "next_noise", spy_noise)
    for preset, n_keys in ((PRESETS["example6"](), 2), (uncoupled_example6(), 3)):
        hmodel = build_homogenized(preset)
        assert (hmodel.l_factor == preset.model.l1) == (n_keys == 2)
        obs = simulate_reference_observations(preset.observation, 0.2, 0.05, RngStream(8, 0))
        keys.clear()
        with pytest.warns(UserWarning, match="not coupled") if n_keys == 3 else _no_warning():
            pair = run_filter(obs, "both", preset, 12, ["tanh"], RngStream(8, 1), hmodel=hmodel,
                              ess_frac=1e-9)
        assert keys[1::2] == [n_keys] * 4     # the cache after both filters' step
        for mode, out in zip(("full", "homog"), pair):
            alone = run_filter(obs, mode, preset, 12, ["tanh"], RngStream(8, 1), hmodel=hmodel,
                               ess_frac=1e-9)
            np.testing.assert_array_equal(out.pi, alone.pi)


@contextlib.contextmanager
def _no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_only_uncoupled_filter_pairs_warn():
    # one warning per call, naming both dimensions; example6 passes silently
    preset = uncoupled_example6()
    hmodel = build_homogenized(preset)
    obs = simulate_reference_observations(preset.observation, 0.1, 0.05, RngStream(3, 0))
    with pytest.warns(UserWarning, match=r"l_factor=2 .* l1=1.*not coupled") as caught:
        run_filter_batch([obs, obs], "both", preset, 8, ["tanh"], [RngStream(3, 1)] * 2,
                         hmodel=hmodel)
    assert len(caught) == 1
    with pytest.warns(UserWarning, match="not coupled") as caught:
        filter_convergence_study(preset, [0.5, 0.1], replications=2, n_particles=8,
                                 psis=["tanh"], T=0.1, dt=0.05, hmodel=hmodel)
    assert len(caught) == 1
    with _no_warning():
        run_filter_batch([obs], "homog", preset, 8, ["tanh"], [RngStream(3, 1)], hmodel=hmodel)
        example6 = PRESETS["example6"]()
        filter_convergence_study(example6, [0.5, 0.1], replications=2, n_particles=8,
                                 psis=["tanh"], T=0.1, dt=0.05)


def test_filter_pass_memory_does_not_grow_with_its_steps():
    # the pass steps its ensembles in place, in work arrays it keeps, so a run
    # four times as long peaks where the short one does, up to its longer
    # (K + 1, R) series; one leaked (R, N) array per step would add 0.5 MB
    preset, R, N = PRESETS["example6"](), 4, 500
    hmodel = build_homogenized(preset)

    def peak(T):
        records = [simulate_reference_observations(preset.observation, T, 0.02, RngStream(5, r))
                   for r in range(R)]
        streams = [RngStream(6, r) for r in range(R)]
        tracemalloc.start()
        try:
            run_filter_batch(records, "both", preset, N, ["tanh"], streams, hmodel=hmodel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.1)       # lazily built tables land outside the comparison
    short, long = peak(0.2), peak(0.8)
    assert abs(long - short) < 64 * 1024


def test_mode_both_pass_holds_two_keys_per_row_at_every_step(monkeypatch):
    # rows resample at their own steps, yet every step draws one slow block
    # (read by both filters) and one fast block per row
    preset, R, K, N = PRESETS["example6"](), 4, 10, 16
    records = [simulate_reference_observations(preset.observation, 0.5, 0.05, RngStream(9, 2 * r))
               for r in range(R)]
    draws = _count_particle_draws(monkeypatch)
    full, homog = run_filter_batch(records, "both", preset, N, ["tanh"],
                                   [RngStream(9, 2 * r + 1) for r in range(R)],
                                   hmodel=build_homogenized(preset), ess_frac=0.999)
    slow, fast = NoiseSource.SLOW_BROWNIAN, NoiseSource.FAST_BROWNIAN
    assert draws == ([(slow, N)] * R + [(fast, N)] * R) * K
    assert all(o.resample_steps for o in full + homog)
    assert len({tuple(o.resample_steps) for o in full}) == R


def test_rows_keep_their_bits_until_their_first_resample():
    # the digest was taken when a resample re-keyed the row to a fresh stream
    # per resample generation; generation 0 read the one stream per source that
    # every step now reads, so a row that never resamples keeps every bit and a
    # row that resamples keeps its outputs up to the step of its first resample.
    # It was re-pinned when jump events came to be drawn on their steps, which
    # moved the records' small-region events (the resample steps held)
    preset = _BATCH_PRESET
    records = [simulate_reference_observations(preset.observation, 1.0, 0.05, RngStream(12, 2 * r))
               for r in range(6)]
    streams = [RngStream(12, 2 * r + 1) for r in range(6)]
    full, homog = run_filter_batch(records, "both", preset, 24, ["tanh"], streams,
                                   hmodel=_BATCH_HMODEL, ess_frac=0.8)
    assert [o.resample_steps[:1] for o in full + homog] == [
        [], [], [9], [19], [16], [17], [], [], [9], [19], [16], [17]]
    digest = hashlib.sha256()
    for out in full + homog:
        end = out.resample_steps[0] + 1 if out.resample_steps else None
        for series in (out.pi[:end], out.log_rho1[:end], out.ess[:end]):
            digest.update(series.tobytes())
    assert digest.hexdigest() == (
        "d7b6294991df869d410b78e80c18d63f707ebe45a06e7869aceffe6511bd8ae9")


def test_separate_full_and_reduced_filters_draw_only_their_own_blocks(monkeypatch):
    # the shape of a coupled full/homog pair run as two run_filter calls on one
    # stream, on the Euler route with 5 substeps per step: per step the full
    # filter draws N slow and 5 N fast normals and the reduced one N slow,
    # 7 N in all (a block as wide as the full filter's for both was 12 N)
    cfg = preset_to_config(PRESETS["example6"]())
    del cfg["model"]["ou_fast"]
    cfg["model"]["epsilon"] = 0.02
    preset = preset_from_config(cfg)
    N, dt, T = 2000, 0.01, 0.02
    assert FullDynamics(preset.model, dt).substeps == 5
    obs = simulate_reference_observations(preset.observation, T, dt, RngStream(6, 0))
    hmodel = build_homogenized(PRESETS["example6"]())
    draws = _count_particle_draws(monkeypatch)
    for mode in ("full", "homog"):
        run_filter(obs, mode, preset, N, ["tanh"], RngStream(6, 1), hmodel=hmodel, ess_frac=1e-9)
    K = int(round(T / dt))
    assert sum(n for _, n in draws) == K * 14_000
    fast = sum(n for source, n in draws if source == NoiseSource.FAST_BROWNIAN)
    assert fast == K * 5 * N


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


def _counted(model, names, calls):
    """``model`` with each field of ``names`` counting its calls in ``calls``,
    counted from zero after the model's own shape probes."""
    def spy(name, fn):
        def field(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        field.variables = fn.variables
        return field

    counted = dataclasses.replace(model, **{n: spy(n, getattr(model, n)) for n in names})
    calls.update(dict.fromkeys(names, 0))
    return counted


@pytest.mark.parametrize("route", ["exact_ou", "euler"])
def test_a_step_evaluates_a_constant_field_once_per_dynamics(route):
    # sigma1 and sigma2 read no variable: evaluated at most once per dynamics
    # object, however many steps and substeps; b1 and b2 read the state:
    # evaluated at every step (b2 at every substep)
    preset = PRESETS["example6"]()
    if route == "euler":
        preset = without_ou(preset, epsilon=0.05)
    rec = simulate_reference_observations(preset.observation, 0.2, 0.02, RngStream(3))
    calls = {}
    model = _counted(preset.model, ("b1", "sigma1", "b2", "sigma2"), calls)
    run_filter(rec, "full", dataclasses.replace(preset, model=model), 8, ["tanh"], RngStream(4))
    K, substeps = rec.steps, FullDynamics(preset.model, 0.02).substeps if route == "euler" else 0
    assert (calls["b1"], calls["b2"]) == (K, K * substeps)
    assert calls["sigma1"] <= 1 and calls["sigma2"] <= 1


# ---------------------------------------------------------------------------
# state-dependent thinning


def logistic_preset(intensity=50.0, epsilon=0.1, thinning=(0.2, 0.8, 2.0)):
    """example6 whose small observation jumps are thinned by a logistic law of
    x[0] at base intensity ``intensity``, so the jumps carry information."""
    cfg = preset_to_config(PRESETS["example6"]())
    low, high, slope = thinning
    cfg["observation"]["lambda"] = {"kind": "logistic", "low": low, "high": high, "slope": slope}
    cfg["observation"]["nu3_small"]["intensity"] = intensity
    cfg["model"]["epsilon"] = epsilon
    return preset_from_config(cfg)


def _filter_pair_on_shared_records(preset, R, n_particles, seed):
    """tanh(X_T) of R paths of ``preset`` and the terminal pi(tanh) of two full
    filters on their records, on one run stream per record: one weighs the
    jump events by the preset's law, the other by constant thinning 0.5,
    under which every jump term is the same for every particle."""
    root = RngStream(seed)
    paths = simulate_full(preset.model, preset.observation, 1.0, 0.02,
                          [root.child(r).child(0) for r in range(R)])
    records = [p.observations() for p in paths]
    streams = [root.child(r).child(1) for r in range(R)]
    flat = dataclasses.replace(preset, observation=dataclasses.replace(
        preset.observation, thinning=ThinningLaw("const", (0.5,))))
    pis = [np.array([o.pi[-1, 0] for o in run_filter_batch(records, "full", p, n_particles,
                                                             ["tanh"], streams)])
           for p in (preset, flat)]
    return np.tanh([p.X[-1, 0] for p in paths]), pis


def test_state_dependent_thinning_makes_the_jumps_informative():
    # the filter that reads lambda(x) at the events tracks tanh(X_T) better
    # than the same filter with a constant law on the same records and particles
    truth, (pi_true, pi_flat) = _filter_pair_on_shared_records(logistic_preset(), 256, 200, 0)
    gain = (pi_flat - truth) ** 2 - (pi_true - truth) ** 2
    se = gain.std(ddof=1) / math.sqrt(len(gain))
    assert gain.mean() > 3.0 * se


def test_constant_thinning_makes_the_jumps_uninformative():
    # example6's constant law: a shift of every log-weight by one number
    _, (pi_true, pi_flat) = _filter_pair_on_shared_records(PRESETS["example6"](), 256, 200, 0)
    np.testing.assert_allclose(pi_true, pi_flat, rtol=0, atol=1e-10)


def test_the_filter_evaluates_the_law_on_its_states_and_no_mark_nodes(monkeypatch):
    preset = logistic_preset(intensity=5.0)
    R, N, n = 16, 50, preset.model.n
    records = [p.observations() for p in simulate_full(
        preset.model, preset.observation, 1.0, 0.02,
        [RngStream(3, r) for r in range(R)])]
    assert sum(len(rec.small_times) for rec in records) > 0
    shapes = []

    def law(self, t, x, _call=ThinningLaw.__call__):
        shapes.append(np.shape(x))
        return _call(self, t, x)

    def quadrature(self):
        raise AssertionError("the filter evaluated the law on mark quadrature nodes")

    monkeypatch.setattr(ThinningLaw, "__call__", law)
    monkeypatch.setattr(MarkSampler, "quadrature", quadrature)
    run_filter_batch(records, "full", preset, N, ["tanh"], [RngStream(4, r) for r in range(R)])
    # one call per step on the (R, N, n) states, one per step with events on
    # the (events, N, n) states of the rows they are charged to: no call sees
    # more than R N n state entries, and none has a mark-node axis
    assert (R, N, n) in shapes and any(s != (R, N, n) for s in shapes)
    assert all(len(s) == 3 and s[0] <= R and s[1:] == (N, n) for s in shapes)
