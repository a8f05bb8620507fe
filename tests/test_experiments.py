"""Study-level checks: KS machinery, the linear-model oracle, likelihood
identities, and thread-count invariance of the convergence study."""

import dataclasses
import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levyfilter import (
    PRESETS,
    NoiseSource,
    RngStream,
    preset_from_config,
    preset_to_config,
    run_filter,
    simulate_full,
    with_epsilon,
    make_grid,
    martingale_check,
    convergence_study,
    filter_convergence_study,
    default_scheme,
    kalman_bucy,
    kalman_oracle,
    ks_statistic,
    signal_convergence_study,
    strictly_decreasing,
)
from levyfilter import experiments, filtering, sde
from levyfilter.averaging import build_homogenized
from levyfilter.errors import ConfigError
from levyfilter.filtering import ParticleEnsemble, _batch_log_weight, run_filter_batch
from levyfilter.sde import FullDynamics, ObservationRecord
from test_filtering import logistic_preset
from test_sde import without_ou


# ---------------------------------------------------------------------------
# small helpers


def test_ks_statistic_known_values():
    assert ks_statistic([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5)
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0
    # one-point laws at distinct atoms
    assert ks_statistic([2.0], [5.0]) == 1.0


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    st.lists(st.floats(-50, 50), min_size=1, max_size=40),
)
def test_ks_statistic_is_a_distance_in_range(a, b):
    ks = ks_statistic(a, b)
    assert 0.0 <= ks <= 1.0
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))


def test_strictly_decreasing():
    assert strictly_decreasing([3.0, 2.0, 1.0])
    assert not strictly_decreasing([3.0, 3.0, 1.0])
    assert not strictly_decreasing([1.0, 2.0])
    assert strictly_decreasing([5.0])


def test_default_scheme_prefers_exact_ou():
    # the scheme is the coarse step only; the model's ou_fast fixes the route
    model = PRESETS["example6"]().model
    scheme = default_scheme(model, 0.05)
    assert FullDynamics(model, scheme).dt_fast is None
    no_ou = dataclasses.replace(model, ou_fast=None)
    scheme = default_scheme(no_ou, 0.05)  # epsilon = 0.1 => substeps at 0.01
    dynamics = FullDynamics(no_ou, scheme)
    assert dynamics.substeps == 5
    assert dynamics.dt_fast == pytest.approx(0.01)


def test_the_benchmark_step_size_calls_keep_their_contract():
    # perfbench/workloads.py builds its step size with default_scheme and passes
    # it as simulate_full's 4th positional argument, FullDynamics's 2nd and
    # run_filter's scheme: each takes the plain step size
    preset = PRESETS["example6"]()
    scheme = default_scheme(preset.model, 0.05)
    assert scheme == 0.05 and type(scheme) is float
    path = simulate_full(preset.model, preset.observation, 0.2, scheme, RngStream(1))
    assert path.observations().dt == scheme
    assert FullDynamics(preset.model, scheme).noise_width == preset.model.l1 + 1
    rec = path.observations()
    out = run_filter(rec, "full", preset, 8, ["tanh"], RngStream(2), scheme=scheme)
    alone = run_filter(rec, "full", preset, 8, ["tanh"], RngStream(2))
    assert out.pi.tobytes() == alone.pi.tobytes()


# ---------------------------------------------------------------------------
# Kalman-Bucy oracle


def _riccati_closed_form(t):
    # dP = -2P + 3 - P^2, P(0) = 0  =>  P(t) = 3(1 - e^{-4t}) / (3 + e^{-4t})
    e = math.exp(-4.0 * t)
    return 3.0 * (1.0 - e) / (3.0 + e)


def test_kalman_bucy_variance_matches_riccati_solution():
    times = make_grid(5.0, 1e-3)
    dY = np.zeros(len(times) - 1)
    m, P = kalman_bucy(times, dY, a=1.0, c=0.0, sigma=math.sqrt(3.0), m0=0.0, P0=0.0)
    k1 = int(round(1.0 / 1e-3))
    assert P[k1] == pytest.approx(_riccati_closed_form(1.0), rel=5e-3)
    # the variance series settles at the positive root of -2P + 3 - P^2
    assert abs(P[-1] - 1.0) < 0.01
    assert np.all(np.diff(P) >= -1e-12)  # monotone approach from below


def test_kalman_bucy_mean_decays_without_signal():
    times = make_grid(5.0, 1e-3)
    dY = np.zeros(len(times) - 1)
    m, _ = kalman_bucy(times, dY, a=1.0, c=0.0, sigma=math.sqrt(3.0), m0=2.0, P0=0.0)
    assert np.all(np.diff(m) < 0.0)
    assert 0.0 < m[-1] < 0.05


def test_kalman_oracle_small_ensemble():
    res = kalman_oracle(T=0.5, dt=2e-3, n_particles=500, seed=3)
    assert res.stationary_var == pytest.approx(1.0, rel=1e-15)
    assert res.rmse < 0.2
    assert res.oracle_var[-1] == pytest.approx(_riccati_closed_form(0.5), rel=2e-2)
    assert abs(res.terminal_filter_var - res.oracle_var[-1]) < 0.25
    again = kalman_oracle(T=0.5, dt=2e-3, n_particles=500, seed=3)
    assert again.rmse == res.rmse
    np.testing.assert_array_equal(again.filter_mean, res.filter_mean)


# ---------------------------------------------------------------------------
# path likelihoods


def _record_with_one_event(T=0.25, dt=0.05, t_event=0.12, mark=0.3):
    times = make_grid(T, dt)
    K = len(times) - 1
    return ObservationRecord(
        times=times,
        bbar_increments=np.zeros((K, 1)),
        small_times=np.array([t_event]),
        small_marks=np.array([[mark]]),
        large_times=np.zeros(0),
        large_marks=np.zeros((0, 1)),
    )


def _path_log_likelihood(obs, record, h_series, x_series):
    """Inverse-route use of the weight kernel: one row per step, each event
    charged to the step that owns it, summed along the path."""
    events = (record.small_step_index(), record.small_times, record.small_marks)
    rows = _batch_log_weight(
        obs, h_series, x_series, record.bbar_increments, record.dt, record.times[1:], events
    )
    return float(np.sum(rows))


def test_path_log_likelihood_jump_terms_closed_form():
    obs = PRESETS["example6"]().observation  # constant thinning 0.6, unit mass
    rec = _record_with_one_event()
    K = rec.steps
    h = np.zeros((K, 1))
    x = np.zeros((K, 1))
    got = _path_log_likelihood(obs, rec, h, x)
    want = math.log(0.6) + K * 0.05 * 1.0 * (1.0 - 0.6)
    assert got == pytest.approx(want, rel=1e-13)


def test_path_log_likelihood_gaussian_terms():
    obs = PRESETS["example6"]().observation
    rec = _record_with_one_event()
    rec = dataclasses.replace(rec, bbar_increments=np.full((rec.steps, 1), 0.1))
    K = rec.steps
    h = np.full((K, 1), 0.5)
    x = np.zeros((K, 1))
    got = _path_log_likelihood(obs, rec, h, x)
    gauss = K * 0.5 * 0.1 - 0.5 * 0.05 * K * 0.25
    jumps = math.log(0.6) + K * 0.05 * (1.0 - 0.6)
    assert got == pytest.approx(gauss + jumps, rel=1e-13)


# ---------------------------------------------------------------------------
# martingale and homogenization diagnostics


def test_martingale_check_forward_and_inverse():
    preset = PRESETS["example6"]()
    rep = martingale_check(
        preset, epsilon=0.5, n_runs=400, T=0.5, dt=0.02, seed=0, inverse_runs=60
    )
    assert rep.epsilon == 0.5
    assert rep.n_runs == 400
    assert abs(rep.mean_forward - 1.0) < 4.0 * rep.se_forward
    assert abs(rep.mean_forward_homog - 1.0) < 4.0 * rep.se_forward_homog
    assert rep.inverse_runs == 60
    assert abs(rep.mean_inverse - 1.0) < 4.0 * rep.se_inverse
    assert rep.max_rho0_inverse > 0.0
    assert math.isfinite(rep.max_rho0_inverse)


def test_martingale_check_under_state_dependent_thinning():
    # the event and compensator terms of the logistic law, at a base intensity
    # where the likelihood's plain SE is honest (at 25 it is heavy-tailed)
    rep = martingale_check(logistic_preset(intensity=2.0), 0.1, n_runs=2000, T=1.0, seed=0)
    assert abs(rep.mean_forward - 1.0) < 5.0 * rep.se_forward


def _hex_fields(report):
    return {k: float(v).hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


def test_martingale_check_list_equals_single_calls():
    # the shared reduced-model reference and the lockstep pass change no bit
    preset = PRESETS["example6"]()
    kw = dict(n_runs=300, T=0.3, dt=0.02, seed=5, inverse_runs=8)
    epsilons = [0.5, 0.1, 0.02]
    reports = martingale_check(preset, epsilons, **kw)
    assert [r.epsilon for r in reports] == epsilons
    for eps, rep in zip(epsilons, reports):
        assert _hex_fields(rep) == _hex_fields(martingale_check(preset, eps, **kw))
    # a route that is off reports NaNs, compared by their hex form too
    off = martingale_check(preset, epsilons[:2], **{**kw, "inverse_runs": 0})
    assert math.isnan(off[0].mean_inverse)
    assert [_hex_fields(r) for r in off] == [
        _hex_fields(martingale_check(preset, eps, **{**kw, "inverse_runs": 0}))
        for eps in epsilons[:2]
    ]
    assert martingale_check(preset, [], **kw) == []


def test_martingale_check_memory_does_not_grow_with_the_steps():
    preset = PRESETS["example6"]()
    P, T, dt = 2000, 1.0, 0.01
    K = int(round(T / dt))
    obs_d = preset.observation.d
    # what keeping the (K+1, P) ensemble histories and the (K, P, d) increments held
    histories = ((K + 1) * P * (2 * preset.model.n + preset.model.m) + K * P * obs_d) * 8
    hmodel = build_homogenized(preset)
    tracemalloc.start()
    try:
        rep = martingale_check(preset, 0.1, P, T, dt=dt, seed=1, hmodel=hmodel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(rep.mean_forward)
    assert peak < histories / 10


def test_martingale_check_memory_does_not_grow_with_the_horizon():
    # each step's reference-law events are drawn in that step, so four times
    # the horizon (and the events) peaks within 20 %; drawing every event up
    # front took 0.43 -> 0.81 MB at T 1 -> 4
    preset = PRESETS["example6"]()
    assert preset.observation.nu3_small.total_intensity > 0
    hmodel = build_homogenized(preset)
    martingale_check(preset, 0.1, 2, 0.02, dt=0.01, seed=1, hmodel=hmodel)   # warms every cache
    peaks = []
    for T in (1.0, 4.0):
        tracemalloc.start()
        try:
            martingale_check(preset, 0.1, 2000, T, dt=0.01, seed=1, hmodel=hmodel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def _sensing_the_fast_state():
    cfg = preset_to_config(PRESETS["example6"]())
    cfg["observation"]["h"] = ["z[0]"]
    return preset_from_config(cfg)


@pytest.mark.parametrize("seed", range(6))
def test_forward_martingale_on_a_fast_sensor_has_unit_mean(seed):
    # h = z[0] reads the fast OU state, so the mean is off one whenever the
    # observation increments draw from a stream the ensembles' fast noise reads
    rep = martingale_check(_sensing_the_fast_state(), 0.1, 1000, T=0.5, dt=0.02, seed=seed)
    assert abs(rep.mean_forward - 1.0) < 5.0 * rep.se_forward


def test_forward_martingale_check_builds_each_stream_once(monkeypatch):
    preset = PRESETS["example6"]()
    hmodel = build_homogenized(preset)
    built, generator = [], RngStream.generator

    def spy(self):
        built.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", spy)
    martingale_check(preset, [0.5, 0.1], 50, T=0.1, dt=0.02, seed=0, hmodel=hmodel)
    assert built and sorted(Counter(built).values())[-1] == 1


def _with_slow_jumps():
    cfg = preset_to_config(PRESETS["example6"]())
    cfg["model"]["f1"] = ["0.5*u[0]*cos(x[0])"]
    cfg["model"]["nu1"] = {"intensity": 5.0, "marks": "uniform(-1,1)"}
    return preset_from_config(cfg)


def test_ensembles_reject_a_jump_driven_signal(monkeypatch):
    preset = _with_slow_jumps()
    rec = simulate_full(preset.model, preset.observation, 0.1, 0.05, RngStream(1)).observations()
    hmodel = build_homogenized(preset)
    for mode in ("full", "homog"):
        with pytest.raises(ValueError, match="jump-free"):
            run_filter(rec, mode, preset, 8, ["tanh"], RngStream(2), hmodel=hmodel)
    with pytest.raises(ValueError, match="jump-free"):
        martingale_check(preset, 0.5, 10, T=0.1, dt=0.05, hmodel=hmodel)

    def simulate(*args, **kwargs):
        raise AssertionError("the study simulated a path before rejecting the signal")

    monkeypatch.setattr(experiments, "simulate_full", simulate)
    with pytest.raises(ValueError, match="jump-free"):
        filter_convergence_study(preset, [0.5, 0.1], 2, 8, ["tanh"], T=0.1, dt=0.05,
                                 hmodel=hmodel)


def test_signal_convergence_study_rows():
    preset = PRESETS["example6"]()
    rows = signal_convergence_study(preset, [0.5, 0.1], n_paths=2000, T=0.5, dt=0.02)
    assert [r["epsilon"] for r in rows] == [0.5, 0.1]
    for r in rows:
        assert 0.0 <= r["ks"] <= 1.0
        assert r["n_paths"] == 2000
    again = signal_convergence_study(preset, [0.5, 0.1], n_paths=2000, T=0.5, dt=0.02)
    assert [r["ks"] for r in again] == [r["ks"] for r in rows]


def test_filter_convergence_study_thread_invariance():
    preset = PRESETS["example6"]()
    kwargs = dict(
        epsilons=[0.5, 0.1], replications=4, n_particles=64,
        psis=["tanh"], T=0.3, dt=0.02, seed=11,
    )
    serial = filter_convergence_study(preset, **kwargs, threads=1)
    pooled = filter_convergence_study(preset, **kwargs, threads=3)
    assert serial.epsilons == pooled.epsilons
    for a, b in zip(serial.rows, pooled.rows):
        np.testing.assert_array_equal(a["mean_gap"], b["mean_gap"])
        np.testing.assert_array_equal(a["se_gap"], b["se_gap"])
        np.testing.assert_array_equal(a["ks_pi"], b["ks_pi"])
    # gaps are strictly positive numbers with finite SEs
    for row in serial.rows:
        assert np.all(row["mean_gap"] > 0.0)
        assert np.all(np.isfinite(row["se_gap"]))


@pytest.mark.parametrize("replications", [1, 0])
@pytest.mark.parametrize("study", [filter_convergence_study, convergence_study])
def test_convergence_studies_need_two_replications(study, replications, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the study started work before rejecting its replications")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments.simulate_full", no_work)
    with pytest.raises(ValueError, match="replications must be at least 2"):
        study(PRESETS["example6"](), [0.5, 0.1], replications=replications,
              n_particles=16, psis=["tanh"], T=0.1, dt=0.02)


@pytest.mark.parametrize("study, epsilons, kwargs, match", [
    (filter_convergence_study, [0.5, 0.0], {}, "epsilon must be > 0"),
    (convergence_study, [0.5, -0.1], {}, "epsilon must be > 0"),
    (convergence_study, [0.5, 0.1], {"martingale_runs": 1}, "martingale_runs must be at least 2"),
    (convergence_study, [0.5, 0.1], {"signal_paths": 0}, "signal_paths must be at least 2"),
    (convergence_study, [0.5, 0.1], {"signal_paths": 1}, "signal_paths must be at least 2"),
])
def test_convergence_studies_check_inputs_up_front(study, epsilons, kwargs, match, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the study started work before checking its inputs")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments.simulate_full", no_work)
    with pytest.raises(ValueError, match=match):
        study(PRESETS["example6"](), epsilons, replications=2,
              n_particles=16, psis=["tanh"], T=0.1, dt=0.02, **kwargs)


@pytest.mark.parametrize("study", [filter_convergence_study, convergence_study])
def test_convergence_studies_reject_a_repeated_epsilon(study, monkeypatch):
    # a repeated epsilon would report two rows for one epsilon
    def no_work(*args, **kwargs):
        raise AssertionError("the study started work before rejecting a repeated epsilon")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments.simulate_full", no_work)
    with pytest.raises(ConfigError, match="appear once") as info:
        study(PRESETS["example6"](), [0.5, 0.1, 0.5], replications=2,
              n_particles=16, psis=["tanh"], T=0.1, dt=0.02)
    assert info.value.key == "eps"


@pytest.mark.parametrize("kwargs, name", [
    ({"n_runs": 1}, "n_runs"),
    ({"n_runs": 100, "inverse_runs": 1}, "inverse_runs"),
    ({"n_runs": 100, "inverse_runs": -3}, "inverse_runs"),
])
def test_martingale_check_needs_two_runs_per_route(kwargs, name, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the check started work before rejecting its run counts")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments._law_steps", no_work)
    with pytest.raises(ValueError, match=f"{name} must be at least 2"):
        martingale_check(PRESETS["example6"](), epsilon=0.5, T=0.1, dt=0.02, **kwargs)


def test_convergence_study_attaches_diagnostics():
    preset = PRESETS["example6"]()
    report = convergence_study(
        preset, [0.5], replications=3, n_particles=32, psis=["tanh"],
        T=0.3, dt=0.02, seed=4, signal_paths=500, martingale_runs=200,
    )
    row = report.rows[0]
    assert set(row) >= {"epsilon", "mean_gap", "se_gap", "ks_pi", "ks_signal",
                        "martingale_mean", "martingale_se"}
    assert 0.0 <= row["ks_signal"] <= 1.0
    assert report.meta["replications"] == 3
    assert report.epsilons == [0.5]


@pytest.mark.parametrize("epsilons", [[0.5, 0.0], [0.5, math.nan], [0.5, -1.0]])
def test_signal_convergence_study_checks_every_epsilon_first(epsilons, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran an ensemble before checking every epsilon")

    for module in (experiments, sde):
        monkeypatch.setattr(module, "_law_steps", no_work)
    monkeypatch.setattr(experiments, "build_homogenized", no_work)
    with pytest.raises(ConfigError) as info:
        signal_convergence_study(PRESETS["example6"](), epsilons, n_paths=50, T=0.1, dt=0.02)
    assert info.value.key == "epsilon"


def _count_law_draws(monkeypatch, root_seed) -> tuple:
    """Spy on the law ensembles on ``RngStream(root_seed)``: returns (laws,
    built, draws), the dynamics types of every lockstep pass started, the
    stream of every generator built and the shape of every block drawn."""
    laws, built, draws = [], [], []
    generator = RngStream.generator

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, name):
            return getattr(self.gen, name)

        def standard_normal(self, *args, out=None, **kwargs):
            draws.append(out.shape if out is not None else args[0])
            return self.gen.standard_normal(*args, out=out, **kwargs)

    def spy_generator(stream):
        if stream.root_seed != root_seed:
            return generator(stream)
        built.append(stream)
        return Counting(generator(stream))

    def spy_steps(pass_laws, *args, _fn=sde._law_steps, **kwargs):
        laws.append([type(law[0]).__name__ for law in pass_laws])
        return _fn(pass_laws, *args, **kwargs)

    monkeypatch.setattr(RngStream, "generator", spy_generator)
    for module in (experiments, sde):
        monkeypatch.setattr(module, "_law_steps", spy_steps)
    return laws, built, draws


def test_convergence_study_runs_each_ensemble_once(monkeypatch):
    # E full ensembles and one reduced ensemble in lockstep; the full ones read
    # one block per (source, shape) key and step: the slow block and, on the
    # exact-OU route, one fast block, each drawn once for all E
    seed, epsilons, T, dt, P, runs = 3, [0.5, 0.1, 0.02], 0.1, 0.02, 60, 40
    laws, built, draws = _count_law_draws(monkeypatch, seed + 2)
    convergence_study(
        PRESETS["example6"](), epsilons, replications=2, n_particles=16, psis=["tanh"],
        T=T, dt=dt, seed=seed, signal_paths=P, martingale_runs=runs,
    )
    assert laws == [["HomogDynamics"] + ["FullDynamics"] * len(epsilons)]
    root = RngStream(seed + 2)
    ids = [s.stream_id for s in built]
    for law_stream in (root.child(2).child(NoiseSource.HOMOG_BROWNIAN),
                       root.child(0).child(NoiseSource.SLOW_BROWNIAN),
                       root.child(0).child(NoiseSource.FAST_BROWNIAN)):
        assert law_stream.stream_id in ids
    K = int(round(T / dt))
    # per step: the reduced, slow and fast (one substep) blocks, then the
    # observation increments
    assert draws == [(P, 1), (P, 1), (1, P, 1), (runs, 1)] * K


def test_law_ensembles_share_one_draw_stream_per_shape(monkeypatch):
    # Euler route at dt = 0.01: eps 0.05 takes 2 substeps, 0.03 and 0.028 take
    # 4, so the fast blocks have two keys; every ensemble is bitwise the one
    # it runs alone
    preset, dt, T, P = without_ou(PRESETS["example6"]()), 0.01, 0.05, 30
    models = [with_epsilon(preset, e).model for e in (0.05, 0.03, 0.028)]
    stream = RngStream(9, 4)
    laws = [sde._signal_law(m, dt, stream) for m in models]
    _, built, draws = _count_law_draws(monkeypatch, 9)
    shared = list(sde._law_steps(laws, T, dt, P))
    assert len(built) == 3
    assert draws == [(P, 1), (2, P, 1), (4, P, 1)] * int(round(T / dt))
    monkeypatch.undo()
    alone = [list(sde._law_steps([law], T, dt, P)) for law in laws]
    for (t, states), *alone_steps in zip(shared, *alone):
        for (X, Z), (t1, [(X1, Z1)]) in zip(states, alone_steps):
            assert t == t1
            np.testing.assert_array_equal(X, X1)
            np.testing.assert_array_equal(Z, Z1)


def _digest(steps) -> str:
    h = hashlib.sha256()
    for _, *arrays in steps:
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("route, epsilons, dt, full_digests, homog_digest", [
    ("exact_ou", (0.5, 0.1, 0.02), 0.02,
     ["780f6c89fcd5f01c", "c63aefd6f558d075", "0e547165bc68832a"], "2ae144507b02a3af"),
    ("euler", (0.05, 0.03, 0.028), 0.01,
     ["570e204044ec3fb8", "73096b6b453da6d3", "b6133a48ab434abf"], "b3763f402919685a"),
])
def test_law_ensembles_through_the_dynamics_keep_their_bits(
        route, epsilons, dt, full_digests, homog_digest):
    # the law ensembles step through FullDynamics/HomogDynamics on their
    # streams root.child(0).child(source) and root.child(2).child(HOMOG_BROWNIAN);
    # every state they yield equals the ensembles' bits before that refactor
    preset = PRESETS["example6"]() if route == "exact_ou" else without_ou(PRESETS["example6"]())
    T, P, root = 0.1, 40, RngStream(17)
    hmodel = build_homogenized(PRESETS["example6"]())
    models = [with_epsilon(preset, e).model for e in epsilons]
    laws = [sde._signal_law(m, dt, root.child(0)) for m in models]
    hashes = [hashlib.sha256() for _ in range(1 + len(models))]
    homog_law = sde._homogenized_law(hmodel, dt, root.child(2))
    for _, states in sde._law_steps([homog_law] + laws, T, dt, P):
        # each state is hashed as it is yielded: the next step overwrites it
        for h, state in zip(hashes, states):
            for a in state:
                if a is not None:
                    h.update(np.ascontiguousarray(a).tobytes())
    assert hashes[0].hexdigest()[:16] == homog_digest
    assert [h.hexdigest()[:16] for h in hashes[1:]] == full_digests
    alone = [_digest((t, *states[0]) for t, states in sde._law_steps([law], T, dt, P))
             for law in laws]
    assert alone == full_digests
    homog_alone = sde._law_steps([sde._homogenized_law(hmodel, dt, root.child(2))], T, dt, P)
    assert _digest((t, states[0][0]) for t, states in homog_alone) == homog_digest


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


def _study_and_its_outputs(monkeypatch, preset, epsilons, **kwargs):
    """filter_convergence_study with the outputs of its filter pass kept."""
    kept = []

    def keep(*args, _fn=experiments._filter_pass, **kw):
        kept.append(_fn(*args, **kw))
        return kept[-1]

    monkeypatch.setattr(experiments, "_filter_pass", keep)
    report = filter_convergence_study(preset, epsilons, **kwargs)
    assert len(kept) == 1
    return report, kept[0]


@pytest.mark.parametrize("route, epsilons, ess_frac", [
    ("exact_ou", [0.5, 0.1, 0.02], 0.5),
    ("exact_ou", [0.5, 0.1, 0.02], 0.999),
    ("euler", [0.05, 0.03, 0.02], 0.999),
])
def test_filter_study_is_one_coupled_pass_per_epsilon_on_shared_streams(
        route, epsilons, ess_frac, monkeypatch):
    # every epsilon's truth path r reads child(0).child(r).child(0) and its
    # filters replication r's particle stream child(0).child(r).child(1),
    # each at its own blocks, so each epsilon's
    # outputs are its coupled pass alone on those streams; the study's pass
    # evaluates the functionals at the last step only
    preset = PRESETS["example6"]() if route == "exact_ou" else without_ou(PRESETS["example6"]())
    R, N, T, dt, seed, psis = 3, 16, 0.2, 0.02, 3, ["tanh", "arctan"]
    report, outs = _study_and_its_outputs(
        monkeypatch, preset, epsilons, replications=R, n_particles=N, psis=psis, T=T, dt=dt,
        ess_frac=ess_frac, seed=seed)
    root, hmodel = RngStream(seed), build_homogenized(preset)
    presets = [with_epsilon(preset, e) for e in epsilons]
    streams = [root.child(0).child(r).child(1) for r in range(R)]
    for ie, (peps, row) in enumerate(zip(presets, report.rows)):
        paths = simulate_full(peps.model, peps.observation, T, dt,
                              [root.child(0).child(r).child(0) for r in range(R)])
        full, homog = run_filter_batch(
            [p.observations() for p in paths], "both", peps, N, psis, streams, hmodel=hmodel,
            ess_frac=ess_frac)
        for got, want in zip(outs[2 * ie] + outs[2 * ie + 1], full + homog):
            assert got.mode == want.mode
            assert _hexes(got.pi[-1]) == _hexes(want.pi[-1]) and np.isnan(got.pi[:-1]).all()
            assert _hexes(got.log_rho1) == _hexes(want.log_rho1)
            assert _hexes(got.ess) == _hexes(want.ess)
            assert got.resample_steps == want.resample_steps
        gaps = np.abs(np.array([o.pi[-1] for o in full]) - np.array([o.pi[-1] for o in homog]))
        assert _hexes(row["mean_gap"]) == _hexes(gaps.mean(axis=0))
        assert _hexes(row["se_gap"]) == _hexes(gaps.std(axis=0, ddof=1) / math.sqrt(R))


@pytest.mark.parametrize("ess_frac", [1e-9, 0.5, 0.999])
def test_reduced_filters_of_a_study_step_one_cloud_until_they_resample(ess_frac, monkeypatch):
    # the E reduced filters share hmodel, start and slow blocks, so one cloud
    # steps per step; a filter leaves it at its first resample and steps alone
    # from then on, and each epsilon's reduced output is bitwise its pass alone
    stepped, step = [], sde.HomogDynamics.step

    def spy(self, *args):
        stepped.append(self)
        return step(self, *args)

    passes = []

    def keep(*args, _fn=experiments._filter_pass, **kwargs):
        passes.append((args, _fn(*args, **kwargs)))
        return passes[-1][1]

    monkeypatch.setattr(sde.HomogDynamics, "step", spy)
    monkeypatch.setattr(experiments, "_filter_pass", keep)
    epsilons, R, N, K = [0.5, 0.1, 0.02], 3, 16, 15
    filter_convergence_study(PRESETS["example6"](), epsilons, replications=R, n_particles=N,
                             psis=["tanh"], T=K * 0.02, dt=0.02, ess_frac=ess_frac, seed=3)
    [((cases, _, psis, streams, _), outs)] = passes
    # loop index k steps one cloud per filter whose first resample came at
    # step <= k, plus the shared cloud while a filter is still on it
    first = [min([s[0] for s in (o.resample_steps for o in case) if s], default=K)
             for case in outs[1::2]]
    assert len(stepped) == sum(sum(f <= k for f in first) + any(f > k for f in first)
                               for k in range(K))
    if ess_frac == 1e-9:
        assert len(stepped) == K
    if ess_frac == 0.999:
        assert min(first) < K - 1 and len(stepped) > K
    for case, out in zip(cases[1::2], outs[1::2]):
        alone = filtering._filter_pass([case], N, psis, streams, ess_frac, _last_pi_only=True)[0]
        for got, want in zip(out, alone):
            assert _hexes(got.pi[-1]) == _hexes(want.pi[-1])
            assert _hexes(got.log_rho1) == _hexes(want.log_rho1)
            assert _hexes(got.ess) == _hexes(want.ess)
            assert got.resample_steps == want.resample_steps


class _CountingGenerator:
    """A particle generator whose block draws are counted by its stream id."""

    def __init__(self, gen, stream_id, draws):
        self.gen, self.stream_id, self.draws = gen, stream_id, draws

    def standard_normal(self, *args, **kwargs):
        self.draws.append(self.stream_id)
        return self.gen.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("ess_frac", [1e-9, 0.999, 1.0])
def test_filter_study_draws_each_particle_key_once(ess_frac, monkeypatch):
    # particle blocks are keyed (the rows' streams of a source, shape), one
    # stream per row and source for the whole run: however often the rows
    # resample, a 3-epsilon exact-OU study of R rows builds 2R particle
    # generators (a slow and a fast one per row), not 9R, draws from each of
    # them once per step, and builds one resampling generator per filter row
    # that resamples; every row stays bitwise its single-record filter
    built, offsets, draws, caches = [], [], [], []
    generator = RngStream.generator

    def spy_generator(stream):
        gen = generator(stream)
        if stream.stream_id % (1 << 64) == NoiseSource.RESAMPLING:
            offsets.append(stream)
        if (stream.stream_id >> 128) % (1 << 64) != NoiseSource.PARTICLES:
            return gen
        built.append(stream)
        return _CountingGenerator(gen, stream.stream_id, draws)

    next_noise = ParticleEnsemble.next_noise

    def spy_noise(self, shapes, cache):
        if not caches or caches[-1] is not cache:
            caches.append(cache)
        return next_noise(self, shapes, cache)

    monkeypatch.setattr(RngStream, "generator", spy_generator)
    monkeypatch.setattr(ParticleEnsemble, "next_noise", spy_noise)
    preset, epsilons = PRESETS["example6"](), [0.5, 0.1, 0.02]
    R, N, T, dt, seed = 3, 16, 0.2, 0.02, 3
    _, outs = _study_and_its_outputs(
        monkeypatch, preset, epsilons, replications=R, n_particles=N, psis=["tanh"], T=T,
        dt=dt, ess_frac=ess_frac, seed=seed)
    K = int(round(T / dt))
    assert len(caches) == K
    assert len(built) == len({s.stream_id for s in built}) == 2 * R
    assert Counter(draws) == {s.stream_id: K for s in built}
    resampled = sum(1 for case in outs for o in case if o.resample_steps)
    assert len(offsets) == resampled and (resampled > 0) == (ess_frac > 0.5)
    run_offsets = {RngStream(seed).child(0).child(r).child(1).child(NoiseSource.RESAMPLING)
                   .stream_id for r in range(R)}
    assert {s.stream_id for s in offsets} <= run_offsets
    monkeypatch.undo()
    root, hmodel = RngStream(seed), build_homogenized(preset)
    for ie, eps in enumerate(epsilons):
        peps = with_epsilon(preset, eps)
        for r in range(R):
            path = simulate_full(peps.model, peps.observation, T, dt,
                                 root.child(0).child(r).child(0))
            pair = run_filter(path.observations(), "both", peps, N, ["tanh"],
                              root.child(0).child(r).child(1), hmodel=hmodel, ess_frac=ess_frac)
            for got, want in zip((outs[2 * ie][r], outs[2 * ie + 1][r]), pair):
                assert _hexes(got.pi[-1]) == _hexes(want.pi[-1])
                assert _hexes(got.log_rho1) == _hexes(want.log_rho1)
                assert got.resample_steps == want.resample_steps


def _diagnostics(row):
    return {k: float(row[k]).hex()
            for k in ("ks_signal", "martingale_mean", "martingale_se", "max_rho0_inverse")}


def test_convergence_study_diagnostics_match_the_wrappers():
    preset = PRESETS["example6"]()
    epsilons, T, dt, seed, n = [0.5, 0.1, 0.02], 0.3, 0.02, 4, 300

    def study(signal_paths, martingale_runs):
        report = convergence_study(
            preset, epsilons, replications=2, n_particles=16, psis=["tanh"], T=T, dt=dt,
            seed=seed, signal_paths=signal_paths, martingale_runs=martingale_runs,
        )
        return [_diagnostics(row) for row in report.rows]

    marts = martingale_check(preset, epsilons, n, T, dt=dt, seed=seed + 2)
    signal = signal_convergence_study(preset, epsilons, n, T, dt=dt, seed=seed + 2)
    equal = study(n, n)
    assert equal == [
        _diagnostics({"ks_signal": s["ks"], "martingale_mean": m.mean_forward,
                      "martingale_se": m.se_forward, "max_rho0_inverse": m.max_rho0_inverse})
        for s, m in zip(signal, marts)
    ]
    # fewer KS paths than runs: the likelihood rows are the same ensembles
    fewer = study(n // 2, n)
    assert [{k: v for k, v in row.items() if k != "ks_signal"} for row in fewer] == [
        {k: v for k, v in row.items() if k != "ks_signal"} for row in equal
    ]
    # more KS paths than runs: a larger ensemble, every field still sound
    for row in study(2 * n, n):
        values = {k: float.fromhex(v) for k, v in row.items()}
        assert all(math.isfinite(v) for v in values.values())
        assert 0.0 <= values["ks_signal"] <= 1.0


def test_filter_study_gaps_fall_in_epsilon_under_state_dependent_thinning():
    # logistic thinning of the small observation jumps: they carry information
    report = filter_convergence_study(logistic_preset(intensity=1.0), [0.5, 0.1, 0.02],
                                      replications=20, n_particles=2000, psis=["tanh"],
                                      T=1.0, dt=0.01, seed=0)
    gaps = [float(row["mean_gap"][0]) for row in report.rows]
    assert gaps[0] > gaps[1] > gaps[2]
