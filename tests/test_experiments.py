"""Study-level checks: KS machinery, the linear-model oracle, likelihood
identities, and thread-count invariance of the convergence study."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levyfilter import (
    PRESETS,
    RngStream,
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
from levyfilter.filtering import _batch_log_weight, _log_thinning
from levyfilter.sde import ObservationRecord


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
    model = PRESETS["example6"]().model
    scheme = default_scheme(model, 0.05)
    assert scheme.fast_mode == "exact_ou"
    assert scheme.dt_fast is None
    no_ou = dataclasses.replace(model, ou_fast=None)
    scheme = default_scheme(no_ou, 0.05)  # epsilon = 0.1 => substeps at 0.01
    assert scheme.fast_mode == "euler"
    assert scheme.substeps == 5
    assert scheme.dt_fast == pytest.approx(0.01)


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
        Y=None,
    )


def _path_log_likelihood(obs, record, h_series, x_series):
    """Inverse-route use of the weight kernel: one row per step, each event
    charged to the step that owns it, summed along the path."""
    no_t, no_u = np.zeros(0), np.zeros((0, record.small_marks.shape[1]))
    rows = _batch_log_weight(
        obs, h_series, x_series, record.bbar_increments, record.dt, record.times[1:], no_t, no_u
    )
    idx = record.small_step_index()
    np.add.at(rows, idx, _log_thinning(obs, record.small_times, x_series[idx], record.small_marks))
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


def test_signal_convergence_study_rows():
    preset = PRESETS["example6"]()
    rows = signal_convergence_study(preset, [0.5, 0.1], n_paths=2000, T=0.5, dt_slow=0.02)
    assert [r["epsilon"] for r in rows] == [0.5, 0.1]
    for r in rows:
        assert 0.0 <= r["ks"] <= 1.0
        assert r["n_paths"] == 2000
    again = signal_convergence_study(preset, [0.5, 0.1], n_paths=2000, T=0.5, dt_slow=0.02)
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
])
def test_convergence_studies_check_inputs_up_front(study, epsilons, kwargs, match, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the study started work before checking its inputs")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments.simulate_full", no_work)
    with pytest.raises(ValueError, match=match):
        study(PRESETS["example6"](), epsilons, replications=2,
              n_particles=16, psis=["tanh"], T=0.1, dt=0.02, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"n_runs": 1}, "n_runs"),
    ({"n_runs": 100, "inverse_runs": 1}, "inverse_runs"),
    ({"n_runs": 100, "inverse_runs": -3}, "inverse_runs"),
])
def test_martingale_check_needs_two_runs_per_route(kwargs, name, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the check started work before rejecting its run counts")

    monkeypatch.setattr("levyfilter.experiments.build_homogenized", no_work)
    monkeypatch.setattr("levyfilter.experiments.simulate_signal_ensemble", no_work)
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
    assert report.column("epsilon") == [0.5]
