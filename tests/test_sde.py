import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyfilter import sde
from levyfilter.averaging import build_homogenized
from levyfilter.models import (build_example6, make_linear_gaussian, preset_from_config,
                               preset_to_config, with_epsilon)
from levyfilter.noise import RngStream
from levyfilter.sde import (
    FullDynamics,
    HomogDynamics,
    ObservationRecord,
    _bin_events,
    _homogenized_law,
    _law_steps,
    make_grid,
    simulate_full,
    simulate_homogenized_ensemble,
    simulate_reference_observations,
    simulate_signal_ensemble,
)


def test_make_grid():
    times = make_grid(1.0, 0.1)
    assert len(times) == 11
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.3)


def without_ou(preset, **model_fields):
    """``preset`` without ``ou_fast``, so its fast component takes the Euler
    route, with ``model_fields`` replacing entries of its model config."""
    cfg = copy.deepcopy(preset_to_config(preset))
    cfg["model"].pop("ou_fast")
    cfg["model"].update(model_fields)
    return preset_from_config(cfg)


def test_dynamics_own_one_valid_step_size():
    # the model fixes the route: exact OU when it declares ou_fast, else Euler
    preset = build_example6()
    dynamics = FullDynamics(preset.model, 0.01)
    assert (dynamics.dt, dynamics.substeps, dynamics.dt_fast) == (0.01, 1, None)
    # at epsilon 0.1 a step of epsilon/10 is one Euler substep of the coarse size
    dynamics = FullDynamics(without_ou(preset).model, 0.01)
    assert (dynamics.substeps, dynamics.dt_fast) == (1, 0.01)
    hmodel = build_homogenized(preset)
    assert HomogDynamics(hmodel, 0.01).dt == 0.01
    for dt in (0.0, -0.01, float("nan")):
        with pytest.raises(ValueError, match="dt must be > 0"):
            FullDynamics(preset.model, dt)
        with pytest.raises(ValueError, match="dt must be > 0"):
            HomogDynamics(hmodel, dt)


_EULER_EXAMPLE6 = without_ou(build_example6())


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(1e-4, 10.0), dt=st.floats(1e-4, 1.0), count=st.integers(1, 5))
def test_euler_substeps_are_the_fewest_that_resolve_epsilon(eps, dt, count):
    preset = with_epsilon(_EULER_EXAMPLE6, eps)
    dynamics = FullDynamics(preset.model, dt)
    J, dt_fast, rtol = dynamics.substeps, dynamics.dt_fast, 1e-12
    assert dt_fast <= eps / 10 * (1 + rtol)
    assert J == 1 or dt / (J - 1) > eps / 10 * (1 - rtol)
    assert J * dt_fast == pytest.approx(dt, rel=rtol, abs=0)
    assert dynamics.blocks(count) == ((count, preset.model.l1), (J, count, preset.model.l2))


def test_a_coarse_euler_step_takes_the_derived_substeps(monkeypatch):
    # dt = epsilon = 0.1: ten Euler substeps of 0.01 per step (it was a stiffness error)
    preset = _EULER_EXAMPLE6
    dynamics = FullDynamics(preset.model, 0.1)
    assert (dynamics.substeps, dynamics.dt_fast) == (10, 0.1 / 10)
    calls, substep = [], sde.fast_step
    monkeypatch.setattr(sde, "fast_step", lambda *a: calls.append(a[4]) or substep(*a))
    path = simulate_full(preset.model, preset.observation, 0.5, 0.1, RngStream(0))
    assert calls == [dynamics.dt_fast / preset.model.epsilon] * 50
    assert np.all(np.isfinite(path.Z))


def test_exact_ou_paths_and_chains_step_through_the_one_fast_step(monkeypatch):
    # a path takes one exact OU fast_step per coarse step, of span dt/epsilon;
    # a frozen chain one per step, of span stride dt
    from levyfilter.averaging import estimate_invariant_measure

    preset = build_example6()
    spans, step = [], sde.fast_step
    monkeypatch.setattr(sde, "fast_step", lambda *a: spans.append(a[4]) or step(*a))
    simulate_full(preset.model, preset.observation, 0.5, 0.1, RngStream(0))
    assert spans == [0.1 / preset.model.epsilon] * 5
    # burn-in steps: the fewest spans that cover it, 10 of 0.03 for 0.3 and one of
    # 0.5 for 0.2 (a burn-in shorter than half a span once took none); then 63
    # records per replica
    for burn_in, stride, burn in ((0.3, 3, 10), (0.2, 50, 1)):
        spans.clear()
        estimate_invariant_measure(preset.model, [0.0], burn_in=burn_in, n_samples=1000,
                                   stride=stride, dt=0.01, stream=RngStream(1))
        assert spans == [stride * 0.01] * (burn + 63)


def test_simulate_full_deterministic():
    preset = build_example6()
    dt = 0.01
    a = simulate_full(preset.model, preset.observation, 1.0, dt, RngStream(12))
    b = simulate_full(preset.model, preset.observation, 1.0, dt, RngStream(12))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.Y, b.Y)
    c = simulate_full(preset.model, preset.observation, 1.0, dt, RngStream(13))
    assert not np.array_equal(a.X, c.X)


def test_observation_record_shapes_and_bbar():
    preset = build_example6()
    dt = 0.01
    path = simulate_full(preset.model, preset.observation, 1.0, dt, RngStream(4))
    rec = path.observations()
    assert rec.steps == 100
    assert rec.dt == pytest.approx(0.01)
    assert rec.bbar_increments.shape == (100, 1)
    # every accepted small event lands inside the horizon and carries a mark in U3
    for t, mark in zip(rec.small_times, rec.small_marks):
        assert 0 < t <= 1.0
        assert -1.0 <= mark[0] <= 1.0
    for t, mark in zip(rec.large_times, rec.large_marks):
        assert 1.0 <= mark[0] <= 2.0


def test_small_step_index_half_open_convention():
    rec = ObservationRecord(
        times=np.array([0.0, 0.1, 0.2, 0.3]),
        bbar_increments=np.zeros((3, 1)),
        small_times=np.array([0.05, 0.1, 0.15, 0.3]),
        small_marks=np.zeros((4, 1)),
        large_times=np.zeros(0),
        large_marks=np.zeros((0, 1)),
    )
    np.testing.assert_array_equal(rec.small_step_index(), [0, 0, 1, 2])
    # dt * K rounds below T on this grid: an event in (t_K, T] is the last step's
    rec.times = make_grid(0.1, 0.01 / 15)
    rec.small_times = np.array([0.1])
    assert rec.times[-1] < 0.1
    np.testing.assert_array_equal(rec.small_step_index(), [149])


def test_ou_fast_exact_transition_statistics():
    # epsilon=1 so one coarse step is one unit of fast time
    cfg = preset_to_config(build_example6())
    cfg["model"]["epsilon"] = 1.0
    preset = preset_from_config(cfg)
    dt = math.log(2.0)
    _, _, ZT = simulate_signal_ensemble(
        preset.model, math.log(2.0), dt, 40_000, RngStream(8)
    )
    # Z_dt | Z_0 = 0 is N(0, sigma^2 (1 - exp(-2 dt)) / 2) = N(0, 0.75)
    assert abs(ZT.var() - 0.75) < 0.02
    assert abs(ZT.mean()) < 0.02


def test_compensated_slow_jumps_are_mean_zero():
    # pure-jump slow component: X_T - x0 is a compensated Poisson integral
    cfg = preset_to_config(build_example6())
    cfg["model"]["b1"] = ["0.0"]
    cfg["model"]["sigma1"] = [["0.0"]]
    cfg["model"]["f1"] = ["u[0]"]
    cfg["model"]["nu1"] = {"intensity": 2.0, "marks": "uniform(-1,1)"}
    preset = preset_from_config(cfg)
    dt = 0.01
    paths = simulate_full(
        preset.model, preset.observation, 1.0, dt, [RngStream(seed) for seed in range(400)]
    )
    xs = np.asarray([path.X[-1, 0] for path in paths])
    # mean 0 (compensation), variance T * intensity * E[u^2] = 2/3
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean()) < 3 * se
    assert abs(xs.var() - 2.0 / 3.0) < 0.15


def _jumps_by_step(times, values, grid):
    """The sum of ``values`` over the events at ``times`` in each step of ``grid``."""
    out = np.zeros((len(grid) - 1, values.shape[1]))
    np.add.at(out, _bin_events(times, grid), values)
    return out


def test_jump_totals_reconstruct_pure_jump_path():
    # a pure-jump slow component whose jump size depends on the state: every
    # X increment is its step's events, charged through f1 at the left state,
    # minus the (deterministic) compensator drift
    cfg = preset_to_config(build_example6())
    cfg["model"].update(b1=["0.0"], sigma1=[["0.0"]], f1=["0.5*u[0]*cos(x[0])"],
                        nu1={"intensity": 3.0, "marks": "uniform(-1,1)"})
    preset = preset_from_config(cfg)
    model, dt = preset.model, 0.05
    path = simulate_full(model, preset.observation, 1.0,
                         dt, RngStream(21))
    slow = path.events["slow"]
    assert len(slow)
    x_left, grid = path.X[:-1], path.times
    kicks = model.f1(x_left[_bin_events(slow.times, grid)], slow.marks)
    comp = model.nu1.integrate(lambda u: model.f1(x_left[:, None, :], u))
    np.testing.assert_allclose(np.diff(path.X, axis=0),
                               _jumps_by_step(slow.times, kicks, grid) - dt * comp, atol=1e-12)


def test_observation_path_reconstruction():
    # example6's observation jumps, thinned at a constant rate: Y increments
    # are the bbar increments plus the accepted jumps of the step, minus the
    # small-jump compensator drift
    preset = build_example6(small_jump_intensity=20.0, large_jump_intensity=10.0)
    obs, dt = preset.observation, 0.01
    path = simulate_full(preset.model, obs, 1.0, dt,
                         RngStream(30))
    small, large = path.events["obs_small"], path.events["obs_large"]
    assert small.accepted.any() and large.accepted.any()
    y_jumps = sum(_jumps_by_step(ev.times[ev.accepted],
                                 shape(ev.times[ev.accepted], ev.marks[ev.accepted]), path.times)
                  for ev, shape in ((small, obs.f3), (large, obs.g3)))
    lam0 = obs.thinning.params[0]
    y_comp = obs.nu3_small.integrate(lambda u: obs.f3(0.0, u)) * lam0
    np.testing.assert_allclose(np.diff(path.Y, axis=0),
                               path.observations().bbar_increments + y_jumps - dt * y_comp,
                               atol=1e-12)


def test_simulate_full_thinning_acceptance_rate():
    # constant acceptance 0.3 on both observation regions, ~400 base events
    preset = build_example6(lambda_const=0.3, small_jump_intensity=200.0,
                            large_jump_intensity=200.0)
    dt = 0.01
    path = simulate_full(preset.model, preset.observation, 1.0, dt, RngStream(3))
    events = np.concatenate([path.events["obs_small"].accepted, path.events["obs_large"].accepted])
    frac = sum(events) / len(events)
    assert len(events) > 300
    assert abs(frac - 0.3) < 0.1


def test_signal_ensemble_matches_path_simulator_moments():
    preset = make_linear_gaussian()
    dt = 0.01
    _, XT, _ = simulate_signal_ensemble(preset.model, 1.0, dt, 30_000, RngStream(3))
    # dX = -X dt + sqrt(3) dV from 0: var(T) = 1.5 (1 - e^-2)
    target = 1.5 * (1.0 - math.exp(-2.0))
    assert abs(XT.mean()) < 0.02
    assert abs(XT.var() - target) / target < 0.03


def test_reference_observations_are_signal_free():
    preset = build_example6()
    rec = simulate_reference_observations(preset.observation, 1.0, 0.01, RngStream(17))
    assert rec.bbar_increments.shape == (100, 1)
    # increments are plain Brownian under the reference law (SE of the
    # sample variance at 100 draws is ~0.0014)
    assert abs(rec.bbar_increments.var() - 0.01) < 0.005
    again = simulate_reference_observations(preset.observation, 1.0, 0.01, RngStream(17))
    assert np.array_equal(rec.bbar_increments, again.bbar_increments)


def test_simulate_homogenized_reduced_dimensions():
    hmodel = build_homogenized(build_example6(), mode="closed_form")
    steps = [(t, X, Z) for t, [(X, Z)] in
             _law_steps([_homogenized_law(hmodel, 0.01, RngStream(5))], 1.0, 0.01, 3)]
    assert len(steps) == 101
    for _, X, Z in steps:
        assert X.shape == (3, 1) and Z is None   # slow state only: no fast or observation part
    np.testing.assert_array_equal(steps[0][1], np.broadcast_to(hmodel.x0, (3, 1)))
    # the simulator returns the law pass's last state
    times, XT = simulate_homogenized_ensemble(hmodel, 1.0, 0.01, 3, RngStream(5))
    np.testing.assert_array_equal(times, [t for t, _, _ in steps])
    np.testing.assert_array_equal(XT, steps[-1][1])


def test_path_csv_round_trip(tmp_path):
    preset = build_example6()
    dt = 0.1
    path = simulate_full(preset.model, preset.observation, 0.5, dt, RngStream(2))
    out = tmp_path / "path.csv"
    path.to_csv(out)
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape == (6,)
    np.testing.assert_allclose(data["x_0"], path.X[:, 0], rtol=0, atol=0)
    np.testing.assert_allclose(data["t"], path.times)


# ---------------------------------------------------------------------------
# stacked paths


def _stack_case(name):
    """(preset, dt) of one route through ``simulate_full``; ``all_jumps``
    combines the slow-jump, fast-jump and logistic-thinning routes, and
    ``dense_obs_jumps`` thins several events of one path per step in both
    observation regions."""
    cfg = preset_to_config(build_example6())
    model, obs = cfg["model"], cfg["observation"]
    euler = name in ("euler", "fast_jumps", "all_jumps")
    if euler:
        del model["ou_fast"]
    if name == "euler":
        model["epsilon"] = 0.05
    if name in ("logistic_thinning", "all_jumps", "dense_obs_jumps"):
        obs["lambda"] = {"kind": "logistic", "low": 0.2, "high": 0.8, "slope": 1.5}
        obs["nu3_small"]["intensity"] = 100.0 if name == "dense_obs_jumps" else 20.0
        obs["nu3_large"]["intensity"] = 100.0 if name == "dense_obs_jumps" else 10.0
    if name in ("slow_jumps", "all_jumps"):
        model["f1"] = ["0.5*u[0]*cos(x[0])"]
        model["nu1"] = {"intensity": 5.0, "marks": "uniform(-1,1)"}
    if name in ("fast_jumps", "all_jumps"):
        model["f2"] = ["0.3*u[0] - 0.1*z[0]"]
        model["nu2"] = {"intensity": 2.0, "marks": "gauss(0,1)"}
    if name == "l1_2":
        model["l1"] = 2
        model["sigma1"] = [["1.0", "0.3*cos(x[0])"]]
    preset = preset_from_config(cfg)
    return preset, 0.02


_STACK_CASES = ["exact_ou", "euler", "logistic_thinning", "slow_jumps", "fast_jumps", "all_jumps",
                "l1_2", "dense_obs_jumps"]
_STACK_PRESETS = {name: _stack_case(name) for name in _STACK_CASES}


def _event_tuples(path):
    return {
        key: (ev.times.tobytes(), ev.marks.shape, ev.marks.tobytes(), ev.accepted.tobytes())
        for key, ev in path.events.items()
    }


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 4), seed=st.integers(0, 2**16), case=st.sampled_from(_STACK_CASES))
def test_stacked_paths_are_bitwise_single_paths(rows, seed, case):
    preset, dt = _STACK_PRESETS[case]
    streams = [RngStream(seed, r) for r in range(rows)]
    stack = simulate_full(preset.model, preset.observation, 0.6, dt, streams)
    assert isinstance(stack, list) and len(stack) == rows
    for stream, path in zip(streams, stack):
        one = simulate_full(preset.model, preset.observation, 0.6, dt, stream)
        for name in ("times", "X", "Z", "Y", "bbar_increments"):
            np.testing.assert_array_equal(getattr(path, name), getattr(one, name), err_msg=name)
        assert _event_tuples(path) == _event_tuples(one)
        a, b = path.observations(), one.observations()
        for name in ("times", "bbar_increments", "small_times", "small_marks",
                     "large_times", "large_marks"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_paths_step_through_the_full_dynamics_with_their_kicks(monkeypatch):
    preset, dt = _STACK_PRESETS["all_jumps"]
    kicks, step = [], FullDynamics.step

    def spy(self, x, z, noise, kicks_in=(None, None), out=None):
        kicks.append(kicks_in)
        return step(self, x, z, noise, kicks_in, out)

    monkeypatch.setattr(FullDynamics, "step", spy)
    paths = simulate_full(preset.model, preset.observation, 0.6, dt,
                          [RngStream(9, r) for r in range(3)])
    assert len(kicks) == len(paths[0].times) - 1
    assert all(len(fast) == FullDynamics(preset.model, dt).substeps for _, fast in kicks)
    slow = [s for s, _ in kicks if s is not None]
    fast = [f for _, stacks in kicks for f in stacks if f is not None]
    assert slow and fast
    assert sum(len(s[0]) for s in slow) == sum(len(p.events["slow"]) for p in paths)
    assert sum(len(f[0]) for f in fast) == sum(len(p.events["fast"]) for p in paths)


@pytest.mark.parametrize(("eps", "dt"), [(0.02, 0.01), (0.03, 0.02), (0.07, 0.02)])
def test_every_fast_jump_is_applied_once(eps, dt):
    # unit fast jumps and nothing else: Z_T = N - (nu2 mass) T / eps exactly,
    # however the substeps of a coarse step round against its end
    cfg = preset_to_config(build_example6())
    model = cfg["model"]
    del model["ou_fast"]
    model.update(epsilon=eps, z0=[0.0], b2=["0.0"], sigma2=[["0.0"]], f2=["1.0"],
                 nu2={"intensity": 3.0, "marks": "uniform(0,1)"})
    preset = preset_from_config(cfg)
    paths = simulate_full(preset.model, preset.observation, 1.0, dt,
                          [RngStream(seed) for seed in range(4)])
    for path in paths:
        assert len(path.events["fast"]) > 0
        assert abs(path.Z[-1, 0] + 3.0 / eps - len(path.events["fast"])) < 1e-9


def test_observations_keep_the_mark_width_without_events():
    # no small-region event: the record's marks keep the measure's width, as
    # the reference-law record's do
    cfg = preset_to_config(build_example6())
    cfg["observation"]["f3"] = ["u[0] + u[1]"]
    cfg["observation"]["nu3_small"] = {"intensity": 0.0, "marks": "point(0.1,0.2)"}
    preset = preset_from_config(cfg)
    path = simulate_full(preset.model, preset.observation, 0.2,
                         0.02, RngStream(1))
    ref = simulate_reference_observations(preset.observation, 0.2, 0.02, RngStream(1))
    assert path.observations().small_marks.shape == ref.small_marks.shape == (0, 2)


def test_simulate_full_needs_a_stream():
    preset = build_example6()
    with pytest.raises(ValueError, match="at least one stream"):
        simulate_full(preset.model, preset.observation, 0.1, 0.02, [])
