import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levyfilter import sde
from levyfilter.averaging import (
    EmpiricalMeasure,
    average_coefficients,
    build_homogenized,
    estimate_invariant_measure,
    factor_diffusion,
)
from levyfilter.errors import ExtrapolationError
from levyfilter.models import build_example6, preset_from_config, preset_to_config
from levyfilter.noise import NoiseSource, RngStream, poisson_steps
from levyfilter.sde import FROZEN_REPLICAS, euler_step
from test_sde import without_ou


@pytest.fixture(scope="module")
def example6():
    return build_example6()


def test_invariant_measure_exact_ou_moments(example6):
    meas = estimate_invariant_measure(
        example6.model, np.array([0.0]), burn_in=10.0, n_samples=100_000,
        stream=RngStream(0),
    )
    # stationary law is N(0, sigma2^2 / 2) = N(0, 1)
    assert abs(meas.samples[:, 0].mean()) < 0.02
    assert abs(meas.samples[:, 0].var(ddof=1) - 1.0) < 0.05
    assert meas.mode == "exact_ou"


def test_invariant_measure_euler_route_agrees(example6):
    preset = without_ou(example6)
    meas = estimate_invariant_measure(
        preset.model, np.array([0.0]), burn_in=5.0, n_samples=20_000,
        stride=20, dt=0.005, stream=RngStream(1),
    )
    assert meas.mode == "euler"
    assert abs(meas.samples[:, 0].mean()) < 0.05
    assert abs(meas.samples[:, 0].var(ddof=1) - 1.0) < 0.1


def test_invariant_measure_needs_enough_samples(example6):
    with pytest.raises(ValueError):
        estimate_invariant_measure(
            example6.model, np.array([0.0]), n_samples=10, stream=RngStream(0)
        )


def test_empirical_measure_minimum_size():
    with pytest.raises(ValueError):
        EmpiricalMeasure(
            samples=np.zeros((5, 1)), frozen_x=np.zeros(1), burn_in=0.0,
            stride=1, dt=0.01, mode="euler",
        )


def test_averaged_coefficients_match_closed_forms(example6):
    x = np.array([0.7])
    meas = estimate_invariant_measure(
        example6.model, x, burn_in=10.0, n_samples=2**16, stream=RngStream(3)
    )
    pt = average_coefficients(example6.model, example6.observation, x, meas)
    # odd drift integrates to zero
    assert abs(pt.bbar1[0]) < 3 * pt.se_bbar1[0] + 1e-3
    # constant integrands average exactly at power-of-two sample counts:
    # bitwise equal to the sensor evaluated over the same sample batch
    # (numpy may pick different last-ulp variants per input layout, so the
    # reference evaluation must use the same layout)
    assert pt.abar[0, 0] == 1.0
    hv = example6.observation.h(x[None, :], meas.samples)
    assert pt.hbar[0] == hv[0, 0]
    assert pt.hbar[0] == pytest.approx(math.atan(0.7), rel=1e-14)
    assert pt.se_hbar[0] == 0.0


def test_averaged_se_shrinks_with_samples(example6):
    x = np.array([0.0])
    ses = []
    for n in (2**14, 2**16):
        meas = estimate_invariant_measure(
            example6.model, x, burn_in=10.0, n_samples=n, stream=RngStream(5)
        )
        pt = average_coefficients(example6.model, example6.observation, x, meas)
        ses.append(pt.se_bbar1[0])
    # quadrupling the samples should halve the SE, give or take noise
    ratio = ses[0] / ses[1]
    assert 1.4 < ratio < 2.9


@pytest.mark.parametrize("route", ["exact_ou", "euler"])
@pytest.mark.parametrize("n, batches", [pytest.param(1000, 1, id="short"),
                                        pytest.param(16 * 600 - 10, 2, id="long")])
def test_replica_se_is_the_spread_of_the_batch_means(example6, route, n, batches):
    preset = example6 if route == "exact_ou" else without_ou(example6)
    x = np.array([0.7])
    meas = estimate_invariant_measure(
        preset.model, x, burn_in=5.0, n_samples=n, stride=10, dt=0.01, stream=RngStream(4),
    )
    pt = average_coefficients(preset.model, preset.observation, x, meas)
    # 15 replicas of L records and the last one cut (short: 63 and 55, one
    # batch each; long: 600 and 590, two batches each), weighted by count
    b = np.sin(meas.samples[:, 0])
    L = -(-n // FROZEN_REPLICAS)
    blocks = [part for i in range(0, n, L) for part in np.array_split(b[i: i + L], batches)]
    counts = np.array([len(blk) for blk in blocks])
    assert len(blocks) == batches * FROZEN_REPLICAS and counts[-1] == (n - 15 * L) // batches
    means = np.array([blk.mean() for blk in blocks])
    grand = np.average(means, weights=counts)
    expected = math.sqrt(np.sum(counts * (means - grand) ** 2) / ((len(blocks) - 1) * n))
    assert pt.se_bbar1[0] == pytest.approx(expected, rel=1e-10)
    assert meas.mode == route
    # a sensor that ignores the fast variable has exactly zero error, cut replica included
    assert pt.se_hbar[0] == 0.0


def test_average_coefficients_requires_matching_state(example6):
    meas = estimate_invariant_measure(
        example6.model, np.array([0.0]), n_samples=2000, stream=RngStream(7)
    )
    with pytest.raises(ValueError):
        average_coefficients(example6.model, example6.observation, np.array([0.5]), meas)


def test_factor_diffusion_simple_cases():
    np.testing.assert_allclose(factor_diffusion(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(factor_diffusion(np.array([[4.0]])), [[2.0]])
    with pytest.raises(ValueError):
        factor_diffusion(np.array([[0.0, 1.0], [-1.0, 0.0]]))   # asymmetric
    with pytest.raises(ValueError):
        factor_diffusion(np.array([[-1.0]]))                    # not PSD
    with pytest.raises(ValueError):
        factor_diffusion(np.zeros((2, 3)))                      # not square


def test_factor_diffusion_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])   # rank one
    L = factor_diffusion(a)
    np.testing.assert_allclose(L @ L.T, a, atol=1e-12)


@settings(max_examples=40)
@given(
    b=hnp.arrays(
        np.float64, (3, 3),
        elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    )
)
def test_factor_diffusion_recomposes(b):
    a = b @ b.T
    L = factor_diffusion(a)
    scale = max(1.0, np.abs(a).max())
    assert np.tril(L, -1).shape == L.shape  # lower triangular by construction
    np.testing.assert_allclose(L @ L.T, a, atol=1e-10 * scale)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_build_homogenized_closed_form(example6):
    hm = build_homogenized(example6, mode="closed_form")
    x = np.array([[0.3], [-1.2], [4.0]])
    np.testing.assert_allclose(hm.bbar1(x), 0.0)
    np.testing.assert_allclose(hm.sigmabar1(x)[..., 0, 0], 1.0)
    np.testing.assert_allclose(hm.hbar(x)[..., 0], np.arctan(x[:, 0]))
    assert hm.mode == "closed_form"
    assert hm.l_factor == 1


def test_build_homogenized_lattice_interpolates(example6):
    grid = np.linspace(-2.0, 2.0, 9)
    hm = build_homogenized(
        example6, mode="lattice", x_grid=grid, stream=RngStream(11),
        burn_in=5.0, n_samples=4000, stride=5, dt=0.01,
    )
    x = np.array([[0.25]])
    # empirical averages on a coarse grid: loose agreement with closed form
    assert abs(hm.bbar1(x)[0, 0]) < 0.05
    assert abs(hm.sigmabar1(x)[0, 0, 0] - 1.0) < 0.05
    assert abs(hm.hbar(x)[0, 0] - math.atan(0.25)) < 0.05
    with pytest.raises(ExtrapolationError):
        hm.bbar1(np.array([[5.0]]))


@pytest.mark.parametrize("grid", [None, [0.0], [0.0, 0.0], [1.5, 1.5, 1.5]])
def test_lattice_needs_two_distinct_points(example6, grid):
    # one distinct point spans no lattice: every query off it would extrapolate
    with pytest.raises(ValueError, match="at least two distinct points"):
        build_homogenized(example6, mode="lattice", x_grid=grid)


def test_build_homogenized_has_two_routes(example6):
    with pytest.raises(ValueError, match="unknown homogenization mode"):
        build_homogenized(example6, mode="on_demand")
    cfg = preset_to_config(example6)
    cfg["model"]["closed_form"] = None
    with pytest.raises(ValueError, match="closed-form"):
        build_homogenized(preset_from_config(cfg))


@pytest.fixture(scope="module")
def route_presets(example6):
    return {
        "exact_ou": example6,
        "euler": without_ou(example6),
        # two fast noise columns: the diffusion product sums over them
        "euler_2d_noise": without_ou(example6, l2=2, sigma2=[["1.2", "0.4*cos(z[0])"]]),
        # fast jumps: the frozen chain's compensator and event branch
        "euler_jumps": without_ou(
            example6, f2=["0.5*u[0] - 0.1*z[0]"], nu2={"intensity": 2.0, "marks": "gauss(0,1)"},
        ),
    }


def _replica_chain(model, x, stream, burn_in, n_samples, stride, dt):
    """The states one replica records, from a standalone one-row chain on
    ``stream`` with its own increments drawn at once: exact OU transitions at
    the recording spacing, or Euler steps with its own jump events drawn on
    their steps, ``sde._FROZEN_EVENT_WINDOW`` steps per draw."""
    ou = model.ou_fast
    span, every = (dt, stride) if ou is None else (stride * dt, 1)
    ratio = burn_in / span      # the fewest spans that cover the burn-in, to 1e-9
    burn = round(ratio) if abs(ratio - round(ratio)) <= 1e-9 * ratio else math.ceil(ratio)
    K = burn + -(-n_samples // FROZEN_REPLICAS) * every
    gen = stream.child(NoiseSource.FAST_BROWNIAN).generator()
    if ou is not None:
        dW = ou.step_std(span) * gen.standard_normal((K, 1))
    else:
        dW = gen.normal(0.0, math.sqrt(dt), size=(K, model.l2))
    kicks = {}
    if model.f2 is not None:
        gen, window = stream.child(NoiseSource.FAST_JUMPS).generator(), sde._FROZEN_EVENT_WINDOW
        for first in range(0, K, window):
            _, steps, _, marks = poisson_steps(gen, model.nu2, dt, first, min(window, K - first))
            for k, mark in zip(steps.tolist(), marks):
                kicks.setdefault(k, []).append(mark)
    x = np.asarray(x, dtype=float).reshape(1, model.n)
    z = model.z0.reshape(1, model.m).copy()
    kept = []
    for k in range(K):
        if ou is not None:
            z_new = ou.decay(span) * z + dW[k: k + 1]
        else:
            z_new = euler_step(z, model.b2(x, z), model.sigma2(x, z), dW[k: k + 1], dt)
        if model.f2 is not None:
            z_new[0] -= dt * model.nu2.integrate(lambda u: model.f2(x[0], z[0], u))
            for mark in kicks.get(k, ()):
                z_new[0] += model.f2(x[0], z[0], mark[None, :])[0]
        z = z_new
        if k + 1 > burn and (k + 1 - burn) % every == 0:
            kept.append(z[0])
    return np.array(kept)


@pytest.mark.parametrize("route", ["exact_ou", "euler", "euler_2d_noise", "euler_jumps"])
@settings(max_examples=6, deadline=None)
@given(
    xs=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(1)),
                  elements=st.floats(-3, 3, allow_nan=False)),
    seed=st.integers(0, 2**32),
)
def test_stacked_nodes_match_single_state_chains(route_presets, route, xs, seed):
    preset = route_presets[route]
    model, obs = preset.model, preset.observation
    stream = RngStream(seed)
    kw = dict(burn_in=0.5, n_samples=1000, stride=2, dt=0.01)
    stack = estimate_invariant_measure(model, xs, stream=stream, **kw)
    assert stack.replicas == FROZEN_REPLICAS
    length = -(-kw["n_samples"] // stack.replicas)
    warnings = []
    for g in range(len(xs)):
        single = estimate_invariant_measure(model, xs[g], stream=stream.child(g), **kw)
        node = stack.node(g)
        assert node.mode == single.mode == ("exact_ou" if route == "exact_ou" else "euler")
        assert node.frozen_x.tobytes() == single.frozen_x.tobytes()
        assert node.samples.tobytes() == single.samples.tobytes()
        assert node.warnings == single.warnings
        warnings += single.warnings
        got = average_coefficients(model, obs, xs[g], node)
        want = average_coefficients(model, obs, xs[g], single)
        for name in ("bbar1", "abar", "hbar", "se_bbar1", "se_hbar"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # replica c of node g fills its block of the samples, the last one
        # cut to fit, and is the one-row chain on stream.child(g).child(c)
        for c in (0, stack.replicas // 2, stack.replicas - 1):
            block = node.samples[c * length: (c + 1) * length]
            assert len(block) == min(length, kw["n_samples"] - c * length)
            ref = _replica_chain(model, xs[g], stream.child(g).child(c), **kw)
            assert block.tobytes() == ref[: len(block)].tobytes()
    assert stack.warnings == warnings
    if route == "euler_jumps":   # the jumps reach the chain
        plain = route_presets["euler"].model
        without = estimate_invariant_measure(plain, xs[0], stream=stream.child(0), **kw)
        assert not np.array_equal(without.samples, stack.node(0).samples)


@pytest.mark.parametrize("route", ["euler_2d_noise", "euler_jumps"])
@pytest.mark.parametrize("steps_per_chunk", [1, 7])
def test_chunked_noise_gives_the_same_samples(route_presets, monkeypatch, route, steps_per_chunk):
    model = route_presets[route].model
    xs = np.array([[-1.0], [0.5]])
    kw = dict(burn_in=0.3, n_samples=1000, stride=3, dt=0.01, stream=RngStream(23))
    whole = estimate_invariant_measure(model, xs, **kw)
    rows = len(xs) * FROZEN_REPLICAS
    monkeypatch.setattr(sde, "_FROZEN_CHUNK_BYTES", steps_per_chunk * rows * model.l2 * 8)
    chunked = estimate_invariant_measure(model, xs, **kw)
    assert chunked.samples.tobytes() == whole.samples.tobytes()


def test_jump_windows_keep_stacked_nodes_their_single_state_chains(route_presets, monkeypatch):
    # windows of 7 steps cut the 176-step chains into 26 event draws per row
    monkeypatch.setattr(sde, "_FROZEN_EVENT_WINDOW", 7)
    model = route_presets["euler_jumps"].model
    xs, stream = np.array([[-1.0], [0.5]]), RngStream(31)
    kw = dict(burn_in=0.5, n_samples=1000, stride=2, dt=0.01)
    stack = estimate_invariant_measure(model, xs, stream=stream, **kw)
    length = -(-kw["n_samples"] // FROZEN_REPLICAS)
    for g in range(len(xs)):
        single = estimate_invariant_measure(model, xs[g], stream=stream.child(g), **kw)
        assert stack.node(g).samples.tobytes() == single.samples.tobytes()
        ref = _replica_chain(model, xs[g], stream.child(g).child(0), **kw)
        assert single.samples[:length].tobytes() == ref.tobytes()


def test_euler_chain_memory_does_not_grow_with_its_length(route_presets):
    model = route_presets["euler"].model
    xs = np.array([[-1.0], [1.0]])
    kw = dict(burn_in=0.5, n_samples=1000, stride=475, dt=0.01, stream=RngStream(29))
    steps = int(round(kw["burn_in"] / kw["dt"])) + -(-kw["n_samples"] // FROZEN_REPLICAS) * kw["stride"]
    assert steps > 29_000
    # what keeping every node's whole path and noise would hold
    unstreamed = len(xs) * FROZEN_REPLICAS * steps * (model.m + model.l2) * 8
    tracemalloc.start()
    try:
        meas = estimate_invariant_measure(model, xs, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert meas.samples.shape == (2, 1000, 1)
    assert peak < unstreamed / 10
    # with fast jumps (nu2 of mass 20, 3.2 events per step over the 16 rows):
    # a chain 16 times longer peaks at most twice as high; drawing every event
    # of the chain up front took 8.2 -> 119.7 MB at 10 k -> 160 k steps
    jumps = without_ou(build_example6(), f2=["0.1*u[0]"],
                       nu2={"intensity": 20.0, "marks": "uniform(-1,1)"}).model
    peaks = []
    for steps in (10, 1250, 20_000):     # the first warms every cache
        tracemalloc.start()
        try:
            sde.simulate_frozen_fast(jumps, np.array([0.5]), jumps.z0, [steps], 0.01, RngStream(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < 2 * peaks[1]


def test_stationarity_warning_on_transient_chain():
    # a fast start far from the invariant law: every replica drifts down from
    # z0 = 5, which the pooled first halves and second halves of the replicas
    # show; the two halves of the replica-major concatenation would not
    transient = without_ou(build_example6(z0=5.0)).model
    kw = dict(n_samples=1000, stride=10, dt=0.01, stream=RngStream(17))
    meas = estimate_invariant_measure(transient, np.array([0.0]), burn_in=0.0, **kw)
    assert meas.mode == "euler"
    assert len(meas.warnings) == 1 and "stationarity" in meas.warnings[0]
    burnt_in = estimate_invariant_measure(transient, np.array([0.0]), burn_in=5.0, **kw)
    assert burnt_in.warnings == []
