import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyfilter.errors import UnsupportedMeasureError
from levyfilter.noise import (
    LevyMeasureSpec,
    MarkSampler,
    NoiseSource,
    RngStream,
    brownian_increments,
    null_measure,
    sample_poisson_jumps,
)


def _source_stream(root, source, path):
    return RngStream(root, int(source)).child(path)


def test_stream_determinism_and_separation():
    a = _source_stream(7, NoiseSource.SLOW_BROWNIAN, 5)
    b = _source_stream(7, NoiseSource.SLOW_BROWNIAN, 5)
    assert np.array_equal(a.generator().standard_normal(8), b.generator().standard_normal(8))
    c = _source_stream(7, NoiseSource.SLOW_BROWNIAN, 6)
    assert not np.array_equal(a.generator().standard_normal(8), c.generator().standard_normal(8))
    d = _source_stream(8, NoiseSource.SLOW_BROWNIAN, 5)
    assert not np.array_equal(a.generator().standard_normal(8), d.generator().standard_normal(8))


def test_stream_child_keys_do_not_collide():
    s = RngStream(11)
    seen = []
    for key in [0, 1, 2, 63, 64, 2**20]:
        seen.append(s.child(key).generator().standard_normal(4))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not np.array_equal(seen[i], seen[j])
    # nesting is distinct from the flat key
    assert not np.array_equal(
        s.child(1).child(2).generator().standard_normal(4),
        s.child(2).child(1).generator().standard_normal(4),
    )


def test_child_stream_matches_packed_id():
    s = _source_stream(7, NoiseSource.FAST_JUMPS, 9)
    packed = RngStream(7, stream_id=int(NoiseSource.FAST_JUMPS) * 2**64 + 9)
    assert np.array_equal(
        s.generator().standard_normal(4), packed.generator().standard_normal(4)
    )


@given(root=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**130))
def test_stream_bits_are_pcg64_over_the_spawn_key(root, stream_id):
    want = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(root, spawn_key=(stream_id, 0)))
    )
    got = RngStream(root, stream_id).generator()
    assert np.array_equal(got.standard_normal(6), want.standard_normal(6))


@pytest.mark.parametrize(
    "spec,kind,dim",
    [
        ("uniform(-1,1)", "uniform", 1),
        ("uniform(1, 2)", "uniform", 1),
        ("gauss(0, 1)", "gauss", 1),
        ("exp(1.5)", "exp", 1),
        ("point(2.0)", "point", 1),
    ],
)
def test_mark_sampler_parse(spec, kind, dim):
    ms = MarkSampler.parse(spec)
    assert ms.kind == kind
    assert ms.dim == dim


def test_mark_sampler_rejects_garbage():
    for bad in ["uniform(1,-1)", "cauchy(0,1)", "uniform(1)", "exp(-2)", ""]:
        with pytest.raises(ValueError):
            MarkSampler.parse(bad)


def test_mark_sampler_sampling_ranges():
    gen = RngStream(5).generator()
    u = MarkSampler.parse("uniform(-1,1)").sample(gen, 500)
    assert u.shape == (500, 1)
    assert u.min() >= -1 and u.max() <= 1
    p = MarkSampler.parse("point(2.5)").sample(gen, 10)
    assert np.all(p == 2.5)
    e = MarkSampler.parse("exp(2.0)").sample(gen, 500)
    assert e.min() >= 0


def test_quadrature_matches_closed_forms():
    u = MarkSampler.parse("uniform(-1,1)")
    assert abs(u.expectation(lambda v: v[..., 0] ** 2) - 1.0 / 3.0) < 1e-12
    g = MarkSampler.parse("gauss(0,1)")
    assert abs(g.expectation(lambda v: v[..., 0] ** 2) - 1.0) < 1e-10
    assert abs(g.expectation(lambda v: v[..., 0] ** 4) - 3.0) < 1e-8
    e = MarkSampler.parse("exp(1.5)")
    assert abs(e.expectation(lambda v: v[..., 0]) - 1.0 / 1.5) < 1e-10
    pt = MarkSampler.parse("point(2.0)")
    assert pt.expectation(lambda v: v[..., 0] ** 2) == pytest.approx(4.0)


@given(
    lo=st.floats(-5, 5),
    width=st.floats(0.1, 10),
)
def test_quadrature_weights_normalized(lo, width):
    ms = MarkSampler.parse(f"uniform({lo},{lo + width})")
    nodes, weights = ms.quadrature()
    assert abs(weights.sum() - 1.0) < 1e-12
    assert nodes.min() >= lo - 1e-9 and nodes.max() <= lo + width + 1e-9


def test_levy_measure_integrate_and_guards():
    spec = LevyMeasureSpec(2.0, MarkSampler.parse("uniform(-1,1)"), "U3")
    assert abs(spec.integrate(lambda v: v[..., 0] ** 2) - 2.0 / 3.0) < 1e-12
    with pytest.raises(UnsupportedMeasureError):
        LevyMeasureSpec(math.inf, MarkSampler.parse("uniform(-1,1)"), "U3")
    with pytest.raises(ValueError):
        LevyMeasureSpec(1.0, MarkSampler.parse("uniform(-1,1)"), "U9")
    assert null_measure("U1").total_intensity == 0.0


def test_sample_poisson_jumps_basics():
    spec = LevyMeasureSpec(3.0, MarkSampler.parse("uniform(-1,1)"), "U1")
    events = sample_poisson_jumps(RngStream(4), spec, horizon=2.0)
    times = [ev.time for ev in events]
    assert times == sorted(times)
    assert all(0 < t <= 2.0 for t in times)
    again = sample_poisson_jumps(RngStream(4), spec, horizon=2.0)
    assert [ev.time for ev in again] == times
    assert sample_poisson_jumps(RngStream(4), null_measure("U1"), 2.0) == []


def test_sample_poisson_jumps_rate_scaling():
    spec = LevyMeasureSpec(1.0, MarkSampler.parse("uniform(-1,1)"), "U2")
    counts = [
        len(sample_poisson_jumps(RngStream(seed), spec, 1.0, rate_scale=50.0))
        for seed in range(40)
    ]
    mean = np.mean(counts)
    # Poisson(50): mean of 40 draws has SE ~ 1.1
    assert abs(mean - 50.0) < 5.0


def test_brownian_increments_moments_and_determinism():
    dw = brownian_increments(RngStream(6), dim=2, dt=0.25, count=4000)
    assert dw.shape == (4000, 2)
    assert abs(dw.mean()) < 0.02
    assert abs(dw.var() - 0.25) < 0.02
    again = brownian_increments(RngStream(6), dim=2, dt=0.25, count=4000)
    assert np.array_equal(dw, again)
