import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter.errors import UnsupportedMeasureError
from levyfilter.noise import (
    LevyMeasureSpec,
    MarkSampler,
    NoiseSource,
    RngStream,
    _gauss_legendre,
    brownian_increments,
    null_measure,
    poisson_steps,
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


@pytest.mark.parametrize("n", [1, 2, 7, 128])
def test_gauss_legendre_rule_matches_numpy(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w)) <= 1e-14


def test_uniform_quadrature_loads_no_polynomial_module():
    code = ("import sys; from levyfilter.noise import MarkSampler; "
            "MarkSampler.parse('uniform(0, 1)').quadrature(); "
            "sys.exit('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@given(
    lo=st.floats(-5, 5),
    width=st.floats(0.1, 10),
)
def test_quadrature_weights_normalized(lo, width):
    ms = MarkSampler.parse(f"uniform({lo},{lo + width})")
    nodes, weights = ms.quadrature()
    assert abs(weights.sum() - 1.0) < 1e-12
    assert nodes.min() >= lo - 1e-9 and nodes.max() <= lo + width + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    marks=st.sampled_from(["uniform(-1,2)", "gauss(0.3,1.7)", "exp(1.5)", "point(0.5,-2)"]),
    rows=st.integers(1, 6),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_quadrature_rows_are_bitwise_single_rows(marks, rows, k, seed):
    # a compensator over a stack of states is, row for row, the one-state value
    spec = LevyMeasureSpec(2.5, MarkSampler.parse(marks), "U1")
    n_nodes = len(spec.mark_sampler.quadrature()[1])
    coef = np.random.default_rng(seed).standard_normal((rows, n_nodes, k))
    stack = spec.integrate(lambda u: np.cos(u[..., :1]) * coef)
    assert stack.shape == (rows, k)
    for r in range(rows):
        one = spec.integrate(lambda u: np.cos(u[..., :1]) * coef[r])
        assert one.shape == (k,)
        assert stack[r].tobytes() == one.tobytes()


def test_levy_measure_integrate_and_guards():
    spec = LevyMeasureSpec(2.0, MarkSampler.parse("uniform(-1,1)"), "U3")
    assert abs(spec.integrate(lambda v: v[..., 0] ** 2) - 2.0 / 3.0) < 1e-12
    with pytest.raises(UnsupportedMeasureError):
        LevyMeasureSpec(math.inf, MarkSampler.parse("uniform(-1,1)"), "U3")
    with pytest.raises(ValueError):
        LevyMeasureSpec(1.0, MarkSampler.parse("uniform(-1,1)"), "U9")
    assert null_measure("U1").total_intensity == 0.0


def test_poisson_steps_lie_in_their_steps_in_time_order():
    spec = LevyMeasureSpec(3.0, MarkSampler.parse("uniform(-1,1)"), "U1")
    dt, first, count, rows = 0.1, 7, 40, 5
    row, step, times, marks = poisson_steps(np.random.default_rng(4), spec, dt, first, count,
                                            rate_scale=2.0, rows=rows)
    assert len(times) > 100 and marks.shape == (len(times), 1)
    assert ((0 <= row) & (row < rows)).all() and ((first <= step) & (step < first + count)).all()
    assert ((step * dt < times) & (times <= (step + 1) * dt)).all()
    assert (np.diff(row) >= 0).all()
    for r in range(rows):
        assert (np.diff(times[row == r]) > 0).all()
    again = poisson_steps(np.random.default_rng(4), spec, dt, first, count, rate_scale=2.0,
                          rows=rows)
    for a, b in zip((row, step, times, marks), again):
        assert a.tobytes() == b.tobytes()


def test_poisson_steps_without_mass_leave_the_generator_untouched():
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    massive = LevyMeasureSpec(2.0, MarkSampler.parse("gauss(0,1)"), "U2")
    for spec, count in ((null_measure("U1"), 10), (massive, 0)):     # no mass, no cell
        row, step, times, marks = poisson_steps(gen, spec, 0.1, 0, count, rows=3)
        assert len(row) == len(step) == len(times) == len(marks) == 0
        assert marks.shape == (0, 1)
    assert gen.bit_generator.state == state
    assert len(poisson_steps(None, null_measure("U1"), 0.1, 0, 10)[2]) == 0


@pytest.mark.parametrize("rate_scale", [1.0, 20.0])
def test_poisson_steps_counts_per_cell_are_poisson(rate_scale):
    # mass 1.5, dt 0.2: per (row, step) cell the count is Poisson(0.3 rate_scale),
    # whose mean and variance both equal the rate; 20000 cells give SEs of
    # sqrt(rate / n) for the mean and about rate sqrt(2 / n) for the variance
    spec = LevyMeasureSpec(1.5, MarkSampler.parse("exp(2)"), "U1")
    rows, count, dt = 50, 400, 0.2
    row, step, _, _ = poisson_steps(np.random.default_rng(6), spec, dt, 3, count, rate_scale,
                                    rows)
    cells = np.bincount(row * count + step - 3, minlength=rows * count)
    rate, n = 1.5 * rate_scale * dt, rows * count
    assert abs(cells.mean() - rate) < 4 * math.sqrt(rate / n)
    assert abs(cells.var(ddof=1) - rate) < 4 * math.sqrt((2 * rate * rate + rate) / n)


def test_brownian_increments_moments_and_determinism():
    dw = brownian_increments(RngStream(6), dim=2, dt=0.25, count=4000)
    assert dw.shape == (4000, 2)
    assert abs(dw.mean()) < 0.02
    assert abs(dw.var() - 0.25) < 0.02
    again = brownian_increments(RngStream(6), dim=2, dt=0.25, count=4000)
    assert np.array_equal(dw, again)
