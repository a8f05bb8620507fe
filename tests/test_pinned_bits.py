"""Outputs pinned bitwise by sha256 digests of small runs.

The filter and law passes step their ensembles in place, the reduced
filters of an epsilon study share one particle cloud until they resample,
and ``simulate_full`` steps its paths through ``FullDynamics``; each was
made to keep every output bit.  These digests were taken before those
changes, on runs that cover the coupled study with rows resampling at their
own steps, the linear oracle, an Euler-route lattice filter pair with
logistic thinning, the study with its law pass, and every route through
``simulate_full``.  The law pass's martingale fields were re-pinned when its
observation increments moved off a stream that the full ensembles also read.
The logistic-thinning filter pair was re-pinned when the filter's compensator
became intensity * (1 - lambda(t, x)) in place of a weighted sum over the
mark quadrature's nodes, whose weights sum to 1 only within rounding: its
pi, log_rho1 and ess moved by at most 7e-15 relative, and its resample
steps stayed equal.  Constant thinning and ``simulate_full`` kept every bit.
The filter pair with a state-dependent sigma1 was re-pinned when exact-OU
invariant measures became ``FROZEN_REPLICAS`` replica chains in place of one
chain: its lattice runs exact OU, so its reduced filter moved, while the
full filter alone kept the digest it had before.
Every digest of a run that draws a jump event was re-pinned when the events
came to be drawn on their steps (``noise.poisson_steps``: a total count, then
each event's step, its time in that step and its mark) in place of sorted
times over the whole horizon: the study with rows resampling at their own
steps, the logistic-thinning filter pair, the study with its law pass (both
digests) and the logistic_thinning, slow_jumps, fast_jumps, all_jumps and
dense_obs_jumps routes of ``simulate_full``.  The two studies moved also
because each truth path r now reads one stream at every epsilon.  Runs that
draw no jump event kept their bits.
"""

import hashlib

import numpy as np
import pytest

from levyfilter import (
    PRESETS,
    RngStream,
    build_homogenized,
    convergence_study,
    experiments,
    filter_convergence_study,
    kalman_oracle,
    preset_from_config,
    preset_to_config,
    psi_from_string,
    run_filter,
    simulate_full,
)
from levyfilter.sde import FullDynamics
from test_sde import _STACK_CASES, _STACK_PRESETS


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _outputs_digest(outs) -> str:
    return _digest(*[a for o in outs for a in (o.pi, o.log_rho1, o.ess, o.resample_steps)])


def _report_digest(report) -> str:
    return _digest(*[v for row in report.rows for _, v in sorted(row.items())])


def test_study_with_rows_resampling_at_their_own_steps_keeps_its_bits(monkeypatch):
    kept = []

    def keep(*args, _fn=experiments._filter_pass, **kwargs):
        kept.append(_fn(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(experiments, "_filter_pass", keep)
    report = filter_convergence_study(PRESETS["example6"](), [0.5, 0.1, 0.02], replications=4,
                                      n_particles=32, psis=["tanh", "arctan"], T=0.3, dt=0.02,
                                      ess_frac=0.999, seed=5)
    (outs,) = kept
    homog = [o for case in outs[1::2] for o in case]
    assert len({tuple(o.resample_steps) for o in homog}) > 1
    assert [_report_digest(report)] + [_outputs_digest(case) for case in outs] == [
        "f3f0dae6d33627e7", "909b6f0a31bf01fe", "2c335c9166f33d13", "af81972d972fe9b5",
        "43ee870aab121b99", "171875eb0aee9453", "da35520fdf95a7b1"]


def test_kalman_oracle_keeps_its_bits():
    res = kalman_oracle(T=0.05, dt=1e-3, n_particles=200, ess_frac=1.0, seed=3)
    assert _digest(res.filter_mean, res.oracle_mean) == "5e847a7b5e4714b1"


def test_euler_lattice_filter_pair_with_logistic_thinning_keeps_its_bits():
    cfg = preset_to_config(PRESETS["example6"]())
    del cfg["model"]["ou_fast"], cfg["model"]["closed_form"]
    cfg["model"]["epsilon"] = 0.05
    cfg["observation"]["lambda"] = {"kind": "logistic", "low": 0.3, "high": 0.8, "slope": 1.5}
    cfg["observation"]["nu3_small"]["intensity"] = 25.0
    preset = preset_from_config(cfg)
    hmodel = build_homogenized(preset, mode="lattice", x_grid=[-2.0, 0.0, 2.0],
                               stream=RngStream(4), burn_in=1.0, n_samples=1000, stride=5)
    assert FullDynamics(preset.model, 0.02).substeps == 4
    rec = simulate_full(preset.model, preset.observation, 0.2, 0.02, RngStream(6)).observations()
    assert len(rec.small_times) > 0
    full, homog = run_filter(rec, "both", preset, 24, ["tanh"], RngStream(7), hmodel=hmodel,
                             ess_frac=0.8)
    assert _outputs_digest([full, homog]) == "bf50a644bd1c9ec7"


def test_convergence_study_with_its_law_pass_keeps_its_bits():
    report = convergence_study(PRESETS["example6"](), [0.5, 0.1], replications=3, n_particles=16,
                               psis=["tanh"], T=0.1, dt=0.02, seed=2, signal_paths=40,
                               martingale_runs=40)
    martingale = ("martingale_mean", "martingale_se", "max_rho0_inverse")
    assert _digest(*[v for row in report.rows for k, v in sorted(row.items())
                     if k not in martingale]) == "919970eefcb2b441"
    assert _digest(*[row[k] for row in report.rows for k in martingale]) == "eafb834c58c9faf0"


_ROUTE_DIGESTS = {
    "exact_ou": "2f904e3519034d97", "euler": "85cad1467208cec7",
    "logistic_thinning": "8fecdc461557a578", "slow_jumps": "66c30d639608d011",
    "fast_jumps": "d15a0084c61007e9", "all_jumps": "64cfbec41ff807e8",
    "l1_2": "52adae82f86df90f", "dense_obs_jumps": "d464da85af5be344",
}


@pytest.mark.parametrize("case", _STACK_CASES)
def test_simulate_full_keeps_its_bits_on_every_route(case):
    preset, dt = _STACK_PRESETS[case]
    paths = simulate_full(preset.model, preset.observation, 0.6, dt,
                          [RngStream(9, r) for r in range(3)])
    arrays = []
    for path in paths:
        arrays += [path.X, path.Z, path.Y, path.bbar_increments]
        for key in ("slow", "fast", "obs_small", "obs_large"):
            ev = path.events[key]
            arrays += [ev.times, ev.marks, ev.accepted]
    assert _digest(*arrays) == _ROUTE_DIGESTS[case]


# The digests below were taken before each step resolved its constant
# coefficients once: a field that reads no variable (both presets' sigma1
# and sigma2, also inside every Euler substep) is one evaluated array, a
# field that reads the state is evaluated at every step.

def _filter_digest(preset, dt, mode="full", hmodel=None):
    rec = simulate_full(preset.model, preset.observation, 0.3, dt, RngStream(6)).observations()
    outs = run_filter(rec, mode, preset, 24, ["tanh", "poly(0,1,1)"], RngStream(7), hmodel=hmodel,
                      ess_frac=0.8)
    return _outputs_digest(outs if mode == "both" else [outs])


def test_filter_pair_with_a_state_dependent_sigma1_keeps_its_bits():
    cfg = preset_to_config(PRESETS["example6"]())
    cfg["model"]["sigma1"] = [["1.0 + 0.5*tanh(x[0])"]]
    del cfg["model"]["closed_form"]
    preset = preset_from_config(cfg)
    assert preset.model.sigma1.variables == {"x"}
    hmodel = build_homogenized(preset, mode="lattice", x_grid=[-2.0, 0.0, 2.0],
                               stream=RngStream(4), burn_in=1.0, n_samples=1000, stride=5)
    # the full filter alone keeps its bits; the pair was re-pinned with the
    # exact-OU lattice averages (see the module docstring)
    assert _filter_digest(preset, 0.02) == "0f35dd70e0e35629"
    assert _filter_digest(preset, 0.02, "both", hmodel) == "34f88bd0fdd41ada"


@pytest.mark.parametrize(("sigma1", "digest"), [
    ([["1.0", "0.3*cos(x[0])"]], "4109540e161034af"),
    ([["1.0", "0.3"]], "818236b8411910c9"),
], ids=["state", "const"])
def test_filter_on_two_slow_noise_columns_keeps_its_bits(sigma1, digest):
    # the einsum branch of euler_step, with a state-dependent and a constant sigma1
    cfg = preset_to_config(_STACK_PRESETS["l1_2"][0])
    cfg["model"]["sigma1"] = sigma1
    preset = preset_from_config(cfg)
    assert preset.model.l1 == 2
    assert _filter_digest(preset, 0.02) == digest


def test_euler_route_filter_with_a_constant_sigma2_keeps_its_bits():
    cfg = preset_to_config(PRESETS["example6"]())
    del cfg["model"]["ou_fast"], cfg["model"]["closed_form"]
    cfg["model"]["epsilon"] = 0.05
    preset = preset_from_config(cfg)
    assert not preset.model.sigma2.variables
    assert FullDynamics(preset.model, 0.02).substeps == 4
    assert _filter_digest(preset, 0.02) == "d861268d42d8ec04"


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, -3.0, 0.5)])
def test_poly_clips_exactly_as_np_clip(coeffs):
    v = np.array([-1e100, -2e6, -1e3, -0.5, 0.0, 0.5, 1e3, 2e6, 1e100])
    psi = psi_from_string("poly(%r,%r,%r)" % coeffs)
    c0, c1, c2 = coeffs
    np.testing.assert_array_equal(psi(v[:, None]), np.clip(c0 + c1 * v + c2 * v * v, -1e6, 1e6))
