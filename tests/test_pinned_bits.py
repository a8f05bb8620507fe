"""Outputs pinned bitwise by sha256 digests of small runs.

The filter and law passes step their ensembles in place and the reduced
filters of an epsilon study share one particle cloud until they resample;
both were made to keep every output bit.  These digests were taken before
those changes, on runs that cover the coupled study with rows resampling at
their own steps, the linear oracle, an Euler-route lattice filter pair with
logistic thinning, and the study with its law pass.
"""

import hashlib

import numpy as np

from levyfilter import (
    PRESETS,
    RngStream,
    build_homogenized,
    convergence_study,
    default_scheme,
    experiments,
    filter_convergence_study,
    kalman_oracle,
    preset_from_config,
    preset_to_config,
    run_filter,
    simulate_full,
)


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
        "e3ded7785750e10d", "25c22da6f1337086", "3ebe9b70441a7bd5", "c9d604b335e4319c",
        "65779b74e54a974d", "7860b0adbf92ae5b", "2dc1e435f10d5b38"]


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
    scheme = default_scheme(preset.model, 0.02)
    assert scheme.fast_mode == "euler" and scheme.substeps == 4
    rec = simulate_full(preset.model, preset.observation, 0.2, scheme, RngStream(6)).observations()
    assert len(rec.small_times) > 0
    full, homog = run_filter(rec, "both", preset, 24, ["tanh"], RngStream(7), hmodel=hmodel,
                             ess_frac=0.8)
    assert _outputs_digest([full, homog]) == "578d725de888b5f7"


def test_convergence_study_with_its_law_pass_keeps_its_bits():
    report = convergence_study(PRESETS["example6"](), [0.5, 0.1], replications=3, n_particles=16,
                               psis=["tanh"], T=0.1, dt=0.02, seed=2, signal_paths=40,
                               martingale_runs=40)
    assert _report_digest(report) == "02b88ea7d610d493"
