"""Command-line surface: artifacts, exit codes, plotting, and determinism."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from levyfilter import PRESETS, preset_to_config
from levyfilter import RngStream
from levyfilter.cli import _split_top_level, _threads, build_parser, emit_svg, main
from levyfilter.sde import FROZEN_REPLICAS, HomogDynamics, simulate_full


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("LEVYFILTER_THREADS", raising=False)


def _write_config(tmp_path, mutate=None):
    cfg = copy.deepcopy(preset_to_config(PRESETS["example6"]()))
    if mutate:
        mutate(cfg)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# happy paths


def test_simulate_writes_path_and_summary(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--T", "0.2", "--dt", "0.02", "--out", str(out)])
    assert rc == 0
    assert (out / "path.csv").exists()
    assert (out / "config.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 10
    assert summary["epsilon"] == 0.1
    data = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 11
    # event counts per kind, and accepted counts from the acceptance flags,
    # on a horizon long enough for observation events
    rc = main(["simulate", "--T", "8", "--dt", "0.05", "--seed", "3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    preset = PRESETS["example6"]()
    path = simulate_full(preset.model, preset.observation, 8.0, 0.05, RngStream(3))
    events = path.events
    assert summary["events"] == {key: events[key].times.size
                                 for key in ("slow", "fast", "obs_small", "obs_large")}
    assert summary["events"]["obs_small"] > 0 and summary["events"]["obs_large"] > 0
    assert summary["accepted_small_obs_jumps"] == int(events["obs_small"].accepted.sum())
    assert summary["accepted_large_obs_jumps"] == int(events["obs_large"].accepted.sum())


def test_simulate_counts_the_rejected_jumps_of_each_region(tmp_path):
    # a state-dependent law thins events in both observation regions: per
    # region the accepted and the rejected events are all the events drawn
    cfg = _write_config(tmp_path, lambda c: c["observation"].update(
        {"lambda": {"kind": "logistic", "low": 0.2, "high": 0.8, "slope": 1.5}}))
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--T", "8", "--dt", "0.05", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    for region in ("small", "large"):
        accepted = summary[f"accepted_{region}_obs_jumps"]
        rejected = summary[f"rejected_{region}_obs_jumps"]
        assert accepted > 0 and rejected > 0
        assert accepted + rejected == summary["events"][f"obs_{region}"]


def test_average_writes_table(tmp_path):
    out = tmp_path / "avg"
    rc = main([
        "average", "--samples", "2000", "--burn-in", "2.0", "--stride", "5",
        "--x", "0.3", "--out", str(out),
    ])
    assert rc == 0
    header = (out / "averaged.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "x"
    assert any(h.startswith("bbar1") for h in header)
    assert any(h.startswith("hbar") for h in header)
    data = np.loadtxt(out / "averaged.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == 1 and data[0, 0] == 0.3
    meta = json.loads((out / "averaged.json").read_text())
    assert meta["mode"] == "exact_ou"
    assert meta["replicas"] == FROZEN_REPLICAS
    assert meta["n_samples"] == 2000


@pytest.mark.parametrize("flag", [["--x", "-1,0,1"], ["--x=-1,0,1"]])
def test_average_takes_a_grid_that_starts_below_zero(tmp_path, flag):
    # a comma list of numbers that starts with '-' is the option's value, not an option
    out = tmp_path / "avg"
    assert main(["average", "--samples", "1000", "--burn-in", "1.0", "--stride", "2", *flag,
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "averaged.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_converge_reads_a_negative_epsilon_list_as_its_value(tmp_path, capsys):
    # the list parses, and the study's own check rejects it before any work
    assert main(["converge", "--eps", "-0.5,0.1", "--out", str(tmp_path / "o")]) == 1
    assert "every epsilon must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_average_records_the_euler_replicas(tmp_path):
    cfg_path = _write_config(tmp_path, lambda c: c["model"].pop("ou_fast"))
    out = tmp_path / "avg"
    assert main([
        "average", "--config", str(cfg_path), "--samples", "1000", "--burn-in", "0.5",
        "--stride", "2", "--x", "0.3,-0.3", "--out", str(out),
    ]) == 0
    meta = json.loads((out / "averaged.json").read_text())
    assert meta["mode"] == "euler"
    assert meta["replicas"] == FROZEN_REPLICAS


@pytest.mark.parametrize("flag, value, key", [
    ("--samples", "10", "samples"),
    ("--stride", "0", "stride"),
    ("--dt", "0", "dt"),
    ("--burn-in", "-1", "burn_in"),
])
def test_average_checks_its_inputs_before_writing(tmp_path, capsys, flag, value, key):
    out = tmp_path / "avg"
    assert main(["average", "--samples", "2000", "--x", "0.3", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"(key: {key})" in err
    assert not out.exists()


def _slow_jumps(cfg):
    cfg["model"]["f1"] = ["0.5*u[0]*cos(x[0])"]
    cfg["model"]["nu1"] = {"intensity": 5.0, "marks": "uniform(-1,1)"}


@pytest.mark.parametrize("command", [
    ["filter"], ["filter", "--mode", "homog"], ["converge", "--eps", "0.5,0.1"]])
def test_a_jump_driven_signal_is_rejected_before_writing(tmp_path, capsys, command):
    out = tmp_path / "o"
    rc = main([*command, "--config", str(_write_config(tmp_path, _slow_jumps)), "--T", "0.1",
               "--dt", "0.05", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "jump-free" in err
    assert not out.exists()


def test_filter_both_modes_share_the_observation(tmp_path):
    out = tmp_path / "filt"
    rc = main([
        "filter", "--T", "0.2", "--dt", "0.02", "--particles", "50",
        "--mode", "both", "--psi", "tanh", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "filter_full.csv").exists()
    assert (out / "filter_homog.csv").exists()
    assert (out / "path.csv").exists()
    full = np.loadtxt(out / "filter_full.csv", delimiter=",", skiprows=1)
    homog = np.loadtxt(out / "filter_homog.csv", delimiter=",", skiprows=1)
    assert full.shape == homog.shape == (11, 4)  # t, pi_tanh, rho1, ess
    np.testing.assert_array_equal(full[:, 0], homog[:, 0])


def test_filter_homog_alone_matches_homog_beside_full(tmp_path):
    common = ["filter", "--T", "0.2", "--dt", "0.02", "--particles", "50", "--seed", "4"]
    assert main(common + ["--mode", "both", "--out", str(tmp_path / "both")]) == 0
    assert main(common + ["--mode", "homog", "--out", str(tmp_path / "homog")]) == 0
    for name in ("filter_homog.csv", "path.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "homog" / name).read_bytes()


def test_filter_homog_runs_on_a_model_with_fast_jumps(tmp_path):
    def fast_jumps(cfg):
        del cfg["model"]["ou_fast"]
        cfg["model"]["f2"] = ["0.5*u[0]"]
        cfg["model"]["nu2"] = {"intensity": 2.0, "marks": "gauss(0,1)"}

    cfg_path = _write_config(tmp_path, fast_jumps)
    rc = main([
        "filter", "--config", str(cfg_path), "--mode", "homog", "--T", "0.1", "--dt", "0.02",
        "--particles", "20", "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    assert (tmp_path / "o" / "filter_homog.csv").exists()


def test_validate_passes_on_preset(tmp_path):
    out = tmp_path / "val"
    rc = main(["validate", "--samples", "150", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc["passed"] is True
    assert any(c["name"] == "lipschitz_coefficients" for c in doc["checks"])


def _converge_args(out, threads):
    return [
        "converge", "--eps", "0.5,0.2", "--replications", "3",
        "--particles", "32", "--T", "0.2", "--dt", "0.02",
        "--psi", "tanh", "--signal-paths", "300", "--martingale-runs", "100",
        "--threads", str(threads), "--out", str(out),
    ]


def test_converge_writes_tables_and_plots(tmp_path):
    out = tmp_path / "conv"
    rc = main(_converge_args(out, threads=2))
    assert rc == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two epsilons
    header = lines[0].split(",")
    assert header[0] == "epsilon"
    assert "mean_gap_tanh" in header and "ks_signal" in header
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["epsilons"] == [0.5, 0.2]
    svg = (out / "gap_vs_eps.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert (out / "ks_vs_eps.svg").exists()


def test_threads_default_to_one_without_flag_or_env():
    args = build_parser().parse_args(["converge"])
    assert args.threads is None
    assert _threads(args) == 1


def test_converge_is_thread_count_invariant(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_converge_args(a, threads=1)) == 0
    assert main(_converge_args(b, threads=3)) == 0
    for name in ("convergence.csv", "gap_vs_eps.svg", "ks_vs_eps.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("flag, value, key", [
    ("--replications", "1", "replications"),
    ("--replications", "0", "replications"),
    ("--eps", "0.5", "eps"),
    ("--eps", "0.5,0", "eps"),
    ("--eps", "0.5,-0.1", "eps"),
    ("--martingale-runs", "1", "martingale_runs"),
])
def test_converge_rejects_a_study_too_small_to_report(tmp_path, capsys, flag, value, key):
    out = tmp_path / "conv"
    args = _converge_args(out, threads=1)
    args[args.index(flag) + 1] = value
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"(key: {key})" in err
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    assert written <= {"config.json"}


@pytest.mark.parametrize("command, flags, key", [
    ("converge", ["--psi", "tanh", "--psi", "tanh"], "psi"),
    ("converge", ["--psi", "indicator(0,1)", "--psi", "indicator(0, 1)"], "psi"),
    ("converge", ["--eps", "0.1,0.1"], "eps"),
    ("filter", ["--psi", "tanh", "--psi", "tanh"], "psi"),
    ("filter", ["--psi", "indicator(0,1),indicator(0, 1)"], "psi"),
])
def test_a_repeated_functional_or_epsilon_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, command, flags, key):
    # a repeat would write its columns (or its row) twice
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work before rejecting a repeat")

    monkeypatch.setattr("levyfilter.cli.convergence_study", no_work)
    monkeypatch.setattr("levyfilter.cli.simulate_full", no_work)
    out = tmp_path / "o"
    args = [command, "--T", "0.2", "--dt", "0.02", "--particles", "16", "--out", str(out)]
    assert main(args + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"(key: {key})" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1"])
def test_converge_checks_signal_paths_before_any_work(tmp_path, capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("converge started the study before checking --signal-paths")

    monkeypatch.setattr("levyfilter.cli.convergence_study", no_work)
    out = tmp_path / "conv"
    args = _converge_args(out, threads=1)
    args[args.index("--signal-paths") + 1] = value
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(key: signal_paths)" in err
    assert not out.exists()


def test_config_file_round_trips_through_cli(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--config", str(cfg_path), "--T", "0.1", "--dt", "0.02",
        "--eps", "0.5", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epsilon"] == 0.5  # --eps overrode the config's value


# ---------------------------------------------------------------------------
# failure paths


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--bogus", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand(tmp_path):
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_names_the_key(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, lambda c: c["model"].__setitem__("bogus_knob", 1))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_missing_config_key_is_named(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, lambda c: c["model"]["ou_fast"].pop("sigma"))
    rc = main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(key: sigma)" in err


def test_non_object_config_section_is_a_keyed_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, lambda c: c["observation"].__setitem__("lambda", 0.6))
    rc = main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(key: lambda)" in err


def test_failing_constant_expression_exits_with_a_keyed_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, lambda c: c["model"].__setitem__("b1", ["1/0"]))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(key: b1)" in err and "Traceback" not in err


@pytest.mark.parametrize(("command", "config"), [
    ("filter", "missing.json"),
    ("validate", "."),
], ids=["missing_file", "directory"])
def test_an_unreadable_config_is_a_keyed_config_error_before_writing(tmp_path, capsys,
                                                                     command, config):
    out = tmp_path / "o"
    rc = main([command, "--config", str(tmp_path / config), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(key: config)" in err
    assert not out.exists()


def test_broken_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1


def _contradicting_ou_fast(cfg):
    # example6's b2 = -z and sigma2 = sqrt(2) (variance 1) against an exact OU
    # transition of variance 0.001
    cfg["model"]["ou_fast"] = {"rate": 5.0, "sigma": 0.1}


_SEED_RULE = "--seed must lie in [0, 2**64 - 1], got -1 (key: seed)"


@pytest.mark.parametrize(("command", "message"), [
    (["filter", "--particles", "0"], "need at least one particle"),
    (["filter", "--ess-frac", "0"], "ess_frac must lie in (0, 1]"),
    (["filter", "--mode", "homog", "--preset", "linear_gaussian"], "no closed-form averages"),
    (["simulate", "--T", "0.3", "--dt", "0.2"], "not an integer multiple"),
    (["filter", "--T", "0.3", "--dt", "0.2"], "not an integer multiple"),
    (["converge", "--T", "0.3", "--dt", "0.2"], "not an integer multiple"),
    (["filter", "--T", "-1"], "need T > 0"),
    (["converge", "--particles", "0"], "need at least one particle"),
    (["converge", "--ess-frac", "1.5"], "ess_frac must lie in (0, 1]"),
    (["converge", "--preset", "linear_gaussian"], "no closed-form averages"),
    (["simulate", "--seed", "-1"], _SEED_RULE),
    (["filter", "--seed", "-1"], _SEED_RULE),
    (["converge", "--seed", "-1"], _SEED_RULE.replace("2**64 - 1", "2**64 - 3")),
    (["average", "--seed", "-1"], _SEED_RULE),
    (["validate", "--seed", "-1"], _SEED_RULE),
    (["converge", "--seed", str(2**64 - 1)],
     f"--seed must lie in [0, 2**64 - 3], got {2**64 - 1} (key: seed)"),
    (["validate", "--samples", "0"], "samples must be at least 1, got 0 (key: samples)"),
    (["validate", "--samples", "-3"], "samples must be at least 1, got -3 (key: samples)"),
    (["average", "--x="], "--x needs at least one slow state (key: x)"),
    (lambda tmp: ["simulate", "--config", str(_write_config(tmp, _contradicting_ou_fast))],
     "contradicts b2 and sigma2, which must be -rate*z[0] and sigma"),
], ids=["filter_no_particles", "filter_ess_frac_0", "homog_no_closed_form", "simulate_grid",
        "filter_grid", "converge_grid", "filter_negative_T", "converge_no_particles",
        "converge_ess_frac_1.5", "converge_no_closed_form", "simulate_negative_seed",
        "filter_negative_seed", "converge_negative_seed", "average_negative_seed",
        "validate_negative_seed", "converge_law_pass_seed_overflow", "validate_no_samples",
        "validate_negative_samples", "average_empty_grid", "contradicting_ou_fast"])
def test_a_rejected_input_is_a_config_error_before_writing(tmp_path, capsys, command, message):
    # a grid that --T and --dt do not make, a particle count or resampling
    # threshold the filter rejects, a reduced filter without closed-form
    # averages, a seed outside the streams' range (converge's law pass reads
    # seed + 2), a sample count the checks cannot draw, an empty --x and an
    # OU fast part that b2 and sigma2 contradict are all rejected before the
    # run writes its config
    out = tmp_path / "o"
    if callable(command):       # a command that reads a config written for it
        command = command(tmp_path)
    rc = main(command + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_non_finite_particles_map_to_a_timed_numerical_failure(tmp_path, capsys, monkeypatch):
    # the reduced filter's particles blow up at the first step while the
    # simulated truth, which steps through FullDynamics, stays finite: the CLI
    # names the time of the failure
    monkeypatch.setattr(HomogDynamics, "step", lambda self, x, z, noise: (x + np.inf, z))
    rc = main(["filter", "--mode", "homog", "--T", "0.1", "--dt", "0.05", "--particles", "8",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure at t=0.05 (seed 0):") and "Traceback" not in err


def test_validation_failures_exit_nonzero(tmp_path, capsys):
    cfg_path = _write_config(
        tmp_path, lambda c: c["model"]["bounds"].__setitem__("L1", 0.05)
    )
    rc = main([
        "validate", "--config", str(cfg_path), "--samples", "300",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert (tmp_path / "o" / "validation.json").exists()  # report still written


def test_homog_mode_option_is_gone(tmp_path, capsys):
    rc = main(["filter", "--mode", "homog", "--homog-mode", "x", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--homog-mode" in capsys.readouterr().err


def test_homog_filter_without_closed_form_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, lambda c: c["model"].pop("closed_form"))
    rc = main([
        "filter", "--config", str(cfg_path), "--mode", "homog", "--T", "0.1", "--dt", "0.02",
        "--particles", "10", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "closed-form averages" in err


def test_invalid_thread_env_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVYFILTER_THREADS", "many")
    rc = main(_converge_args(tmp_path / "t", threads=1))
    assert rc == 1
    assert "LEVYFILTER_THREADS" in capsys.readouterr().err


def test_bad_psi_spec_is_a_config_error(tmp_path, capsys):
    rc = main([
        "filter", "--T", "0.1", "--dt", "0.02", "--particles", "10",
        "--psi", "wavelet", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1


# ---------------------------------------------------------------------------
# plotting and parsing helpers


def test_split_top_level_respects_parentheses():
    assert _split_top_level("a,b(c,d),e") == ["a", "b(c,d)", "e"]
    assert _split_top_level(" tanh , poly(1, 0, 0) ") == ["tanh", "poly(1, 0, 0)"]
    assert _split_top_level("single") == ["single"]
    assert _split_top_level("") == []


def test_emit_svg_draws_one_polyline_per_series():
    series = [
        {"label": "a", "x": [1.0, 2.0, 3.0], "y": [1.0, 4.0, 9.0]},
        {"label": "b", "x": [1.0, 2.0, 3.0], "y": [2.0, 5.0, 10.0]},
    ]
    svg = emit_svg(series, title="t", xlabel="x", ylabel="y")
    assert svg.count("<polyline") == 2
    assert "t" in svg and svg.startswith("<svg")
    assert emit_svg(series, title="t", xlabel="x", ylabel="y") == svg  # deterministic


def test_emit_svg_log_axes_reject_nonpositive_values():
    series = [{"label": "a", "x": [0.1, 1.0], "y": [0.0, 2.0]}]
    with pytest.raises(ValueError):
        emit_svg(series)
    with pytest.raises(ValueError):
        emit_svg([{"label": "a", "x": [1.0], "y": [2.0]}])  # one point is not a line
    with pytest.raises(ValueError):
        emit_svg([{"label": "a", "x": [1.0, 2.0], "y": [float("nan"), 1.0]}])


def test_package_and_cli_import_without_scipy():
    code = "import sys, levyfilter, levyfilter.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
