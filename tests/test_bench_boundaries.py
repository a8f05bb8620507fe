"""The benchmark's timing boundaries and calls stay in the program.

``perfbench/tracer.py`` wraps library functions by name to time the layers of
a pass.  A boundary that a refactor renames or bypasses drops or zeroes its
layer metric without any error, so these checks load the tracer (reading its
source, writing nothing) and require every boundary to install and a small
coupled filter run to reach the filter's layers.  ``perfbench/workloads.py``
calls the library by name and signature; a refactor that breaks one of those
calls fails every benchmark run, so one check runs each workload once at its
tiny size, loaded the same way.
"""

import types
from pathlib import Path

import pytest

from levyfilter import PRESETS, RngStream, build_homogenized, experiments, filtering
from levyfilter.noise import poisson_steps
from levyfilter.sde import simulate_reference_observations

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"
_WORKLOADS = _PERFBENCH / "workloads.py"


def _load(path: Path, name: str) -> types.ModuleType:
    """The module of ``path``, executed from its source: nothing is written."""
    module = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def tracer():
    module = _load(_TRACER, "perfbench_tracer")
    installed = module.Tracer()
    installed.install()
    try:
        yield module, installed
    finally:
        installed.uninstall()


def test_every_benchmark_boundary_installs(tracer):
    module, installed = tracer
    assert installed.installed == {s[0] for s in module.SPANS} | {a[0] for a in module.AGGREGATES}


def test_a_coupled_filter_run_reaches_every_filter_layer(tracer):
    module, installed = tracer
    preset = PRESETS["example6"]()
    obs = simulate_reference_observations(preset.observation, 0.15, 0.05, RngStream(1))
    # the coupled pass of run_filter(mode="both"), entered below run_filter
    # because the tracer's run_filter span reads one FilterOutput, not a pair
    filtering.run_filter_batch([obs], "both", preset, 8, ["tanh"], [RngStream(2)],
                               hmodel=build_homogenized(preset), ess_frac=1.0)
    filtering.run_filter(obs, "full", preset, 8, ["tanh"], RngStream(2), ess_frac=1.0)
    reached = {span[1] for span in installed.spans}
    assert {"filtering.run_filter", "noise.next_noise", "filtering.FullDynamics.step",
            "filtering.HomogDynamics.step", "filtering._batch_log_weight",
            "filtering.estimate", "filtering.resample"} <= reached
    metrics = module.layer_metrics(installed, threads=1)
    for name in ("noise.next_noise_s", "filtering.propagate_s", "filtering.weight_s",
                 "filtering.estimate_s", "filtering.resample_s", "filtering.resamples",
                 "filtering.particle_steps", "noise.generators"):
        assert metrics[name] > 0, name


def test_a_traced_study_reaches_every_filter_layer(tracer, monkeypatch):
    # every run of the study's pass reads its blocks through next_noise, also
    # a reduced filter on the shared cloud, and the weight kernel takes its
    # events as the 7th positional argument, where the tracer's _events reads them
    module, installed = tracer
    passes = []

    def keep(cases, *args, _fn=experiments._filter_pass, **kwargs):
        passes.append(cases)
        return _fn(cases, *args, **kwargs)

    monkeypatch.setattr(experiments, "_filter_pass", keep)
    preset = PRESETS["example6"](small_jump_intensity=30.0)
    experiments.filter_convergence_study(preset, [0.5, 0.1, 0.02], replications=2, n_particles=8,
                                         psis=["tanh"], T=0.2, dt=0.02, seed=4)
    [cases] = passes
    K = 10
    names = [span[1] for span in installed.spans]
    assert names.count("noise.next_noise") == len(cases) * K
    assert {"filtering.FullDynamics.step", "filtering.HomogDynamics.step"} <= set(names)
    weights = [span[6] for span in installed.spans if span[1] == "filtering._batch_log_weight"]
    assert len(weights) == len(cases) * K and all(w is not None for w in weights)
    with_events = sum(len({int(k) for rec in records for k in rec.small_step_index()})
                      for records, *_ in cases)
    assert with_events > 0
    assert sum(w["events"] > 0 for w in weights) == with_events
    metrics = module.layer_metrics(installed, threads=1)
    assert metrics["filtering.weight_event_calls"] == with_events
    assert metrics["noise.next_noise_s"] > 0 and metrics["filtering.propagate_s"] > 0


def test_a_traced_law_pass_counts_only_the_steps_that_drew_events(tracer):
    # the law pass draws each step's reference-law events for all runs in the
    # step and passes () on a step that drew none, so the tracer's
    # weight_event_calls counts (step, ensemble) calls with events; an empty
    # (rows, times, marks) stack in place of () would count every call
    module, installed = tracer
    preset = PRESETS["example6"]()
    nu, runs, T, dt, seed = preset.observation.nu3_small, 20, 1.0, 0.05, 6
    experiments.martingale_check(preset, [0.5, 0.1], runs, T, dt=dt, seed=seed)
    gen = RngStream(seed).child(3).generator()
    K, ensembles = int(round(T / dt)), 3       # the reduced and two full ensembles
    drew = sum(len(poisson_steps(gen, nu, dt, k, 1, rows=runs)[0]) > 0 for k in range(K))
    assert 0 < drew < K
    weights = [span[6] for span in installed.spans if span[1] == "filtering._batch_log_weight"]
    assert len(weights) == K * ensembles
    assert sum(w["events"] > 0 for w in weights) == drew * ensembles
    assert module.layer_metrics(installed, threads=1)["filtering.weight_event_calls"] == (
        drew * ensembles)


def test_every_benchmark_workload_runs_and_passes_its_check(tmp_path):
    # each workload's setup -> run -> check -> digest once in process, at its
    # tiny size and the harness's seed, as perfbench/worker.py runs a pass; at
    # tiny size converge_example6's gap need not fall in eps, which the
    # harness's self-test also exempts
    patcher_type = _load(_TRACER, "perfbench_tracer").Patcher
    workloads = _load(_WORKLOADS, "perfbench_workloads").WORKLOADS
    assert sorted(workloads) == ["converge_example6", "euler_lattice", "kalman_bootstrap"]
    for name, workload in sorted(workloads.items()):
        sizes = workload.sizes(True)
        state = workload.setup(sizes)
        patcher = patcher_type()
        try:
            result = workload.run(state, sizes, 5, tmp_path / name, patcher)
        finally:
            patcher.restore()
        failures = workload.check(result, sizes)
        if name == "converge_example6":
            failures = [f for f in failures if not f.startswith("tanh gap at eps=")]
        assert failures == [], name
        assert len(workload.digest(result)) == 64
