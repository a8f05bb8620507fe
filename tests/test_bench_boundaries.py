"""The benchmark's timing boundaries stay in the program.

``perfbench/tracer.py`` wraps library functions by name to time the layers of
a pass.  A boundary that a refactor renames or bypasses drops or zeroes its
layer metric without any error, so these checks load the tracer (reading its
source, writing nothing) and require every boundary to install and a small
coupled filter run to reach the filter's layers.
"""

import types
from pathlib import Path

import pytest

from levyfilter import PRESETS, RngStream, build_homogenized, filtering
from levyfilter.sde import simulate_reference_observations

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(_TRACER.read_text(), str(_TRACER), "exec"), module.__dict__)
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
