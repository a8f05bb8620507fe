"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from what they record.

A wrapper replaces every attribute of a ``levyfilter`` module (or class) that
refers to the wrapped object, because callers import functions by name: the
filter study reaches ``simulate_full`` as ``levyfilter.experiments.simulate_full``
and the lattice reaches ``simulate_frozen_fast`` as
``levyfilter.averaging.simulate_frozen_fast``.

Span boundaries record (id, name, start, end, parent, thread, attrs); parents
come from a per-thread stack, so self time is computed per thread.  The two
high-frequency boundaries (``Expr.__call__`` and ``RngStream.generator``) keep
only a per-thread call count and total time.  A boundary that no longer exists
is skipped, and every metric that needs it is reported absent.  A metric whose
boundary is in place but was never reached in the pass is 0: no calls, no time
(for ``experiments.parallel_efficiency``, no filter study ran on the pool).
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time

PACKAGE = "levyfilter"
MODULES = ("noise", "exprs", "models", "sde", "averaging", "filtering", "experiments", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _events(args, kwargs, result):
    return {"events": len(_arg(args, kwargs, 6, "event_times"))}


def _filter_stats(args, kwargs, result):
    n = result.n_particles
    return {"particle_steps": n * (len(result.times) - 1), "min_ess_frac": float(min(result.ess)) / n}


def _warnings(args, kwargs, result):
    return {"warnings": len(result.warnings)}


# (span name, module, attribute path, attrs-from-call or None)
SPANS = (
    ("noise.next_noise", "filtering", "ParticleEnsemble.next_noise", None),
    ("models.preset_from_config", "models", "preset_from_config", None),
    ("models.with_epsilon", "models", "with_epsilon", None),
    ("sde.simulate_full", "sde", "simulate_full", None),
    ("sde.simulate_signal_ensemble", "sde", "simulate_signal_ensemble", None),
    ("sde.simulate_homogenized_ensemble", "sde", "simulate_homogenized_ensemble", None),
    ("sde.simulate_frozen_fast", "sde", "simulate_frozen_fast", None),
    ("averaging.estimate_invariant_measure", "averaging", "estimate_invariant_measure", _warnings),
    ("averaging.average_coefficients", "averaging", "average_coefficients", None),
    ("averaging.build_homogenized", "averaging", "build_homogenized", None),
    ("filtering.run_filter", "filtering", "run_filter", _filter_stats),
    ("filtering.FullDynamics.step", "filtering", "FullDynamics.step", None),
    ("filtering.HomogDynamics.step", "filtering", "HomogDynamics.step", None),
    ("filtering._batch_log_weight", "filtering", "_batch_log_weight", _events),
    ("filtering.estimate", "filtering", "estimate", None),
    ("filtering.resample", "filtering", "resample", None),
    ("experiments.filter_convergence_study", "experiments", "filter_convergence_study", None),
    ("experiments.signal_convergence_study", "experiments", "signal_convergence_study", None),
    ("experiments.martingale_check", "experiments", "martingale_check", None),
    ("experiments.convergence_study", "experiments", "convergence_study", None),
    ("cli.main", "cli", "main", None),
)

AGGREGATES = (
    ("noise.generator", "noise", "RngStream.generator"),
    ("exprs.call", "exprs", "Expr.__call__"),
)


def _modules():
    mods = [importlib.import_module(PACKAGE)]
    for name in MODULES:
        try:
            mods.append(importlib.import_module(f"{PACKAGE}.{name}"))
        except ImportError:
            continue
    return mods


class Patcher:
    """Replaces an object at every place callers look it up; undoes in reverse."""

    def __init__(self):
        self._undo = []

    def replace(self, module: str, path: str, make) -> bool:
        """Swap the object at ``levyfilter.<module>.<path>`` for ``make(obj)``.

        A class attribute is replaced on its class; a module-level object is
        replaced in every levyfilter module that holds it.  Returns False when
        the object does not exist.
        """
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if attr not in vars(owner):
            return False
        original = vars(owner)[attr]
        wrapped = make(original)
        for holder in [owner] if owner_path else _modules():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, name, value))
                    setattr(holder, name, wrapped)
        return True

    def restore(self):
        while self._undo:
            holder, name, value = self._undo.pop()
            setattr(holder, name, value)


class Tracer:
    """In-memory spans and aggregate counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.installed: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: dict[str, dict[int, list]] = {}
        self._patcher = Patcher()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, attrs_fn):
        def make(fn):
            spans, ids, stack_of = self.spans, self._ids, self._stack

            def wrapper(*args, **kwargs):
                stack = stack_of()
                parent = stack[-1] if stack else None
                sid = next(ids)
                stack.append(sid)
                start = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    attrs = attrs_fn(args, kwargs, result) if attrs_fn and result is not None else None
                    spans.append((sid, name, start, end, parent, threading.get_ident(), attrs))

            return wrapper

        return make

    def _aggregate(self, name):
        per_thread = self._aggregates.setdefault(name, {})

        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    acc = per_thread.get(threading.get_ident())
                    if acc is None:
                        acc = per_thread.setdefault(threading.get_ident(), [0, 0.0])
                    acc[0] += 1
                    acc[1] += elapsed

            return wrapper

        return make

    def install(self):
        for name, module, path, attrs_fn in SPANS:
            if self._patcher.replace(module, path, self._span(name, attrs_fn)):
                self.installed.add(name)
        for name, module, path in AGGREGATES:
            if self._patcher.replace(module, path, self._aggregate(name)):
                self.installed.add(name)

    def uninstall(self):
        self._patcher.restore()

    def aggregate(self, name) -> tuple[int, float]:
        accs = self._aggregates.get(name, {}).values()
        return sum(a[0] for a in accs), sum(a[1] for a in accs)

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        return [dict(zip(keys, span)) for span in sorted(self.spans)]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _quantile(values, q):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(tracer: Tracer, threads: int) -> dict:
    """Per-layer values of one traced pass; names whose boundary is gone are absent,
    names whose boundary was not reached are 0."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def named(*names):
        return [s for s in spans if s[1] in names]

    def outer_time(*names):
        """Wall time of the named spans, counting nested ones of the group once."""
        total = 0.0
        for s in named(*names):
            parent = by_id.get(s[4])
            while parent is not None and parent[1] not in names:
                parent = by_id.get(parent[4])
            if parent is None:
                total += s[3] - s[2]
        return total

    def self_time(*names):
        return sum((s[3] - s[2]) - child_time.get(s[0], 0.0) for s in named(*names))

    def attr_sum(name, key):
        return sum(s[6][key] for s in named(name) if s[6])

    out: dict = {}
    reached = {s[1] for s in spans} | {n for n in tracer._aggregates if tracer.aggregate(n)[0]}

    def put(metric, ran, value, needs=()):
        """Report ``metric`` when all of ``ran`` and ``needs`` are installed:
        ``value()`` if a boundary of ``ran`` was reached in this pass, else 0."""
        if all(n in tracer.installed for n in [*ran, *needs]):
            out[metric] = value() if reached.intersection(ran) else 0

    put("noise.next_noise_s", ["noise.next_noise"], lambda: outer_time("noise.next_noise"))
    put("noise.generators", ["noise.generator"], lambda: tracer.aggregate("noise.generator")[0])
    put("exprs.evals", ["exprs.call"], lambda: tracer.aggregate("exprs.call")[0])
    put("exprs.eval_s", ["exprs.call"], lambda: tracer.aggregate("exprs.call")[1])
    cfg = ["models.preset_from_config", "models.with_epsilon"]
    put("models.config_s", cfg, lambda: outer_time(*cfg))
    put("sde.simulate_full_s", ["sde.simulate_full"], lambda: outer_time("sde.simulate_full"))
    put("sde.simulate_full_calls", ["sde.simulate_full"], lambda: len(named("sde.simulate_full")))
    ens = ["sde.simulate_signal_ensemble", "sde.simulate_homogenized_ensemble"]
    put("sde.ensemble_s", ens, lambda: outer_time(*ens))
    put("sde.frozen_fast_s", ["sde.simulate_frozen_fast"], lambda: outer_time("sde.simulate_frozen_fast"))
    put("sde.frozen_fast_calls", ["sde.simulate_frozen_fast"],
        lambda: len(named("sde.simulate_frozen_fast")))
    inv = "averaging.estimate_invariant_measure"
    put("averaging.invariant_measure_s", [inv], lambda: outer_time(inv))
    put("averaging.invariant_measure_calls", [inv], lambda: len(named(inv)))
    put("averaging.average_coefficients_s", ["averaging.average_coefficients"],
        lambda: outer_time("averaging.average_coefficients"))
    put("averaging.build_homogenized_s", ["averaging.build_homogenized"],
        lambda: outer_time("averaging.build_homogenized"))
    put("averaging.stationarity_warnings", [inv], lambda: attr_sum(inv, "warnings"))

    rf = "filtering.run_filter"
    durations = [s[3] - s[2] for s in named(rf)]
    put("filtering.run_filter_s.p50", [rf], lambda: _quantile(durations, 0.5))
    put("filtering.run_filter_s.p90", [rf], lambda: _quantile(durations, 0.9))
    put("filtering.filter_runs", [rf], lambda: len(durations))
    put("filtering.particle_steps", [rf], lambda: attr_sum(rf, "particle_steps"))
    put("filtering.loop_self_s", [rf], lambda: self_time(rf))
    steps = ["filtering.FullDynamics.step", "filtering.HomogDynamics.step"]
    put("filtering.propagate_s", steps, lambda: self_time(*steps), needs=["noise.next_noise"])
    bw = "filtering._batch_log_weight"
    put("filtering.weight_s", [bw], lambda: outer_time(bw))
    put("filtering.weight_event_calls", [bw],
        lambda: sum(1 for s in named(bw) if s[6] and s[6]["events"] > 0))
    put("filtering.estimate_s", ["filtering.estimate"], lambda: outer_time("filtering.estimate"))
    put("filtering.resample_s", ["filtering.resample"], lambda: outer_time("filtering.resample"))
    put("filtering.resamples", ["filtering.resample"], lambda: len(named("filtering.resample")))
    put("filtering.min_ess_frac", [rf], lambda: min(s[6]["min_ess_frac"] for s in named(rf)))

    fs = "experiments.filter_convergence_study"
    put("experiments.filter_study_s", [fs], lambda: outer_time(fs))
    put("experiments.signal_study_s", ["experiments.signal_convergence_study"],
        lambda: outer_time("experiments.signal_convergence_study"))
    put("experiments.martingale_s", ["experiments.martingale_check"],
        lambda: outer_time("experiments.martingale_check"))

    def parallel_efficiency():
        studies = named(fs)
        busy = sum(
            s[3] - s[2]
            for s in named("sde.simulate_full", rf)
            if any(st[2] <= s[2] and s[3] <= st[3] for st in studies)
        )
        return busy / (threads * sum(s[3] - s[2] for s in studies))

    put("experiments.parallel_efficiency", [fs], parallel_efficiency,
        needs=["sde.simulate_full", rf])
    put("cli.artifacts_s", ["cli.main"],
        lambda: outer_time("cli.main") - outer_time("experiments.convergence_study"),
        needs=["experiments.convergence_study"])
    return out
