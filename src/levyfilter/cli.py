"""Command-line interface: run simulations, averaging, filters, and
convergence studies, writing diff-able artifacts (CSV series, JSON
summaries, SVG plots) into an output directory.

Every run copies its fully resolved configuration to ``config.json`` in the
output directory, so any artifact can be regenerated bitwise from that file
plus the recorded seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .averaging import (
    MIN_SAMPLES,
    average_coefficients,
    build_homogenized,
    estimate_invariant_measure,
)
from .errors import (
    ConfigError,
    ExtrapolationError,
    IntegrationFailureError,
    ModelViolationError,
    UnsupportedMeasureError,
)
from .experiments import _at_least_two, _check_epsilons, convergence_seeds, convergence_study
from .filtering import check_filter_sizes, psi_from_string, run_filter
from .models import (
    PRESETS,
    ModelPreset,
    load_config,
    preset_to_config,
    validate_assumptions,
    with_epsilon,
)
from .noise import RngStream
from .sde import FullDynamics, make_grid, require_jump_free, simulate_full


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions instead of exiting,
    and reads a number list that starts with '-' (``--x -1,0,1``) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE+-]*(,\s*[-+]?\.?\d[\d.eE+-]*)*$")

    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass
class RunConfig:
    """Fully resolved settings of one CLI run, serialized into the output dir."""

    command: str
    preset_config: dict
    params: dict
    seed: int
    out: str

    def write(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"
        )


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled so output is byte-deterministic)

_PALETTE = ["#1b6ca8", "#c94f30", "#3a8f5d", "#8356a8", "#b0841f", "#3f3f3f"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float):
    """The powers of ten from the decade at or below lo to the one at or above hi."""
    klo, khi = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
    if khi == klo:
        khi += 1
    return [10.0 ** k for k in range(klo, khi + 1)]


def emit_svg(series, title: str = "", xlabel: str = "", ylabel: str = "",
             width: int = 640, height: int = 420) -> str:
    """Self-contained SVG line plot on log-log axes with ticks at powers of ten.

    ``series`` is a list of mappings with keys ``label``, ``x``, ``y``, every
    value finite and strictly positive.  Output depends only on the inputs
    (fixed palette, %.6g coordinates).
    """
    if not series:
        raise ValueError("emit_svg needs at least one series")
    cleaned = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        if x.size < 2 or y.size != x.size:
            raise ValueError("each series needs at least two (x, y) points")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("series values must be finite")
        if np.any(x <= 0) or np.any(y <= 0):
            raise ValueError("log axes require strictly positive x and y values")
        cleaned.append((str(s["label"]), x, y))

    all_x = np.concatenate([x for _, x, _ in cleaned])
    all_y = np.concatenate([y for _, _, y in cleaned])
    x_ticks = _ticks(all_x.min(), all_x.max())
    y_ticks = _ticks(all_y.min(), all_y.max())
    x_lo, x_hi = np.log10([x_ticks[0], x_ticks[-1]])
    y_lo, y_hi = np.log10([y_ticks[0], y_ticks[-1]])

    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (np.log10(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (np.log10(v) - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.6g}" y="18" text-anchor="middle" font-size="13">{title}</text>'
        )
    for v in x_ticks:
        X = px(v)
        parts.append(f'<line x1="{_fmt(X)}" y1="{mt + ph}" x2="{_fmt(X)}" y2="{mt + ph + 4}" stroke="#444"/>')
        parts.append(
            f'<text x="{_fmt(X)}" y="{mt + ph + 16}" text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in y_ticks:
        Y = py(v)
        parts.append(f'<line x1="{ml - 4}" y1="{_fmt(Y)}" x2="{ml}" y2="{_fmt(Y)}" stroke="#444"/>')
        parts.append(
            f'<text x="{ml - 6}" y="{_fmt(Y + 3)}" text-anchor="end">{_fmt(v)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.6g}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{mt + ph / 2:.6g}" text-anchor="middle" '
            f'transform="rotate(-90 14 {mt + ph / 2:.6g})">{ylabel}</text>'
        )
    for i, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 14 * i
        parts.append(f'<line x1="{ml + 8}" y1="{ly - 4}" x2="{ml + 28}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + 33}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# helpers

def _load_preset(args) -> ModelPreset:
    if getattr(args, "config", None):
        preset = load_config(args.config)
    else:
        name = getattr(args, "preset", None) or "example6"
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r} (have: {', '.join(sorted(PRESETS))})", key="preset")
        preset = PRESETS[name]()
    eps = getattr(args, "eps_single", None)
    if eps is not None:
        preset = with_epsilon(preset, eps)
    return preset


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses (psi specs carry args)."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [s for s in out if s]


def _psi_list(args) -> list:
    """The --psi functionals, none repeated (its columns would be written twice)."""
    specs = []
    for chunk in args.psi or ["tanh"]:
        specs.extend(_split_top_level(chunk))
    psis = [psi_from_string(s) for s in specs]
    names = [p.name for p in psis]
    if len(set(names)) < len(names):
        raise ConfigError(f"--psi names a functional twice: {names}", key="psi")
    return psis


def _threads(args) -> int:
    env = os.environ.get("LEVYFILTER_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"LEVYFILTER_THREADS must be an integer, got {env!r}",
                              key="LEVYFILTER_THREADS") from exc
    if args.threads is not None:
        return max(1, args.threads)
    return 1


def _check_seed(args) -> None:
    """The seed rule of ``RngStream`` for every root stream the command builds
    (``converge``'s are ``convergence_seeds``), checked before anything is written."""
    seeds = convergence_seeds(args.seed) if args.command == "converge" else (args.seed,)
    try:
        [RngStream(seed) for seed in seeds]
    except ValueError as exc:
        raise ConfigError(f"--seed must lie in [0, 2**64 - {1 + seeds[-1] - args.seed}], "
                          f"got {args.seed}", key="seed") from exc


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _run_config(args, command: str, preset: ModelPreset, **params) -> RunConfig:
    return RunConfig(
        command=command,
        preset_config=preset_to_config(preset),
        params=params,
        seed=args.seed,
        out=str(args.out),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    preset = _load_preset(args)
    out_dir = Path(args.out)
    make_grid(args.T, args.dt)     # a grid --T and --dt do not make fails before any write
    _run_config(
        args, "simulate", preset,
        T=args.T, dt=args.dt, dt_fast=FullDynamics(preset.model, args.dt).dt_fast,
    ).write(out_dir)
    path = simulate_full(preset.model, preset.observation, args.T, args.dt, RngStream(args.seed))
    path.to_csv(out_dir / "path.csv")
    rec = path.observations()
    events = {k: len(v) for k, v in path.events.items()}
    summary = {
        "T": args.T, "dt": args.dt, "epsilon": preset.model.epsilon,
        "steps": len(path.times) - 1,
        "events": events,
        "accepted_small_obs_jumps": len(rec.small_times),
        "accepted_large_obs_jumps": len(rec.large_times),
        "rejected_small_obs_jumps": events["obs_small"] - len(rec.small_times),
        "rejected_large_obs_jumps": events["obs_large"] - len(rec.large_times),
        "x_terminal": [float(v) for v in path.X[-1]],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'path.csv'} ({summary['steps']} steps)")
    return 0


def _cmd_average(args) -> int:
    preset = _load_preset(args)
    out_dir = Path(args.out)
    xs = [float(v) for v in _split_top_level(args.x)]
    if not xs:
        raise ConfigError("--x needs at least one slow state", key="x")
    model, obs = preset.model, preset.observation
    if model.n != 1:
        raise ConfigError("--x grids are one-dimensional; use a config preset with n=1", key="x")
    if args.samples < MIN_SAMPLES:
        raise ConfigError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}",
                          key="samples")
    if args.stride < 1:
        raise ConfigError(f"--stride must be at least 1, got {args.stride}", key="stride")
    if not args.dt > 0:
        raise ConfigError(f"--dt must be > 0, got {args.dt}", key="dt")
    if not args.burn_in >= 0:
        raise ConfigError(f"--burn-in must be >= 0, got {args.burn_in}", key="burn_in")
    _run_config(
        args, "average", preset,
        x=xs, burn_in=args.burn_in, samples=args.samples, stride=args.stride, dt=args.dt,
    ).write(out_dir)
    measure = estimate_invariant_measure(
        model, np.asarray(xs)[:, None], burn_in=args.burn_in, n_samples=args.samples,
        stride=args.stride, dt=args.dt, stream=RngStream(args.seed),
    )
    rows = []
    for i, xv in enumerate(xs):
        pt = average_coefficients(model, obs, [xv], measure.node(i))
        row = [xv, pt.bbar1[0], pt.se_bbar1[0]]
        row.extend(float(v) for v in pt.hbar)
        row.extend(float(v) for v in pt.se_hbar)
        row.extend(float(v) for v in pt.abar.ravel())
        rows.append(row)
    d = obs.d
    header = (["x", "bbar1", "se_bbar1"]
              + [f"hbar_{j}" for j in range(d)] + [f"se_hbar_{j}" for j in range(d)]
              + [f"abar_{i}{j}" for i in range(model.n) for j in range(model.n)])
    _write_csv(out_dir / "averaged.csv", header, rows)
    meta = {
        "mode": measure.mode, "replicas": measure.replicas,
        "n_samples": args.samples, "burn_in": args.burn_in, "stride": args.stride,
        "warnings": sorted(set(measure.warnings)),
    }
    (out_dir / "averaged.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'averaged.csv'} ({len(xs)} states)")
    return 0


def _cmd_filter(args) -> int:
    preset = _load_preset(args)
    out_dir = Path(args.out)
    psis = _psi_list(args)
    model = preset.model
    require_jump_free(model.nu1, *(() if args.mode == "homog" else (model.nu2,)))
    check_filter_sizes(args.particles, args.ess_frac)
    make_grid(args.T, args.dt)
    modes = ["full", "homog"] if args.mode == "both" else [args.mode]
    hmodel = build_homogenized(preset) if "homog" in modes else None
    _run_config(
        args, "filter", preset,
        mode=args.mode, T=args.T, dt=args.dt, particles=args.particles,
        psi=[p.name for p in psis], ess_frac=args.ess_frac,
    ).write(out_dir)
    root = RngStream(args.seed)
    path = simulate_full(preset.model, preset.observation, args.T, args.dt, root.child(0))
    path.to_csv(out_dir / "path.csv")
    rec = path.observations()
    summary = {"modes": {}, "truth_terminal": [float(v) for v in path.X[-1]]}
    # "both" is one coupled pass; the homog filter's output is the same alone
    outs = run_filter(
        rec, mode=args.mode, preset=preset, n_particles=args.particles, psis=psis,
        stream=root.child(1), hmodel=hmodel, ess_frac=args.ess_frac,
    )
    for mode, out in zip(modes, outs if args.mode == "both" else [outs]):
        out.to_csv(out_dir / f"filter_{mode}.csv")
        summary["modes"][mode] = {
            "pi_terminal": {p.name: float(v) for p, v in zip(psis, out.pi[-1])},
            "log_rho1_terminal": float(out.log_rho1[-1]),
            "ess_min": float(out.ess.min()),
            "resample_steps": [int(s) for s in out.resample_steps],
        }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote filter output for mode(s) {', '.join(modes)} to {out_dir}")
    return 0


def _cmd_converge(args) -> int:
    preset = _load_preset(args)
    out_dir = Path(args.out)
    psis = _psi_list(args)
    epsilons = _check_epsilons(_split_top_level(args.eps))
    if len(epsilons) < 2:
        raise ConfigError("--eps needs at least two values (the plots draw a line over eps)",
                          key="eps")
    for name in ("replications", "signal_paths", "martingale_runs"):
        _at_least_two(name, getattr(args, name))
    require_jump_free(preset.model.nu1, preset.model.nu2)
    check_filter_sizes(args.particles, args.ess_frac)
    make_grid(args.T, args.dt)
    hmodel = build_homogenized(preset)
    threads = _threads(args)
    _run_config(
        args, "converge", preset,
        eps=epsilons, replications=args.replications, particles=args.particles,
        psi=[p.name for p in psis], T=args.T, dt=args.dt, ess_frac=args.ess_frac,
        signal_paths=args.signal_paths, martingale_runs=args.martingale_runs,
    ).write(out_dir)
    report = convergence_study(
        preset, epsilons, args.replications, args.particles, psis, args.T,
        dt=args.dt, ess_frac=args.ess_frac, seed=args.seed, threads=threads,
        signal_paths=args.signal_paths, martingale_runs=args.martingale_runs, hmodel=hmodel,
    )
    names = [p.name for p in psis]
    header = ["epsilon"]
    for name in names:
        header += [f"mean_gap_{name}", f"se_gap_{name}", f"ks_pi_{name}"]
    header += ["ks_signal", "martingale_mean", "martingale_se", "max_rho0_inverse"]
    rows = []
    for row in report.rows:
        rec = [row["epsilon"]]
        for i in range(len(names)):
            rec += [float(row["mean_gap"][i]), float(row["se_gap"][i]), float(row["ks_pi"][i])]
        rec += [float(row["ks_signal"]), float(row["martingale_mean"]),
                float(row["martingale_se"]), float(row["max_rho0_inverse"])]
        rows.append(rec)
    _write_csv(out_dir / "convergence.csv", header, rows)
    json_rows = [
        {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in row.items()}
        for row in report.rows
    ]
    (out_dir / "convergence.json").write_text(json.dumps(
        {"epsilons": report.epsilons, "psi": names, "rows": json_rows, "meta": report.meta},
        indent=2, sort_keys=True) + "\n")
    gap_series = [
        {"label": f"gap {name}", "x": report.epsilons, "y": [float(r["mean_gap"][i]) for r in report.rows]}
        for i, name in enumerate(names)
    ]
    (out_dir / "gap_vs_eps.svg").write_text(emit_svg(
        gap_series, title="coupled filter gap",
        xlabel="epsilon", ylabel="mean |pi_full - pi_homog|",
    ))
    ks_series = [
        {"label": f"ks pi {name}", "x": report.epsilons, "y": [float(r["ks_pi"][i]) for r in report.rows]}
        for i, name in enumerate(names)
    ] + [{"label": "ks signal", "x": report.epsilons, "y": [float(r["ks_signal"]) for r in report.rows]}]
    (out_dir / "ks_vs_eps.svg").write_text(emit_svg(
        ks_series, title="weak-convergence diagnostics",
        xlabel="epsilon", ylabel="KS distance",
    ))
    for row in report.rows:
        print(f"eps={row['epsilon']:g}: "
              + " ".join(f"gap[{n}]={row['mean_gap'][i]:.5f}±{row['se_gap'][i]:.5f}"
                         for i, n in enumerate(names))
              + f" ks_signal={row['ks_signal']:.4f} martingale={row['martingale_mean']:.4f}")
    print(f"wrote {out_dir / 'convergence.csv'}")
    return 0


def _cmd_validate(args) -> int:
    preset = _load_preset(args)
    out_dir = Path(args.out)
    # the checks run before the config is written, so a sample count they reject writes nothing
    report = validate_assumptions(preset, sample_count=args.samples, stream=RngStream(args.seed))
    _run_config(args, "validate", preset, samples=args.samples).write(out_dir)
    payload = {
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "satisfied": c.satisfied,
                "statistic": c.statistic,
                "threshold": c.threshold,
                "detail": c.detail,
            }
            for c in report.entries
        ],
        "warnings": report.warnings,
    }
    (out_dir / "validation.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(report.summary())
    if not report.passed:
        failing = ", ".join(c.name for c in report.entries if c.satisfied is False)
        raise ModelViolationError(f"assumption checks failed: {failing}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="levyfilter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dt_default=0.01, eps_override=True):
        p.add_argument("--preset", default="example6", help="model preset name")
        p.add_argument("--config", default=None, help="JSON model config (overrides --preset)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        if eps_override:
            p.add_argument("--eps", dest="eps_single", type=float, default=None,
                           help="override the preset's timescale parameter")
        p.add_argument("--dt", type=float, default=dt_default)

    p = sub.add_parser("simulate", help="simulate one joint signal/observation path")
    common(p)
    p.add_argument("--T", type=float, default=1.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("average", help="estimate invariant measure and averaged coefficients")
    common(p)
    p.add_argument("--x", default="0.0", help="comma-separated slow states to freeze")
    p.add_argument("--burn-in", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--stride", type=int, default=50)
    p.set_defaults(fn=_cmd_average)

    p = sub.add_parser("filter", help="simulate a path and run the particle filter(s)")
    common(p)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--mode", choices=["full", "homog", "both"], default="full")
    p.add_argument("--particles", type=int, default=1000)
    p.add_argument("--psi", action="append", default=None,
                   help="functional(s): tanh, arctan, indicator(a,b), poly(c0,c1,c2)")
    p.add_argument("--ess-frac", type=float, default=0.5)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("converge", help="filter-convergence study over a list of eps")
    common(p, eps_override=False)
    p.set_defaults(eps_single=None)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--eps", default="0.5,0.1,0.02", help="comma-separated eps values")
    p.add_argument("--replications", type=int, default=200)
    p.add_argument("--particles", type=int, default=2000)
    p.add_argument("--psi", action="append", default=None)
    p.add_argument("--ess-frac", type=float, default=0.5)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted but unused: the study runs on one thread "
                        "(env LEVYFILTER_THREADS overrides)")
    p.add_argument("--signal-paths", type=int, default=5000,
                   help="rows of the shared law pass that the signal KS compares")
    p.add_argument("--martingale-runs", type=int, default=5000,
                   help="rows of the shared law pass that the likelihood check charges")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("validate", help="check model assumptions on a preset or config")
    common(p)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        args.out = f"levyfilter_{args.command}"
    try:
        _check_seed(args)
        return args.fn(args)
    except ConfigError as exc:
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return 1
    except (UnsupportedMeasureError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationFailureError as exc:
        t = f" at t={exc.time:g}" if exc.time is not None else ""
        print(f"numerical failure{t} (seed {args.seed}): {exc}", file=sys.stderr)
        return 2
    except (ModelViolationError, ExtrapolationError) as exc:
        print(f"numerical failure (seed {args.seed}): {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
