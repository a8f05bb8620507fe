"""Filter-convergence study on the benchmark model.

Runs the coupled full-vs-reduced particle filter comparison over a sweep of
timescale parameters and prints the terminal-gap table.  With --full the run
uses the headline study size (200 replications, 2000 particles); the default
is a quick desk-scale pass.

    python3 scripts/converge_example6.py [--full] [--out DIR]
"""

import argparse
from pathlib import Path

from levyfilter import PRESETS, filter_convergence_study
from levyfilter.cli import emit_svg


def run(args):
    preset = PRESETS["example6"]()
    reps, particles = (200, 2000) if args.full else (40, 500)
    report = filter_convergence_study(
        preset, [0.5, 0.1, 0.02], replications=reps, n_particles=particles,
        psis=["tanh"], T=1.0, dt=0.01, seed=args.seed,
    )
    print(f"replications={reps} particles={particles} psi=tanh T=1")
    print(f"{'eps':>6} {'mean gap':>10} {'SE':>9} {'KS(pi)':>7}")
    for row in report.rows:
        print(f"{row['epsilon']:>6g} {row['mean_gap'][0]:>10.5f} "
              f"{row['se_gap'][0]:>9.5f} {row['ks_pi'][0]:>7.3f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        series = [{
            "label": "gap tanh",
            "x": report.epsilons,
            "y": [float(r["mean_gap"][0]) for r in report.rows],
        }]
        (out / "gap_vs_eps.svg").write_text(emit_svg(
            series, title="coupled filter gap",
            xlabel="epsilon", ylabel="mean |pi_full - pi_homog|",
        ))
        print(f"wrote {out / 'gap_vs_eps.svg'}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="headline study size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write an SVG of the gap curve here")
    run(ap.parse_args())
