"""Mean-one checks for the observation likelihood.

Under the reference law the filter's likelihood ratio is a mean-one
martingale; under the physical law its inverse is.  This script estimates
both means by Monte Carlo at a few epsilon values, for the full model and
the reduced one, and flags anything more than three standard errors away
from one.

    python3 scripts/martingale_sanity.py [--runs N] [--eps 0.5,0.1]
"""

import argparse

from levyfilter import PRESETS, martingale_check


def run(args):
    preset = PRESETS["example6"]()
    bad = 0
    epsilons = [float(v) for v in args.eps.split(",")]
    reports = martingale_check(
        preset, epsilon=epsilons, n_runs=args.runs, T=args.T, seed=args.seed,
        inverse_runs=args.inverse_runs,
    )
    for eps, rep in zip(epsilons, reports):
        checks = [
            ("forward      ", rep.mean_forward, rep.se_forward),
            ("forward homog", rep.mean_forward_homog, rep.se_forward_homog),
            ("inverse      ", rep.mean_inverse, rep.se_inverse),
        ]
        print(f"eps={eps:g} ({args.runs} forward runs, {args.inverse_runs} inverse)")
        for name, mean, se in checks:
            dev = abs(mean - 1.0) / se if se > 0 else float("inf")
            flag = "" if dev < 3.0 else "  <-- off"
            bad += dev >= 3.0
            print(f"  {name} {mean:.4f} ± {se:.4f}  ({dev:.2f} SE){flag}")
        print(f"  sup 1/rho0(1) over forward runs: {rep.max_rho0_inverse:.3g}")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5000)
    ap.add_argument("--inverse-runs", type=int, default=300)
    ap.add_argument("--eps", default="0.5,0.1")
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    run(ap.parse_args())
