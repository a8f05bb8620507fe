"""Weak convergence of the slow signal toward its reduced model.

Simulates ensembles of the two-timescale signal at several epsilon values,
all reading the same noises, and compares the terminal law of the slow
component against one reduced-model ensemble via the two-sample KS
statistic.  The distances should shrink as epsilon does.

    python3 scripts/signal_homogenization.py [--paths N] [--eps 0.5,0.1,0.02]
"""

import argparse

from levyfilter import PRESETS, signal_convergence_study


def run(args):
    preset = PRESETS["example6"]()
    epsilons = [float(v) for v in args.eps.split(",")]
    rows = signal_convergence_study(
        preset, epsilons, n_paths=args.paths, T=args.T, seed=args.seed
    )
    print(f"n_paths={args.paths} per law, T={args.T}")
    print(f"{'eps':>8} {'KS':>8}")
    for row in rows:
        print(f"{row['epsilon']:>8g} {row['ks']:>8.4f}")
    ks = [row["ks"] for row in rows]
    trend = "decreasing" if all(b < a for a, b in zip(ks, ks[1:])) else "NOT monotone"
    print(f"trend: {trend}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=5000)
    ap.add_argument("--eps", default="0.5,0.1,0.02")
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    run(ap.parse_args())
