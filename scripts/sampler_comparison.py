#!/usr/bin/env python3
"""Compare the three sampling routes for the positive spectrum.

Draws the direct tridiagonal model, the inductive bordered chain and the
bidiagonal read-off map at the same (n, beta), then prints pairwise
two-sample KS results for the extreme eigenvalues.

Example:
    python3 scripts/sampler_comparison.py --n 5 --beta 2 --reps 50000
"""

import argparse
import json

from skewbeta.chain import chain_sample_batch
from skewbeta.ensembles import antisym_tridiagonal_batch
from skewbeta.spectral import positive_spectrum_batch
from skewbeta.stats import ks_two_sample
from skewbeta.streams import RandomStream
from skewbeta.transform import laguerre_map_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--reps", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of a table")
    args = parser.parse_args()

    root = RandomStream(args.seed)
    samples = {
        "direct": positive_spectrum_batch(
            antisym_tridiagonal_batch(args.n, args.beta, root.split(0), args.reps)),
        "chain": chain_sample_batch(args.n, args.beta, root.split(1), args.reps),
        "laguerre-map": positive_spectrum_batch(
            laguerre_map_batch(args.n, args.beta, root.split(2), args.reps)),
    }

    rows = []
    names = list(samples)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for col, stat in ((0, "lambda_max"), (-1, "lambda_min")):
                res = ks_two_sample(samples[a][:, col], samples[b][:, col])
                rows.append({"pair": f"{a} vs {b}", "statistic_of": stat,
                             "D": res.statistic, "p": res.p_value})

    if args.json:
        print(json.dumps({"n": args.n, "beta": args.beta, "reps": args.reps,
                          "seed": args.seed, "results": rows}, indent=2))
        return
    print(f"n={args.n} beta={args.beta:g} reps={args.reps} seed={args.seed}")
    print(f"{'pair':28s} {'statistic':12s} {'D':>10s} {'p':>10s}")
    for r in rows:
        print(f"{r['pair']:28s} {r['statistic_of']:12s} "
              f"{r['D']:10.5f} {r['p']:10.4f}")


if __name__ == "__main__":
    main()
