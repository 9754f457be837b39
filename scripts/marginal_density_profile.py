#!/usr/bin/env python3
"""Empirical vs closed-form marginal of the single positive eigenvalue.

For n in {2, 3} the eigenvalue density is one-dimensional, so the sampled
histogram can be laid directly against the closed-form curve.  Writes a CSV
with bin centers, empirical density and theoretical density.

Example:
    python3 scripts/marginal_density_profile.py --n 3 --beta 2 --out profile.csv
"""

import argparse
import math
import sys

import numpy as np

from skewbeta.densities import logpdf_positive_spectrum
from skewbeta.ensembles import antisym_tridiagonal_batch
from skewbeta.spectral import positive_spectrum_batch
from skewbeta.streams import RandomStream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3, choices=(2, 3))
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--reps", type=int, default=200000)
    parser.add_argument("--bins", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    b = antisym_tridiagonal_batch(args.n, args.beta, RandomStream(args.seed),
                                  args.reps)
    lam = positive_spectrum_batch(b)[:, 0]
    counts, edges = np.histogram(lam, bins=args.bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    theory = np.array([math.exp(logpdf_positive_spectrum([c], args.n, args.beta).log_value)
                       for c in centers])

    lines = ["lambda,empirical,theoretical"]
    lines += [f"{c!r},{e!r},{t!r}" for c, e, t in zip(centers, counts, theory)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        max_dev = float(np.max(np.abs(counts - theory)))
        print(f"wrote {args.bins} bins to {args.out}; "
              f"max |empirical - theoretical| = {max_dev:.4f}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
