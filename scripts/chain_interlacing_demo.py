#!/usr/bin/env python3
"""Walk the bordered-matrix chain and print the interlacing trajectory.

Each border step adds one row/column; the printed rows show how the new
positive spectrum interlaces the previous one at every order, ending with a
down-step (corank-1 projection) that interlaces from below.

Example:
    python3 scripts/chain_interlacing_demo.py --n 9 --beta 2 --seed 3
"""

import argparse

from skewbeta.chain import chain_trajectory, step_down
from skewbeta.streams import RandomStream


def fmt(lam) -> str:
    return "  ".join(f"{v:8.4f}" for v in lam) if lam.size else "(empty)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    stream = RandomStream(args.seed)
    states = chain_trajectory(args.n, args.beta, stream.split(0))
    print(f"upward chain, n=1..{args.n}, beta={args.beta:g}")
    for m, lam in enumerate(states, start=1):
        print(f"  order {m:2d}: {fmt(lam)}")

    down = step_down(states[-1], args.n - 1, args.beta, stream.split(1))
    print(f"one projection step back to order {args.n - 1}:")
    print(f"  order {args.n - 1:2d}: {fmt(down)}")


if __name__ == "__main__":
    main()
