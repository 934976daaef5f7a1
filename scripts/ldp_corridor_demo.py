#!/usr/bin/env python3
"""Finite-n sanity check of the guesswork rate curve.

For the ternary source, compares the exact decay -(1/n) log P{|g/n - t| < eps}
computed by full enumeration against the rate curve J(t), over a grid of t.
"""
import argparse
import math
import sys

import numpy as np

import tiltlab as tl
from tiltlab.cli import CONFIG_ERRORS
from tiltlab.errors import TiltlabError
from tiltlab.guesswork import corridor_mass


def main() -> int:
    """Run the demo; a library error is one stderr line and exit 2 for an
    input or spec error, 1 for any other."""
    try:
        demo()
    except TiltlabError as exc:
        print(f"ldp_corridor_demo: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CONFIG_ERRORS) else 1
    return 0


def demo() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--epsilon", type=float, default=0.1)
    args = parser.parse_args()

    source = tl.load_source(tl.builtin_spec_path("s3"))
    table = tl.build_rank_table(source, args.n)

    print(f"n={args.n} eps={args.epsilon}")
    print(f"{'t':>6} {'empirical':>12} {'J(t)':>12} {'diff':>9}")
    ts = np.arange(0.1, math.log(3), 0.1)
    masses = corridor_mass(table, ts, args.epsilon)
    rates = tl.rate_points(source, "forward_g", ts).rate.tolist()
    for t, p, rate in zip(ts, masses, rates):
        empirical = -math.log(p) / args.n if p > 0 else math.inf
        print(f"{t:6.2f} {empirical:12.4f} {rate:12.4f} {empirical - rate:9.4f}")


if __name__ == "__main__":
    sys.exit(main())
