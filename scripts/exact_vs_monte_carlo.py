#!/usr/bin/env python3
"""Compare the Monte Carlo estimator against the exact expectation.

`exact_expected_dof` gives the exact expected delivered fraction at any
K: it runs a DP over the greedy scan's states instead of enumerating the
2^(2K-1) erasure patterns. The sampled estimate should track it within a
few standard errors everywhere on the grid.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lindof.assignment import build_assignment
from lindof.cli import parse_fraction
from lindof.montecarlo import estimate_pudof
from lindof.network import derive_seed
from lindof.oracle import exact_expected_dof


def fraction_arg(text: str):
    """`parse_fraction` as an argparse type that keeps its error message."""
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def int_at_least(low: int):
    """An argparse type for integers of at least `low` that names the bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int_at_least(3), default=5)
    parser.add_argument("--f", type=fraction_arg, default="3/5")
    parser.add_argument("--trials", type=int_at_least(1), default=6000)
    parser.add_argument("--seed", type=int_at_least(0), default=0)
    args = parser.parse_args()

    a = build_assignment(args.k, args.f)
    print(f"{'p':>5}  {'exact':>8}  {'sampled':>8}  {'stderr':>8}  {'sigma':>6}")
    worst = 0.0
    for pi in range(0, 11):
        p = pi / 10
        exact = exact_expected_dof(args.k, p, a, deactivate_last=True) / args.k
        mean, stderr = estimate_pudof(
            args.k, p, a, args.trials, derive_seed(args.seed, pi), deactivate_last=True
        )
        sigma = abs(mean - exact) / stderr if stderr > 0 else 0.0
        worst = max(worst, sigma)
        print(f"{p:>5.2f}  {exact:>8.4f}  {mean:>8.4f}  {stderr:>8.4f}  {sigma:>6.2f}")
    print(f"largest deviation: {worst:.2f} standard errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
