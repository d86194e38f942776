#!/usr/bin/env python3
"""Compare the Monte Carlo estimator against the exact expectation.

`exact_expected_dof` gives the exact expected delivered fraction up to
K = 200 (`oracle.MAX_EXACT_K`): it runs a DP over the greedy scan's
states instead of enumerating the 2^(2K-1) erasure patterns. The sampled
estimate should track it within a few standard errors everywhere on the
grid. Flags are parsed and checked by `lindof`'s own front end: a
malformed or out-of-range flag (`--k 2`, `--k 201`, `--f 5/3`,
`--trials abc`) exits 1 with one `error:` line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lindof import cli
from lindof.assignment import build_assignment
from lindof.montecarlo import estimate_pudof
from lindof.network import derive_seed
from lindof.oracle import MAX_EXACT_K, exact_expected_dof


def run(args) -> int:
    cli.check_at_least("--k", args.k, 3)
    if args.k > MAX_EXACT_K:
        raise ValueError(f"--k must be at most {MAX_EXACT_K}, got {args.k}")
    f = cli.parse_fraction(args.f)
    cli.check_at_least("--trials", args.trials, 1)
    cli.check_at_least("--seed", args.seed, 0)
    a = build_assignment(args.k, f)
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


def main() -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--f", default="3/5")
    parser.add_argument("--trials", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=run)
    return cli.exit_code(parser)


if __name__ == "__main__":
    sys.exit(main())
