#!/usr/bin/env python3
"""Full experiment: delivered fraction vs erasure probability.

Sweeps the assignment family over the whole p grid with common random
numbers and writes, through the code of `lindof sweep` and `lindof
table`, `pudof_sweep.csv`, its `.manifest` and the per-p winners in
`winners.csv`. The defaults mirror the headline experiment (6000 trials
per point, grid step 0.01); crank --trials up for sharper crossover
boundaries. Flags are parsed and checked by `lindof`'s own front end: a
malformed or out-of-range flag (`--trials abc`, `--trials 0`) exits 1
with one `error:` line and writes nothing; an I/O failure exits 3.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lindof import cli
from lindof.montecarlo import AssignmentSpec, SweepConfig

FAMILY = (
    AssignmentSpec(5, Fraction(3, 5)),
    AssignmentSpec(100, Fraction(1, 2)),
    AssignmentSpec(100, Fraction(49, 100)),
    AssignmentSpec(100, Fraction(12, 25)),
    AssignmentSpec(100, Fraction(1, 4)),
    AssignmentSpec(100, Fraction(1, 50)),
    AssignmentSpec(100, Fraction(3, 4)),
    AssignmentSpec(100, Fraction(99, 100)),
    AssignmentSpec(99, Fraction(0)),
)


def run(args) -> int:
    cfg = SweepConfig(
        assignments=FAMILY,
        p_step=args.p_step,
        trials=args.trials,
        master_seed=args.seed,
        deactivate_last=True,
        share_realizations=True,
        workers=args.workers,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "pudof_sweep.csv"
    cli.run_sweep(cfg, csv_path, command="reproduce_results")
    return cli.main(["table", "--in", str(csv_path), "--out", str(out_dir / "winners.csv")])


def main() -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--trials", type=int, default=6000)
    parser.add_argument("--p-step", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out-dir", default="results")
    parser.set_defaults(func=run)
    return cli.exit_code(parser)


if __name__ == "__main__":
    sys.exit(main())
