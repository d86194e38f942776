#!/usr/bin/env python3
"""Full experiment: delivered fraction vs erasure probability.

Sweeps the assignment family over the whole p grid with common random
numbers and writes the sweep CSV plus the per-p winner table. The
defaults mirror the headline experiment (6000 trials per point, grid
step 0.01); crank --trials up for sharper crossover boundaries.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lindof.montecarlo import (
    AssignmentSpec,
    SweepConfig,
    best_assignment_table,
    sweep,
    write_sweep_csv,
)

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=6000)
    parser.add_argument("--p-step", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = SweepConfig(
        assignments=FAMILY,
        p_step=args.p_step,
        trials=args.trials,
        master_seed=args.seed,
        deactivate_last=True,
        share_realizations=True,
        workers=args.workers,
    )
    rows = sweep(cfg, progress=lambda r: print(
        f"p={r.p:.2f} {r.label:<16} mean={r.mean:.4f}", file=sys.stderr
    ))
    csv_path = out_dir / "pudof_sweep.csv"
    write_sweep_csv(rows, csv_path)
    print(f"wrote {csv_path}")

    table = best_assignment_table(rows)
    table_path = out_dir / "winners.txt"
    with open(table_path, "w") as fh:
        fh.write(f"{'p':>5}  {'best':<16}  {'mean':>8}  ties\n")
        for row in table:
            ties = ", ".join(row.ties) if row.ties else "-"
            fh.write(f"{row.p:>5.2f}  {row.best:<16}  {row.mean:>8.4f}  {ties}\n")
    print(f"wrote {table_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
