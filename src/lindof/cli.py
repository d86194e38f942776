"""Command-line front end: sweeps, oracle verification, traces, tables.

Exit codes, shared by scripts/reproduce_results.py and
scripts/exact_vs_monte_carlo.py: 0 success, 1 a malformed or out-of-range
flag or parameter, 2 scheduler/oracle mismatch or a schedule that needs
erased links, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .assignment import (
    build_assignment,
    format_assignment,
    random_assignment,
)
from .montecarlo import (
    P_DECIMALS,
    AssignmentSpec,
    SweepConfig,
    best_assignment_table,
    open_atomic,
    read_sweep_csv,
    sweep,
    write_csv,
    write_sweep_csv,
)
from .network import (
    all_realizations,
    attach_generic_coefficients,
    derive_seed,
    parse_realization,
    partition_into_clusters,
    realization_to_string,
    sample_realization,
)
from .oracle import ORACLE_K_LIMIT, optimal_zero_forcing_dof
from .scheduler import build_transmit_signals, schedule_network, verify_zero_forcing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_IO = 3

# Most random assignments `verify` draws per network size; exhaustive mode
# holds them all while it checks every pattern against each.
MAX_RANDOM_ASSIGNMENTS = 10_000
# Most instances `verify --mode random` checks; it holds every mismatch
# found until it prints them after the count.
MAX_VERIFY_TRIALS = 10_000_000


class Parser(argparse.ArgumentParser):
    """The parser of every entry point: a malformed flag raises a
    ValueError, so `exit_code` reports it like an out-of-range one."""

    def error(self, message):  # argparse defaults to exit code 2
        raise ValueError(message)


def parse_fraction(text: str) -> Fraction:
    """Exact fraction flag: `num/den` or a bare integer; decimals rejected."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            f = Fraction(int(num), int(den))
        else:
            f = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid fraction {text!r}: use num/den with integers") from None
    if not 0 <= f <= 1:
        raise ValueError(f"fraction {text} lies outside [0, 1]")
    return f


def write_manifest(path: str, entries: dict) -> None:
    with open_atomic(path) as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def manifest_entries(cfg: SweepConfig, out: str, command: str = "sweep") -> dict:
    """The command and version, every SweepConfig field in order (the
    assignments as their labels), then the output path. `command` names
    what replays the sweep: `sweep` for `lindof sweep`, or a script."""
    return {
        "command": command,
        "version": __version__,
        **vars(cfg),
        "assignments": " ".join(spec.label for spec in cfg.assignments),
        "out": out,
    }


def run_sweep(cfg: SweepConfig, out, quiet: bool = False, command: str = "sweep") -> None:
    """Run a sweep and write its CSV to `out` and its manifest beside it,
    naming `command` as the one that replays it."""
    out = os.fspath(out)
    progress = None
    if not quiet:
        progress = lambda row: print(
            f"p={row.p:.{P_DECIMALS}g} {row.label} mean={row.mean:.6g} stderr={row.stderr:.6g}",
            file=sys.stderr,
        )
    rows = sweep(cfg, progress=progress)
    write_sweep_csv(rows, out)
    write_manifest(out + ".manifest", manifest_entries(cfg, out, command))
    print(f"wrote {len(rows)} rows to {out}")


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        assignments=tuple(AssignmentSpec(args.k, parse_fraction(text)) for text in args.f),
        p_start=args.p_start,
        p_end=args.p_end,
        p_step=args.p_step,
        trials=args.trials,
        master_seed=args.seed,
        deactivate_last=args.deactivate_last,
        share_realizations=args.share_realizations,
        workers=args.workers,
    )
    run_sweep(cfg, args.out, args.quiet)
    return EXIT_OK


def check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _verify_family(k: int, n_random: int, seed: int) -> list:
    rng = np.random.default_rng(derive_seed(seed, k))
    family = [build_assignment(k, 0), build_assignment(k, Fraction(3, 5))]
    family += [random_assignment(k, rng) for _ in range(n_random)]
    return family


def _verify_instances(args):
    """Yield the (realization, assignment) pairs that `verify` checks."""
    if args.mode == "exhaustive":
        for k in range(3, args.k_max + 1):
            family = _verify_family(k, args.random_assignments, args.seed)
            for r in all_realizations(k):
                for a in family:
                    yield r, a
    else:
        rng = np.random.default_rng(args.seed)
        for t in range(args.trials):
            k = int(rng.integers(3, args.k_max + 1))
            p = float(rng.random())
            r = sample_realization(k, p, derive_seed(args.seed, t))
            yield r, random_assignment(k, rng)


def cmd_verify(args) -> int:
    if not 3 <= args.k_max <= ORACLE_K_LIMIT:
        raise ValueError(f"--k-max must lie in 3..{ORACLE_K_LIMIT}, got {args.k_max}")
    check_at_least("--trials", args.trials, 1)
    if args.trials > MAX_VERIFY_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_VERIFY_TRIALS}, got {args.trials}")
    check_at_least("--random-assignments", args.random_assignments, 0)
    if args.random_assignments > MAX_RANDOM_ASSIGNMENTS:
        raise ValueError(
            f"--random-assignments must be at most {MAX_RANDOM_ASSIGNMENTS}, "
            f"got {args.random_assignments}"
        )
    check_at_least("--seed", args.seed, 0)
    checked = 0
    mismatches = []
    for r, a in _verify_instances(args):
        greedy = len(schedule_network(r, a).delivered)
        best = optimal_zero_forcing_dof(r, a)
        checked += 1
        if greedy != best:
            mismatches.append(
                f"mismatch: realization {realization_to_string(r)} greedy={greedy} oracle={best}\n"
                + format_assignment(a)
            )
    print(f"checked {checked} instances ({args.mode}, k up to {args.k_max}): "
          f"{len(mismatches)} mismatches")
    for text in mismatches:
        print(text)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_trace(args) -> int:
    f = parse_fraction(args.f)
    check_at_least("--seed", args.seed, 0)
    check_at_least("--coeff-seed", args.coeff_seed, 0)
    if args.realization is not None:
        r = parse_realization(args.realization)
        if args.k is not None and args.k != r.k:
            raise ValueError(f"--k {args.k} disagrees with realization string (k={r.k})")
        if args.p is not None:
            raise ValueError(f"--p {args.p} cannot be used with a realization string")
    else:
        if args.k is None:
            raise ValueError("either a realization string or --k with --p is required")
        if args.p is None:
            raise ValueError("--p is required when no realization string is given")
        r = sample_realization(args.k, args.p, args.seed)
    a = build_assignment(r.k, f)
    gains = attach_generic_coefficients(r, args.coeff_seed)
    s = schedule_network(r, a)
    plan = build_transmit_signals(s, gains)
    report = verify_zero_forcing(plan, s, gains)

    print(f"realization: {realization_to_string(r)}")
    print("assignment:")
    print(format_assignment(a))
    checks = {c.receiver: c for c in report.checks}
    for cluster in partition_into_clusters(r):
        print(f"cluster {cluster.start}..{cluster.end}")
        pairs = sorted(e for e in s.entries if cluster.start <= e[0] <= cluster.end)
        delivered = sorted(i for i in s.delivered if cluster.start <= i <= cluster.end)
        print("  decisions: " + (" ".join(f"({i},{j})" for i, j in pairs) or "(none)"))
        print("  delivered: " + (" ".join(str(i) for i in delivered) or "(none)"))
        for t in range(cluster.start, cluster.end + 1):
            weights = plan[t - 1]
            if weights:
                body = ", ".join(f"W{m} x {w:.4g}" for m, w in sorted(weights.items()))
            else:
                body = "(silent)"
            print(f"  tx {t}: {body}")
        for i in delivered:
            c = checks[i]
            print(
                f"  rx {i}: desired {c.desired_magnitude:.3e}, "
                f"interference ratio {c.interference_ratio:.3e}"
            )
    if not s.delivered:
        print("no active receivers")
    print(
        f"summary: delivered {len(s.delivered)}/{r.k}, zero-forcing check "
        f"{'PASS' if report.passed else 'FAIL'}"
    )
    for failure in report.failures:
        print(f"  {failure}")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    for path in args.inputs:
        rows.extend(read_sweep_csv(path))
    table = best_assignment_table(rows)
    points = [f"{row.p:.{P_DECIMALS}g}" for row in table]
    p_width = max([6, *map(len, points)])
    width = max(len(row.best) for row in table)
    print(f"{'p':>{p_width}}  {'best':<{width}}  {'mean':>10}  ties")
    for point, row in zip(points, table):
        ties = ", ".join(row.ties) if row.ties else "-"
        print(f"{point:>{p_width}}  {row.best:<{width}}  {row.mean:>10.6g}  {ties}")
    if args.out:
        write_csv(
            args.out,
            ("p", "best", "mean", "stderr", "ties"),
            ((row.p, row.best, row.mean, row.stderr, ";".join(row.ties)) for row in table),
        )
        print(f"wrote table to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="lindof", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over an erasure-probability grid")
    p_sweep.add_argument("--k", type=int, required=True, help="network size")
    p_sweep.add_argument(
        "--f", action="append", required=True,
        help="helper fraction num/den (repeatable)",
    )
    p_sweep.add_argument("--p-start", type=float, default=0.0)
    p_sweep.add_argument("--p-end", type=float, default=1.0)
    p_sweep.add_argument("--p-step", type=float, default=0.01)
    p_sweep.add_argument("--trials", type=int, default=6000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--deactivate-last", action=argparse.BooleanOptionalAction, default=True,
        help="silence the last transmitter so the value scales to larger networks",
    )
    p_sweep.add_argument(
        "--share-realizations", action=argparse.BooleanOptionalAction, default=False,
        help="draw each point's trials once per network size and count every assignment on them",
    )
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check the greedy scheduler against the brute-force optimum")
    p_verify.add_argument("--k-max", type=int, default=5)
    p_verify.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p_verify.add_argument("--trials", type=int, default=10000, help="instances in random mode")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--random-assignments", type=int, default=20)
    p_verify.set_defaults(func=cmd_verify)

    p_trace = sub.add_parser("trace", help="schedule one realization and show every decision")
    p_trace.add_argument(
        "realization", nargs="?",
        help="realization string k;direct-bits;cross-bits (else sampled from --p)",
    )
    p_trace.add_argument("--k", type=int)
    p_trace.add_argument("--f", required=True, help="helper fraction num/den")
    p_trace.add_argument("--p", type=float)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--coeff-seed", type=int, default=0)
    p_trace.set_defaults(func=cmd_trace)

    p_table = sub.add_parser("table", help="per-p winners from sweep CSVs")
    p_table.add_argument("--in", dest="inputs", action="append", required=True,
                         help="sweep CSV (repeatable)")
    p_table.add_argument("--out", help="also write the table as CSV")
    p_table.set_defaults(func=cmd_table)
    return parser


def exit_code(parser: argparse.ArgumentParser, argv=None) -> int:
    """Parse argv and return the exit code of the parsed `func(args)`. A
    ValueError (a malformed or out-of-range flag) gives 1, a RuntimeError
    (a schedule that needs erased links) 2 and an OSError 3, each after
    one `error:` line on stderr."""
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):
            return EXIT_USAGE
        return EXIT_MISMATCH if isinstance(exc, RuntimeError) else EXIT_IO


def main(argv=None) -> int:
    return exit_code(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
