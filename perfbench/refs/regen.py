#!/usr/bin/env python3
"""Regenerate perfbench/refs/references.json, the values the benchmark's
correctness checks compare against.

    python3 perfbench/refs/regen.py [--trials 20000] [--workers 2]

Contents:

- ``mc``: per assignment label and p (two decimals), the reference mean
  delivered fraction, its standard error and the per-trial standard
  deviation of the delivered count. K=5 values are exact: the mean comes
  from ``exact_expected_dof``, the deviation from the same enumeration
  of all 2^(2K-1) patterns. K>=99 endpoints (p=0, p=1) are exact, being
  deterministic; interior K>=99 points are high-trial Monte Carlo means
  on a seed stream the benchmark never uses. All with the last
  transmitter deactivated, as the benchmark's sweeps run.
- ``certify.exact``: ``exact_expected_dof`` at K=8 for f in {0, 3/5}
  with the last transmitter deactivated, at p = 0.05, 0.10, ..., 0.95.
- ``certify.family_totals``: per K=3..6 and family member, the greedy
  and brute-force optimum delivered counts summed over every pattern.

The interior K>=99 points take a few minutes on two cores.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from lindof.assignment import build_assignment, remove_transmitter  # noqa: E402
from lindof.montecarlo import estimate_pudof  # noqa: E402
from lindof.network import NetworkRealization, derive_seed  # noqa: E402
from lindof.oracle import exact_expected_dof, optimal_zero_forcing_dof  # noqa: E402
from lindof.scheduler import schedule_network  # noqa: E402

from perfbench import REFS_PATH  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CERTIFY_FAMILY_FS,
    CERTIFY_KS,
    EXACT_K,
    EXACT_P_GRID,
    FAMILY,
    K5_SPECS,
    all_patterns,
    fkey,
    pkey,
)

# Distinct from every stream the benchmark derives from its --seed.
REF_SEED = 0x5EED_0F_4EF5
FINE_GRID = tuple(round(0.01 * i, 2) for i in range(101))
COARSE_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def k5_exact(spec) -> dict:
    """Exact mean fraction and per-trial deviation over the fine grid."""
    k = spec.k
    a = build_assignment(k, spec.f)
    run = remove_transmitter(a, k)
    links = 2 * k - 1
    counts: dict[tuple[int, int], int] = {}
    for bits in range(1 << links):
        direct = tuple(bool(bits >> i & 1) for i in range(k - 1)) + (False,)
        cross = tuple(bool(bits >> (k + i) & 1) for i in range(k - 1))
        d = len(schedule_network(NetworkRealization(k, direct, cross), run).delivered)
        key = (links - bits.bit_count(), d)
        counts[key] = counts.get(key, 0) + 1
    out = {}
    for p in FINE_GRID:
        weights = [(n * p**e * (1 - p) ** (links - e), d) for (e, d), n in counts.items()]
        m1 = math.fsum(w * d for w, d in weights)
        m2 = math.fsum(w * d * d for w, d in weights)
        exact = exact_expected_dof(k, p, a, deactivate_last=True)
        if abs(exact - m1) > 1e-12:
            raise SystemExit(f"{spec.label} p={p}: enumeration {m1!r} != exact_expected_dof {exact!r}")
        sd = math.sqrt(max(0.0, m2 - m1 * m1))
        if sd < 1e-12:
            sd = 0.0
        # endpoints store the estimator's exact output, which the check
        # compares with ==
        mean = estimate_pudof(k, p, a, 1, REF_SEED, deactivate_last=True)[0] if sd == 0.0 else exact / k
        out[pkey(p)] = {"mean": mean, "stderr": 0.0, "sd_dof": sd}
    return out


def large_k(spec, ai: int, trials: int, workers: int) -> dict:
    a = build_assignment(spec.k, spec.f)
    out = {}
    for pi, p in enumerate(COARSE_GRID):
        if p in (0.0, 1.0):
            mean, _ = estimate_pudof(spec.k, p, a, 1, REF_SEED, deactivate_last=True)
            out[pkey(p)] = {"mean": mean, "stderr": 0.0, "sd_dof": 0.0}
            continue
        seed = derive_seed(REF_SEED, pi, ai)
        mean, stderr = estimate_pudof(spec.k, p, a, trials, seed, deactivate_last=True, workers=workers)
        sd = stderr * spec.k * math.sqrt(trials)
        out[pkey(p)] = {"mean": mean, "stderr": stderr, "sd_dof": sd, "trials": trials}
        print(f"{spec.label} p={p:.1f} mean={mean:.5f} stderr={stderr:.2e}", file=sys.stderr)
    return out


def certify() -> dict:
    exact = {}
    for f in CERTIFY_FAMILY_FS:
        a = build_assignment(EXACT_K, f)
        exact[fkey(f)] = {
            pkey(p): exact_expected_dof(EXACT_K, p, a, deactivate_last=True) for p in EXACT_P_GRID
        }
        print(f"exact K={EXACT_K} f={fkey(f)} done", file=sys.stderr)
    totals = {}
    for k in CERTIFY_KS:
        patterns = all_patterns(k)
        totals[str(k)] = {}
        for f in CERTIFY_FAMILY_FS:
            a = build_assignment(k, f)
            greedy = sum(len(schedule_network(r, a).delivered) for r in patterns)
            best = sum(optimal_zero_forcing_dof(r, a) for r in patterns)
            totals[str(k)][fkey(f)] = [greedy, best]
    return {"exact": exact, "family_totals": totals}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trials", type=int, default=20000, help="trials per interior K>=99 point")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    mc = {spec.label: k5_exact(spec) for spec in K5_SPECS}
    for ai, spec in enumerate(FAMILY):
        if spec.label not in mc:
            mc[spec.label] = large_k(spec, ai, args.trials, args.workers)
    refs = {"mc": mc, "certify": certify()}
    tmp = REFS_PATH.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    tmp.replace(REFS_PATH)
    print(f"wrote {REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
