"""The benchmark's workloads: input generation, one timed round, checks.

A run repeats rounds of one workload. Each round gets fresh inputs made
from (workload seed, round index) before its clock starts, calls the
package's public API inside the timed region, and hands its outputs to
the checks. Calls go through module attributes (``montecarlo.sweep``,
``scheduler.schedule_network``, ...) so that the traced run can replace
them with timing wrappers.

Correctness is statistical where the program is random: a Monte Carlo
point passes when it lies within ``SIGMA`` standard errors of a stored
reference. The references are made by ``perfbench/refs/regen.py``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import resource
import time
from array import array
from fractions import Fraction

import numpy as np

from lindof import assignment, montecarlo, network, oracle, scheduler
from lindof.montecarlo import AssignmentSpec, SweepConfig

# Five, not four, standard errors: about 200 points are checked in a run
# and comparing two commits takes dozens of runs, so at 4 sigma a chance
# failure somewhere would be likely; at 5 sigma it is well under 1%.
SIGMA = 5.0

# The headline assignment family, as in scripts/reproduce_results.py.
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
K5_SPECS = (AssignmentSpec(5, Fraction(3, 5)), AssignmentSpec(5, Fraction(0)))
CSV_HEADER = ["p", "assignment", "k", "f_num", "f_den", "trials", "seed", "pudof_mean", "pudof_stderr"]

CERTIFY_KS = (3, 4, 5, 6)
CERTIFY_FAMILY_FS = (Fraction(0), Fraction(3, 5))
EXACT_K = 8
EXACT_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def pkey(p: float) -> str:
    return f"{p:.2f}"


def fkey(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def bench_seed(*entropy: int) -> int:
    """Seed for the benchmark's own input generation, kept apart from the
    package's derive_seed so that the traced run counts only program calls."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def load_refs(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Tally:
    """Checks attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.add(1, 0 if ok else 1, message)

    def add(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)


@dataclasses.dataclass
class RoundResult:
    wall_s: float
    cpu_s: float
    realizations: int  # Monte Carlo trials, or certified instances
    # latency of each point (see README); an array keeps the benchmark's
    # own memory from growing much with the number of rounds
    point_s: array
    data: dict


def _sweep_config(**kwargs) -> SweepConfig:
    # SweepConfig.k duplicates the size each AssignmentSpec carries and
    # may be dropped from the package; pass it only while it exists.
    if "k" in {f.name for f in dataclasses.fields(SweepConfig)}:
        kwargs["k"] = max(spec.k for spec in kwargs["assignments"])
    return SweepConfig(**kwargs)


class MonteCarloWorkload:
    """A seeded ``montecarlo.sweep`` followed by the winner table and CSV."""

    def __init__(self, name, tag, specs, p_step, trials, share_realizations):
        self.name = name
        self.tag = tag
        self.specs = specs
        self.p_step = p_step
        self.trials = trials
        self.share_realizations = share_realizations

    def setup(self, refs: dict, out_dir) -> None:
        self.out_dir = out_dir
        self.refs = refs["mc"]
        for spec in self.specs:
            spec.build()
        grid = self.inputs(0, 0).p_grid()
        missing = [
            (spec.label, p)
            for spec in self.specs
            for p in grid
            if pkey(p) not in self.refs.get(spec.label, {})
        ]
        if missing:
            raise ValueError(f"{self.name}: no reference for {missing[:3]}")

    def inputs(self, seed: int, round_index: int) -> SweepConfig:
        return _sweep_config(
            assignments=self.specs,
            p_start=0.0,
            p_end=1.0,
            p_step=self.p_step,
            trials=self.trials,
            master_seed=bench_seed(seed, self.tag, round_index),
            deactivate_last=True,
            share_realizations=self.share_realizations,
            workers=1,
        )

    def run_round(self, cfg: SweepConfig) -> RoundResult:
        csv_path = self.out_dir / f"{self.name}.csv"
        points = array("d")
        c0 = cpu_seconds()
        t0 = last = time.perf_counter()

        def progress(row):
            nonlocal last
            now = time.perf_counter()
            points.append(now - last)
            last = now

        rows = montecarlo.sweep(cfg, progress=progress)
        table = montecarlo.best_assignment_table(rows)
        montecarlo.write_sweep_csv(rows, csv_path)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        data = {"cfg": cfg, "rows": rows, "table": table, "csv": _read_csv(csv_path)}
        return RoundResult(wall, cpu, len(rows) * cfg.trials, points, data)

    def check_round(self, result: RoundResult, tally: Tally) -> None:
        cfg, rows, table = result.data["cfg"], result.data["rows"], result.data["table"]
        grid = cfg.p_grid()
        expected_keys = [(p, spec.label) for p in grid for spec in self.specs]
        tally.check(
            [(r.p, r.label) for r in rows] == expected_keys and all(r.trials == cfg.trials for r in rows),
            f"{self.name}: sweep rows do not cover the grid x assignments",
        )
        for r in rows:
            ref = self.refs[r.label][pkey(r.p)]
            if ref["sd_dof"] == 0.0:
                tally.check(
                    r.mean == ref["mean"] and r.stderr == 0.0,
                    f"{r.label} p={r.p}: exact endpoint {ref['mean']!r}, got {r.mean!r} +- {r.stderr!r}",
                )
            else:
                tally.check(
                    0.0 <= r.mean <= 1.0 and math.isfinite(r.stderr) and r.stderr >= 0.0,
                    f"{r.label} p={r.p}: mean {r.mean!r} or stderr {r.stderr!r} out of range",
                )
        _check_table(rows, table, tally, self.name)
        _check_csv(rows, result.data["csv"], tally, self.name)

    def check_run(self, results: list[RoundResult], tally: Tally) -> dict:
        """Pool every round's estimate of a point and test it against the
        reference at SIGMA combined standard errors."""
        pooled: dict[tuple[str, str], list] = {}
        for res in results:
            for r in res.data["rows"]:
                pooled.setdefault((r.label, pkey(r.p)), []).append(r)
        worst = 0.0
        for (label, key), rows in sorted(pooled.items()):
            ref = self.refs[label][key]
            if ref["sd_dof"] == 0.0:
                continue  # exact endpoint, checked per round
            k = rows[0].k
            n = sum(r.trials for r in rows)
            mean = sum(r.mean * r.trials for r in rows) / n
            se = math.hypot(ref["sd_dof"] / k / math.sqrt(n), ref["stderr"])
            z = abs(mean - ref["mean"]) / se
            worst = max(worst, z)
            tally.check(
                z <= SIGMA,
                f"{label} p={key}: pooled mean {mean:.5f} is {z:.1f} sigma from reference {ref['mean']:.5f}",
            )
        return {"worst_sigma": worst}


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_table(rows, table, tally: Tally, name: str) -> None:
    """Winner per p is the largest mean; ties lie within two combined
    standard errors of it."""
    by_p: dict[float, list] = {}
    for r in rows:
        by_p.setdefault(r.p, []).append(r)
    tally.check(
        [t.p for t in table] == sorted(by_p),
        f"{name}: winner table covers {len(table)} of {len(by_p)} grid points",
    )
    for t in table:
        cands = by_p.get(t.p, [])
        top = max((r.mean for r in cands), default=None)
        winner = next((r for r in cands if r.label == t.best), None)
        ties = {
            r.label
            for r in cands
            if winner is not None
            and r is not winner
            and winner.mean - r.mean <= 2.0 * math.hypot(winner.stderr, r.stderr)
        }
        tally.check(
            winner is not None and winner.mean == top and t.mean == top and set(t.ties) == ties,
            f"{name}: winner table row p={t.p} names {t.best} with ties {t.ties}",
        )


def _check_csv(rows, records: list[list[str]], tally: Tally, name: str) -> None:
    ok = bool(records) and records[0] == CSV_HEADER and len(records) == len(rows) + 1
    if ok:
        for r, rec in zip(rows, records[1:]):
            ok = ok and (
                rec[1] == r.label
                and int(rec[2]) == r.k
                and int(rec[5]) == r.trials
                and int(rec[6]) == r.seed
                and math.isclose(float(rec[0]), r.p, rel_tol=1e-5, abs_tol=1e-12)
                and math.isclose(float(rec[7]), r.mean, rel_tol=1e-5, abs_tol=1e-12)
                and math.isclose(float(rec[8]), r.stderr, rel_tol=1e-5, abs_tol=1e-12)
            )
    tally.check(ok, f"{name}: sweep CSV does not match the rows")


class CertifyWorkload:
    """Exact expectation at K=8 plus exhaustive certification at K=3..6.

    Certification runs every erasure pattern against the two family
    members and a few seeded random assignments: greedy schedule, brute
    force optimum, generic gains, beamforming weights, numeric zero
    forcing.
    """

    name = "exact_certify"
    tag = 3

    def __init__(self, random_per_k: int = 4):
        self.random_per_k = random_per_k

    def setup(self, refs: dict, out_dir) -> None:
        self.refs = refs["certify"]
        self.patterns = {k: all_patterns(k) for k in CERTIFY_KS}
        self.family = {
            k: [assignment.build_assignment(k, f) for f in CERTIFY_FAMILY_FS] for k in CERTIFY_KS
        }
        self.exact_family = {fkey(f): assignment.build_assignment(EXACT_K, f) for f in CERTIFY_FAMILY_FS}
        for f in self.exact_family:
            missing = [p for p in EXACT_P_GRID if pkey(p) not in self.refs["exact"][f]]
            if missing:
                raise ValueError(f"{self.name}: no exact reference for f={f} at p={missing[:3]}")

    def inputs(self, seed: int, round_index: int) -> dict:
        rng = np.random.default_rng(bench_seed(seed, self.tag, round_index))
        randoms = {
            k: [assignment.random_assignment(k, rng) for _ in range(self.random_per_k)]
            for k in CERTIFY_KS
        }
        # One exact call per family member, so every round does the same
        # exact work; the call's cost does not depend on p.
        exact = [(f, float(rng.choice(EXACT_P_GRID))) for f in sorted(self.exact_family)]
        return {"randoms": randoms, "exact": exact, "gain_seed": int(rng.integers(0, 2**62))}

    def run_round(self, inputs: dict) -> RoundResult:
        points = array("d")
        totals = {}  # (k, family index) -> (greedy sum, optimum sum)
        counts = {"instances": 0, "gaps": 0, "unsound": 0}
        gain_seed = inputs["gain_seed"]
        exact_values = []
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        for k in CERTIFY_KS:
            members = self.family[k] + inputs["randoms"][k]
            for ai, a in enumerate(members):
                greedy_sum = best_sum = 0
                for r in self.patterns[k]:
                    ts = time.perf_counter()
                    s = scheduler.schedule_network(r, a)
                    best = oracle.optimal_zero_forcing_dof(r, a)
                    rg = network.attach_generic_coefficients(r, gain_seed)
                    gain_seed += 1
                    plan = scheduler.build_transmit_signals(s, rg)
                    report = scheduler.verify_zero_forcing(plan, s, rg)
                    points.append(time.perf_counter() - ts)
                    greedy = len(s.delivered)
                    greedy_sum += greedy
                    best_sum += best
                    counts["instances"] += 1
                    counts["gaps"] += best > greedy
                    counts["unsound"] += best < greedy or not report.passed
                if ai < len(self.family[k]):
                    totals[(k, ai)] = (greedy_sum, best_sum)
        for f, p in inputs["exact"]:
            value = oracle.exact_expected_dof(EXACT_K, p, self.exact_family[f], deactivate_last=True)
            exact_values.append((f, p, value))
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        data = {"totals": totals, "counts": counts, "exact": exact_values}
        return RoundResult(wall, cpu, counts["instances"], points, data)

    def check_round(self, result: RoundResult, tally: Tally) -> None:
        counts = result.data["counts"]
        tally.add(
            counts["instances"],
            counts["unsound"],
            f"{self.name}: {counts['unsound']} instances with optimum below greedy or failed zero forcing",
        )
        for (k, ai), (greedy_sum, best_sum) in sorted(result.data["totals"].items()):
            f = fkey(CERTIFY_FAMILY_FS[ai])
            ref = self.refs["family_totals"][str(k)][f]
            tally.check(
                [greedy_sum, best_sum] == ref,
                f"K={k} f={f}: greedy/optimum totals {[greedy_sum, best_sum]} != reference {ref}",
            )
        for f, p, value in result.data["exact"]:
            ref = self.refs["exact"][f][pkey(p)]
            tally.check(
                abs(value - ref) <= 1e-9,
                f"exact_expected_dof(K={EXACT_K}, f={f}, p={p}) = {value!r}, reference {ref!r}",
            )

    def check_run(self, results: list[RoundResult], tally: Tally) -> dict:
        instances = sum(r.data["counts"]["instances"] for r in results)
        gaps = sum(r.data["counts"]["gaps"] for r in results)
        return {"optimality_gap_frac": gaps / instances, "gap_instances": gaps}


def all_patterns(k: int) -> list:
    """Every erasure pattern of a k-user line, in bit order."""
    links = 2 * k - 1
    return [
        network.NetworkRealization(
            k,
            tuple(bool(bits >> i & 1) for i in range(k)),
            tuple(bool(bits >> (k + i) & 1) for i in range(k - 1)),
        )
        for bits in range(1 << links)
    ]


WORKLOADS = {
    # Headline experiment on a coarse grid: 8 of 9 members have K >= 99,
    # so partition and decision pass dominate each trial. Every workload
    # is serial: on a host with few cores a process pool's timings follow
    # the host's scheduler more than the program (README).
    "mc_family": MonteCarloWorkload(
        "mc_family", 1, FAMILY, p_step=0.1, trials=100, share_realizations=True,
    ),
    # K=5 on the fine grid: seed derivation and sampling dominate each
    # trial, the decision pass is tiny, and 202 short points a round
    # expose per-point overhead. Exact values make every point checkable.
    "mc_k5_grid": MonteCarloWorkload(
        "mc_k5_grid", 2, K5_SPECS, p_step=0.01, trials=100, share_realizations=False,
    ),
    # No sampling and no pool: enumeration, the oracle, exact expectation
    # and beamforming do the work, one realization at a time.
    "exact_certify": CertifyWorkload(),
}
